#!/bin/sh
# Tier-1 gate: dune-file formatting, full build (library + CLI +
# examples + the end-to-end benchmark), the complete test suite, the
# end-to-end benchmark's smoke run, a bench-serve load-generator
# smoke, generator, engine, runtime, trace and experiment determinism
# smokes (the engine's: two timing runs, each in two processes, with
# byte-identical event traces; the runtime's: two compressed
# executions, block and line granularity, each in two processes, same
# checksum, byte-identical event traces, and flushes and patch-backs
# reported; in both, a run without --trace-out prints the same report
# as one with it), a
# fleet sweep smoke (parallel run against a cold cache, then the same
# sweep warm — the second run must be served entirely from cache and
# print identical tables), a fuel smoke (a sweep job given exactly as
# much fuel as its event trace has lines completes, one unit less and
# it fails with the fuel message; so does one given 10 units, and one
# with ample fuel completes), and a
# service smoke (real daemon on a Unix socket: serve, call —
# sequential and pipelined — counters move, SIGTERM drains to exit 0).
# `make check` runs this script.
set -eu
cd "$(dirname "$0")/.."
ccomp=_build/default/bin/ccomp.exe
dune build @fmt
dune build @all
dune runtest

# End-to-end benchmark smoke: every workload for about a second, plain
# and traced, with its output checks — design-space metrics
# consistency and pass-to-pass determinism, every served key equal to
# a direct Fleet.Job.execute, kernel checksums — and the metric names
# against BENCHMARK.json. Exits non-zero if any check fails.
dune exec e2ebench/main.exe -- --smoke

# bench-serve smoke: the standalone load generator must run clean
# (exit 0 means zero protocol errors) and report a throughput figure.
dune exec bin/ccomp.exe -- bench-serve --smoke | grep -q 'req/s' || {
  echo "check: FAIL — bench-serve --smoke reported no throughput" >&2
  exit 1
}

# Generator determinism: the same gen: spec must print the same
# canonical form and identical image/trace digests across two separate
# processes (the cache-key contract), and a non-canonical spelling
# must canonicalize.
gen_dir=$(mktemp -d)
"$ccomp" gen 'gen:fanout=3,seed=9,blocks=bim:4-40' > "$gen_dir/a.out"
"$ccomp" gen 'gen:seed=9,fanout=3,blocks=bim:4-40' > "$gen_dir/b.out"
if ! cmp -s "$gen_dir/a.out" "$gen_dir/b.out"; then
  echo "check: FAIL — ccomp gen is not deterministic across processes" >&2
  diff "$gen_dir/a.out" "$gen_dir/b.out" >&2 || true
  exit 1
fi
grep -q 'spec: gen:seed=9,depth=2,fanout=3,blocks=bim:4-40,calls=1,skew=0.9,cold=8,rounds=8' \
  "$gen_dir/a.out" || {
  echo "check: FAIL — ccomp gen did not canonicalize the spec" >&2
  cat "$gen_dir/a.out" >&2
  exit 1
}
rm -rf "$gen_dir"

# Engine determinism: two timing runs, each in two separate processes,
# must write byte-identical, non-empty event traces — plain on-demand,
# and a pre-single/recompress/budget/clock run that reaches prefetches,
# recompression and budget evictions. The engine builds events only
# for a listener, so the on-demand run without --trace-out must print
# the same report, apart from the "event trace written" line.
sim_dir=$(mktemp -d)
"$ccomp" sim fsm -k 2 > "$sim_dir/od.quiet.out"
for i in 1 2; do
  "$ccomp" sim fsm -k 2 --trace-out "$sim_dir/od.$i.jsonl" > "$sim_dir/od.$i.out"
  "$ccomp" sim dijkstra -k 4 --strategy pre-single --predictor last-taken \
    --lookahead 2 --budget 120 --recompress --retention clock \
    --trace-out "$sim_dir/mix.$i.jsonl" > /dev/null
done
for t in od mix; do
  if [ ! -s "$sim_dir/$t.1.jsonl" ] \
    || ! cmp -s "$sim_dir/$t.1.jsonl" "$sim_dir/$t.2.jsonl"; then
    echo "check: FAIL — engine event traces ($t) are empty or differ across processes" >&2
    exit 1
  fi
done
grep -v '^event trace written' "$sim_dir/od.1.out" > "$sim_dir/od.traced.out"
if ! cmp -s "$sim_dir/od.traced.out" "$sim_dir/od.quiet.out"; then
  echo "check: FAIL — ccomp sim fsm reports differ with and without --trace-out" >&2
  diff "$sim_dir/od.traced.out" "$sim_dir/od.quiet.out" >&2 || true
  exit 1
fi
rm -rf "$sim_dir"

# Runtime determinism: two compressed executions of life at k=2 — block
# granularity with k-edge retention, and clock retention over 32-byte
# lines — each in two separate processes, must match the reference
# checksum every time and write byte-identical, non-empty event traces.
# The runtime builds events only for a sink, so the block run without
# --trace-out must print the same report, apart from the "event trace
# written" line.
run_dir=$(mktemp -d)
"$ccomp" run life -k 2 > "$run_dir/block.quiet.out"
for i in 1 2; do
  "$ccomp" run life -k 2 \
    --trace-out "$run_dir/block.$i.jsonl" > "$run_dir/block.$i.out"
  "$ccomp" run life -k 2 --retention clock --line-size 32 \
    --trace-out "$run_dir/line.$i.jsonl" > "$run_dir/line.$i.out"
  for t in block line; do
    grep -q 'matches reference' "$run_dir/$t.$i.out" || {
      echo "check: FAIL — ccomp run life ($t) did not match its reference" >&2
      cat "$run_dir/$t.$i.out" >&2
      exit 1
    }
  done
done
# Both runs must also take the runtime's rare paths: each recycles the
# copy window (flushes), and the clock run over lines patches sites
# back (unpatches). The block run at k=2 reports 0 unpatches: there,
# every copy holding a patched jump dies before the jump's target.
require_nonzero() {
  grep -Eq "$2: [1-9]" "$run_dir/$1.1.out" || {
    echo "check: FAIL — ccomp run life ($1) reports no $2" >&2
    cat "$run_dir/$1.1.out" >&2
    exit 1
  }
}
require_nonzero block flushes
require_nonzero line flushes
require_nonzero line unpatches
for t in block line; do
  if [ ! -s "$run_dir/$t.1.jsonl" ] \
    || ! cmp -s "$run_dir/$t.1.jsonl" "$run_dir/$t.2.jsonl"; then
    echo "check: FAIL — runtime event traces ($t) are empty or differ across processes" >&2
    exit 1
  fi
done
grep -v '^event trace written' "$run_dir/block.1.out" > "$run_dir/block.traced.out"
if ! cmp -s "$run_dir/block.traced.out" "$run_dir/block.quiet.out"; then
  echo "check: FAIL — ccomp run life reports differ with and without --trace-out" >&2
  diff "$run_dir/block.traced.out" "$run_dir/block.quiet.out" >&2 || true
  exit 1
fi
rm -rf "$run_dir"

# E20 smoke: a small generated corpus through the fleet cache, cold
# then warm — the warm run must be served entirely from cache.
e20_dir=$(mktemp -d)
e20="env CCOMP_E20_COUNT=8 $ccomp experiments E20 --jobs 2 --cache-dir $e20_dir/cache"
$e20 > "$e20_dir/cold.out"
$e20 > "$e20_dir/warm.out"
grep -q 'corpus-robustness' "$e20_dir/cold.out" || {
  echo "check: FAIL — E20 did not render" >&2
  cat "$e20_dir/cold.out" >&2
  exit 1
}
grep '^fleet:' "$e20_dir/warm.out" | grep -q 'engine_runs=0' || {
  echo "check: FAIL — warm E20 re-ran the engine" >&2
  grep '^fleet:' "$e20_dir/warm.out" >&2 || true
  exit 1
}
rm -rf "$e20_dir"

# Binary-trace smoke: generate a text trace, convert it to binary and
# back; both hops must load to byte-identical id streams, and `trace
# info` must parse the binary header.
trace_dir=$(mktemp -d)
"$ccomp" trace gen dijkstra --out "$trace_dir/t.txt" > /dev/null
"$ccomp" trace convert "$trace_dir/t.txt" "$trace_dir/t.bin" --lzss > /dev/null
"$ccomp" trace convert "$trace_dir/t.bin" "$trace_dir/t2.txt" --to text \
  > /dev/null
if ! cmp -s "$trace_dir/t.txt" "$trace_dir/t2.txt"; then
  echo "check: FAIL — trace text->binary->text round trip is not identical" >&2
  exit 1
fi
ids=$(($(wc -l < "$trace_dir/t.txt") - 1))
"$ccomp" trace info "$trace_dir/t.bin" | grep -q "ids: *$ids\$" || {
  echo "check: FAIL — trace info did not report $ids ids" >&2
  exit 1
}
rm -rf "$trace_dir"

# Pareto smoke: the energy/cycles sweep (E18, ~2s) must run and
# report at least one workload whose energy-optimal k differs from
# its cycles-optimal k — the reason the energy dimension exists.
pareto_out=$(dune exec bin/ccomp.exe -- experiments E18 --jobs 2)
echo "$pareto_out" | grep -q 'yes' || {
  echo "check: FAIL — E18 reports no energy/cycles divergence" >&2
  echo "$pareto_out" >&2
  exit 1
}

# Line-granularity smoke: E19 (the compressed-I-cache scenario) must
# render its line-vs-block comparison for every suite workload, and a
# second run must be byte-identical (deterministic tables).
e19_a=$(dune exec bin/ccomp.exe -- experiments E19 --jobs 2)
e19_b=$(dune exec bin/ccomp.exe -- experiments E19 --jobs 2)
if [ "$e19_a" != "$e19_b" ]; then
  echo "check: FAIL — E19 is not deterministic across runs" >&2
  exit 1
fi
suite=$("$ccomp" workloads | wc -l)
block_rows=$(printf '%s\n' "$e19_a" | grep -c ' block ' || true)
if [ "$block_rows" -ne "$suite" ]; then
  echo "check: FAIL — E19 has $block_rows block-granularity rows for $suite workloads" >&2
  exit 1
fi

# Fuel smoke: fuel counts a job's simulation events, though the sweep
# builds none. With E the line count of the same job's event trace, a
# sweep job given E units must exit 0; given E-1, or 10, it must fail
# with the fuel message and exit 1; given ample fuel it must exit 0.
fuel_dir=$(mktemp -d)
"$ccomp" sim fsm -k 2 --trace-out "$fuel_dir/fsm.jsonl" > /dev/null
events=$(wc -l < "$fuel_dir/fsm.jsonl" | tr -d ' ')
rm -rf "$fuel_dir"
"$ccomp" sweep fsm --ks 2 --no-cache --fuel "$events" > /dev/null || {
  echo "check: FAIL — sweep with fuel = its $events events did not complete" >&2
  exit 1
}
for fuel in $((events - 1)) 10; do
  fuel_rc=0
  fuel_out=$("$ccomp" sweep fsm --ks 2 --no-cache --fuel "$fuel" 2>&1) \
    || fuel_rc=$?
  if [ "$fuel_rc" -ne 1 ] \
    || ! printf '%s\n' "$fuel_out" \
      | grep -q "fuel exhausted after $fuel ticks"; then
    echo "check: FAIL — sweep --fuel $fuel exited $fuel_rc without the fuel error" >&2
    printf '%s\n' "$fuel_out" >&2
    exit 1
  fi
done
"$ccomp" sweep fsm --ks 2 --no-cache --fuel 100000000 > /dev/null || {
  echo "check: FAIL — sweep with ample fuel did not complete" >&2
  exit 1
}

# On any exit, stop the service smoke's daemon if it is still running
# (it has no idle timeout), then remove the scratch directory.
cache_dir=$(mktemp -d)
serve_pid=
cleanup() {
  if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2>/dev/null; then
    kill "$serve_pid" 2>/dev/null || true
  fi
  rm -rf "$cache_dir"
}
trap cleanup EXIT
sweep="dune exec bin/ccomp.exe -- sweep fir crc32 --ks 2,8 --jobs 2 --cache-dir $cache_dir"
$sweep > "$cache_dir/cold.out"
$sweep > "$cache_dir/warm.out"
grep '^fleet:' "$cache_dir/warm.out" | grep -q 'engine_runs=0' || {
  echo "check: FAIL — warm sweep re-ran the engine" >&2
  grep '^fleet:' "$cache_dir/warm.out" >&2
  exit 1
}
grep -v '^fleet:' "$cache_dir/cold.out" > "$cache_dir/cold.tbl"
grep -v '^fleet:' "$cache_dir/warm.out" > "$cache_dir/warm.tbl"
if ! diff "$cache_dir/cold.tbl" "$cache_dir/warm.tbl" > /dev/null; then
  echo "check: FAIL — warm sweep tables differ from cold run" >&2
  exit 1
fi

# Service smoke: a real daemon end to end over a Unix socket.
sock="$cache_dir/serve.sock"
"$ccomp" serve --socket "$sock" --jobs 2 --cache-dir "$cache_dir/serve-cache" \
  > "$cache_dir/serve.out" 2>&1 &
serve_pid=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "check: FAIL — serve never bound its socket" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done
"$ccomp" call --socket "$sock" health > "$cache_dir/health.out"
grep -q '"status": "ok"' "$cache_dir/health.out" || {
  echo "check: FAIL — health did not answer ok" >&2
  exit 1
}
"$ccomp" call --socket "$sock" sim fir -k 4 > "$cache_dir/sim.out"
grep -q '"total_cycles"' "$cache_dir/sim.out" || {
  echo "check: FAIL — sim returned no metrics" >&2
  exit 1
}
"$ccomp" call --socket "$sock" stats > "$cache_dir/stats.out"
grep -q '"count": 1' "$cache_dir/stats.out" || {
  echo "check: FAIL — stats counters did not move" >&2
  exit 1
}
# call takes every run setting sim does, line size included
"$ccomp" call --socket "$sock" sim fir -k 4 --line-size 32 \
  > "$cache_dir/sim-line.out"
grep -q '"total_cycles"' "$cache_dir/sim-line.out" || {
  echo "check: FAIL — line-granular sim through call returned no metrics" >&2
  exit 1
}
# malformed input answers a structured error and exit 1, not a crash
if "$ccomp" call --socket "$sock" --raw 'not json' > /dev/null 2>&1; then
  echo "check: FAIL — malformed request did not error" >&2
  exit 1
fi
# the connection-killing request above must not have killed the daemon
"$ccomp" call --socket "$sock" health > /dev/null
# pipelined calls: 8 healths on one connection, all ok (exit 0), all
# eight replies printed
pipe_lines=$("$ccomp" call --socket "$sock" --compact \
  --repeat 8 --pipeline 8 health | wc -l)
if [ "$pipe_lines" -ne 8 ]; then
  echo "check: FAIL — call --repeat 8 printed $pipe_lines replies" >&2
  exit 1
fi
# prune the cache the daemon just populated
"$ccomp" cache --dir "$cache_dir/serve-cache" --stats \
  | grep -q '2 entries' || {
  echo "check: FAIL — serve did not populate its cache" >&2
  exit 1
}
"$ccomp" cache --dir "$cache_dir/serve-cache" --prune-to 0 \
  | grep -q ': 0 entries, 0 bytes' || {
  echo "check: FAIL — cache --prune-to 0 left entries behind" >&2
  exit 1
}
# SIGTERM: drain and exit 0 within the grace window
kill -TERM "$serve_pid"
serve_rc=0
wait "$serve_pid" || serve_rc=$?
serve_pid=
if [ "$serve_rc" -ne 0 ]; then
  echo "check: FAIL — serve exited $serve_rc after SIGTERM" >&2
  cat "$cache_dir/serve.out" >&2
  exit 1
fi
grep -q 'drained' "$cache_dir/serve.out" || {
  echo "check: FAIL — serve did not report a drain" >&2
  exit 1
}

echo "check: OK"
