#!/usr/bin/env python3
"""Collect, check and compare runs of the end-to-end benchmark.

  compare.py collect --out DIR [--runs N] [--seed-base S] [--trace 0|1]
                     [--seconds T] [--workload W ...]
      Runs the benchmark command from BENCHMARK.json once per workload
      and seed, from the root of the checkout, and saves each run's
      standard output as DIR/<workload>.<seed>.out.

  compare.py spread DIR
      Per workload and end-to-end metric: median, quartiles and the
      interquartile range as a share of the median, against a third of
      the metric's bound (the benchmark's own steadiness target).

  compare.py diff PARENT_DIR CHANGE_DIR
      The no-regression and gain rules: per workload and metric, each
      side's median and quartiles, the fraction of seed-matched pairs
      the change wins, and a verdict: regressed, improved, unchanged or
      unresolved (the parent's own spread is wider than the bound).
      Flags any model_digest that differs between the sides for a seed.
      Exits 1 when anything regressed or a digest differs.

  compare.py snapshot --out FILE DIR [DIR ...]
      One JSON file with the machine fingerprint and, per result set,
      workload and metric: median, p10, p90, quartiles, n and the values.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_table(s):
    return {m["name"]: m for m in s["end_to_end"] + s["per_layer"]}


def parse_run(path):
    """(workload, seed, digest, fingerprint, result) of one saved run."""
    with open(path) as f:
        lines = f.read().splitlines()
    digest = fingerprint = None
    for line in lines:
        if line.startswith("model_digest "):
            digest = line.split(" ", 1)[1]
        elif line.startswith("fingerprint "):
            fingerprint = json.loads(line.split(" ", 1)[1])
    name = os.path.basename(path)[: -len(".out")]
    workload, seed = name.rsplit(".", 1)
    return workload, int(seed), digest, fingerprint, json.loads(lines[-1])


def load(directory):
    """{workload: {seed: (digest, fingerprint, result)}}"""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".out"):
            w, seed, digest, fp, result = parse_run(os.path.join(directory, name))
            runs.setdefault(w, {})[seed] = (digest, fp, result)
    return runs


def values(runs, metric):
    return [r[2]["metrics"][metric]["value"] for _, r in sorted(runs.items())
            if metric in r[2]["metrics"]]


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0]) if xs else (0.0, 0.0, 0.0)
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def percentile(xs, p):
    xs = sorted(xs)
    if not xs:
        return 0.0
    x = p * (len(xs) - 1)
    i = int(x)
    return xs[-1] if i >= len(xs) - 1 else xs[i] + (x - i) * (xs[i + 1] - xs[i])


def collect(args):
    s = spec()
    os.makedirs(args.out, exist_ok=True)
    workloads = args.workload or [w["name"] for w in s["workloads"]]
    seconds = args.seconds or s["run_seconds"]
    for i in range(args.runs):
        seed = args.seed_base + i
        for w in workloads:
            cmd = s["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            with open(os.path.join(args.out, "%s.%d.out" % (w, seed)), "w") as f:
                f.write(p.stdout)
            last = p.stdout.strip().splitlines()[-1:] or [""]
            print("%-18s seed %-4d exit %d %s" % (w, seed, p.returncode, last[0][:100]), flush=True)
            if p.returncode != 0:
                sys.exit("run failed: " + " ".join(cmd))


def spread(args):
    s = spec()
    runs = load(args.dir)
    worst = 0.0
    for w in sorted(runs):
        for m in s["end_to_end"]:
            xs = values(runs[w], m["name"])
            q1, med, q3 = quartiles(xs)
            rel = (q3 - q1) / med if med else float("inf")
            target = m["bound"] / 3
            flag = "" if m["name"] == "setup_s" or rel < target else "  ABOVE bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, rel / target)
            print("%-18s %-12s n %2d median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% (bound/3 %5.2f%%)%s"
                  % (w, m["name"], len(xs), med, q1, q3, 100 * rel, 100 * target, flag))
    print("worst spread / (bound/3): %.2f" % worst)


def verdict(m, parent, change, pairs):
    """§8: regressed / improved / unchanged / unresolved."""
    sign = 1.0 if m.get("better") == "lower" else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    worse = sign * (cmed - pmed) / pmed if pmed else 0.0
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    all_better = parent and change and all(sign * (c - p) < 0 for p in parent for c in change)
    bound = m.get("bound")
    if win_frac >= 0.9 and abs(cmed - pmed) > (pq3 - pq1):
        return "improved", win_frac, worse
    if bound is None:
        return "unchanged", win_frac, worse
    if pmed and (pq3 - pq1) / pmed > bound and not all_better:
        return "unresolved", win_frac, worse
    if worse > bound:
        return "regressed", win_frac, worse
    return "unchanged", win_frac, worse


def diff(args):
    table = metric_table(spec())
    parent, change = load(args.parent), load(args.change)
    bad = False
    for w in sorted(set(parent) | set(change)):
        p, c = parent.get(w, {}), change.get(w, {})
        for seed in sorted(set(p) & set(c)):
            if p[seed][0] != c[seed][0]:
                bad = True
                print("%-18s seed %d: model_digest DIFFERS (%s vs %s)" % (w, seed, p[seed][0], c[seed][0]))
        names = sorted(set().union(*(r[2]["metrics"] for r in list(p.values()) + list(c.values()))))
        for name in names:
            m = table.get(name, {"name": name})
            pv, cv = values(p, name), values(c, name)
            pairs = [(p[s][2]["metrics"][name]["value"], c[s][2]["metrics"][name]["value"])
                     for s in sorted(set(p) & set(c))
                     if name in p[s][2]["metrics"] and name in c[s][2]["metrics"]]
            v, win, worse = verdict(m, pv, cv, pairs)
            bad = bad or v == "regressed"
            pq, cq = quartiles(pv), quartiles(cv)
            print("%-18s %-40s parent %-11.5g [%-11.5g %-11.5g] change %-11.5g [%-11.5g %-11.5g] "
                  "worse %+7.2f%% wins %3.0f%% %s"
                  % (w, name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], 100 * worse, 100 * win, v))
    sys.exit(1 if bad else 0)


def snapshot(args):
    table = metric_table(spec())
    out = {"fingerprint": None, "sets": []}
    for d in args.dirs:
        runs = load(d)
        entry = {}
        for w in sorted(runs):
            for digest, fp, result in runs[w].values():
                out["fingerprint"] = out["fingerprint"] or fp
            entry[w] = {}
            names = sorted(set().union(*(r[2]["metrics"] for r in runs[w].values())))
            for name in names:
                xs = values(runs[w], name)
                q1, med, q3 = quartiles(xs)
                entry[w][name] = {
                    "median": med, "p10": percentile(xs, 0.1), "p90": percentile(xs, 0.9),
                    "q1": q1, "q3": q3, "n": len(xs),
                    "unit": table.get(name, {}).get("unit", ""), "values": xs,
                }
            entry[w]["model_digest"] = {str(seed): r[0] for seed, r in sorted(runs[w].items())}
        out["sets"].append(entry)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=5)
    c.add_argument("--seed-base", type=int, default=1)
    c.add_argument("--trace", type=int, default=0, choices=[0, 1])
    c.add_argument("--seconds", type=int)
    c.add_argument("--workload", action="append")
    c.set_defaults(func=collect)
    s = sub.add_parser("spread")
    s.add_argument("dir")
    s.set_defaults(func=spread)
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    d.set_defaults(func=diff)
    n = sub.add_parser("snapshot")
    n.add_argument("--out", required=True)
    n.add_argument("dirs", nargs="+")
    n.set_defaults(func=snapshot)
    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
