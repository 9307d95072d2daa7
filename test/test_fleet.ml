(* Tests for the fleet: job keys, the domain pool's ordering and crash
   isolation, the content-addressed cache, and the load-bearing
   guarantee — a parallel cached sweep is byte-identical to a
   sequential uncached one. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* Job keys                                                            *)

let job ?codec ?strategy ?mode ?budget ?retention ?profile ?line_size
    ?(scenario = "fir") ?(k = 8) () =
  Fleet.Job.make ?codec ?strategy ?mode ?budget ?retention ?profile ?line_size
    ~scenario ~k ()

let test_key_stable () =
  checks "equal specs equal keys" (Fleet.Job.key (job ()))
    (Fleet.Job.key (job ()));
  let base = Fleet.Job.key (job ()) in
  let variants =
    [
      job ~scenario:"crc32" ();
      job ~k:4 ();
      job ~codec:"lzss" ();
      job ~strategy:(Fleet.Job.Pre_all { lookahead = 2 }) ();
      job ~strategy:(Fleet.Job.Pre_single { lookahead = 2; predictor = "profile" }) ();
      job ~mode:Fleet.Job.Recompress ();
      job ~budget:512 ();
      job ~retention:Fleet.Job.Clock ();
      job ~retention:(Fleet.Job.Loop_aware { weight = 2 }) ();
      job ~retention:(Fleet.Job.Pin_hot { fraction = 0.5 }) ();
      job ~profile:"cortex-m-flash" ();
      job ~profile:"sram-heavy" ();
      job ~line_size:32 ();
      job ~line_size:64 ();
    ]
  in
  List.iter
    (fun j -> checkb "every field feeds the key" true (Fleet.Job.key j <> base))
    variants;
  let keys = List.map Fleet.Job.key variants in
  checki "variant keys distinct"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* Literal keys of representative specs. A key that moves orphans
   every existing .ccomp-cache/ entry for that spec, so however jobs
   come to be built, these must keep matching. *)
let key_fixture =
  let open Fleet.Job in
  [
    (job (), "v5-eeddd93ffa1c81c8c6caddc38d1c3610");
    (job ~scenario:"crc32" ~codec:"lzss" ~k:4 (), "v5-d9d0a13d859e934ccae592ffd61f3ea0");
    (job ~strategy:(Pre_all { lookahead = 2 }) (), "v5-987d525b1044ba1ce109fd28d15d129c");
    ( job ~strategy:(Pre_single { lookahead = 2; predictor = "profile" }) (),
      "v5-292a6aa62d2096c15931d41be4d04b35" );
    ( job ~strategy:(Pre_single { lookahead = 3; predictor = "last-taken" }) (),
      "v5-ae5cb87982b6c87b01fe93041c223e61" );
    ( job ~strategy:(Pre_single { lookahead = 1; predictor = "first" }) (),
      "v5-dd438631ac2a4ed30a6e54097a21ed1d" );
    (job ~mode:Recompress (), "v5-15c3f39674297bc88460346fcf94b9ea");
    (job ~budget:512 (), "v5-0ac3eb322d8174f89dc83dbfa63d387c");
    (job ~retention:Clock (), "v5-3cade2a4e6c9fab11d23fd816cc1e3dd");
    (job ~retention:(Loop_aware { weight = 1 }) (), "v5-1636337e7ed52759c89b3dcb8c9d3c70");
    (job ~retention:(Loop_aware { weight = 2 }) (), "v5-37b2d32e9c19deb1eeaec0f092b0f300");
    (job ~retention:(Pin_hot { fraction = 0.5 }) (), "v5-1a9f125dc7435684aa1655d45ec98487");
    (job ~profile:"cortex-m-flash" (), "v5-0041d1d1dc0b3fac140c6499cf17df75");
    (job ~profile:"sram-heavy" (), "v5-03c754220485d69a4cc24862cd584126");
    (job ~codec:"bdi-32" ~line_size:32 (), "v5-9d461a761e718cc3dad7078e6878125c");
    ( job ~k:2
        ~scenario:
          "gen:seed=7,depth=2,fanout=3,blocks=geo:12,calls=1,skew=0.9,cold=8,rounds=8"
        (),
      "v5-126f66c4cd81294eed6615d7ce069699" );
  ]

let test_key_fixture () =
  List.iter
    (fun (j, key) -> checks (Fleet.Job.canonical j) key (Fleet.Job.key j))
    key_fixture

(* ------------------------------------------------------------------ *)
(* Settings table                                                      *)

(* The parameters a choice brings with it: the settings table is the
   one place each of these defaults is declared. *)
let test_settings_defaults () =
  let open Fleet.Settings in
  let base = base ~scenario:"fir" in
  checks "base is Job.make's defaults" (Fleet.Job.key (job ()))
    (Fleet.Job.key base);
  let strategy_of name = (strategy.set name base).strategy in
  let retention_of name = (retention.set name base).retention in
  checkb "pre-all looks 2 ahead" true
    (strategy_of "pre-all" = Fleet.Job.Pre_all { lookahead = 2 });
  checkb "pre-single looks 2 ahead by profile" true
    (strategy_of "pre-single"
    = Fleet.Job.Pre_single { lookahead = 2; predictor = "profile" });
  checkb "loop-aware defaults to weight 1" true
    (retention_of "loop-aware" = Fleet.Job.Loop_aware { weight = 1 });
  checkb "pin-hot defaults to half the visits" true
    (retention_of "pin-hot" = Fleet.Job.Pin_hot { fraction = 0.5 })

let test_settings_messages () =
  let open Fleet.Settings in
  let message = function Ok _ -> "accepted" | Error m -> m in
  checks "k" "must be >= 1 (got 0)" (message (parse k "0"));
  checks "not a number" {|expected an integer, got "x"|}
    (message (parse k "x"));
  checks "line size" "must be >= 4 (got 2)" (message (parse line_size "2"));
  checks "fraction" "must be in (0, 1] (got 1.5)"
    (message (parse fraction "1.5"));
  checks "profile"
    {|unknown device profile "nope" (known: paper-2005, cortex-m-flash, sram-heavy)|}
    (message (parse profile "nope"));
  checks "strategy"
    {|unknown strategy "warp" (known: on-demand, pre-all, pre-single)|}
    (message (validate strategy "warp"))

let contains_sub needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_line_size_in_spec () =
  checkb "canonical carries line_size" true
    (contains_sub "line_size=32" (Fleet.Job.canonical (job ~line_size:32 ())));
  checkb "canonical none by default" true
    (contains_sub "line_size=none" (Fleet.Job.canonical (job ())));
  checkb "describe shows line size" true
    (contains_sub " line=32B" (Fleet.Job.describe (job ~line_size:32 ())));
  checkb "describe silent without it" false
    (contains_sub "line=" (Fleet.Job.describe (job ())));
  (* a line-granular job executes through Lineview and preserves the
     execution cycles of the block-granular run *)
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "fir") in
  let block = Fleet.Job.execute sc (job ()) in
  let line = Fleet.Job.execute sc (job ~line_size:32 ()) in
  checki "exec cycles preserved" block.Core.Metrics.exec_cycles
    line.Core.Metrics.exec_cycles;
  checkb "line run really decompressed" true
    (line.Core.Metrics.demand_decompressions > 0)

(* Pin-hot pins blocks; a line-granular run pins the lines they span,
   and none of those lines ever leaves the area. *)
let test_line_pin_hot () =
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "fir") in
  let v = Core.Lineview.view ~line_size:32 sc in
  let pinned_blocks =
    Cfg.Profile.hot_blocks (Core.Scenario.profile sc) ~fraction:0.5
  in
  let pinned = Array.make v.map.Residency.Linemap.nlines false in
  List.iter
    (fun b -> Array.iter (fun l -> pinned.(l) <- true) v.map.of_block.(b))
    pinned_blocks;
  checkb "some line is pinned" true (Array.exists Fun.id pinned);
  let col = Sim.Events.collector () in
  let m =
    Fleet.Job.execute ~sink:(Sim.Events.collecting col) sc
      (job ~k:2 ~line_size:32 ~retention:(Pin_hot { fraction = 0.5 }) ())
  in
  checkb "other lines are discarded" true (m.Core.Metrics.discards > 0);
  List.iter
    (function
      | Sim.Events.Discard { block; _ } | Evict { block; _ } ->
        checkb (Printf.sprintf "line %d is not pinned" block) false
          pinned.(block)
      | _ -> ())
    (Sim.Events.collected col)

(* A line-granular profile predictor predicts from the line trace. *)
let test_line_profile_predictor () =
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "fir") in
  let v = Core.Lineview.view ~line_size:32 sc in
  let direct =
    Core.Engine.run
      ~config:(Core.Config.of_codec sc.codec)
      ~step_cycles:v.step_cycles ~graph:v.graph ~info:v.info ~trace:v.trace
      (Core.Policy.pre_single ~k:4 ~lookahead:2
         ~predictor:(Core.Predictor.By_profile (Cfg.Profile.of_trace v.graph v.trace)))
  in
  let m =
    Fleet.Job.execute sc
      (job ~k:4 ~line_size:32
         ~strategy:(Pre_single { lookahead = 2; predictor = "profile" })
         ())
  in
  checkb "same metrics as a line-trace profile" true (m = direct);
  checkb "it prefetched" true (m.Core.Metrics.prefetch_decompressions > 0)

let test_key_filesystem_safe () =
  String.iter
    (fun c ->
      checkb "key charset" true
        ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = 'v'))
    (Fleet.Job.key (job ()))

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_order () =
  (* Results come back in submission order whatever the completion
     order; identity mapping makes any misplacement visible. *)
  let xs = List.init 40 Fun.id in
  Fleet.Pool.with_pool ~jobs:4 (fun p ->
      let rs = Fleet.Pool.map p (fun _b x -> x * x) xs in
      checki "arity" 40 (List.length rs);
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> checki "slot matches submission" (i * i) v
          | Error e -> Alcotest.failf "job %d failed: %s" i e)
        rs)

let test_pool_crash_isolation () =
  Fleet.Pool.with_pool ~jobs:3 (fun p ->
      let rs =
        Fleet.Pool.map p
          (fun _b x -> if x mod 2 = 0 then failwith "boom" else x)
          [ 0; 1; 2; 3; 4; 5 ]
      in
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> checki "odd survives" i v
          | Error msg ->
            checkb "even crashes, pool survives" true
              (i mod 2 = 0 && String.length msg > 0))
        rs)

let test_pool_fuel () =
  let rs =
    Fleet.Pool.run_sequential ~fuel:100
      (fun b () ->
        for _ = 1 to 1_000_000 do
          Fleet.Pool.tick b 1
        done)
      [ () ]
  in
  match rs with
  | [ Error msg ] ->
    checkb "fuel message" true
      (String.length msg > 0
      && String.sub msg 0 4 = "fuel")
  | _ -> Alcotest.fail "runaway job was not stopped by fuel"

let test_pool_sequential_matches_parallel () =
  let xs = List.init 25 (fun i -> i - 12) in
  let f _b x = if x < 0 then invalid_arg "neg" else x * 3 in
  let seq = Fleet.Pool.run_sequential f xs in
  let par = Fleet.Pool.with_pool ~jobs:5 (fun p -> Fleet.Pool.map p f xs) in
  checkb "identical outcomes" true (seq = par)

let test_pool_rejects_bad_sizes () =
  Alcotest.check_raises "jobs=0"
    (Invalid_argument "Fleet.Pool.create: jobs must be >= 1 (got 0)")
    (fun () -> ignore (Fleet.Pool.create ~jobs:0))

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

(* Every field gets a unique value, so a serializer that drops,
   duplicates or swaps any field cannot round-trip. *)
let exhaustive_metrics : Core.Metrics.t =
  {
    total_cycles = 101;
    exec_cycles = 102;
    exception_cycles = 103;
    patch_cycles = 104;
    demand_dec_cycles = 105;
    stall_cycles = 106;
    baseline_cycles = 107;
    exceptions = 108;
    patches = 109;
    demand_decompressions = 110;
    prefetch_decompressions = 111;
    useful_prefetches = 112;
    wasted_prefetches = 113;
    discards = 114;
    evictions = 115;
    budget_overflows = 116;
    dec_thread_busy_cycles = 117;
    comp_thread_busy_cycles = 118;
    energy_nj = 127;
    exec_energy_nj = 128;
    exception_energy_nj = 129;
    patch_energy_nj = 130;
    dec_energy_nj = 131;
    comp_energy_nj = 132;
    ram_static_energy_nj = 133;
    baseline_energy_nj = 134;
    original_bytes = 119;
    compressed_area_bytes = 120;
    peak_decompressed_bytes = 121;
    avg_decompressed_bytes = 122.0625;
    peak_footprint_bytes = 123;
    avg_footprint_bytes = 124.33333333333333;
    trace_length = 125;
    blocks = 126;
  }

let test_cache_roundtrip_every_field () =
  match Fleet.Cache.metrics_of_string
          (Fleet.Cache.metrics_to_string exhaustive_metrics)
  with
  | Ok m ->
    checkb "all 34 fields round-trip (floats bit-exact)" true
      (m = exhaustive_metrics)
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg

let entry_file dir =
  match
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".metrics")
  with
  | [ f ] -> Filename.concat dir f
  | fs -> Alcotest.failf "expected exactly one entry, got %d" (List.length fs)

let test_cache_store_find () =
  let dir = temp_dir "ccomp-cache" in
  let c = Fleet.Cache.open_dir dir in
  let key = Fleet.Job.key (job ()) in
  checkb "empty cache misses" true (Fleet.Cache.find c key = None);
  Fleet.Cache.store c key exhaustive_metrics;
  checkb "stored entry hits" true
    (Fleet.Cache.find c key = Some exhaustive_metrics);
  checkb "other key still misses" true
    (Fleet.Cache.find c (Fleet.Job.key (job ~k:2 ())) = None);
  checkb "no tmp litter" true
    (Array.for_all
       (fun f -> not (Filename.check_suffix f ".tmp"))
       (Sys.readdir dir))

let test_cache_corrupt_entry_is_miss () =
  let dir = temp_dir "ccomp-cache" in
  let c = Fleet.Cache.open_dir dir in
  let key = Fleet.Job.key (job ()) in
  Fleet.Cache.store c key exhaustive_metrics;
  let path = entry_file dir in
  List.iter
    (fun garbage ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc garbage);
      checkb "corrupt entry is a miss, not an exception" true
        (Fleet.Cache.find c key = None))
    [
      "";  (* truncated to nothing *)
      "total_cycles=1\n";  (* no header *)
      "ccomp-fleet-entry 2\ntotal_cycles=banana\n";  (* bad value *)
      "ccomp-fleet-entry 2\ntotal_cycles=1\n";  (* missing fields *)
      Fleet.Cache.metrics_to_string exhaustive_metrics ^ "intruder=9\n";
      (* unknown extra field *)
      String.concat "\n"
        [ "ccomp-fleet-entry 2"; "total_cycles=1"; "total_cycles=2" ];
      (* duplicate field *)
    ];
  (* and a miss re-stores cleanly *)
  Fleet.Cache.store c key exhaustive_metrics;
  checkb "rewrite after corruption" true
    (Fleet.Cache.find c key = Some exhaustive_metrics)

let test_cache_version_mismatch_is_miss () =
  let dir = temp_dir "ccomp-cache" in
  let c = Fleet.Cache.open_dir dir in
  let key = Fleet.Job.key (job ()) in
  Fleet.Cache.store c key exhaustive_metrics;
  let path = entry_file dir in
  let bumped =
    Printf.sprintf "ccomp-fleet-entry %d" (Fleet.Cache.entry_version + 1)
  in
  let body = In_channel.with_open_text path In_channel.input_all in
  let rewritten =
    match String.index_opt body '\n' with
    | Some i ->
      bumped ^ String.sub body i (String.length body - i)
    | None -> Alcotest.fail "entry has no header line"
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc rewritten);
  checkb "version-bumped entry is ignored" true (Fleet.Cache.find c key = None)

(* A complete, well-formed entry from the previous on-disk format
   (version 1: no energy fields) must read as a miss — never a crash,
   never a stale hit with zeroed dimensions. *)
let test_cache_previous_version_entry_is_miss () =
  let dir = temp_dir "ccomp-cache" in
  let c = Fleet.Cache.open_dir dir in
  let key = Fleet.Job.key (job ()) in
  let v1_entry =
    String.concat "\n"
      [
        "ccomp-fleet-entry 1";
        "total_cycles=101";
        "exec_cycles=102";
        "exception_cycles=103";
        "patch_cycles=104";
        "demand_dec_cycles=105";
        "stall_cycles=106";
        "baseline_cycles=107";
        "exceptions=108";
        "patches=109";
        "demand_decompressions=110";
        "prefetch_decompressions=111";
        "useful_prefetches=112";
        "wasted_prefetches=113";
        "discards=114";
        "evictions=115";
        "budget_overflows=116";
        "dec_thread_busy_cycles=117";
        "comp_thread_busy_cycles=118";
        "original_bytes=119";
        "compressed_area_bytes=120";
        "peak_decompressed_bytes=121";
        "avg_decompressed_bytes=0x1.e84p+6";
        "peak_footprint_bytes=123";
        "avg_footprint_bytes=0x1.f155555555555p+6";
        "trace_length=125";
        "blocks=126";
        "";
      ]
  in
  Out_channel.with_open_text
    (Filename.concat dir (key ^ ".metrics"))
    (fun oc -> Out_channel.output_string oc v1_entry);
  checkb "old-format entry is a miss" true (Fleet.Cache.find c key = None);
  (* and the miss re-stores in the current format *)
  Fleet.Cache.store c key exhaustive_metrics;
  checkb "upgraded in place" true
    (Fleet.Cache.find c key = Some exhaustive_metrics)


let test_cache_stats_and_gc () =
  let dir = temp_dir "ccomp-cache" in
  let c = Fleet.Cache.open_dir dir in
  let empty = Fleet.Cache.stats c in
  checki "empty entries" 0 empty.Fleet.Cache.entries;
  checki "empty bytes" 0 empty.Fleet.Cache.bytes;
  let keys = List.map (fun k -> Fleet.Job.key (job ~k ())) [ 1; 2; 4 ] in
  List.iter (fun key -> Fleet.Cache.store c key exhaustive_metrics) keys;
  (* pin distinct mtimes so "oldest first" is deterministic *)
  let now = Unix.gettimeofday () in
  List.iteri
    (fun i key ->
      let path = Filename.concat dir (key ^ ".metrics") in
      let t = now -. float_of_int (100 - (10 * i)) in
      Unix.utimes path t t)
    keys;
  let full = Fleet.Cache.stats c in
  checki "three entries" 3 full.Fleet.Cache.entries;
  checkb "bytes counted" true (full.Fleet.Cache.bytes > 0);
  let per_entry = full.Fleet.Cache.bytes / 3 in
  (* keep room for exactly one entry: the two oldest must go *)
  let removed = Fleet.Cache.gc c ~max_bytes:per_entry in
  checki "evicted oldest two" 2 removed.Fleet.Cache.entries;
  checki "evicted bytes" (2 * per_entry) removed.Fleet.Cache.bytes;
  (match keys with
  | [ oldest; middle; newest ] ->
    checkb "oldest gone" true (Fleet.Cache.find c oldest = None);
    checkb "middle gone" true (Fleet.Cache.find c middle = None);
    checkb "newest survives" true
      (Fleet.Cache.find c newest = Some exhaustive_metrics)
  | _ -> assert false);
  checki "stats agree after gc" 1 (Fleet.Cache.stats c).Fleet.Cache.entries;
  (* gc to zero empties the cache; negative is a programming error *)
  let removed = Fleet.Cache.gc c ~max_bytes:0 in
  checki "emptied" 1 removed.Fleet.Cache.entries;
  checki "nothing left" 0 (Fleet.Cache.stats c).Fleet.Cache.entries;
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Fleet.Cache.gc: max_bytes must be >= 0 (got -1)")
    (fun () -> ignore (Fleet.Cache.gc c ~max_bytes:(-1)))

(* ------------------------------------------------------------------ *)
(* Pool cancellation                                                   *)

let test_pool_cancel_before_start () =
  let rs =
    Fleet.Pool.run_sequential
      ~cancel:(fun () -> true)
      (fun _b x -> x)
      [ 1; 2; 3 ]
  in
  List.iter
    (fun r -> checkb "cancelled before start" true (r = Error "cancelled"))
    rs

(* The cancel hook is polled whenever the ticked units cross a
   multiple of 256, whatever the batch size. *)
let test_pool_cancel_mid_run step () =
  let ticks = Atomic.make 0 in
  let rs =
    Fleet.Pool.run_sequential
      ~cancel:(fun () -> Atomic.get ticks > 5_000)
      (fun b () ->
        for _ = 1 to 10_000_000 / step do
          ignore (Atomic.fetch_and_add ticks step);
          Fleet.Pool.tick b step
        done)
      [ () ]
  in
  checkb "aborted by the cancel hook" true (rs = [ Error "cancelled" ]);
  checkb "stopped within a poll interval of the hook" true
    (Atomic.get ticks <= 5_000 + 256 + step)

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)

let resolve ~scenario ~codec =
  ignore codec;
  Experiments.Util.scenario scenario

(* Same sweep, different device profiles: the profile is part of the
   content key, so warm runs under another profile must never be
   served from the first profile's entries. *)
let test_cache_profiles_never_share_entries () =
  let dir = temp_dir "ccomp-cache" in
  let cache = Fleet.Cache.open_dir dir in
  let sweep profile registry =
    Fleet.Sweep.run ~cache ~registry ~resolve
      [ job ~profile ~scenario:"fir" ~k:2 () ]
  in
  let paper_reg = Sim.Metrics.create () in
  let _ = sweep "paper-2005" paper_reg in
  let value reg name = Sim.Metrics.value (Sim.Metrics.counter reg name) in
  checki "cold paper-2005 run misses" 1 (value paper_reg "fleet_cache_misses");
  (* Warm under a *different* profile: must miss and run the engine. *)
  let flash_reg = Sim.Metrics.create () in
  let outcomes = sweep "cortex-m-flash" flash_reg in
  checki "other profile is a miss" 1 (value flash_reg "fleet_cache_misses");
  checki "other profile runs the engine" 1
    (value flash_reg "fleet_engine_runs");
  (match outcomes with
  | [ { Fleet.Sweep.result = Ok m; cached = false; _ } ] ->
    checkb "energized profile actually charges energy" true
      (m.Core.Metrics.energy_nj > 0)
  | _ -> Alcotest.fail "expected one uncached Ok outcome");
  (* Warm under the same profile: pure hit. *)
  let warm_reg = Sim.Metrics.create () in
  let _ = sweep "cortex-m-flash" warm_reg in
  checki "same profile hits" 1 (value warm_reg "fleet_cache_hits");
  checki "same profile runs nothing" 0 (value warm_reg "fleet_engine_runs")

let test_sweep_normalize_ks () =
  checkb "sorted and deduped" true
    (Fleet.Sweep.normalize_ks [ 8; 2; 2; 32; 8; 1 ] = [ 1; 2; 8; 32 ]);
  checkb "already-normal input unchanged" true
    (Fleet.Sweep.normalize_ks [ 1; 2; 4 ] = [ 1; 2; 4 ]);
  checkb "empty stays empty" true (Fleet.Sweep.normalize_ks [] = [])

let test_sweep_matrix_order () =
  let jobs =
    Fleet.Sweep.matrix ~scenarios:[ "a"; "b" ] ~ks:[ 1; 2 ] ()
  in
  Alcotest.check
    Alcotest.(list (pair string int))
    "scenarios outer, ks inner"
    [ ("a", 1); ("a", 2); ("b", 1); ("b", 2) ]
    (List.map (fun (j : Fleet.Job.t) -> (j.scenario, j.k)) jobs)

let test_sweep_matrix_line_sizes () =
  let jobs =
    Fleet.Sweep.matrix ~scenarios:[ "a" ] ~ks:[ 1 ]
      ~line_sizes:[ None; Some 16; Some 64 ] ()
  in
  Alcotest.check
    Alcotest.(list (option int))
    "line sizes innermost"
    [ None; Some 16; Some 64 ]
    (List.map (fun (j : Fleet.Job.t) -> j.line_size) jobs);
  checkb "default matrix has no line dimension" true
    (List.for_all
       (fun (j : Fleet.Job.t) -> j.line_size = None)
       (Fleet.Sweep.matrix ~scenarios:[ "a" ] ~ks:[ 1 ] ()))

let test_sweep_shard () =
  let xs = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let shards =
    List.map (fun i -> Fleet.Sweep.shard ~shards:3 ~index:i xs) [ 0; 1; 2 ]
  in
  checkb "shards partition the list" true
    (List.sort compare (List.concat shards) = xs);
  checkb "round robin" true (List.nth shards 0 = [ 1; 4; 7 ]);
  Alcotest.check_raises "bad index"
    (Invalid_argument "Fleet.Sweep.shard: index 3 not in [0, 3)") (fun () ->
      ignore (Fleet.Sweep.shard ~shards:3 ~index:3 xs))

let test_sweep_dedup_and_counters () =
  let registry = Sim.Metrics.create () in
  let spec = job ~scenario:"fir" ~k:2 () in
  let outcomes =
    Fleet.Sweep.run ~jobs:2 ~registry ~resolve [ spec; spec; spec ]
  in
  let value name = Sim.Metrics.value (Sim.Metrics.counter registry name) in
  checki "three submitted" 3 (value "fleet_jobs_submitted");
  checki "one engine run serves all three" 1 (value "fleet_engine_runs");
  checki "all completed" 3 (value "fleet_jobs_completed");
  checki "no errors" 0 (value "fleet_jobs_errored");
  match List.map (fun (o : Fleet.Sweep.outcome) -> o.result) outcomes with
  | [ Ok a; Ok b; Ok c ] ->
    checkb "fanned-out results identical" true (a = b && b = c)
  | _ -> Alcotest.fail "expected three Ok results"

let test_sweep_bad_scenario_is_error () =
  let outcomes =
    Fleet.Sweep.run ~resolve [ job ~scenario:"no-such-workload" () ]
  in
  match outcomes with
  | [ { result = Error msg; cached = false; _ } ] ->
    checkb "resolve failure captured" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected one Error outcome"

(* Fuel counts a job's simulation events: with exactly as much fuel
   as the job emits events it returns the unguarded metrics, with one
   unit less it fails with the fuel message. *)
let test_sweep_fuel_boundary () =
  List.iter
    (fun (spec : Fleet.Job.t) ->
      let sc = resolve ~scenario:spec.scenario ~codec:spec.codec in
      let counters = Sim.Events.counters () in
      let reference =
        Fleet.Job.execute ~sink:(Sim.Events.counting counters) sc spec
      in
      let e = Sim.Events.total counters in
      checkb "the job emits events" true (e > 1024);
      (match Fleet.Sweep.run ~fuel:e ~resolve [ spec ] with
      | [ { result = Ok m; _ } ] ->
        checkb "fuel = events: unguarded metrics" true (m = reference)
      | _ -> Alcotest.fail "fuel = events did not complete");
      match Fleet.Sweep.run ~fuel:(e - 1) ~resolve [ spec ] with
      | [ { result = Error msg; _ } ] ->
        checks "fuel = events - 1 fails"
          (Printf.sprintf "fuel exhausted after %d ticks" (e - 1))
          msg
      | _ -> Alcotest.fail "fuel = events - 1 completed")
    [
      job ~scenario:"fsm" ~k:2 ();
      job ~scenario:"dijkstra" ~k:4 ~budget:120
        ~strategy:
          (Fleet.Job.Pre_single { lookahead = 2; predictor = "last-taken" })
        ();
    ]

(* A job's guards are polled while it runs, not only at its end. The
   engine ticks the budget every 256 trace steps with at least one
   event per step, so the cancel hook is polled at least once per 256
   steps; a hook that turns true after its first call (the one before
   the job starts) aborts the run. *)
let test_sweep_guard_polled_mid_run () =
  let spec = job ~scenario:"life" ~k:1 () in
  let sc = resolve ~scenario:spec.scenario ~codec:spec.codec in
  let steps = Array.length sc.Core.Scenario.trace in
  let calls = ref 0 in
  let cancel () =
    incr calls;
    false
  in
  (match Fleet.Sweep.run ~cancel ~resolve [ spec ] with
  | [ { result = Ok _; _ } ] -> ()
  | _ -> Alcotest.fail "an idle cancel hook stopped the job");
  checkb
    (Printf.sprintf "%d polls over %d steps" !calls steps)
    true
    (!calls >= steps / 256);
  let polled = ref false in
  let cancel () =
    let fire = !polled in
    polled := true;
    fire
  in
  match Fleet.Sweep.run ~cancel ~resolve [ spec ] with
  | [ { result = Error msg; _ } ] -> checks "cancelled mid-run" "cancelled" msg
  | _ -> Alcotest.fail "a cancel hook firing mid-run did not stop the job"

let test_sweep_progress_jsonl () =
  let lines = ref [] in
  let _ =
    Fleet.Sweep.run ~jobs:2
      ~progress:(fun l -> lines := l :: !lines)
      ~resolve
      [ job ~scenario:"fir" ~k:2 (); job ~scenario:"crc32" ~k:2 () ]
  in
  checki "one line per job" 2 (List.length !lines);
  List.iter
    (fun l ->
      checkb "looks like a JSONL object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}');
      let contains needle =
        let nl = String.length needle and ll = String.length l in
        let rec go i =
          i + nl <= ll && (String.sub l i nl = needle || go (i + 1))
        in
        go 0
      in
      checkb "tagged" true (contains "fleet_job"))
    !lines

(* ------------------------------------------------------------------ *)
(* The determinism guarantee (acceptance criterion)                    *)

let render_experiment id =
  match Experiments.Registry.find id with
  | Some e -> Report.Table.render (e.runner ())
  | None -> Alcotest.failf "unknown experiment %s" id

let test_determinism id () =
  (* Reference: sequential, uncached. *)
  Experiments.Util.configure_fleet ();
  let reference = render_experiment id in
  let dir = temp_dir "ccomp-fleet-det" in
  let cache = Fleet.Cache.open_dir dir in
  Fun.protect
    ~finally:(fun () -> Experiments.Util.configure_fleet ())
    (fun () ->
      (* Parallel, cold cache. *)
      let cold_registry = Sim.Metrics.create () in
      Experiments.Util.configure_fleet ~jobs:3 ~cache ~registry:cold_registry
        ();
      checks (id ^ " parallel cold-cache output is byte-identical") reference
        (render_experiment id);
      (* Parallel, warm cache: same bytes, zero engine runs. *)
      let warm_registry = Sim.Metrics.create () in
      Experiments.Util.configure_fleet ~jobs:3 ~cache ~registry:warm_registry
        ();
      checks (id ^ " warm-cache output is byte-identical") reference
        (render_experiment id);
      let value name =
        Sim.Metrics.value (Sim.Metrics.counter warm_registry name)
      in
      checki (id ^ " warm run does zero engine runs") 0
        (value "fleet_engine_runs");
      checkb (id ^ " warm run is all cache hits") true
        (value "fleet_cache_hits" > 0 && value "fleet_cache_misses" = 0))

let () =
  Alcotest.run "fleet"
    [
      ( "job",
        [
          Alcotest.test_case "key stability" `Quick test_key_stable;
          Alcotest.test_case "key fixture" `Quick test_key_fixture;
          Alcotest.test_case "settings defaults" `Quick test_settings_defaults;
          Alcotest.test_case "settings messages" `Quick test_settings_messages;
          Alcotest.test_case "key charset" `Quick test_key_filesystem_safe;
          Alcotest.test_case "line size in the spec" `Quick
            test_line_size_in_spec;
          Alcotest.test_case "line pin-hot keeps pinned lines" `Quick
            test_line_pin_hot;
          Alcotest.test_case "line profile predictor" `Quick
            test_line_profile_predictor;
        ] );
      ( "pool",
        [
          Alcotest.test_case "submission order" `Quick test_pool_order;
          Alcotest.test_case "crash isolation" `Quick
            test_pool_crash_isolation;
          Alcotest.test_case "fuel" `Quick test_pool_fuel;
          Alcotest.test_case "sequential = parallel" `Quick
            test_pool_sequential_matches_parallel;
          Alcotest.test_case "bad sizes" `Quick test_pool_rejects_bad_sizes;
          Alcotest.test_case "cancel before start" `Quick
            test_pool_cancel_before_start;
          Alcotest.test_case "cancel mid-run" `Quick
            (test_pool_cancel_mid_run 1);
          Alcotest.test_case "cancel mid-run, batched ticks" `Quick
            (test_pool_cancel_mid_run 100);
        ] );
      ( "cache",
        [
          Alcotest.test_case "round-trip every field" `Quick
            test_cache_roundtrip_every_field;
          Alcotest.test_case "store/find" `Quick test_cache_store_find;
          Alcotest.test_case "corrupt entry = miss" `Quick
            test_cache_corrupt_entry_is_miss;
          Alcotest.test_case "version mismatch = miss" `Quick
            test_cache_version_mismatch_is_miss;
          Alcotest.test_case "previous-version entry = miss" `Quick
            test_cache_previous_version_entry_is_miss;
          Alcotest.test_case "profiles never share entries" `Quick
            test_cache_profiles_never_share_entries;
          Alcotest.test_case "stats + gc" `Quick test_cache_stats_and_gc;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "normalize ks" `Quick test_sweep_normalize_ks;
          Alcotest.test_case "matrix order" `Quick test_sweep_matrix_order;
          Alcotest.test_case "matrix line sizes" `Quick
            test_sweep_matrix_line_sizes;
          Alcotest.test_case "shard" `Quick test_sweep_shard;
          Alcotest.test_case "dedup + counters" `Quick
            test_sweep_dedup_and_counters;
          Alcotest.test_case "bad scenario" `Quick
            test_sweep_bad_scenario_is_error;
          Alcotest.test_case "progress jsonl" `Quick test_sweep_progress_jsonl;
          Alcotest.test_case "fuel boundary" `Quick test_sweep_fuel_boundary;
          Alcotest.test_case "guards polled mid-run" `Quick
            test_sweep_guard_polled_mid_run;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "E6 parallel+cache = sequential" `Slow
            (test_determinism "E6");
          Alcotest.test_case "E16 parallel+cache = sequential" `Slow
            (test_determinism "E16");
          Alcotest.test_case "E17 parallel+cache = sequential" `Slow
            (test_determinism "E17");
        ] );
    ]
