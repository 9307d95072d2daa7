(* Tests for the policy engine: k-edge bookkeeping, policies,
   predictors, the discrete-event engine and the scenario glue. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check_il = Alcotest.check Alcotest.(list int)

(* ------------------------------------------------------------------ *)
(* Kedge                                                               *)

(* A k-edge due set for [step], as a list. *)
let kedge_due k ~step =
  let into = Array.make 4096 0 in
  List.init (Memsim.Kedge.due_into k ~step ~into) (Array.get into)

let test_kedge_basic () =
  let k = Memsim.Kedge.create ~blocks:4 ~k:2 () in
  Memsim.Kedge.track k ~block:0 ~step:0;
  checkb "tracked" true (Memsim.Kedge.tracked k ~block:0);
  checkb "counter at 1" true (Memsim.Kedge.counter k ~block:0 ~step:1 = Some 1);
  check_il "not due before k" [] (kedge_due k ~step:1);
  check_il "due at k" [ 0 ] (kedge_due k ~step:2);
  checkb "untracked has no counter" true
    (Memsim.Kedge.counter k ~block:1 ~step:5 = None)

let test_kedge_reset_on_reexecution () =
  let k = Memsim.Kedge.create ~blocks:4 ~k:2 () in
  Memsim.Kedge.track k ~block:0 ~step:0;
  (* re-executed at step 1: counter resets, old due entry is stale *)
  Memsim.Kedge.track k ~block:0 ~step:1;
  check_il "stale entry filtered" [] (kedge_due k ~step:2);
  check_il "new due honored" [ 0 ] (kedge_due k ~step:3)

let test_kedge_untrack () =
  let k = Memsim.Kedge.create ~blocks:4 ~k:1 () in
  Memsim.Kedge.track k ~block:2 ~step:5;
  Memsim.Kedge.untrack k ~block:2;
  check_il "untracked not due" [] (kedge_due k ~step:6)

let test_kedge_k1_and_multiple () =
  let k = Memsim.Kedge.create ~blocks:4 ~k:1 () in
  Memsim.Kedge.track k ~block:0 ~step:0;
  Memsim.Kedge.track k ~block:1 ~step:0;
  check_il "both due, sorted" [ 0; 1 ] (kedge_due k ~step:1);
  (* due consumes the entries *)
  check_il "consumed" [] (kedge_due k ~step:1)

let test_kedge_huge_k_no_overflow () =
  let k = Memsim.Kedge.create ~blocks:2 ~k:max_int () in
  Memsim.Kedge.track k ~block:0 ~step:100;
  checkb "counter works" true (Memsim.Kedge.counter k ~block:0 ~step:200 = Some 100);
  check_il "never due" [] (kedge_due k ~step:1000)

let test_kedge_validation () =
  Alcotest.check_raises "k=0 rejected"
    (Invalid_argument "Memsim.Kedge.create: k must be >= 1") (fun () ->
      ignore (Memsim.Kedge.create ~blocks:1 ~k:0 ()));
  Alcotest.check_raises "blocks=0 rejected"
    (Invalid_argument "Memsim.Kedge.create: blocks must be >= 1") (fun () ->
      ignore (Memsim.Kedge.create ~blocks:0 ~k:1 ()))

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)

let test_policy_validation () =
  checkb "valid" true
    (match Core.Policy.make ~compress_k:1 () with _ -> true);
  Alcotest.check_raises "k=0"
    (Invalid_argument "Core.Policy: compress_k must be >= 1") (fun () ->
      ignore (Core.Policy.make ~compress_k:0 ()));
  Alcotest.check_raises "lookahead=0"
    (Invalid_argument "Core.Policy: lookahead must be >= 1") (fun () ->
      ignore (Core.Policy.pre_all ~k:1 ~lookahead:0));
  Alcotest.check_raises "budget=0"
    (Invalid_argument "Core.Policy: budget must be positive") (fun () ->
      ignore (Core.Policy.make ~compress_k:1 ~budget:0 ()))

let test_policy_describe () =
  let d = Core.Policy.describe (Core.Policy.on_demand ~k:4) in
  checkb "mentions on-demand" true
    (String.length d > 0
    &&
    let rec has i =
      i + 9 <= String.length d && (String.sub d i 9 = "on-demand" || has (i + 1))
    in
    has 0);
  let d2 = Core.Policy.describe Core.Policy.never_compress in
  checkb "inf k" true
    (let rec has i =
       i + 3 <= String.length d2 && (String.sub d2 i 3 = "inf" || has (i + 1))
     in
     has 0)

(* ------------------------------------------------------------------ *)
(* Config                                                              *)

let test_config_costs () =
  let c = Core.Config.default in
  checki "dec cost" (30 + (4 * 10)) (Core.Config.dec_cycles c ~compressed_bytes:10);
  checki "comp cost" (30 + (8 * 10))
    (Core.Config.comp_cycles c ~uncompressed_bytes:10);
  let codec = Compress.Registry.find_exn "rle" in
  let c2 = Core.Config.of_codec codec in
  checki "codec dec rate" (30 + (2 * 10))
    (Core.Config.dec_cycles c2 ~compressed_bytes:10)

let test_config_profiles () =
  checkb "paper profile is the default" true
    (List.hd Core.Config.profiles = "paper-2005");
  let c = Core.Config.of_profile "cortex-m-flash" in
  checkb "profile name recorded" true
    (c.Core.Config.costs.Sim.Cost.profile = "cortex-m-flash");
  (* profiles change energy pricing only; cycle accounting is shared *)
  checki "dec cycles unchanged across profiles"
    (Core.Config.dec_cycles Core.Config.default ~compressed_bytes:17)
    (Core.Config.dec_cycles c ~compressed_bytes:17);
  checkb "energized profile" true
    (c.Core.Config.costs.Sim.Cost.energy.Sim.Cost.exec_nj_per_cycle > 0);
  (* codec-advertised rates survive profile selection, and vice versa *)
  let codec = Compress.Registry.find_exn "rle" in
  let c2 = Core.Config.of_codec ~profile:"sram-heavy" codec in
  checki "codec dec rate under profile" (30 + (2 * 10))
    (Core.Config.dec_cycles c2 ~compressed_bytes:10);
  checkb "codec config keeps profile" true
    (c2.Core.Config.costs.Sim.Cost.profile = "sram-heavy");
  Alcotest.check_raises "unknown profile"
    (Invalid_argument
       "unknown device profile \"avr\" (known: paper-2005, cortex-m-flash, \
        sram-heavy)") (fun () -> ignore (Core.Config.of_profile "avr"))

let test_config_validation () =
  let bad field model =
    Alcotest.check_raises field
      (Invalid_argument (Printf.sprintf "%s must be >= %d (got %d)" field 0 (-1)))
      (fun () -> ignore (Core.Config.make model))
  in
  let base = Core.Config.default_cost_model in
  bad "exception_cycles" { base with Sim.Cost.exception_cycles = -1 };
  bad "patch_cycles" { base with Sim.Cost.patch_cycles = -1 };
  Alcotest.check_raises "dec rate below 1"
    (Invalid_argument "dec_cycles_per_byte must be >= 1 (got 0)") (fun () ->
      ignore (Core.Config.make { base with Sim.Cost.dec_cycles_per_byte = 0 }));
  Alcotest.check_raises "negative energy coefficient"
    (Invalid_argument "dec_compute_nj_per_byte must be >= 0 (got -3)")
    (fun () ->
      ignore
        (Core.Config.make
           {
             base with
             Sim.Cost.energy =
               {
                 base.Sim.Cost.energy with
                 Sim.Cost.dec_compute_nj_per_byte = -3;
               };
           }));
  (* a valid model passes through unchanged *)
  let c = Core.Config.make (Core.Config.cost_model_of_profile "sram-heavy") in
  checkb "valid model accepted" true
    (c.Core.Config.costs.Sim.Cost.profile = "sram-heavy")

(* ------------------------------------------------------------------ *)
(* Predictor                                                           *)

let fig2_graph () =
  Cfg.Graph.synthetic 10
    [
      (0, 1); (0, 2); (1, 3); (1, 4); (2, 4); (2, 5); (3, 6); (4, 6); (5, 6);
      (6, 7); (6, 8); (7, 9); (8, 9);
    ]

let test_predictor_first_successor () =
  let g = fig2_graph () in
  let st = Core.Predictor.create_state ~blocks:10 in
  (* path following first successors from 0: 1, 3, 6... *)
  checkb "follows first successors" true
    (Core.Predictor.choose Core.Predictor.First_successor st g ~from:0 ~k:3
       ~candidates:[ 6; 5 ]
    = Some 6);
  checkb "fallback to nearest" true
    (Core.Predictor.choose Core.Predictor.First_successor st g ~from:0 ~k:2
       ~candidates:[ 5; 8 ]
    = Some 5);
  checkb "empty candidates" true
    (Core.Predictor.choose Core.Predictor.First_successor st g ~from:0 ~k:2
       ~candidates:[]
    = None)

let test_predictor_last_taken () =
  let g = fig2_graph () in
  let st = Core.Predictor.create_state ~blocks:10 in
  Core.Predictor.note_edge st ~src:0 ~dst:2;
  Core.Predictor.note_edge st ~src:2 ~dst:5;
  checkb "follows remembered edges" true
    (Core.Predictor.choose Core.Predictor.Last_taken st g ~from:0 ~k:2
       ~candidates:[ 4; 5 ]
    = Some 5);
  (* stale remembered edge that is no longer a successor is ignored *)
  let st2 = Core.Predictor.create_state ~blocks:10 in
  Core.Predictor.note_edge st2 ~src:0 ~dst:9;
  checkb "invalid remembered edge falls back" true
    (Core.Predictor.choose Core.Predictor.Last_taken st2 g ~from:0 ~k:1
       ~candidates:[ 1; 2 ]
    = Some 1)

let test_predictor_profile () =
  let g = fig2_graph () in
  let st = Core.Predictor.create_state ~blocks:10 in
  (* trace that makes 0 -> 2 -> 5 dominant *)
  let profile = Cfg.Profile.of_trace g [| 0; 2; 5; 6; 8; 9 |] in
  checkb "profile picks likely path" true
    (Core.Predictor.choose (Core.Predictor.By_profile profile) st g ~from:0
       ~k:2 ~candidates:[ 3; 5 ]
    = Some 5)

let test_predictor_names () =
  checkb "names distinct" true
    (List.sort_uniq compare
       [
         Core.Predictor.name Core.Predictor.First_successor;
         Core.Predictor.name Core.Predictor.Last_taken;
         Core.Predictor.name
           (Core.Predictor.By_profile (Cfg.Profile.uniform (fig2_graph ())));
       ]
    |> List.length = 3)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

(* All blocks 64 bytes; synthetic contents. *)
let scenario_of g trace = Core.Scenario.of_graph g ~trace

let fig5_scenario () =
  let g =
    Cfg.Graph.synthetic 4 [ (0, 1); (1, 0); (1, 2); (1, 3); (2, 3) ]
  in
  scenario_of g [| 0; 1; 0; 1; 3 |]

let run_events sc policy =
  let events = ref [] in
  let m = Core.Scenario.run ~log:(fun e -> events := e :: !events) sc policy in
  (m, List.rev !events)

let count_events f events =
  List.length (List.filter f events)

let test_engine_fig5_events () =
  let sc = fig5_scenario () in
  let m, events = run_events sc (Core.Policy.on_demand ~k:2) in
  (* 4 exceptions: initial B0, first B1, revisit B0 (patch only), B3. *)
  checki "exceptions" 4 m.Core.Metrics.exceptions;
  checki "demand decompressions" 3 m.Core.Metrics.demand_decompressions;
  checki "one k-edge discard" 1 m.Core.Metrics.discards;
  (* 4 patches: B0->B1', B1->B0', patch-back on discard of B0', B1->B3'. *)
  checki "patches" 4 m.Core.Metrics.patches;
  checkb "discarded block is B0" true
    (List.exists
       (fun ev ->
         match (ev : Core.Engine.event) with
         | Discard { block = 0; patched_back = 1; _ } -> true
         | _ -> false)
       events);
  (* Step (7): second arrival at resident patched B1 has no exception:
     the number of Exception events equals metrics. *)
  checki "exception events" 4
    (count_events
       (fun ev ->
         match (ev : Core.Engine.event) with Exception _ -> true | _ -> false)
       events)

let test_engine_steady_state_free () =
  (* A 2-block loop with k large: after warmup, no overhead at all. *)
  let g = Cfg.Graph.synthetic 2 [ (0, 1); (1, 0) ] in
  let trace = Array.init 100 (fun i -> i mod 2) in
  let sc = scenario_of g trace in
  let m = Core.Scenario.run sc (Core.Policy.on_demand ~k:50) in
  checki "only 2 demand decompressions" 2 m.Core.Metrics.demand_decompressions;
  (* Warmup: fault on B0, fault+patch on B1, one more fault+patch on
     the first revisit of B0; after that, both branch sites are
     patched and the loop runs exception-free. *)
  checki "three warmup exceptions" 3 m.Core.Metrics.exceptions;
  checki "two warmup patches" 2 m.Core.Metrics.patches;
  checki "no discards" 0 m.Core.Metrics.discards;
  (* total = baseline + warmup costs only *)
  let warmup =
    m.Core.Metrics.exception_cycles + m.Core.Metrics.patch_cycles
    + m.Core.Metrics.demand_dec_cycles
  in
  checki "total accounted" (m.Core.Metrics.baseline_cycles + warmup)
    m.Core.Metrics.total_cycles

let test_engine_k1_thrash () =
  let g = Cfg.Graph.synthetic 2 [ (0, 1); (1, 0) ] in
  let trace = Array.init 20 (fun i -> i mod 2) in
  let sc = scenario_of g trace in
  let m = Core.Scenario.run sc (Core.Policy.on_demand ~k:1) in
  (* k=1 discards each block as soon as the next edge is traversed,
     so every visit is a demand miss. *)
  checki "every visit misses" 20 m.Core.Metrics.demand_decompressions;
  checki "discards all but last" 19 m.Core.Metrics.discards

let test_engine_self_loop_spared () =
  (* A self-loop with k=1: the target of the edge is spared deletion. *)
  let g = Cfg.Graph.synthetic 2 [ (0, 0); (0, 1) ] in
  let trace = [| 0; 0; 0; 0; 1 |] in
  let sc = scenario_of g trace in
  let m = Core.Scenario.run sc (Core.Policy.on_demand ~k:1) in
  checki "self-loop keeps copy" 2 m.Core.Metrics.demand_decompressions

let test_engine_prefetch_hides_latency () =
  let g, trace = Trace.Synthetic.loop_nest ~levels:2 ~iters:[| 10; 10 |] in
  let sc = scenario_of g trace in
  let od = Core.Scenario.run sc (Core.Policy.on_demand ~k:8) in
  let pre = Core.Scenario.run sc (Core.Policy.pre_all ~k:8 ~lookahead:2) in
  checkb "prefetch reduces demand misses" true
    (pre.Core.Metrics.demand_decompressions
    < od.Core.Metrics.demand_decompressions);
  checkb "prefetches issued" true (pre.Core.Metrics.prefetch_decompressions > 0);
  checki "useful + wasted <= prefetches"
    (min
       (pre.Core.Metrics.useful_prefetches + pre.Core.Metrics.wasted_prefetches)
       pre.Core.Metrics.prefetch_decompressions)
    (pre.Core.Metrics.useful_prefetches + pre.Core.Metrics.wasted_prefetches)

let test_engine_prefetch_timing () =
  (* A straight chain: the prefetch of block 2 must be issued when
     execution leaves block 0 (lookahead 2). *)
  let g = Cfg.Graph.synthetic 4 [ (0, 1); (1, 2); (2, 3) ] in
  let sc = scenario_of g [| 0; 1; 2; 3 |] in
  let _, events = run_events sc (Core.Policy.pre_all ~k:8 ~lookahead:2) in
  let exec0_at = ref (-1) and prefetch2_at = ref (-1) and exec1_at = ref (-1) in
  List.iter
    (fun ev ->
      match (ev : Core.Engine.event) with
      | Exec { block = 0; at } -> exec0_at := at
      | Exec { block = 1; at } -> if !exec1_at < 0 then exec1_at := at
      | Prefetch_issue { block = 2; at; _ } -> prefetch2_at := at
      | _ -> ())
    events;
  checkb "prefetch after exec of 0" true (!prefetch2_at >= !exec0_at);
  checkb "prefetch before exec of 1" true (!prefetch2_at <= !exec1_at)

let test_engine_budget_eviction () =
  let g = Cfg.Graph.synthetic ~block_bytes:64 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let trace = Array.init 40 (fun i -> i mod 4) in
  let sc = scenario_of g trace in
  (* Budget for two blocks only. *)
  let m =
    Core.Scenario.run sc (Core.Policy.make ~compress_k:100 ~budget:128 ())
  in
  checkb "evictions happened" true (m.Core.Metrics.evictions > 0);
  checkb "budget respected" true (m.Core.Metrics.peak_decompressed_bytes <= 128);
  checki "no overflows" 0 m.Core.Metrics.budget_overflows

let test_engine_budget_overflow () =
  (* Budget smaller than a single block: the demand decompression must
     overflow (no victim can make room). *)
  let g = Cfg.Graph.synthetic ~block_bytes:64 2 [ (0, 1); (1, 0) ] in
  let sc = scenario_of g [| 0; 1 |] in
  let m = Core.Scenario.run sc (Core.Policy.make ~compress_k:4 ~budget:32 ()) in
  checkb "overflows recorded" true (m.Core.Metrics.budget_overflows > 0)

let test_engine_recompress_mode () =
  let g = Cfg.Graph.synthetic 3 [ (0, 1); (1, 2); (2, 0) ] in
  let trace = Array.init 12 (fun i -> i mod 3) in
  let sc = scenario_of g trace in
  let discard =
    Core.Scenario.run sc
      (Core.Policy.make ~mode:Core.Policy.Discard ~compress_k:1 ())
  in
  let recompress =
    Core.Scenario.run sc
      (Core.Policy.make ~mode:Core.Policy.Recompress ~compress_k:1 ())
  in
  checkb "recompress uses the comp thread" true
    (recompress.Core.Metrics.comp_thread_busy_cycles
    > discard.Core.Metrics.comp_thread_busy_cycles);
  checkb "recompress holds memory longer" true
    (recompress.Core.Metrics.avg_decompressed_bytes
    >= discard.Core.Metrics.avg_decompressed_bytes)

let test_engine_empty_trace () =
  let g = Cfg.Graph.synthetic 2 [ (0, 1) ] in
  let sc = scenario_of g [||] in
  let m = Core.Scenario.run sc (Core.Policy.on_demand ~k:2) in
  checki "no cycles" 0 m.Core.Metrics.total_cycles;
  checki "no events" 0 m.Core.Metrics.exceptions

let test_engine_rejects_bad_input () =
  let g = Cfg.Graph.synthetic 2 [ (0, 1) ] in
  let sc = scenario_of g [| 0; 1 |] in
  Alcotest.check_raises "bad trace block"
    (Invalid_argument "Core.Engine.run: trace mentions unknown block")
    (fun () ->
      ignore
        (Core.Engine.run ~graph:sc.Core.Scenario.graph
           ~info:sc.Core.Scenario.info ~trace:[| 0; 7 |]
           (Core.Policy.on_demand ~k:1)));
  Alcotest.check_raises "bad info length"
    (Invalid_argument "Core.Engine.run: info does not match graph") (fun () ->
      ignore
        (Core.Engine.run ~graph:sc.Core.Scenario.graph
           ~info:(Array.sub sc.Core.Scenario.info 0 1)
           ~trace:[| 0 |] (Core.Policy.on_demand ~k:1)));
  Alcotest.check_raises "bad step_cycles"
    (Invalid_argument "Core.Engine.run: step_cycles does not match trace")
    (fun () ->
      ignore
        (Core.Engine.run ~step_cycles:[| 1 |] ~graph:sc.Core.Scenario.graph
           ~info:sc.Core.Scenario.info ~trace:[| 0; 1 |]
           (Core.Policy.on_demand ~k:1)))

let test_engine_step_cycles_override () =
  let g = Cfg.Graph.synthetic 2 [ (0, 1) ] in
  let sc = scenario_of g [| 0; 1 |] in
  let m =
    Core.Engine.run ~step_cycles:[| 100; 200 |] ~graph:sc.Core.Scenario.graph
      ~info:sc.Core.Scenario.info ~trace:[| 0; 1 |]
      (Core.Policy.on_demand ~k:4)
  in
  checki "baseline from overrides" 300 m.Core.Metrics.baseline_cycles;
  checki "exec from overrides" 300 m.Core.Metrics.exec_cycles

(* Metric invariants on random loop-heavy scenarios. *)
let prop_metric_invariants =
  let gen =
    QCheck.Gen.(
      let* blocks = int_range 3 12 in
      let* extra_edges =
        list_size (int_range 0 10)
          (pair (int_range 0 (blocks - 1)) (int_range 0 (blocks - 1)))
      in
      let* len = int_range 1 300 in
      let* seed = int_range 0 1000 in
      let* k = int_range 1 16 in
      let* strategy = int_range 0 2 in
      return (blocks, extra_edges, len, seed, k, strategy))
  in
  QCheck.Test.make ~count:120 ~name:"engine metric invariants"
    (QCheck.make gen) (fun (blocks, extra_edges, len, seed, k, strategy) ->
      (* ring edges keep every block live; extras add irregularity *)
      let ring = List.init blocks (fun i -> (i, (i + 1) mod blocks)) in
      let edges = List.sort_uniq compare (ring @ extra_edges) in
      let g = Cfg.Graph.synthetic blocks edges in
      let trace = Trace.Synthetic.markov ~seed g ~length:len in
      let sc = Core.Scenario.of_graph g ~trace in
      let policy =
        match strategy with
        | 0 -> Core.Policy.on_demand ~k
        | 1 -> Core.Policy.pre_all ~k ~lookahead:2
        | _ ->
          Core.Policy.pre_single ~k ~lookahead:2
            ~predictor:Core.Predictor.Last_taken
      in
      let m = Core.Scenario.run sc policy in
      let open Core.Metrics in
      m.total_cycles >= m.baseline_cycles
      && m.exec_cycles = m.baseline_cycles
      && m.stall_cycles >= 0
      && m.useful_prefetches + m.wasted_prefetches
         <= m.prefetch_decompressions
      && m.peak_decompressed_bytes >= 0
      && float_of_int m.peak_decompressed_bytes >= m.avg_decompressed_bytes
      && m.peak_footprint_bytes
         = m.compressed_area_bytes + m.peak_decompressed_bytes
      && m.demand_decompressions + m.prefetch_decompressions
         >= m.discards + m.evictions
      && m.total_cycles
         = m.exec_cycles + m.exception_cycles + m.patch_cycles
           + m.demand_dec_cycles + m.stall_cycles)

(* Accounting coherence under the cost vocabulary: on random
   workload x policy x device-profile combinations, each cycle total
   is what the event stream shows, the energy total splits exactly
   into its parts, and the cycle side of the books is identical to the
   default paper-2005 run's — profiles may only change energy pricing,
   never timing. *)
let prop_charge_totals_match_events =
  let gen =
    QCheck.Gen.(
      let* blocks = int_range 3 10 in
      let* extra_edges =
        list_size (int_range 0 8)
          (pair (int_range 0 (blocks - 1)) (int_range 0 (blocks - 1)))
      in
      let* len = int_range 1 200 in
      let* seed = int_range 0 1000 in
      let* k = int_range 1 8 in
      let* strategy = int_range 0 3 in
      let* profile_idx = int_range 0 2 in
      return (blocks, extra_edges, len, seed, k, strategy, profile_idx))
  in
  QCheck.Test.make ~count:80 ~name:"charge totals match event stream"
    (QCheck.make gen)
    (fun (blocks, extra_edges, len, seed, k, strategy, profile_idx) ->
      let ring = List.init blocks (fun i -> (i, (i + 1) mod blocks)) in
      let edges = List.sort_uniq compare (ring @ extra_edges) in
      let g = Cfg.Graph.synthetic blocks edges in
      let trace = Trace.Synthetic.markov ~seed g ~length:len in
      let sc = Core.Scenario.of_graph g ~trace in
      let policy =
        match strategy with
        | 0 -> Core.Policy.on_demand ~k
        | 1 -> Core.Policy.pre_all ~k ~lookahead:2
        | 2 ->
          Core.Policy.pre_single ~k ~lookahead:2
            ~predictor:Core.Predictor.Last_taken
        | _ -> Core.Policy.make ~mode:Core.Policy.Recompress ~compress_k:k ()
      in
      let profile = List.nth Core.Config.profiles profile_idx in
      let events = ref [] in
      let m =
        Core.Scenario.run ~profile ~log:(fun e -> events := e :: !events) sc
          policy
      in
      let base = Core.Scenario.run sc policy in
      let costs =
        (Core.Config.of_codec ~profile sc.Core.Scenario.codec).costs
      in
      let sum f = List.fold_left (fun a e -> a + f e) 0 !events in
      let count f = sum (fun e -> if f e then 1 else 0) in
      let open Core.Metrics in
      m.demand_dec_cycles
      = sum (function
          | Sim.Events.Demand_decompress { cycles; _ } -> cycles
          | _ -> 0)
      && m.stall_cycles
         = sum (function Sim.Events.Stall { cycles; _ } -> cycles | _ -> 0)
      && m.exception_cycles
         = count (function Sim.Events.Exception _ -> true | _ -> false)
           * (Sim.Cost.exception_charge costs).Sim.Cost.cycles
      && m.patch_cycles
         = count (function Sim.Events.Patch _ -> true | _ -> false)
           * (Sim.Cost.patch_charge costs).Sim.Cost.cycles
      && m.exec_cycles = m.baseline_cycles
      && m.energy_nj
         = m.exec_energy_nj + m.exception_energy_nj + m.patch_energy_nj
           + m.dec_energy_nj + m.comp_energy_nj + m.ram_static_energy_nj
      && (profile <> "paper-2005" || m.energy_nj = 0)
      && m.total_cycles = base.total_cycles
      && m.exec_cycles = base.exec_cycles
      && m.demand_dec_cycles = base.demand_dec_cycles
      && m.stall_cycles = base.stall_cycles
      && m.peak_footprint_bytes = base.peak_footprint_bytes)

(* ------------------------------------------------------------------ *)
(* Accounting: the engine integrates the decompressed area's occupancy
   in its loop. The reference rebuilds it from the event stream: every
   allocation and free as a (time, delta) pair, all sorted, applied in
   order. *)

let occupancy_reference (info : Core.Engine.block_info array) ~mode events
    ~total_cycles =
  let size b = info.(b).Core.Engine.uncompressed_bytes in
  let frees_on_delete = mode = Core.Policy.Discard in
  let deltas =
    List.sort compare
      (List.concat_map
         (function
           | Sim.Events.Demand_decompress { block; at; cycles } ->
             [ (at - cycles, size block) ]
           | Sim.Events.Prefetch_issue { block; at; _ } -> [ (at, size block) ]
           | Sim.Events.(Discard { block; at; _ } | Evict { block; at })
             when frees_on_delete ->
             [ (at, -size block) ]
           | Sim.Events.Recompress_queued { block; done_at; _ } ->
             [ (done_at, -size block) ]
           | _ -> [])
         events)
  in
  let until =
    List.fold_left (fun a (t, _) -> max a t) (max total_cycles 1) deltas
  in
  let rec go level peak integral now = function
    | [] -> (peak, integral + (level * (until - now)))
    | (t, d) :: rest ->
      go (level + d) (max peak (level + d))
        (integral + (level * (t - now)))
        t rest
  in
  let peak, integral = go 0 0 0 0 deltas in
  (peak, float_of_int integral /. float_of_int until)

(* Every strategy and mode, with a budget or without; free exceptions
   and patches make more deltas share a time. *)
let prop_occupancy_integrals =
  let gen =
    QCheck.Gen.(
      let* blocks = int_range 3 12 in
      let* extra_edges =
        list_size (int_range 0 10)
          (pair (int_range 0 (blocks - 1)) (int_range 0 (blocks - 1)))
      in
      let* len = int_range 1 300 in
      let* seed = int_range 0 1000 in
      let* k = int_range 1 8 in
      let* strategy = int_range 0 2 in
      let* recompress = bool in
      let* budget = opt (int_range 64 400) in
      let* free_traps = bool in
      return
        (blocks, extra_edges, len, seed, k, strategy, recompress, budget,
         free_traps))
  in
  QCheck.Test.make ~count:200 ~name:"integrals" (QCheck.make gen)
    (fun
      (blocks, extra_edges, len, seed, k, strategy, recompress, budget,
       free_traps)
    ->
      let ring = List.init blocks (fun i -> (i, (i + 1) mod blocks)) in
      let edges = List.sort_uniq compare (ring @ extra_edges) in
      let sizes = Array.init blocks (fun b -> 16 * (1 + ((b * 7) mod 5))) in
      let g = Cfg.Graph.synthetic ~sizes blocks edges in
      let trace = Trace.Synthetic.markov ~seed g ~length:len in
      let sc = Core.Scenario.of_graph g ~trace in
      let strategy =
        match strategy with
        | 0 -> Core.Policy.On_demand
        | 1 -> Core.Policy.Pre_all { lookahead = 2 }
        | _ ->
          Core.Policy.Pre_single
            { lookahead = 2; predictor = Core.Predictor.Last_taken }
      in
      let mode =
        if recompress then Core.Policy.Recompress else Core.Policy.Discard
      in
      let policy = Core.Policy.make ~mode ~strategy ?budget ~compress_k:k () in
      let config =
        if free_traps then
          Core.Config.make
            {
              Core.Config.default_cost_model with
              exception_cycles = 0;
              patch_cycles = 0;
            }
        else Core.Config.default
      in
      let events = ref [] in
      let m =
        Core.Engine.run ~config
          ~log:(fun e -> events := e :: !events)
          ~graph:g ~info:sc.Core.Scenario.info ~trace policy
      in
      let peak, avg =
        occupancy_reference sc.Core.Scenario.info ~mode !events
          ~total_cycles:m.Core.Metrics.total_cycles
      in
      m.Core.Metrics.peak_decompressed_bytes = peak
      && m.Core.Metrics.avg_decompressed_bytes = avg)

(* The level at a time is the level after all of that time's deltas:
   copies that only overlap within one instant never count together. *)
let test_accounting_same_time () =
  (* a one-copy budget: each demand evicts the other copy first *)
  let g = Cfg.Graph.synthetic ~sizes:[| 100; 60 |] 2 [ (0, 1); (1, 0) ] in
  let sc = scenario_of g [| 0; 1; 0; 1 |] in
  let m =
    Core.Scenario.run sc (Core.Policy.make ~budget:100 ~compress_k:8 ())
  in
  checki "evictions" 3 m.Core.Metrics.evictions;
  checki "peak is the larger copy" 100 m.Core.Metrics.peak_decompressed_bytes;
  (* pre-all at the edge 1 -> 2 with 0 and 1 resident (110 bytes): the
     first frontier block fits the budget (120), the second evicts 0
     first — one instant goes 110, 120, 20, 30 *)
  let g =
    Cfg.Graph.synthetic ~sizes:[| 100; 10; 10; 10 |] 4
      [ (0, 1); (1, 2); (1, 3); (2, 0); (3, 0) ]
  in
  let m =
    Core.Scenario.run
      (scenario_of g [| 0; 1; 2 |])
      (Core.Policy.make ~budget:120
         ~strategy:(Core.Policy.Pre_all { lookahead = 1 })
         ~compress_k:8 ())
  in
  checki "one eviction" 1 m.Core.Metrics.evictions;
  checki "peak between instants" 110 m.Core.Metrics.peak_decompressed_bytes

(* Time never runs backwards: negative cycle inputs are refused before
   the run starts, whatever the strategy. *)
let test_accounting_errors () =
  let g, trace =
    Trace.Synthetic.hot_cold ~hot_blocks:3 ~cold_blocks:3 ~hot_iters:2
      ~cold_visit_every:2 ()
  in
  let info =
    Array.map
      (fun i -> { i with Core.Engine.exec_cycles = -5 })
      (Core.Engine.info_of_graph g)
  in
  List.iter
    (fun policy ->
      Alcotest.check_raises "negative exec_cycles"
        (Invalid_argument "Core.Engine.run: negative exec_cycles") (fun () ->
          ignore (Core.Engine.run ~graph:g ~info ~trace policy));
      Alcotest.check_raises "negative step_cycles"
        (Invalid_argument "Core.Engine.run: negative step_cycles") (fun () ->
          ignore
            (Core.Engine.run ~graph:g ~info:(Core.Engine.info_of_graph g)
               ~step_cycles:(Array.map (fun _ -> -1) trace)
               ~trace policy)))
    [ Core.Policy.on_demand ~k:2; Core.Policy.pre_all ~k:2 ~lookahead:1 ]

let test_accounting_empty () =
  let g = Cfg.Graph.synthetic 2 [ (0, 1) ] in
  let m =
    Core.Scenario.run ~profile:"sram-heavy" (scenario_of g [||])
      (Core.Policy.on_demand ~k:2)
  in
  checki "peak of nothing" 0 m.Core.Metrics.peak_decompressed_bytes;
  Alcotest.check (Alcotest.float 0.0) "average of nothing" 0.0
    m.Core.Metrics.avg_decompressed_bytes;
  checki "no leakage" 0 m.Core.Metrics.ram_static_energy_nj

(* ------------------------------------------------------------------ *)
(* Scenario                                                            *)

let test_scenario_of_source () =
  let sc =
    Core.Scenario.of_source ~name:"t" "li r1, 5\nloop: subi r1, r1, 1\nbne r1, r0, loop\nhalt"
  in
  checkb "has program" true (sc.Core.Scenario.program <> None);
  checkb "trace valid" true
    (Cfg.Graph.validate_trace sc.Core.Scenario.graph sc.Core.Scenario.trace
    = Ok ());
  checkb "compressed sizes positive" true
    (Array.for_all
       (fun (i : Core.Engine.block_info) -> i.compressed_bytes > 0)
       sc.Core.Scenario.info)

let test_scenario_synthetic_bytes_deterministic () =
  let a = Core.Scenario.synthetic_block_bytes ~id:5 ~size:128 in
  let b = Core.Scenario.synthetic_block_bytes ~id:5 ~size:128 in
  let c = Core.Scenario.synthetic_block_bytes ~id:6 ~size:128 in
  checkb "deterministic" true (Bytes.equal a b);
  checkb "id-dependent" false (Bytes.equal a c);
  checki "size respected" 128 (Bytes.length a)

let test_scenario_profile () =
  let g = Cfg.Graph.synthetic 3 [ (0, 1); (1, 2); (2, 0) ] in
  let sc = Core.Scenario.of_graph g ~trace:[| 0; 1; 2; 0; 1; 2 |] in
  let p = Core.Scenario.profile sc in
  checki "profile counts" 2 (Cfg.Profile.block_count p 0)

(* ------------------------------------------------------------------ *)
(* Lineview                                                            *)

let test_lineview_exec_cycles_preserved () =
  (* re-expressing at line granularity splits each visit's cycles
     across the block's lines — the total execution cost must come
     out exactly the same at every line size *)
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "fir") in
  let policy = Core.Policy.on_demand ~k:8 in
  let base = Core.Scenario.run sc policy in
  List.iter
    (fun line_size ->
      let m = Core.Lineview.run ~line_size sc policy in
      checki
        (Printf.sprintf "exec cycles at %dB" line_size)
        base.Core.Metrics.exec_cycles m.Core.Metrics.exec_cycles)
    [ 16; 32; 64 ]

let test_lineview_view_shape () =
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "fir") in
  let v = Core.Lineview.view ~line_size:32 sc in
  let lines = Array.length v.Core.Lineview.info in
  checkb "one node per line" true
    (Array.length (Cfg.Graph.blocks v.Core.Lineview.graph) = lines);
  checki "step cycles per trace step" (Array.length v.Core.Lineview.trace)
    (Array.length v.Core.Lineview.step_cycles);
  checkb "line trace longer than block trace" true
    (Array.length v.Core.Lineview.trace >= Array.length sc.Core.Scenario.trace);
  checkb "trace ids in range" true
    (Array.for_all
       (fun id -> id >= 0 && id < lines)
       v.Core.Lineview.trace);
  checkb "compressed sizes positive" true
    (Array.for_all
       (fun (i : Core.Engine.block_info) -> i.compressed_bytes > 0)
       v.Core.Lineview.info)

let test_lineview_line_codec () =
  (* a scenario whose codec is a line codec runs and the per-line
     compressed area is charged from exact tag-inclusive wire bits *)
  let w = Workloads.Suite.find_exn "fir" in
  let sc =
    Core.Scenario.of_source ~name:"fir-bdi"
      ~codec:(Compress.Registry.find_exn "bdi-32")
      w.Workloads.Common.source
  in
  let m = Core.Lineview.run ~line_size:32 sc (Core.Policy.on_demand ~k:8) in
  checkb "ran" true (m.Core.Metrics.total_cycles > 0);
  checkb "compressed area positive" true
    (m.Core.Metrics.compressed_area_bytes > 0)

let test_lineview_adaptive_k_per_line () =
  (* adaptive_k is stated per block: each line must take the k of the
     blocks spanning it, never read a line id as a block id — so a k of
     8 for every block (and a wrong answer for any id past the block
     count) must run exactly like the uniform k = 8 *)
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "fir") in
  let nblocks = Cfg.Graph.num_blocks sc.Core.Scenario.graph in
  let uniform =
    Core.Lineview.run ~line_size:4 sc (Core.Policy.make ~compress_k:8 ())
  in
  let adaptive =
    Core.Lineview.run ~line_size:4 sc
      (Core.Policy.make ~compress_k:8
         ~adaptive_k:(fun b -> if b < nblocks then 8 else 1)
         ())
  in
  checkb "per-block k of 8 matches uniform k = 8" true (adaptive = uniform)

let test_lineview_validation () =
  let sc = Workloads.Common.scenario (Workloads.Suite.find_exn "fir") in
  Alcotest.check_raises "line_size below 4"
    (Invalid_argument "Residency.Linemap.build: line_size < 4") (fun () ->
      ignore (Core.Lineview.view ~line_size:2 sc))

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run ~and_exit:false "core"
    [
      ( "kedge",
        [
          Alcotest.test_case "basic counters" `Quick test_kedge_basic;
          Alcotest.test_case "reset on re-execution" `Quick
            test_kedge_reset_on_reexecution;
          Alcotest.test_case "untrack" `Quick test_kedge_untrack;
          Alcotest.test_case "k=1 and multiple" `Quick
            test_kedge_k1_and_multiple;
          Alcotest.test_case "huge k" `Quick test_kedge_huge_k_no_overflow;
          Alcotest.test_case "validation" `Quick test_kedge_validation;
        ] );
      ( "policy",
        [
          Alcotest.test_case "validation" `Quick test_policy_validation;
          Alcotest.test_case "describe" `Quick test_policy_describe;
        ] );
      ( "config",
        [
          Alcotest.test_case "costs" `Quick test_config_costs;
          Alcotest.test_case "profiles" `Quick test_config_profiles;
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "first successor" `Quick
            test_predictor_first_successor;
          Alcotest.test_case "last taken" `Quick test_predictor_last_taken;
          Alcotest.test_case "profile" `Quick test_predictor_profile;
          Alcotest.test_case "names" `Quick test_predictor_names;
        ] );
      ( "engine",
        [
          Alcotest.test_case "figure 5 event sequence" `Quick
            test_engine_fig5_events;
          Alcotest.test_case "steady state is free" `Quick
            test_engine_steady_state_free;
          Alcotest.test_case "k=1 thrashes" `Quick test_engine_k1_thrash;
          Alcotest.test_case "self-loop target spared" `Quick
            test_engine_self_loop_spared;
          Alcotest.test_case "prefetch hides latency" `Quick
            test_engine_prefetch_hides_latency;
          Alcotest.test_case "prefetch timing" `Quick test_engine_prefetch_timing;
          Alcotest.test_case "budget eviction" `Quick test_engine_budget_eviction;
          Alcotest.test_case "budget overflow" `Quick test_engine_budget_overflow;
          Alcotest.test_case "recompress mode" `Quick test_engine_recompress_mode;
          Alcotest.test_case "empty trace" `Quick test_engine_empty_trace;
          Alcotest.test_case "input validation" `Quick
            test_engine_rejects_bad_input;
          Alcotest.test_case "step cycles override" `Quick
            test_engine_step_cycles_override;
          qcheck prop_metric_invariants;
          qcheck prop_charge_totals_match_events;
        ] );
      ( "accounting",
        [
          qcheck prop_occupancy_integrals;
          Alcotest.test_case "same-time updates" `Quick
            test_accounting_same_time;
          Alcotest.test_case "errors" `Quick test_accounting_errors;
          Alcotest.test_case "empty" `Quick test_accounting_empty;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "of source" `Quick test_scenario_of_source;
          Alcotest.test_case "synthetic bytes" `Quick
            test_scenario_synthetic_bytes_deterministic;
          Alcotest.test_case "profile" `Quick test_scenario_profile;
        ] );
      ( "lineview",
        [
          Alcotest.test_case "exec cycles preserved" `Quick
            test_lineview_exec_cycles_preserved;
          Alcotest.test_case "view shape" `Quick test_lineview_view_shape;
          Alcotest.test_case "line codec scenario" `Quick
            test_lineview_line_codec;
          Alcotest.test_case "adaptive k per line" `Quick
            test_lineview_adaptive_k_per_line;
          Alcotest.test_case "validation" `Quick test_lineview_validation;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Adaptive k and event-stream coherence (appended suite)              *)

let test_kedge_per_block () =
  let k_of b = if b = 0 then 1 else 5 in
  let k = Memsim.Kedge.create ~k_of ~blocks:2 ~k:3 () in
  checki "k_for 0" 1 (Memsim.Kedge.k_for k ~block:0);
  checki "k_for 1" 5 (Memsim.Kedge.k_for k ~block:1);
  Memsim.Kedge.track k ~block:0 ~step:0;
  Memsim.Kedge.track k ~block:1 ~step:0;
  check_il "only block 0 due at 1" [ 0 ] (kedge_due k ~step:1);
  check_il "block 1 due at 5" [ 1 ] (kedge_due k ~step:5)

let test_kedge_per_block_validation () =
  let k = Memsim.Kedge.create ~k_of:(fun _ -> 0) ~blocks:2 ~k:3 () in
  Alcotest.check_raises "k_of below 1 rejected on use"
    (Invalid_argument "Memsim.Kedge: per-block k must be >= 1") (fun () ->
      Memsim.Kedge.track k ~block:0 ~step:0)

let test_adaptive_loop_aware () =
  (* 0 -> 1 <-> 2, 2 -> 3: loop {1, 2}. *)
  let g = Cfg.Graph.synthetic 4 [ (0, 1); (1, 2); (2, 1); (2, 3) ] in
  let k_of = Core.Adaptive.loop_aware g in
  checki "loop block gets loop size + slack" 4 (k_of 1);
  checki "other loop block too" 4 (k_of 2);
  checki "cold block gets 1" 1 (k_of 0);
  checki "exit gets 1" 1 (k_of 3);
  checki "out of range safe" 1 (k_of 99)

let test_adaptive_reuse_aware () =
  let g = Cfg.Graph.synthetic 3 [ (0, 1); (1, 0); (1, 2) ] in
  let trace = [| 0; 1; 0; 1; 0; 1; 2 |] in
  let k_of = Core.Adaptive.reuse_aware g trace in
  checki "block 0 reuse distance" 2 (k_of 0);
  checki "block 1 reuse distance" 2 (k_of 1);
  checki "never revisited gets 1" 1 (k_of 2)

let test_adaptive_policy_runs () =
  let g, trace = Trace.Synthetic.loop_nest ~levels:2 ~iters:[| 8; 8 |] in
  let sc = Core.Scenario.of_graph g ~trace in
  let fixed = Core.Scenario.run sc (Core.Policy.on_demand ~k:4) in
  let adaptive =
    Core.Scenario.run sc
      (Core.Policy.make ~compress_k:4
         ~adaptive_k:(Core.Adaptive.reuse_aware g trace)
         ())
  in
  (* Trained on its own trace, reuse-aware k must not fault more. *)
  checkb "reuse-aware never worse on demand misses" true
    (adaptive.Core.Metrics.demand_decompressions
    <= fixed.Core.Metrics.demand_decompressions);
  checkb "describe mentions adaptive" true
    (let d =
       Core.Policy.describe
         (Core.Policy.make ~compress_k:4 ~adaptive_k:(fun _ -> 2) ())
     in
     let rec has i =
       i + 8 <= String.length d && (String.sub d i 8 = "adaptive" || has (i + 1))
     in
     has 0)

(* Event-stream coherence: replay the engine's event log as a state
   machine over block residency; any out-of-order event is a bug. *)
let coherent events =
  let resident = Hashtbl.create 16 in
  let in_flight = Hashtbl.create 16 in
  List.for_all
    (fun ev ->
      match (ev : Core.Engine.event) with
      | Core.Engine.Demand_decompress { block; _ } ->
        if Hashtbl.mem resident block then false
        else begin
          Hashtbl.replace resident block ();
          true
        end
      | Prefetch_issue { block; _ } ->
        if Hashtbl.mem resident block || Hashtbl.mem in_flight block then false
        else begin
          Hashtbl.replace in_flight block ();
          true
        end
      | Exec { block; _ } ->
        (* a prefetched block becomes resident at its exec arrival *)
        if Hashtbl.mem in_flight block then begin
          Hashtbl.remove in_flight block;
          Hashtbl.replace resident block ()
        end;
        Hashtbl.mem resident block
      | Discard { block; _ } | Evict { block; _ } ->
        (* wasted prefetches may be discarded before any exec *)
        if Hashtbl.mem in_flight block then begin
          Hashtbl.remove in_flight block;
          true
        end
        else if Hashtbl.mem resident block then begin
          Hashtbl.remove resident block;
          true
        end
        else false
      | Exception _ | Stall _ | Patch _ | Unpatch _ | Recompress_queued _
      | Flush _ -> true)
    events

let prop_event_coherence =
  let gen =
    QCheck.Gen.(
      let* blocks = int_range 3 10 in
      let* len = int_range 1 200 in
      let* seed = int_range 0 500 in
      let* k = int_range 1 8 in
      let* lookahead = int_range 1 4 in
      return (blocks, len, seed, k, lookahead))
  in
  QCheck.Test.make ~count:100 ~name:"event stream coherence"
    (QCheck.make gen) (fun (blocks, len, seed, k, lookahead) ->
      let ring = List.init blocks (fun i -> (i, (i + 1) mod blocks)) in
      let extra = List.init (blocks / 2) (fun i -> (i, (i + 2) mod blocks)) in
      let g = Cfg.Graph.synthetic blocks (List.sort_uniq compare (ring @ extra)) in
      let trace = Trace.Synthetic.markov ~seed g ~length:len in
      let sc = Core.Scenario.of_graph g ~trace in
      let events = ref [] in
      let _ =
        Core.Scenario.run
          ~log:(fun e -> events := e :: !events)
          sc
          (Core.Policy.pre_all ~k ~lookahead)
      in
      coherent (List.rev !events))

let test_workload_event_coherence () =
  let sc =
    Core.Scenario.of_source ~name:"loop"
      "li r1, 30\nloop: subi r1, r1, 1\nbeq r1, r0, done\nblt r1, r0, done\nj loop\ndone: halt"
  in
  List.iter
    (fun policy ->
      let events = ref [] in
      let _ =
        Core.Scenario.run ~log:(fun e -> events := e :: !events) sc policy
      in
      checkb "coherent" true (coherent (List.rev !events)))
    [
      Core.Policy.on_demand ~k:2;
      Core.Policy.pre_all ~k:2 ~lookahead:2;
      Core.Policy.make ~mode:Core.Policy.Recompress ~compress_k:2 ();
      Core.Policy.make ~compress_k:2 ~budget:96 ();
    ]

let () =
  Alcotest.run ~and_exit:false "core-adaptive"
    [
      ( "adaptive",
        [
          Alcotest.test_case "per-block kedge" `Quick test_kedge_per_block;
          Alcotest.test_case "per-block validation" `Quick
            test_kedge_per_block_validation;
          Alcotest.test_case "loop-aware" `Quick test_adaptive_loop_aware;
          Alcotest.test_case "reuse-aware" `Quick test_adaptive_reuse_aware;
          Alcotest.test_case "adaptive policy" `Quick test_adaptive_policy_runs;
        ] );
      ( "coherence",
        [
          qcheck prop_event_coherence;
          Alcotest.test_case "workload policies" `Quick
            test_workload_event_coherence;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Design-space fixture: the MD5 of every run's metrics and full event
   stream over a seeded cross product of the Fig. 3 design space —
   every strategy and predictor, both modes, with and without a
   budget, every retention policy, k in {1, 4} — each case on its own
   synthetic graph (varied block sizes) and skewed Markov trace. Any
   change to what the engine computes, or to the order it reports it
   in, moves a digest. *)

let fixture_strategies =
  [ "on-demand"; "pre-all"; "pre-single:first"; "pre-single:last-taken";
    "pre-single:profile" ]

let fixture_retentions = [ "kedge"; "clock"; "loop-aware"; "pin-hot" ]

let fixture_cases =
  List.concat_map
    (fun strategy ->
      List.concat_map
        (fun mode ->
          List.concat_map
            (fun budget ->
              List.concat_map
                (fun retention ->
                  List.map
                    (fun k -> (strategy, mode, budget, retention, k))
                    [ 1; 4 ])
                fixture_retentions)
            [ false; true ])
        [ Core.Policy.Discard; Core.Policy.Recompress ])
    fixture_strategies

(* One run's metrics and full event stream, hashed together: the
   digest both fixtures pin. *)
let run_digest sc policy =
  let buf = Buffer.create 4096 in
  let m =
    Core.Scenario.run
      ~log:(fun e ->
        Buffer.add_string buf (Sim.Events.to_json e);
        Buffer.add_char buf '\n')
      sc policy
  in
  Digest.to_hex (Digest.string (Marshal.to_string m [] ^ Buffer.contents buf))

let fixture_scenario case (strategy, mode, budgeted, retention, k) =
  let rng = Random.State.make [| 7919; case |] in
  let blocks = 4 + Random.State.int rng 11 in
  let extra =
    List.init (Random.State.int rng 14) (fun _ ->
        (Random.State.int rng blocks, Random.State.int rng blocks))
  in
  let ring = List.init blocks (fun i -> (i, (i + 1) mod blocks)) in
  let sizes = Array.init blocks (fun _ -> 4 * (4 + Random.State.int rng 29)) in
  let g =
    Cfg.Graph.synthetic ~sizes blocks (List.sort_uniq compare (ring @ extra))
  in
  let weight ~src ~dst = float_of_int (1 + (((src * 7) + (dst * 13) + case) mod 5)) in
  let trace =
    Trace.Synthetic.markov ~seed:case ~weight g
      ~length:(200 + Random.State.int rng 200)
  in
  let sc = Core.Scenario.of_graph g ~trace in
  let profile = Core.Scenario.profile sc in
  let lookahead = 1 + (case mod 3) in
  let strategy =
    match strategy with
    | "on-demand" -> Core.Policy.On_demand
    | "pre-all" -> Core.Policy.Pre_all { lookahead }
    | s ->
      let predictor =
        match s with
        | "pre-single:first" -> Core.Predictor.First_successor
        | "pre-single:last-taken" -> Core.Predictor.Last_taken
        | _ -> Core.Predictor.By_profile profile
      in
      Core.Policy.Pre_single { lookahead; predictor }
  in
  let pinned =
    List.filteri (fun i _ -> i < 2) (Cfg.Profile.hot_blocks profile ~fraction:0.3)
  in
  let retention =
    match retention with
    | "kedge" -> Residency.Policy.Kedge
    | "clock" -> Residency.Policy.Clock
    | "loop-aware" -> Residency.Policy.Loop_aware { weight = 2 }
    | _ -> Residency.Policy.Pin_hot { pinned }
  in
  let budget =
    if budgeted then
      let total = Array.fold_left ( + ) 0 sizes in
      let pinned_bytes = List.fold_left (fun a b -> a + sizes.(b)) 0 pinned in
      Some (max (total / 3) pinned_bytes)
    else None
  in
  (sc, Core.Policy.make ~mode ~strategy ?budget ~retention ~compress_k:k ())

let fixture_run case params =
  let sc, policy = fixture_scenario case params in
  run_digest sc policy

let fixture_expected =
  [|
    "251bd4e9fac3f65411831dc123150396"; "1eb9b5da146a6f3e95d07a7d23c6aeae";
    "689ee898c2298439ead99ba34a464dfe"; "16f02646d1e0ee3b2a45950c56da9c5d";
    "19e481f329070e875d8b01c808d192e9"; "b70e16c1dfe5678ee3ab397534a3a80c";
    "fad3c064cd167222d34c65e02bbf9876"; "00e1c1d4081c1efdfd88aab07b1ee9da";
    "6d9b1e9f7298d348d3d22c6ad72c66d6"; "eeb4a2369445e1417f64877ef39ca449";
    "cce8876904dcff48dd8f3c40496fd35a"; "8d2c3de2c1a8b7cf9f015406b299e23a";
    "a5b34d6cc82af4c5bd74c2500472c09e"; "1b3e682ec6b4313d06e330804c21bdc8";
    "0760553617cb5a81e7ad4bbca0f1c10b"; "c5ab4ebc3b6b4450e87241600786eb7d";
    "63a93df6c9b7aeffb11d646c1ba17436"; "634e448107f0e06660e6debd9e67be68";
    "4d0b3631d05671afac0dc0d058c98049"; "d81419a7dd6d2c94ccd48e7b99953f3a";
    "c2039d69f0a8d040f42354150d865fd8"; "d1a34cfd9311e9c471c3305554caeb0e";
    "40deda52519aeae1e1b71bdec02105d2"; "61dbddf677ded69349cacab3470d82ed";
    "5ae66f9a95e65b563658585e577cd85b"; "62a6c4bc6dd4bd3407b9d8811cf9e9cd";
    "af6467cb5e62978d17b16f9c118bf683"; "35ca005bb298c6ec5bcf3f668bd9975a";
    "81d3ba4f9b0e9ac15a120b1dbf8250f9"; "842a98a4b28c000a9e98fbd4d54dd583";
    "89b6769e746be902fac62099528d3f07"; "c930ad6a468a15540572d015daad59ec";
    "3fd1003a30a850a9a65bbe153c4e5e62"; "9d38438cad6c75b7eb1b8379cb7344d7";
    "95764db05a1e5c4b5d98f2fe93cb3edd"; "2d579e5662bf53f604aac9546c45585c";
    "dc76cce5aec7f4de04f5e9680f5a4ca3"; "95c7012cffa5cc2496695e7a2e4306eb";
    "9ca54b64bff8275806f99273dcd1e988"; "6e0ff0f395bede96a1a56c59adfc12ba";
    "36e452df153c21d68911d53da5a0c709"; "848df8e1d616d49bde71798864598c9d";
    "5b731b8935acf6117f43405931abae41"; "8ec330de27829bc5f44c103a2d99c31f";
    "1861ac66f9a0319d626fed300305096e"; "0ed8911c2e06d2c0bbaf3075d4fd1104";
    "204c956e8a13ded20c7325519b4756d7"; "8c210202670645b80dd11b700ea9ea3d";
    "1416724a6e9a48825989ce73714612f8"; "997f88e42ad3d55927ef4b6f4ae8babb";
    "4f1fe441c00a1f48a3e14983de01f7f1"; "c01f96f255d7d165d4583bfe8b7b3f28";
    "8af4969e5416509125179a0eb06301a1"; "88f885e71fc367fd1e905aa575da5af9";
    "69db8b392dde684f4605dd3f6482df30"; "f51a32b4b8c95b4ef829baabe0e0884a";
    "dc4a96c7f6c0786b46bce2f048c6e76d"; "3a40a971ea7bd1c1fc2304175c372b08";
    "095f77b403eeb205a05d48d0cb00bea8"; "eae6e4d8477ada4137a33acd7a52f7e4";
    "6ee6dfebd55fcb71e6b44bf52d6afabe"; "792f029b670f0be70baf8d7599a6b66d";
    "4a5ef8efabfdeb85464c03731534ac4a"; "12c433a08baebc68291dc9dc372fa334";
    "77e58b498000f6c4d3054bc2fbce828a"; "8ee5ab99b9b37bb9d5c1fe44da784a52";
    "d60ceed83d5a4c2657327d65c6382cfb"; "3df041899b21c664d4e0759559489732";
    "314d67478753f10220851fa9a20b346f"; "1cc8670eb39d865c87fffc4645ea94d8";
    "1133b05fe8edff9c502a7d09724ef4d2"; "9a949d5d986dfa83ee8f7e88ac2ddd5c";
    "c64458bfee5935162da886ecd04a684d"; "db9e198f7c95d6bdd258b03d6988dae4";
    "5467d3267f6e9495abd698d221c9a331"; "3c03069cdc106c4aecfb0c400e5b7337";
    "3caeaa622c365adf020cde424ce3b53c"; "956457a9ae5b92617f8b3f2849ef77f6";
    "7650784067f2ee762c96498603de0263"; "5ad4602f95720bbf48da035c8fdc9ba9";
    "88d65ca5bf6abe362da68ddfdbade2ec"; "d123bc79bc6e438a62910807b6735dcc";
    "afeb345376fabb5217af2e1d71f4d079"; "dc167559038aa22e1fbf4d0477dd0500";
    "70852261c9553707876cdfc9e11f9428"; "3c89628491d5570df8758fc7ae552407";
    "46cf5eeb672018977ab2285e2c876ba5"; "5a63ad7221994ecd57bb5dca1c090f40";
    "7fbca5278580e5d30f58eeb242b1336d"; "ba7349f2de509cdad83b79cbc7ac5ec0";
    "1d257df5aac5e2505a741fbae8bb9db7"; "9624903cc8c327177900502b96ab8422";
    "2d25f6254c556d02c395f930e72ae5b1"; "054f5b54a6cf87284f6593b1e137526f";
    "5f5c7b41fb17412cd8590d034955e145"; "b1abeaff5b4d06e2f1ac1ba0d68536ad";
    "dc0faeb8bcecb2fc060ee9d9917cd4a9"; "9106717c28dc2add6127c2586081d1a6";
    "56b070f61a649079d9d23b130ec26299"; "ac2dc7ebe2de208afc99783a1e1f7f3c";
    "1a7a9d9d031196b2ddb6e72361c7ad1c"; "714c0df347d4de1389c4f20f60b6f4c5";
    "dcf4120ff82aeb762b29fd2b58f92aff"; "bc2fea28f23cd660e95420ad80833443";
    "d7e3db6d33be4813752cd40d62df7e4a"; "7b6ca0c117c08aa8093391933bf0eb9b";
    "ac9ca9acb3b46663910a46f242f89cba"; "57ba8ac2c01bd5b316a97814899a86a8";
    "0df6d4243766cf96203e841160c6579d"; "b3ba9f22791db5e3e1333d71d1b6fdd2";
    "21afe954a9a031da99cdfb8439e28114"; "6b1e0a16c8354edf7f6ccf877e2e875f";
    "1f6baf55a7c182a5df3bf43fb934d74f"; "e0201452e4bfcb781c5173d5f7e680e4";
    "d431900116118a8ed3d24696a89427b2"; "01b4142e9e21748cbf3a5b205f7e4c3d";
    "fb1421d438bcd28734c4413bad2f0d46"; "85339f46047756051b8e69478ec3b107";
    "36f2c7d75dafc9bc77136a3d784a2f8e"; "c7103055805ca1621ec8649acaa02fba";
    "bd639f0609f6e1ed17f1ffc472328b9d"; "7dddbd003a9df214d38356a36c0bd1af";
    "64b8f89a1498442c4f4c28c625692e52"; "62ad9d94e3664334acc3a7023bc5999e";
    "e1f6a69a335a5e9d5cdb16d37cd408fd"; "cb96365366cdd53c82be0ca20642e115";
    "ab5faca90b5d02548ff327dbf7fd36e2"; "9c8024bf8d583923556417b07be6dcdb";
    "6a1c155a94d5064f00af4512b281cca1"; "d2195436470a73a25b34ab2e932d49f4";
    "9c0d2a2cb77d27f17bb8d911ebed7ece"; "28e6754c622711d0656a02d31196fa0b";
    "5b6e90719dba8b17371bd17c6eb187ab"; "8aac65b8128af2aa43573e53dda973e4";
    "d495620d7547afc21652292f18a9bd53"; "17d965f9ee9c9003b4c942c5a5211d1b";
    "447f262bf5122982a11ce2598812b6c9"; "6cbaec95869b8e970bf672db9cc7808f";
    "26a45c929a1eab3fa3f703a87d9979bb"; "eab00ce91e37cbcb06ba932e7343bc9c";
    "f8c1b14f9a4418de74a6c416515bae7e"; "fce09e01286df4abce1219dc7c8a661a";
    "722b3b7c9a31c2e0c572681b6805dff1"; "f15aa697c12089af5c9e66bab8dcc200";
    "1125b5d59187c3b05d0735ab78d67278"; "4bd4eecf67e7a8e90ce37e67619fe16d";
    "ea2b3d6726ffce4c14e18f7850010f9c"; "58127f12fa3a337f366509b3001601f4";
    "ac732b4a12e62f46c365746cacef5309"; "6ed8e2df2911d30c9bbc867be3662f1d";
    "d8f8cb466d71487457c36fa442f9ee21"; "a807b0442a98355ffcf7df6fed07280f";
    "9db4a93e8448f6229dd105babc3860ae"; "65517087dc9bcf326b4ecf4e068ce8d0";
    "8b55590b9bb19d96ff32c9f8dd25cbd9"; "20aff2759cfcd87e3f11bfdaff3f5ab4";
    "f761a2e337246cb970b78a13d250f519"; "72f65dee1bddd70a819270e12f77cdd2";
    "5c25ade7f3116fdb85a3b8a12aa0428e"; "3052fbcc0258d556ea15e9d1b56b8842";
  |]

let test_general_path_fixture () =
  let got = List.mapi fixture_run fixture_cases in
  checki "cases" (Array.length fixture_expected) (List.length got);
  List.iteri
    (fun i ((strategy, mode, budget, retention, k), d) ->
      Alcotest.check Alcotest.string
        (Printf.sprintf "case %d: %s %s%s %s k=%d" i strategy
           (match mode with Core.Policy.Discard -> "discard" | Recompress -> "recompress")
           (if budget then " budget" else "")
           retention k)
        fixture_expected.(i) d)
    (List.combine fixture_cases got)

(* The engine's pre-single pick reads per-run tables; Predictor.choose
   is the reference it must agree with, for every predictor, over random
   graphs, lookaheads, last-taken histories and compressed sets. *)
let prop_pick_matches_choose =
  let gen =
    QCheck.Gen.(
      let* blocks = int_range 2 12 in
      let* edges =
        list_size (int_range 0 30)
          (pair (int_range 0 (blocks - 1)) (int_range 0 (blocks - 1)))
      in
      let* lookahead = int_range 1 4 in
      let* seed = int_range 0 100_000 in
      return (blocks, edges, lookahead, seed))
  in
  QCheck.Test.make ~count:300 ~name:"table-driven pick = Predictor.choose"
    (QCheck.make gen) (fun (blocks, edges, lookahead, seed) ->
      let g = Cfg.Graph.synthetic blocks (List.sort_uniq compare edges) in
      let rng = Random.State.make [| seed |] in
      let trace =
        Trace.Synthetic.markov ~seed g ~length:(1 + Random.State.int rng 80)
      in
      let frontiers = Cfg.Dist.frontiers g ~k:lookahead in
      List.for_all
        (fun predictor ->
          let plan = Core.Predictor.plan predictor g frontiers in
          let state = Core.Predictor.create_state ~blocks in
          List.for_all
            (fun _ ->
              Core.Predictor.note_edge state ~src:(Random.State.int rng blocks)
                ~dst:(Random.State.int rng blocks);
              let packed = Array.init blocks (fun _ -> Random.State.bool rng) in
              let compressed c = packed.(c) in
              let from = Random.State.int rng blocks in
              let candidates =
                List.filter_map
                  (fun (c, _) -> if compressed c then Some c else None)
                  (Cfg.Dist.within g ~from ~k:lookahead)
              in
              let expected =
                Core.Predictor.choose predictor state g ~from ~k:lookahead
                  ~candidates
              in
              Core.Predictor.pick plan state ~from ~compressed
              = Option.value ~default:(-1) expected)
            (List.init 12 Fun.id))
        Core.Predictor.
          [ First_successor; Last_taken; By_profile (Cfg.Profile.of_trace g trace) ])

(* Memsim.Kedge against a list model of its contract, under any call
   order: tracks at arbitrary (also decreasing) steps, per-block k
   (also past the timing wheel's size), untracks, and due queries at
   nondecreasing, sometimes skipped, steps. *)
let prop_kedge_model =
  let gen =
    QCheck.Gen.(
      let* blocks = int_range 1 6 in
      let* ks = array_size (return blocks) (int_range 1 20) in
      let* ops =
        list_size (int_range 0 80)
          (oneof
             [
               map2 (fun b s -> `Track (b, s)) (int_range 0 (blocks - 1)) (int_range 0 40);
               map (fun b -> `Untrack b) (int_range 0 (blocks - 1));
               map (fun d -> `Due d) (int_range 0 9);
             ])
      in
      return (blocks, ks, ops))
  in
  QCheck.Test.make ~count:500 ~name:"kedge = list model" (QCheck.make gen)
    (fun (blocks, ks, ops) ->
      let t = Memsim.Kedge.create ~k_of:(fun b -> ks.(b)) ~blocks ~k:1 () in
      let base = Array.make blocks (-1) and pending = ref [] and step = ref 0 in
      List.for_all
        (function
          | `Track (b, s) ->
            Memsim.Kedge.track t ~block:b ~step:s;
            base.(b) <- s;
            pending := (s + ks.(b), b) :: !pending;
            true
          | `Untrack b ->
            Memsim.Kedge.untrack t ~block:b;
            base.(b) <- -1;
            true
          | `Due d ->
            step := !step + d;
            let s = !step in
            let fired, rest = List.partition (fun (d, _) -> d <= s) !pending in
            pending := rest;
            let expected =
              List.sort_uniq compare
                (List.filter_map
                   (fun (d, b) ->
                     if d = s && base.(b) >= 0 && base.(b) + ks.(b) = s then Some b
                     else None)
                   fired)
            in
            kedge_due t ~step:s = expected)
        ops)

(* On-demand fixture: the same digest over plain on-demand/discard
   k-edge runs — 64 seeded small graphs (2-14 blocks, 1-400 steps,
   k 1-12), the replay benchmark's hot/cold graph over a 20k-step
   Markov trace at k=2 and k=8 (long runs reach states the short ones
   never do), and one graph of more than 1024 blocks. *)

let on_demand_scenario case =
  let markov_case ~blocks ~extra ~len ~seed ~k =
    let ring = List.init blocks (fun i -> (i, (i + 1) mod blocks)) in
    let g =
      Cfg.Graph.synthetic blocks (List.sort_uniq compare (ring @ extra))
    in
    let trace = Trace.Synthetic.markov ~seed g ~length:len in
    (Core.Scenario.of_graph g ~trace, Core.Policy.on_demand ~k)
  in
  if case < 64 then begin
    let rng = Random.State.make [| 4099; case |] in
    let blocks = 2 + Random.State.int rng 13 in
    let extra =
      List.init (Random.State.int rng 13) (fun _ ->
          (Random.State.int rng blocks, Random.State.int rng blocks))
    in
    let len = 1 + Random.State.int rng 400 in
    let seed = Random.State.int rng 2001 in
    markov_case ~blocks ~extra ~len ~seed ~k:(1 + Random.State.int rng 12)
  end
  else if case < 66 then begin
    let g, _ =
      Trace.Synthetic.hot_cold ~hot_blocks:6 ~cold_blocks:24 ~hot_iters:4
        ~cold_visit_every:16 ()
    in
    let trace = Trace.Synthetic.markov ~seed:1 g ~length:20_000 in
    ( Core.Scenario.of_graph g ~trace,
      Core.Policy.on_demand ~k:(if case = 64 then 2 else 8) )
  end
  else begin
    let rng = Random.State.make [| 4099; case |] in
    let extra =
      List.init 300 (fun _ ->
          (Random.State.int rng 1100, Random.State.int rng 1100))
    in
    markov_case ~blocks:1100 ~extra ~len:6000 ~seed:case ~k:3
  end

let on_demand_expected =
  [|
    "cf106c8621cc26c8b2dd97a4ae1e21ad"; "db59ae4f699444dfeb5e815d6d99889e";
    "cf30c238f20b97e040ff712a3c940929"; "e419630d286e7a808ee991752c161b9a";
    "73d51464ce5af8b7a09fdf5da64677eb"; "5389f92bd04ea7cdb7e8b67d02a2e4cb";
    "ed0d686497637dd112f2386e2b12335b"; "08b2c7c6113f328d121f85e728972573";
    "5040a7a146679833af54cfd5e30bd5c4"; "c24c34d0e28ef122d7b761b53fcad2d5";
    "69df1ad617f08e731b99db6e6d1ddddc"; "0b9fc52fe9e4877430fdc7f9bdf82948";
    "e39bd8c60b81d6eb57bdc0451d548653"; "caa52578588e15f89c612851e17a3495";
    "d5f4e2ebc432fff830d2ca9d8e3f1e58"; "22ae8421364aa3cbc80a12b2a9f3493e";
    "757fdde450b1f5db6d53d2d15caef760"; "078407b9fc5bf7d4ec5c9510c475d309";
    "d747ec18a75f10925df552e63a0b0965"; "b0e106878cb6f6648ffaeab7fdff054b";
    "bb4f7fd44599f9d66a41f21c808be4d0"; "5a8658b01ef7d83e060b14a6670ef95d";
    "fcb3bb2e39b0c7b09b75dafcfbc5b313"; "619d9c1b6c9faaefcffe3b70d602066c";
    "46d00acdd97484c7dd091f414116e9f7"; "bc76e257579b905c83ec5f872c54a7ba";
    "23f368183fcb7eef797e7cd3b99e019b"; "76c5b7500a402106b6bb6e8fa8d55bc7";
    "a542824e9f6d70532fb1499fb4e9aaba"; "468271c0fbcea57160e725bcc9ee39b0";
    "a36ce521b41f907232088bdd6bcf3d11"; "4edcf9c215ddf22ae0442d0443bb4e7b";
    "2a54b7cab1b4b9bc44a752d1065c5976"; "30337d71f45a509ef469d86a18d9c08c";
    "9f1308561cae835f6d193603c7817e10"; "dd36a79f359eacb0aab9322477741906";
    "a509ed0b02761e097b89618978905c2c"; "8bf7c6f35cddb694ac4c7bf73157e0f9";
    "d9b9c928310611064c1b7de9f4a17a1e"; "b0c18a6092ee0df25726e1b4254ff465";
    "64038529f7af3c19939b8660a065de96"; "6f8812fefb32417bd928bf704976bec8";
    "29732cbdbbdad846d716a3eeaa11d284"; "48dc3e118596a37fa8454f1739bc5fbf";
    "a0d666af85e10be582c52dba82a10b73"; "3d6c5659de124e5bdf05a2479eb95980";
    "a5cb2c532fed6188efc65960c158a96f"; "370c6bd0bcf3b206c056f6817d16e935";
    "2360cb1f666f96fa7362d94f99529ad2"; "aa323ea95b9f3cffd3ed5879c026b3d9";
    "2bf5cdf15f291359631635b96bdead7f"; "fb9f7c92cab6b584135f28dab4e4bfe9";
    "c6b313f61a53353e776f53f4ea5864b7"; "f568a627301a22db2b12aa197ed518f9";
    "48d5542bfb981c230ebe4f7cd5db666e"; "3509dcdab0da4ea6256b3c2923ae7772";
    "82325b4f072cb08244f8f4697c7042a2"; "dcc060aa49dd88d6782aa860d8dde36c";
    "d2921545a14ef1ac8897e48b90bb2ef0"; "a0b0ee9d13c69b03c66c304f4c17e4bb";
    "172abf835259e296e871ea186bb49fce"; "eff464e7402379d4070f73e443849e40";
    "bf669c969fb414ab1b97503aace0f974"; "0c38145b47fff3a0eb88752754845948";
    "f142efca8a7b3cdcccc4b76a48579d65"; "1f7b653864655c154861348896b63ee2";
    "fa9915b316f12ac332a86b5f36063827";
  |]

let test_on_demand_fixture () =
  let got =
    Array.init 67 (fun case ->
        let sc, policy = on_demand_scenario case in
        run_digest sc policy)
  in
  checki "cases" (Array.length on_demand_expected) (Array.length got);
  Array.iteri
    (fun i d ->
      Alcotest.check Alcotest.string (Printf.sprintf "case %d" i)
        on_demand_expected.(i) d)
    got

(* Events are built only for a listener, so a run with none must
   compute exactly what a run with a counting sink or a log computes,
   over every configuration both fixtures pin. The fixtures price
   energy at zero (paper-2005 has no energy model), so each run is
   repeated under a profile that prices it. *)
let test_listener_independence () =
  let check name (sc, policy) =
    List.iter
      (fun profile ->
        let run = Core.Scenario.run ~profile in
        let quiet = run sc policy in
        let counted =
          run ~sink:(Sim.Events.counting (Sim.Events.counters ())) sc policy
        in
        let logged = run ~log:ignore sc policy in
        checkb (Printf.sprintf "%s, %s: sink" name profile) true
          (quiet = counted);
        checkb (Printf.sprintf "%s, %s: log" name profile) true
          (quiet = logged))
      [ "paper-2005"; "cortex-m-flash" ]
  in
  List.iteri
    (fun i params ->
      check (Printf.sprintf "design-space case %d" i) (fixture_scenario i params))
    fixture_cases;
  for i = 0 to 66 do
    check (Printf.sprintf "on-demand case %d" i) (on_demand_scenario i)
  done

let () =
  Alcotest.run "core-fixture"
    [
      ( "general-path",
        [
          Alcotest.test_case "design-space fixture" `Quick
            test_general_path_fixture;
          Alcotest.test_case "on-demand fixture" `Quick
            test_on_demand_fixture;
          Alcotest.test_case "results do not depend on a listener" `Quick
            test_listener_independence;
          qcheck prop_pick_matches_choose;
          qcheck prop_kedge_model;
        ] );
    ]
