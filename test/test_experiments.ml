(* Integration tests over the experiment harness: every figure's
   property holds, every table regenerates, and the qualitative shapes
   the paper describes are present in the numbers. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)

let test_fig1 () =
  checkb "B1 compressed exactly on entering B4" true (Experiments.Fig1.holds ())

let test_fig2 () =
  checkb "B7 pre-decompressed on exiting B1" true (Experiments.Fig2.holds ())

let test_fig3 () =
  Alcotest.check
    Alcotest.(list int)
    "pre-all decompresses the compressed blocks within 2 edges" [ 4; 5 ]
    (List.sort compare (Experiments.Fig3.pre_all_set ()));
  checkb "pre-single picks exactly one" true
    (match Experiments.Fig3.pre_single_choice () with
    | Some b -> List.mem b [ 4; 5 ]
    | None -> false)

let test_fig4 () =
  checkb "decompression ahead, compression behind" true
    (Experiments.Fig4.holds ())

let test_fig5 () =
  checkb "final memory image matches the paper" true (Experiments.Fig5.holds ())

let test_fig2_reconstruction_distances () =
  (* The two constraints the reconstruction was built to satisfy. *)
  let g = Experiments.Paper_figures.fig2 () in
  checkb "d(B1 exit -> B7) = 3" true
    (Cfg.Dist.distance g ~src:1 ~dst:7 = Some 3);
  let within2 = List.map fst (Cfg.Dist.within g ~from:0 ~k:2) in
  checkb "B4 within 2 of B0" true (List.mem 4 within2);
  checkb "B5 within 2 of B0" true (List.mem 5 within2)

let test_fig1_has_two_cycles () =
  (* "Figure 1 depicts an example CFG fragment that contains two
     loops": the reconstruction has (at least) two distinct cycles. *)
  let g = Experiments.Paper_figures.fig1 () in
  checkb "cycle through B1" true (Cfg.Dist.distance g ~src:1 ~dst:1 <> None);
  checkb "cycle through B2" true (Cfg.Dist.distance g ~src:2 ~dst:2 <> None)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_registry () =
  checki "twenty-one experiments" 21 (List.length Experiments.Registry.all);
  checkb "find by id" true (Experiments.Registry.find "E6" <> None);
  checkb "find by id case-insensitive" true
    (Experiments.Registry.find "e6" <> None);
  checkb "find by slug" true (Experiments.Registry.find "kedge-sweep" <> None);
  checkb "find energy pareto" true
    (Experiments.Registry.find "energy-pareto" <> None);
  checkb "find line granularity" true
    (Experiments.Registry.find "line-granularity" <> None);
  checkb "unknown" true (Experiments.Registry.find "E99" = None);
  let ids = List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all in
  checkb "ids unique" true (List.length (List.sort_uniq compare ids) = 21)

let table_tests =
  (* Every experiment table renders with rows. The heavyweight sweeps
     are marked `Slow so `dune runtest` stays quick by default... they
     still run because alcotest runs slow tests unless -q is given. *)
  List.map
    (fun (e : Experiments.Registry.entry) ->
      Alcotest.test_case (e.id ^ " regenerates") `Slow (fun () ->
          let t = e.runner () in
          checkb (e.id ^ " has rows") true (Report.Table.rows t <> []);
          checkb (e.id ^ " renders") true
            (String.length (Report.Table.render t) > 0)))
    Experiments.Registry.all

(* ------------------------------------------------------------------ *)
(* Qualitative shapes (the paper's prose claims)                       *)

let test_kedge_tradeoff_shape () =
  (* §3: larger k delays compression -> more memory, less overhead. *)
  let sc = Experiments.Util.scenario "crc32" in
  let series = Experiments.Kedge_sweep.series sc in
  let overheads =
    List.map (fun (_, m) -> Core.Metrics.overhead_ratio m) series
  in
  let avg_savings =
    List.map (fun (_, m) -> Core.Metrics.avg_memory_saving m) series
  in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && non_increasing rest
    | _ -> true
  in
  checkb "overhead non-increasing in k" true (non_increasing overheads);
  checkb "avg memory saving non-increasing in k" true
    (non_increasing avg_savings)

let test_strategy_shape () =
  (* §4: pre-decompression eliminates demand misses; under the fast
     hardware decompressor it also reduces total overhead. *)
  let sc = Experiments.Util.scenario "fir" in
  let config = Experiments.Strategy_compare.fast_config sc in
  let metrics = Experiments.Strategy_compare.metrics_with ~config sc in
  let get name = List.assoc name metrics in
  let od = get "on-demand" and pre_all = get "pre-all" in
  checkb "pre-all has fewer demand misses" true
    (pre_all.Core.Metrics.demand_decompressions
    < od.Core.Metrics.demand_decompressions);
  checkb "pre-all is faster with a fast decompressor" true
    (pre_all.Core.Metrics.total_cycles < od.Core.Metrics.total_cycles)

let test_pre_single_uses_less_memory () =
  (* §4: pre-all favors performance over memory; pre-single favors
     memory. *)
  let sc = Experiments.Util.scenario "dijkstra" in
  let metrics = Experiments.Strategy_compare.metrics_for sc in
  let get name = List.assoc name metrics in
  checkb "pre-single peak <= pre-all peak" true
    ((get "pre-single").Core.Metrics.peak_decompressed_bytes
    <= (get "pre-all").Core.Metrics.peak_decompressed_bytes)

let test_budget_shape () =
  (* §2: tighter budgets trade cycles for bytes. *)
  let sc = Experiments.Util.scenario "dijkstra" in
  let series = Experiments.Budget_exp.series sc in
  let by_frac f =
    snd (List.find (fun (frac, _) -> Float.abs (frac -. f) < 1e-9) series)
  in
  let loose = by_frac 1.0 and tight = by_frac 0.2 in
  checkb "tight budget costs more cycles" true
    (tight.Core.Metrics.total_cycles >= loose.Core.Metrics.total_cycles);
  checkb "tight budget evicts" true (tight.Core.Metrics.evictions > 0);
  checkb "tight budget uses less memory" true
    (tight.Core.Metrics.peak_decompressed_bytes
    <= loose.Core.Metrics.peak_decompressed_bytes)

let test_discard_beats_recompress () =
  (* §5: the discard implementation avoids the background compression
     work entirely. *)
  let sc = Experiments.Util.scenario "matmul" in
  let discard =
    Experiments.Util.run sc
      (Core.Policy.make ~mode:Core.Policy.Discard ~compress_k:4 ())
  in
  let recompress =
    Experiments.Util.run sc
      (Core.Policy.make ~mode:Core.Policy.Recompress ~compress_k:4 ())
  in
  checkb "discard does no compression work" true
    (discard.Core.Metrics.comp_thread_busy_cycles
    < recompress.Core.Metrics.comp_thread_busy_cycles);
  checkb "discard frees memory earlier" true
    (discard.Core.Metrics.avg_decompressed_bytes
    <= recompress.Core.Metrics.avg_decompressed_bytes +. 1e-9)

let test_block_beats_procedure_on_avg_footprint () =
  (* §6: block granularity keeps unused parts compressed. *)
  let sc = Experiments.Util.scenario "fsm" in
  let rows = Baselines.Comparison.rows sc in
  let get s =
    List.find (fun r -> r.Baselines.Comparison.scheme = s) rows
  in
  checkb "block/k-edge avg footprint below procedure's" true
    ((get "block/k-edge").Baselines.Comparison.avg_footprint
    < (get "procedure/k-edge").Baselines.Comparison.avg_footprint)

let test_shared_codecs_beat_per_block () =
  (* E12's headline: per-block generic codecs fail on basic blocks;
     shared-model codecs do not. *)
  let sc = Experiments.Util.scenario "dijkstra" in
  let compressed_with codec =
    Array.fold_left
      (fun a (b : Cfg.Graph.block) ->
        let bytes =
          Eris.Program.slice_bytes
            (Option.get sc.Core.Scenario.program)
            ~lo:b.addr ~hi:(b.addr + b.byte_size)
        in
        a + Bytes.length (codec.Compress.Codec.compress bytes))
      0
      (Cfg.Graph.blocks sc.Core.Scenario.graph)
  in
  let corpus = (Option.get sc.Core.Scenario.program).Eris.Program.image in
  let positional = Compress.Registry.code_codec ~corpus in
  let lzss = Compress.Registry.find_exn "lzss" in
  checkb "positional shared beats per-block lzss" true
    (compressed_with positional < compressed_with lzss)

let test_adaptive_dominates_on_misses () =
  (* E14: trained on its own trace, reuse-aware k must fault at most
     as often as the fixed k it is built around. *)
  let sc = Experiments.Util.scenario "adpcm" in
  let metrics = Experiments.Adaptive_exp.metrics_for sc in
  let get name = List.assoc name metrics in
  checkb "reuse-aware beats fixed k=4 on demand misses" true
    ((get "reuse-aware").Core.Metrics.demand_decompressions
    <= (get "fixed k=4").Core.Metrics.demand_decompressions)

let test_validation_rows () =
  (* E16: the runtime must reproduce every checksum, and the model's
     demand-decompression counts must agree with the runtime's within
     a factor of two. *)
  List.iter
    (fun (r : Experiments.Validation.row) ->
      checkb (r.workload ^ " checksum") true r.checksum_ok;
      checkb (r.workload ^ " magnitudes agree") true
        (r.runtime_decompressions <= 2 * r.engine_demand
        && r.engine_demand <= 2 * r.runtime_decompressions))
    (Experiments.Validation.rows ())

let test_coresidence_rows () =
  (* E15: the combined k-edge peak must beat decompress-once, and the
     averages must be below the peaks. *)
  let rows = Experiments.Coresidence.pairs () in
  checkb "six pairs" true (List.length rows = 6);
  List.iter
    (fun (r : Experiments.Coresidence.pair_result) ->
      checkb (r.a ^ "+" ^ r.b ^ " beats decompress-once") true
        (r.kedge < r.decompress_once);
      checkb (r.a ^ "+" ^ r.b ^ " avg below peak") true
        (r.kedge_avg <= float_of_int r.kedge))
    rows

let test_predictor_accuracy_ordering () =
  (* A profile-guided predictor should not lose to the static
     first-successor heuristic on its own training trace. *)
  let sc = Experiments.Util.scenario "dijkstra" in
  let metrics = Experiments.Predictor_ablation.metrics_for sc in
  let acc name =
    let m = List.assoc name metrics in
    let settled =
      m.Core.Metrics.useful_prefetches + m.Core.Metrics.wasted_prefetches
    in
    if settled = 0 then 1.0
    else float_of_int m.Core.Metrics.useful_prefetches /. float_of_int settled
  in
  checkb "profile at least as accurate as first-successor" true
    (acc "profile" >= acc "first-successor" -. 1e-9)

(* An unknown id is a usage error before anything runs: [ccomp
   experiments E5 E99] prints no table, says which id is unknown and
   exits 1. *)
let ccomp_exe = Filename.concat (Filename.dirname (Sys.getcwd ())) "bin/ccomp.exe"

let test_unknown_experiment () =
  let argv = [| ccomp_exe; "experiments"; "E5"; "E99" |] in
  let out, inp, err = Unix.open_process_args_full ccomp_exe argv [||] in
  close_out inp;
  let stdout = In_channel.input_all out and stderr = In_channel.input_all err in
  let status = Unix.close_process_full (out, inp, err) in
  checkb "exit 1" true (status = Unix.WEXITED 1);
  Alcotest.check Alcotest.string "no experiment ran" "" stdout;
  checkb "names the id and --list" true
    (String.starts_with ~prefix:"error: unknown experiment \"E99\"" stderr
    &&
    let rec has i =
      i + 6 <= String.length stderr
      && (String.sub stderr i 6 = "--list" || has (i + 1))
    in
    has 0)

(* ------------------------------------------------------------------ *)
(* Golden outputs (paper-2005 profile) and the energy dimension        *)

(* The default-profile tables are a compatibility surface: the energy
   vocabulary must leave every cycles-era number byte-identical under
   paper-2005. Pin the rendered E5/E6/E16/E17 tables by digest — if one
   of these moves, the default-profile accounting changed and the
   change must be deliberate. *)
let golden_digests =
  [
    (* E5 pins the Fig. 5 memory-image walk, so any model of the §5
       memory organisation it is built on must tell the same story. *)
    ("E5", "de45f79ce86a5d0b9d142478f75dfb4e");
    (* E6/E17 re-pinned 2026-08: the engine stopped recording
       return-only sites as patchable (jalr return addresses are
       home-valued; the runtime re-traps and never patches them), so
       call-bearing workloads count more exceptions and fewer
       patches. *)
    ("E6", "3afa4fb3143be36e438f5c2bba55f18a");
    ("E16", "747dc36ec31b578dc704dc4cce19c5d1");
    ("E17", "6aff796559975621c93711a5ecc35554");
  ]

let golden_tests =
  List.map
    (fun (id, expected) ->
      Alcotest.test_case (id ^ " pinned") `Slow (fun () ->
          let e = Option.get (Experiments.Registry.find id) in
          let rendered = Report.Table.render (e.Experiments.Registry.runner ()) in
          Alcotest.check Alcotest.string (id ^ " byte-identical") expected
            (Digest.to_hex (Digest.string rendered))))
    golden_digests

let test_energy_pareto_divergence () =
  (* The reason E18 exists: under the sram-heavy profile at least one
     workload must pick a different k when optimizing energy than when
     optimizing cycles. *)
  let optima = Experiments.Energy_pareto.optima () in
  checkb "some workload diverges" true
    (Experiments.Energy_pareto.divergent optima <> []);
  List.iter
    (fun (o : Experiments.Energy_pareto.optimum) ->
      checkb (o.workload ^ " ks in sweep") true
        (List.mem o.cycles_opt_k Experiments.Energy_pareto.default_ks
        && List.mem o.energy_opt_k Experiments.Energy_pareto.default_ks))
    optima

let () =
  Alcotest.run "experiments"
    [
      ( "figures",
        [
          Alcotest.test_case "figure 1 (E1)" `Quick test_fig1;
          Alcotest.test_case "figure 2 (E2)" `Quick test_fig2;
          Alcotest.test_case "figure 3 (E3)" `Quick test_fig3;
          Alcotest.test_case "figure 4 (E4)" `Quick test_fig4;
          Alcotest.test_case "figure 5 (E5)" `Quick test_fig5;
          Alcotest.test_case "figure 2 reconstruction" `Quick
            test_fig2_reconstruction_distances;
          Alcotest.test_case "figure 1 cycles" `Quick test_fig1_has_two_cycles;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry;
          Alcotest.test_case "unknown id is an error" `Quick
            test_unknown_experiment;
        ] );
      ("tables", table_tests);
      ( "shapes",
        [
          Alcotest.test_case "k-edge tradeoff (E6)" `Quick
            test_kedge_tradeoff_shape;
          Alcotest.test_case "strategy comparison (E7)" `Quick
            test_strategy_shape;
          Alcotest.test_case "pre-single memory (E7)" `Quick
            test_pre_single_uses_less_memory;
          Alcotest.test_case "budget tradeoff (E10)" `Quick test_budget_shape;
          Alcotest.test_case "discard vs recompress (E9)" `Quick
            test_discard_beats_recompress;
          Alcotest.test_case "granularity (E11)" `Quick
            test_block_beats_procedure_on_avg_footprint;
          Alcotest.test_case "shared codecs (E12)" `Quick
            test_shared_codecs_beat_per_block;
          Alcotest.test_case "predictor accuracy (E13)" `Quick
            test_predictor_accuracy_ordering;
          Alcotest.test_case "adaptive k (E14)" `Quick
            test_adaptive_dominates_on_misses;
          Alcotest.test_case "co-residence (E15)" `Quick test_coresidence_rows;
          Alcotest.test_case "model validation (E16)" `Quick
            test_validation_rows;
          Alcotest.test_case "energy pareto divergence (E18)" `Slow
            test_energy_pareto_divergence;
        ] );
      ("golden", golden_tests);
    ]
