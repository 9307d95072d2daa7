(* Corpus layer: spec grammar, generator determinism and shape
   fidelity, multitask composition, and the engine/runtime agreement
   property hunted over arbitrary generated CFGs. *)

let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Spec grammar *)

let spec_gen : Corpus.Spec.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* seed = int_range 0 1_000_000 in
  let* depth = int_range 0 4 in
  let* fanout = int_range 1 8 in
  let* blocks =
    oneof
      [
        (let* lo = int_range 2 64 in
         let* hi = int_range lo 128 in
         return (Corpus.Spec.Uniform (lo, hi)));
        (let* m = int_range 4 64 in
         return (Corpus.Spec.Geometric m));
        (let* lo = int_range 2 32 in
         let* hi = int_range lo 128 in
         return (Corpus.Spec.Bimodal (lo, hi)));
      ]
  in
  let* calls = int_range 0 4 in
  let* skew_pm = int_range 0 995 in
  let* cold = int_range 1 24 in
  let* rounds = int_range 1 20 in
  return
    {
      Corpus.Spec.seed;
      depth;
      fanout;
      blocks;
      calls;
      skew = float_of_int skew_pm /. 1000.;
      cold;
      rounds;
    }

let spec_arbitrary =
  QCheck.make ~print:Corpus.Spec.to_string spec_gen

let prop_spec_roundtrip =
  QCheck.Test.make ~count:500 ~name:"gen: spec parse/print round-trip"
    spec_arbitrary (fun spec ->
      match Corpus.Spec.of_string (Corpus.Spec.to_string spec) with
      | Error msg -> QCheck.Test.fail_reportf "did not parse back: %s" msg
      | Ok spec' -> spec' = spec && Corpus.Spec.to_string spec' = Corpus.Spec.to_string spec)

let test_spec_order_tolerant () =
  let a = Corpus.Spec.of_string_exn "gen:seed=7,depth=3,skew=0.8" in
  let b = Corpus.Spec.of_string_exn "gen:skew=0.8,seed=7,depth=3" in
  checks "field order is irrelevant" (Corpus.Spec.to_string a)
    (Corpus.Spec.to_string b);
  checki "defaults fill missing fields" Corpus.Spec.default.fanout a.fanout

let test_spec_rejects () =
  let bad s =
    match Corpus.Spec.of_string s with Ok _ -> false | Error _ -> true
  in
  checkb "unknown key" true (bad "gen:seed=1,zorp=3");
  checkb "depth out of range" true (bad "gen:depth=9");
  checkb "bad blocks kind" true (bad "gen:blocks=zip:12");
  checkb "inverted range" true (bad "gen:blocks=uni:40-8");
  checkb "missing prefix" true (bad "seed=1");
  checkb "skew out of range" true (bad "gen:skew=1.5")

let test_spec_canonical_skew () =
  let s = Corpus.Spec.of_string_exn "gen:skew=0.90000001" in
  checks "skew snaps to the permille grid" "gen:seed=1,depth=2,fanout=2,blocks=geo:16,calls=1,skew=0.9,cold=8,rounds=8"
    (Corpus.Spec.to_string s)

(* ------------------------------------------------------------------ *)
(* Generator: determinism, validity, shape fidelity *)

let small_spec =
  Corpus.Spec.of_string_exn
    "gen:seed=11,depth=2,fanout=3,blocks=geo:12,calls=2,skew=0.85,cold=6,rounds=5"

let test_gen_deterministic () =
  let a = Corpus.Gen.build small_spec in
  let b = Corpus.Gen.build small_spec in
  checks "image md5 stable" (Corpus.Gen.image_md5 a) (Corpus.Gen.image_md5 b);
  checks "trace md5 stable" (Corpus.Gen.trace_md5 a) (Corpus.Gen.trace_md5 b);
  checkb "byte-identical image" true
    (Bytes.equal a.program.Eris.Program.image b.program.Eris.Program.image);
  let c =
    Corpus.Gen.build { small_spec with Corpus.Spec.seed = small_spec.seed + 1 }
  in
  checkb "different seed, different image" false
    (Corpus.Gen.image_md5 a = Corpus.Gen.image_md5 c)

let test_gen_trace_valid () =
  let bt = Corpus.Gen.build small_spec in
  (match Cfg.Graph.validate_trace bt.graph bt.trace with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "generated trace invalid: %s" msg);
  checkb "trace non-trivial" true (Array.length bt.trace > 50);
  checkb "several hot blocks" true (bt.hot_blocks > 3)

let test_gen_runs_on_machine () =
  let prog = Corpus.Gen.program small_spec in
  let m = Eris.Machine.create prog in
  let r = Eris.Machine.run_to_halt ~fuel:10_000_000 m in
  checkb "halts" true (r.Eris.Machine.reason = Eris.Machine.Halted);
  checkb "executes a real workload" true (r.Eris.Machine.instrs > 500)

let test_gen_skew_tolerance () =
  List.iter
    (fun (spec, tol) ->
      let bt = Corpus.Gen.build (Corpus.Spec.of_string_exn spec) in
      let req = bt.spec.Corpus.Spec.skew in
      if Float.abs (bt.measured_skew -. req) > tol then
        Alcotest.failf "%s: requested skew %g, measured %g (tol %g)" spec req
          bt.measured_skew tol)
    [
      ("gen:seed=3,depth=2,fanout=2,blocks=geo:12,skew=0.9,cold=8,rounds=6", 0.08);
      ("gen:seed=4,depth=3,fanout=4,blocks=uni:6-24,skew=0.75,cold=10,rounds=4", 0.1);
      ("gen:seed=5,depth=1,fanout=2,blocks=geo:20,calls=3,skew=0.6,cold=12,rounds=5", 0.1);
      ("gen:seed=6,depth=4,fanout=6,blocks=bim:4-48,skew=0.95,cold=6,rounds=3", 0.08);
    ]

let test_gen_scenario () =
  let sc = Corpus.Gen.scenario small_spec in
  checks "named by the canonical spec" (Corpus.Spec.to_string small_spec)
    sc.Core.Scenario.name;
  checki "info covers every block" (Cfg.Graph.num_blocks sc.graph)
    (Array.length sc.info);
  let m = Core.Scenario.run sc (Core.Policy.make ~compress_k:4 ()) in
  checki "engine replays the whole trace" (Array.length sc.trace)
    m.Core.Metrics.trace_length;
  checkb "compression is real" true
    (m.Core.Metrics.compressed_area_bytes < m.Core.Metrics.original_bytes)

(* ------------------------------------------------------------------ *)
(* Engine vs. runtime discard agreement over arbitrary generated CFGs:
   the acceptance property. Both simulators drive one Residency.Policy,
   so for every retention policy the discard/patch-back sequences must
   match exactly — on programs no human wrote. *)

let discard_stream events =
  List.filter_map
    (function
      | Sim.Events.Discard { block; patched_back; _ } ->
        Some (block, patched_back)
      | _ -> None)
    events

let retention_for sc = function
  | "kedge" -> Residency.Policy.Kedge
  | "clock" -> Residency.Policy.Clock
  | "loop-aware" -> Residency.Policy.Loop_aware { weight = 1 }
  | "pin-hot" ->
    Residency.Policy.Pin_hot
      {
        pinned = Cfg.Profile.hot_blocks (Core.Scenario.profile sc) ~fraction:0.2;
      }
  | name -> invalid_arg name

let agreement_spec_gen : Corpus.Spec.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* seed = int_range 0 100_000 in
  let* depth = int_range 1 3 in
  let* fanout = int_range 1 4 in
  let* calls = int_range 0 2 in
  let* skew_pm = int_range 500 950 in
  let* cold = int_range 2 10 in
  return
    {
      Corpus.Spec.seed;
      depth;
      fanout;
      calls;
      skew = float_of_int skew_pm /. 1000.;
      cold;
      rounds = 3;
      blocks = Corpus.Spec.Geometric 10;
    }

let prop_engine_runtime_agree =
  QCheck.Test.make ~count:12
    ~name:"engine/runtime discard agreement on generated CFGs"
    (QCheck.make ~print:Corpus.Spec.to_string agreement_spec_gen)
    (fun spec ->
      let bt = Corpus.Gen.build spec in
      let sc = Corpus.Gen.scenario spec in
      List.for_all
        (fun retention_name ->
          let retention = retention_for sc retention_name in
          let k = 2 in
          let engine =
            let c = Sim.Events.collector () in
            let (_ : Core.Metrics.t) =
              Core.Scenario.run
                ~sink:(Sim.Events.collecting c)
                sc
                (Core.Policy.make ~compress_k:k ~retention ())
            in
            discard_stream (Sim.Events.collected c)
          in
          let runtime =
            let c = Sim.Events.collector () in
            match
              Runtime.run ~k ~retention
                ~sink:(Sim.Events.collecting c)
                bt.Corpus.Gen.program
            with
            | Ok _ -> discard_stream (Sim.Events.collected c)
            | Error _ ->
              QCheck.Test.fail_reportf "%s: runtime failed under %s"
                (Corpus.Spec.to_string spec) retention_name
          in
          if engine <> runtime then
            QCheck.Test.fail_reportf
              "%s: %s discard sequences diverge (engine %d, runtime %d)"
              (Corpus.Spec.to_string spec) retention_name (List.length engine)
              (List.length runtime)
          else true)
        [ "kedge"; "clock"; "loop-aware"; "pin-hot" ])

(* ------------------------------------------------------------------ *)
(* Multitask composition *)

let two_tasks () =
  let a = Corpus.Gen.scenario small_spec in
  let b =
    Corpus.Gen.scenario
      (Corpus.Spec.of_string_exn
         "gen:seed=21,depth=1,fanout=2,blocks=geo:10,calls=0,skew=0.7,cold=4,rounds=4")
  in
  (a, b)

let test_multitask_compose () =
  let a, b = two_tasks () in
  let mt = Corpus.Multitask.compose ~quantum:16 [ a; b ] in
  let sc = mt.Corpus.Multitask.scenario in
  checki "blocks are a disjoint union"
    (Cfg.Graph.num_blocks a.graph + Cfg.Graph.num_blocks b.graph)
    (Cfg.Graph.num_blocks sc.graph);
  checki "trace is a complete interleave"
    (Array.length a.trace + Array.length b.trace)
    (Array.length sc.trace);
  checki "info covers the union" (Cfg.Graph.num_blocks sc.graph)
    (Array.length sc.info);
  (* jitter=0: the first quantum visits are task 0's trace verbatim *)
  for i = 0 to 15 do
    checki "first slice belongs to task 0" a.trace.(i) sc.trace.(i)
  done;
  let t1 = mt.Corpus.Multitask.tasks.(1) in
  checki "task 1 ids are offset" (Cfg.Graph.num_blocks a.graph)
    t1.Corpus.Multitask.first_block;
  checkb "task 1 slice follows" true
    (sc.trace.(16) >= t1.Corpus.Multitask.first_block)

let test_multitask_determinism () =
  let a, b = two_tasks () in
  let t1 = Corpus.Multitask.compose ~quantum:16 ~seed:3 ~jitter:0.5 [ a; b ] in
  let t2 = Corpus.Multitask.compose ~quantum:16 ~seed:3 ~jitter:0.5 [ a; b ] in
  checkb "jittered interleave is seeded"
    true
    (t1.Corpus.Multitask.scenario.Core.Scenario.trace
    = t2.Corpus.Multitask.scenario.Core.Scenario.trace);
  let t3 = Corpus.Multitask.compose ~quantum:16 ~seed:4 ~jitter:0.5 [ a; b ] in
  checkb "different seed, different interleave" false
    (t1.Corpus.Multitask.scenario.Core.Scenario.trace
    = t3.Corpus.Multitask.scenario.Core.Scenario.trace)

let test_multitask_run_attribution () =
  let a, b = two_tasks () in
  let mt = Corpus.Multitask.compose ~quantum:32 [ a; b ] in
  let budget =
    (* tight shared budget: forces the tasks to fight for the area *)
    let total =
      Array.fold_left
        (fun acc (i : Core.Engine.block_info) -> acc + i.uncompressed_bytes)
        0 mt.Corpus.Multitask.scenario.Core.Scenario.info
    in
    max 256 (total / 8)
  in
  let metrics, stats =
    Corpus.Multitask.run mt
      (Core.Policy.make ~compress_k:8 ~budget ~retention:Residency.Policy.Clock ())
  in
  checki "aggregate trace length"
    (Array.length mt.Corpus.Multitask.scenario.Core.Scenario.trace)
    metrics.Core.Metrics.trace_length;
  checki "per-task visits sum to the whole"
    metrics.Core.Metrics.trace_length
    (Array.fold_left (fun acc s -> acc + s.Corpus.Multitask.visits) 0 stats);
  Array.iteri
    (fun i s ->
      checki
        (Printf.sprintf "task %d visits = its trace length" i)
        s.Corpus.Multitask.task.Corpus.Multitask.trace_len
        s.Corpus.Multitask.visits)
    stats;
  let cross =
    Array.fold_left
      (fun acc s -> acc + s.Corpus.Multitask.evicted_while_inactive)
      0 stats
  in
  checkb "cross-task evictions observable under a shared budget" true
    (cross > 0)

(* ------------------------------------------------------------------ *)
(* Resolve: the unified scenario-string vocabulary *)

let lookup name =
  if name = "tiny" then Corpus.Gen.scenario small_spec
  else invalid_arg ("no such workload " ^ name)

let test_resolve_canonicalize () =
  let known n = n = "fir" || n = "crc32" in
  let ok s = Result.get_ok (Corpus.Resolve.canonicalize ~known s) in
  checks "plain name passes" "fir" (ok "fir");
  checks "gen spec canonicalizes"
    "gen:seed=5,depth=2,fanout=2,blocks=geo:16,calls=1,skew=0.9,cold=8,rounds=8"
    (ok "gen:seed=5");
  checks "multi spec canonicalizes"
    "multi:quantum=32,seed=1,jitter=0;fir+crc32"
    (ok "multi:quantum=32;fir+crc32");
  let bad s = Result.is_error (Corpus.Resolve.canonicalize ~known s) in
  checkb "unknown name rejected" true (bad "zorp");
  checkb "unknown task rejected" true (bad "multi:quantum=4;fir+zorp");
  checkb "nested multi rejected" true
    (bad "multi:quantum=4;fir+multi:quantum=2;a+b");
  checkb "single task rejected" true (bad "multi:quantum=4;fir");
  checkb "quantum required" true (bad "multi:seed=1;fir+crc32")

let test_resolve_scenario () =
  let sc =
    Corpus.Resolve.scenario ~lookup
      "multi:quantum=8;tiny+gen:seed=9,depth=1,cold=4,rounds=3"
  in
  checkb "composed trace covers both tasks" true
    (Array.length sc.Core.Scenario.trace
    > Array.length (Corpus.Gen.build small_spec).Corpus.Gen.trace);
  let sc2 = Corpus.Resolve.scenario ~lookup "tiny" in
  checks "plain names go through lookup" (Corpus.Spec.to_string small_spec)
    sc2.Core.Scenario.name

(* ------------------------------------------------------------------ *)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "corpus"
    [
      ( "spec",
        [
          qcheck prop_spec_roundtrip;
          Alcotest.test_case "order tolerant" `Quick test_spec_order_tolerant;
          Alcotest.test_case "rejects malformed" `Quick test_spec_rejects;
          Alcotest.test_case "canonical skew" `Quick test_spec_canonical_skew;
        ] );
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "trace valid" `Quick test_gen_trace_valid;
          Alcotest.test_case "runs on machine" `Quick test_gen_runs_on_machine;
          Alcotest.test_case "skew tolerance" `Slow test_gen_skew_tolerance;
          Alcotest.test_case "scenario" `Quick test_gen_scenario;
        ] );
      ("agreement", [ qcheck prop_engine_runtime_agree ]);
      ( "multitask",
        [
          Alcotest.test_case "compose" `Quick test_multitask_compose;
          Alcotest.test_case "determinism" `Quick test_multitask_determinism;
          Alcotest.test_case "attribution" `Quick test_multitask_run_attribution;
        ] );
      ( "resolve",
        [
          Alcotest.test_case "canonicalize" `Quick test_resolve_canonicalize;
          Alcotest.test_case "scenario" `Quick test_resolve_scenario;
        ] );
    ]
