(* Tests for the pluggable residency layer: policy unit semantics
   (clock second-chance, loop-aware nesting, pin-hot exemptions) and
   the cross-simulator guarantee — the timing model and the executable
   runtime drive the same Residency.Area, so the same policy must make
   the same discard/patch-back decisions in both. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check_blocks = Alcotest.check Alcotest.(list int)

let ctx ?k_of ?graph ?budget ?size_of ~blocks ~k () =
  { Residency.Policy.blocks; k; k_of; graph; budget; size_of }

(* A policy's due set for [step], as a list. *)
let due p ~step =
  let into = Array.make 4096 0 in
  List.init (Residency.Policy.due p ~step ~into) (Array.get into)

(* ------------------------------------------------------------------ *)
(* Clock: second-chance semantics. *)

let clock ~blocks ~k =
  Residency.Policy.instantiate Residency.Policy.Clock (ctx ~blocks ~k ())

let test_clock_second_chance () =
  let p = clock ~blocks:3 ~k:2 in
  Residency.Policy.on_materialize p ~block:0 ~step:0;
  Residency.Policy.on_execute p ~block:0 ~step:0 ~time:0;
  check_blocks "nothing queued before the period" []
    (due p ~step:1);
  (* First firing: the reference bit is set, so the copy gets a second
     chance instead of being reported due. *)
  check_blocks "executed copy survives its first period" []
    (due p ~step:2);
  (* Second firing without an execution in between: now due. *)
  check_blocks "idle copy is due after the second period" [ 0 ]
    (due p ~step:4)

let test_clock_execution_renews () =
  let p = clock ~blocks:2 ~k:2 in
  Residency.Policy.on_materialize p ~block:0 ~step:0;
  Residency.Policy.on_execute p ~block:0 ~step:0 ~time:0;
  check_blocks "second chance" [] (due p ~step:2);
  (* Executed again inside the period: another second chance. *)
  Residency.Policy.on_execute p ~block:0 ~step:3 ~time:3;
  check_blocks "renewed by execution" [] (due p ~step:4);
  check_blocks "but only once per period" [ 0 ]
    (due p ~step:6)

let test_clock_spared_block_keeps_ticking () =
  (* §5 spares a due block when it is the branch target; the clock
     timer must stay alive for the surviving copy. *)
  let p = clock ~blocks:2 ~k:2 in
  Residency.Policy.on_materialize p ~block:0 ~step:0;
  Residency.Policy.on_execute p ~block:0 ~step:0 ~time:0;
  check_blocks "second chance" [] (due p ~step:2);
  check_blocks "due" [ 0 ] (due p ~step:4);
  (* The host spared it (no release).  The timer re-armed itself. *)
  check_blocks "still ticking after being spared" [ 0 ]
    (due p ~step:6)

let test_clock_release_cancels () =
  let p = clock ~blocks:2 ~k:2 in
  Residency.Policy.on_materialize p ~block:0 ~step:0;
  check_blocks "unexecuted copy due after one period" [ 0 ]
    (due p ~step:2);
  Residency.Policy.on_release p ~block:0;
  check_blocks "released copy never reported" []
    (due p ~step:4)

let test_clock_victim_sweep () =
  let p = clock ~blocks:3 ~k:4 in
  List.iter
    (fun b -> Residency.Policy.on_materialize p ~block:b ~step:0)
    [ 0; 1; 2 ];
  Residency.Policy.on_execute p ~block:0 ~step:0 ~time:0;
  (* Block 0 has its bit set: the hand clears it and passes on, so the
     first victim is block 1 (bit clear). *)
  checki "hand skips the referenced copy"
    1
    (Option.get (Residency.Policy.victim p ~exclude:(fun _ -> false)));
  Residency.Policy.on_release p ~block:1;
  (* Block 0's bit was cleared by the sweep: second-chance spent. *)
  checki "second sweep takes the formerly referenced copy" 0
    (Option.get (Residency.Policy.victim p ~exclude:(fun b -> b = 2)));
  Residency.Policy.on_release p ~block:0;
  Residency.Policy.on_release p ~block:2;
  checkb "no resident copies, no victim" true
    (Residency.Policy.victim p ~exclude:(fun _ -> false) = None)

(* ------------------------------------------------------------------ *)
(* Loop-aware: a deeper-nested block outlives a shallower one at the
   same base k. *)

let nested_loop_graph () =
  Cfg.Build.of_program
    (Eris.Asm.assemble_exn
       "li r1, 3\n\
        outer: li r2, 3\n\
        inner: subi r2, r2, 1\n\
        bne r2, r0, inner\n\
        subi r1, r1, 1\n\
        bne r1, r0, outer\n\
        halt")

let test_loop_aware_depth_scales_k () =
  let graph = nested_loop_graph () in
  let depth = Cfg.Loop.loop_depth graph in
  let deep = ref (-1) and shallow = ref (-1) in
  Array.iteri
    (fun b d ->
      if d >= 2 && !deep < 0 then deep := b;
      if d = 1 && !shallow < 0 then shallow := b)
    depth;
  checkb "graph has depth-2 and depth-1 blocks" true
    (!deep >= 0 && !shallow >= 0);
  let k = 2 in
  let p =
    Residency.Policy.instantiate
      (Residency.Policy.Loop_aware { weight = 1 })
      (ctx ~blocks:(Cfg.Graph.num_blocks graph) ~k ~graph ())
  in
  Residency.Policy.on_execute p ~block:!deep ~step:0 ~time:0;
  Residency.Policy.on_execute p ~block:!shallow ~step:0 ~time:0;
  let due_step b =
    let found = ref (-1) in
    for step = 1 to k * (1 + Array.length depth) do
      if !found < 0 && List.mem b (due p ~step) then
        found := step
    done;
    !found
  in
  let shallow_due = due_step !shallow in
  let deep_due = due_step !deep in
  checki "shallow block due after k*(1+depth) edges"
    (k * (1 + depth.(!shallow)))
    shallow_due;
  checki "deep block due after k*(1+depth) edges"
    (k * (1 + depth.(!deep)))
    deep_due;
  checkb "deeper nesting outlives shallower" true (deep_due > shallow_due)

let test_loop_aware_needs_graph () =
  checkb "no graph, clean error" true
    (match
       Residency.Policy.instantiate
         (Residency.Policy.Loop_aware { weight = 1 })
         (ctx ~blocks:4 ~k:2 ())
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Pin-hot: pinned blocks are exempt from retention; pinning more than
   the budget is rejected up front. *)

let test_pin_hot_never_due_never_victim () =
  let p =
    Residency.Policy.instantiate
      (Residency.Policy.Pin_hot { pinned = [ 0; 1 ] })
      (ctx ~blocks:4 ~k:1 ~budget:100 ~size_of:(fun _ -> 10) ())
  in
  List.iter
    (fun b ->
      Residency.Policy.on_materialize p ~block:b ~step:0;
      Residency.Policy.on_ready p ~block:b ~time:b;
      Residency.Policy.on_execute p ~block:b ~step:0 ~time:b)
    [ 0; 1; 2; 3 ];
  check_blocks "only unpinned blocks ever come due" [ 2; 3 ]
    (List.sort compare (due p ~step:1));
  let rec drain acc =
    match Residency.Policy.victim p ~exclude:(fun _ -> false) with
    | None -> List.rev acc
    | Some b ->
      Residency.Policy.on_release p ~block:b;
      drain (b :: acc)
  in
  let victims = drain [] in
  checki "both unpinned blocks evictable" 2 (List.length victims);
  checkb "pinned blocks never selected as victims" true
    (List.for_all (fun b -> b <> 0 && b <> 1) victims)

let test_pin_hot_over_budget_rejected () =
  checkb "pins exceeding the budget rejected at instantiation" true
    (match
       Residency.Policy.instantiate
         (Residency.Policy.Pin_hot { pinned = [ 0; 1 ] })
         (ctx ~blocks:4 ~k:1 ~budget:15 ~size_of:(fun _ -> 10) ())
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_pin_hot_out_of_range_rejected () =
  checkb "negative pinned id rejected" true
    (match
       Residency.Policy.instantiate
         (Residency.Policy.Pin_hot { pinned = [ -1 ] })
         (ctx ~blocks:4 ~k:1 ())
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Cross-simulator agreement: the timing model and the executable
   runtime share one Residency.Area, so for the same workload, k and
   retention policy they must discard the same blocks in the same
   order, patching back the same number of sites each time. *)

let discard_stream events =
  List.filter_map
    (function
      | Sim.Events.Discard { block; patched_back; _ } ->
        Some (block, patched_back)
      | _ -> None)
    events

let engine_discards w ~k ~retention =
  let sc = Workloads.Common.scenario w in
  let c = Sim.Events.collector () in
  let (_ : Core.Metrics.t) =
    Core.Scenario.run
      ~sink:(Sim.Events.collecting c)
      sc
      (Core.Policy.make ~compress_k:k ~retention ())
  in
  discard_stream (Sim.Events.collected c)

let runtime_discards w ~k ~retention =
  let prog = Eris.Asm.assemble_exn w.Workloads.Common.source in
  let c = Sim.Events.collector () in
  match Runtime.run ~k ~retention ~sink:(Sim.Events.collecting c) prog with
  | Ok _ -> discard_stream (Sim.Events.collected c)
  | Error _ -> Alcotest.failf "%s: runtime failed" w.Workloads.Common.name

let agreement_tests =
  let discard = Alcotest.(pair int int) in
  List.concat_map
    (fun name ->
      let w = Workloads.Suite.find_exn name in
      List.concat_map
        (fun k ->
          List.map
            (fun retention ->
              Alcotest.test_case
                (Printf.sprintf "%s k=%d %s" name k
                   (Residency.Policy.spec_name retention))
                `Quick
                (fun () ->
                  let model = engine_discards w ~k ~retention in
                  let real = runtime_discards w ~k ~retention in
                  Alcotest.check (Alcotest.list discard)
                    "same discard/patch-back sequence in both simulators"
                    model real))
            [
              Residency.Policy.Kedge;
              Residency.Policy.Clock;
              Residency.Policy.Loop_aware { weight = 2 };
              (* pins below fir's block count, the smallest here *)
              Residency.Policy.Pin_hot { pinned = [ 0; 2 ] };
            ])
        [ 2; 8 ])
    [ "fir"; "crc32"; "dct" ]

let () =
  Alcotest.run "residency"
    [
      ( "clock",
        [
          Alcotest.test_case "second chance" `Quick test_clock_second_chance;
          Alcotest.test_case "execution renews" `Quick
            test_clock_execution_renews;
          Alcotest.test_case "spared block keeps ticking" `Quick
            test_clock_spared_block_keeps_ticking;
          Alcotest.test_case "release cancels" `Quick
            test_clock_release_cancels;
          Alcotest.test_case "victim sweep" `Quick test_clock_victim_sweep;
        ] );
      ( "loop-aware",
        [
          Alcotest.test_case "depth scales k" `Quick
            test_loop_aware_depth_scales_k;
          Alcotest.test_case "needs a graph" `Quick test_loop_aware_needs_graph;
        ] );
      ( "pin-hot",
        [
          Alcotest.test_case "never due, never victim" `Quick
            test_pin_hot_never_due_never_victim;
          Alcotest.test_case "over budget rejected" `Quick
            test_pin_hot_over_budget_rejected;
          Alcotest.test_case "out of range rejected" `Quick
            test_pin_hot_out_of_range_rejected;
        ] );
      ("cross-simulator", agreement_tests);
    ]
