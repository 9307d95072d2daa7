(* Tests for the CFG library: construction from programs, graph
   utilities, dominators, loops, distances, profiles and DOT export. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check_il = Alcotest.check Alcotest.(list int)

(* A program with a loop, an if/else diamond and a call. *)
let sample_source =
  {|
entry:
  li r1, 3
loop:
  subi r1, r1, 1
  beq r1, r0, after
  blt r1, r0, neg
  nop
  j loop
neg:
  nop
  j loop
after:
  call helper
  halt
helper:
  ret
|}

let sample () =
  let prog = Eris.Asm.assemble_exn sample_source in
  (prog, Cfg.Build.of_program prog)

(* ------------------------------------------------------------------ *)
(* Build                                                               *)

let test_leaders () =
  let prog, _ = sample () in
  let leaders = Cfg.Build.leaders prog in
  checkb "entry is a leader" true (List.mem 0 leaders);
  checkb "leaders sorted" true (List.sort compare leaders = leaders);
  let loop_addr = Option.get (Eris.Program.address_of_symbol prog "loop") in
  let after_addr = Option.get (Eris.Program.address_of_symbol prog "after") in
  let helper_addr = Option.get (Eris.Program.address_of_symbol prog "helper") in
  checkb "loop leader" true (List.mem loop_addr leaders);
  checkb "after leader" true (List.mem after_addr leaders);
  checkb "helper leader" true (List.mem helper_addr leaders)

let test_build_edges () =
  let prog, g = sample () in
  let total =
    Array.fold_left
      (fun a (b : Cfg.Graph.block) -> a + b.byte_size)
      0 (Cfg.Graph.blocks g)
  in
  checki "blocks tile program" (Eris.Program.byte_size prog) total;
  let loop_addr = Option.get (Eris.Program.address_of_symbol prog "loop") in
  let loop_block = Option.get (Cfg.Graph.block_of_leader g loop_addr) in
  let has_back_edge =
    List.exists
      (fun (src, dst, _) -> dst = loop_block && src > loop_block)
      (Cfg.Graph.edges g)
  in
  checkb "loop back edge" true has_back_edge;
  let is_branch_block (b : Cfg.Graph.block) =
    match Eris.Program.instr_at prog (b.addr + b.byte_size - 4) with
    | Eris.Types.Branch _ -> true
    | Eris.Types.Alu _ | Alui _ | Lui _ | Load _ | Store _ | Jal _ | Jalr _
    | Halt -> false
  in
  let branch_block =
    List.find is_branch_block (Array.to_list (Cfg.Graph.blocks g))
  in
  let kinds =
    List.map snd (Cfg.Graph.succs g branch_block.Cfg.Graph.id)
    |> List.sort compare
  in
  checkb "branch has taken+fallthrough" true
    (kinds = List.sort compare [ Cfg.Graph.Taken; Cfg.Graph.Fallthrough ])

let test_call_return_edges () =
  let prog, g = sample () in
  let helper_addr = Option.get (Eris.Program.address_of_symbol prog "helper") in
  let helper_block = Option.get (Cfg.Graph.block_of_leader g helper_addr) in
  let call_edges =
    List.filter (fun (_, _, k) -> k = Cfg.Graph.Call) (Cfg.Graph.edges g)
  in
  checkb "one call edge to helper" true
    (List.exists (fun (_, dst, _) -> dst = helper_block) call_edges);
  let return_edges =
    List.filter
      (fun (src, _, k) -> k = Cfg.Graph.Return && src = helper_block)
      (Cfg.Graph.edges g)
  in
  checkb "helper has a return edge" true (return_edges <> [])

let test_trace_of_run () =
  let prog = Eris.Asm.assemble_exn sample_source in
  let g, trace = Cfg.Build.trace_of_run prog in
  checkb "trace nonempty" true (Array.length trace > 0);
  checki "trace starts at entry" (Cfg.Graph.entry g) trace.(0);
  checkb "trace follows edges" true (Cfg.Graph.validate_trace g trace = Ok ())

(* ------------------------------------------------------------------ *)
(* Graph utilities                                                     *)

let diamond () = Cfg.Graph.synthetic 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_graph_accessors () =
  let g = diamond () in
  checki "blocks" 4 (Cfg.Graph.num_blocks g);
  checki "edges" 4 (Cfg.Graph.num_edges g);
  check_il "succ of 0" [ 1; 2 ] (Cfg.Graph.succ_ids g 0);
  check_il "preds of 3" [ 1; 2 ] (Cfg.Graph.pred_ids g 3);
  check_il "exits" [ 3 ] (Cfg.Graph.exits g);
  checkb "all reachable" true
    (Array.for_all (fun x -> x) (Cfg.Graph.reachable g))

let test_graph_validation () =
  Alcotest.check_raises "bad edge rejected"
    (Invalid_argument "Cfg.Graph.make: bad edge 0 -> 9") (fun () ->
      ignore (Cfg.Graph.synthetic 2 [ (0, 9) ]));
  Alcotest.check_raises "empty graph rejected"
    (Invalid_argument "Cfg.Graph.synthetic: n must be positive") (fun () ->
      ignore (Cfg.Graph.synthetic 0 []))

let test_block_at_addr () =
  let _, g = sample () in
  let b1 = Cfg.Graph.block g 1 in
  checkb "addr inside block" true
    (Cfg.Graph.block_at_addr g (b1.addr + 4) = Some 1 || b1.byte_size <= 4);
  checkb "leader lookup" true (Cfg.Graph.block_of_leader g b1.addr = Some 1);
  checkb "non-leader lookup fails" true
    (b1.byte_size <= 4 || Cfg.Graph.block_of_leader g (b1.addr + 4) = None);
  checkb "out of range" true (Cfg.Graph.block_at_addr g 100000 = None)

(* Blocks out of address order (ids need not follow addresses in a
   hand-built graph): lookups take the linear fallback and still find
   every block, including a gap between blocks and addresses past the
   end. *)
let test_block_at_addr_unsorted () =
  let block id addr byte_size =
    {
      Cfg.Graph.id;
      addr;
      n_instrs = byte_size / 4;
      byte_size;
      exec_cycles = byte_size / 4;
      label = None;
    }
  in
  let g =
    Cfg.Graph.make
      [| block 0 64 16; block 1 0 32; block 2 96 8 |]
      [ (0, 1, Cfg.Graph.Taken); (1, 2, Cfg.Graph.Fallthrough) ]
  in
  let at a = Cfg.Graph.block_at_addr g a in
  checkb "first address of block 0" true (at 64 = Some 0);
  checkb "last word of block 0" true (at 76 = Some 0);
  checkb "block 1 at address 0" true (at 0 = Some 1);
  checkb "inside block 1" true (at 28 = Some 1);
  checkb "block 2" true (at 100 = Some 2);
  checkb "gap between blocks" true (at 40 = None);
  checkb "past the end" true (at 104 = None);
  checkb "leader of block 2" true (Cfg.Graph.block_of_leader g 96 = Some 2);
  checkb "non-leader" true (Cfg.Graph.block_of_leader g 68 = None)

let test_validate_trace_errors () =
  let g = diamond () in
  checkb "ok trace" true (Cfg.Graph.validate_trace g [| 0; 1; 3 |] = Ok ());
  checkb "wrong entry" true
    (Result.is_error (Cfg.Graph.validate_trace g [| 1; 3 |]));
  checkb "non-edge" true
    (Result.is_error (Cfg.Graph.validate_trace g [| 0; 3 |]));
  checkb "empty ok" true (Cfg.Graph.validate_trace g [||] = Ok ())

let test_unreachable () =
  let g = Cfg.Graph.synthetic 3 [ (0, 1) ] in
  let r = Cfg.Graph.reachable g in
  checkb "2 unreachable" false r.(2);
  checkb "1 reachable" true r.(1)

(* ------------------------------------------------------------------ *)
(* Dominators                                                          *)

let test_dominators_diamond () =
  let g = diamond () in
  let d = Cfg.Dom.compute g in
  checkb "entry has no idom" true (Cfg.Dom.idom d 0 = None);
  checkb "idom 1 = 0" true (Cfg.Dom.idom d 1 = Some 0);
  checkb "idom 2 = 0" true (Cfg.Dom.idom d 2 = Some 0);
  checkb "idom 3 = 0" true (Cfg.Dom.idom d 3 = Some 0);
  checkb "0 dominates all" true
    (List.for_all (fun b -> Cfg.Dom.dominates d 0 b) [ 0; 1; 2; 3 ]);
  checkb "1 does not dominate 3" false (Cfg.Dom.dominates d 1 3);
  checkb "self domination" true (Cfg.Dom.dominates d 2 2);
  check_il "dominators of 3" [ 3; 0 ] (Cfg.Dom.dominators d 3)

let test_dominators_chain_and_loop () =
  let g = Cfg.Graph.synthetic 4 [ (0, 1); (1, 2); (2, 1); (2, 3) ] in
  let d = Cfg.Dom.compute g in
  checkb "idom 2 = 1" true (Cfg.Dom.idom d 2 = Some 1);
  checkb "idom 3 = 2" true (Cfg.Dom.idom d 3 = Some 2);
  check_il "dominators of 3" [ 3; 2; 1; 0 ] (Cfg.Dom.dominators d 3)

let test_dominators_unreachable () =
  let g = Cfg.Graph.synthetic 3 [ (0, 1) ] in
  let d = Cfg.Dom.compute g in
  checkb "unreachable has no idom" true (Cfg.Dom.idom d 2 = None);
  checkb "unreachable not dominated" false (Cfg.Dom.dominates d 0 2);
  check_il "unreachable dominators empty" [] (Cfg.Dom.dominators d 2)

let test_rpo () =
  let g = diamond () in
  let rpo = Array.to_list (Cfg.Dom.reverse_postorder g) in
  checkb "starts at entry" true (List.hd rpo = 0);
  checkb "ends at exit" true (List.nth rpo 3 = 3);
  checki "covers all" 4 (List.length rpo)

(* ------------------------------------------------------------------ *)
(* Loops                                                               *)

let test_loop_nest () =
  (* 0 -> 1 -> 2 <-> 3, 3 -> 4 -> 1 (outer back edge), 4 -> 5. *)
  let g =
    Cfg.Graph.synthetic 6
      [ (0, 1); (1, 2); (2, 3); (3, 2); (3, 4); (4, 1); (4, 5) ]
  in
  let loops = Cfg.Loop.detect g in
  checki "two loops" 2 (List.length loops);
  let headers = List.map (fun l -> l.Cfg.Loop.header) loops in
  check_il "headers" [ 1; 2 ] headers;
  let outer = List.find (fun l -> l.Cfg.Loop.header = 1) loops in
  check_il "outer body" [ 1; 2; 3; 4 ] outer.Cfg.Loop.body;
  let inner = List.find (fun l -> l.Cfg.Loop.header = 2) loops in
  check_il "inner body" [ 2; 3 ] inner.Cfg.Loop.body;
  let depth = Cfg.Loop.loop_depth g in
  checki "B3 depth 2" 2 depth.(3);
  checki "B0 depth 0" 0 depth.(0);
  let in_loop = Cfg.Loop.in_any_loop g in
  checkb "B4 in loop" true in_loop.(4);
  checkb "B5 not in loop" false in_loop.(5)

let test_irreducible_cycles_are_not_natural_loops () =
  (* The Figure 1 reconstruction has two cycles whose headers do not
     dominate their latches (both are entered from two sides), so
     natural-loop detection correctly reports none. *)
  let g =
    Cfg.Graph.synthetic 6
      [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4); (3, 5); (4, 1); (4, 5); (5, 2) ]
  in
  checkb "no natural loops" true (Cfg.Loop.detect g = [])

let test_no_loops () =
  checkb "diamond has no loops" true (Cfg.Loop.detect (diamond ()) = [])

let test_self_loop () =
  let g = Cfg.Graph.synthetic 2 [ (0, 1); (1, 1) ] in
  match Cfg.Loop.detect g with
  | [ l ] ->
    checki "self loop header" 1 l.Cfg.Loop.header;
    check_il "self loop body" [ 1 ] l.Cfg.Loop.body
  | other -> Alcotest.failf "expected one loop, got %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* Distances                                                           *)

let fig2 () =
  Cfg.Graph.synthetic 10
    [
      (0, 1); (0, 2); (1, 3); (1, 4); (2, 4); (2, 5); (3, 6); (4, 6); (5, 6);
      (6, 7); (6, 8); (7, 9); (8, 9);
    ]

let test_dist_within () =
  let g = fig2 () in
  let w1 = Cfg.Dist.within g ~from:0 ~k:1 in
  checkb "k=1" true (List.sort compare w1 = [ (1, 1); (2, 1) ]);
  let w2 = List.sort compare (Cfg.Dist.within g ~from:0 ~k:2) in
  checkb "k=2" true (w2 = [ (1, 1); (2, 1); (3, 2); (4, 2); (5, 2) ]);
  checkb "bfs order nearest first" true
    (let ds = List.map snd (Cfg.Dist.within g ~from:0 ~k:3) in
     List.sort compare ds = ds)

let test_dist_distance () =
  let g = fig2 () in
  checkb "d(1 exit -> 7) = 3" true (Cfg.Dist.distance g ~src:1 ~dst:7 = Some 3);
  checkb "d(0 -> 9) = 5" true (Cfg.Dist.distance g ~src:0 ~dst:9 = Some 5);
  checkb "unreachable backwards" true (Cfg.Dist.distance g ~src:9 ~dst:0 = None);
  let loop = Cfg.Graph.synthetic 2 [ (0, 1); (1, 0) ] in
  checkb "cycle distance" true (Cfg.Dist.distance loop ~src:0 ~dst:0 = Some 2)

let test_dist_within_self_cycle () =
  let loop = Cfg.Graph.synthetic 2 [ (0, 1); (1, 0) ] in
  let w = List.sort compare (Cfg.Dist.within loop ~from:0 ~k:2) in
  checkb "includes self at cycle length" true (w = [ (0, 2); (1, 1) ])

let test_all_distances () =
  let g = fig2 () in
  let d = Cfg.Dist.all_distances g ~from:0 in
  checki "to 9" 5 d.(9);
  checki "to 6" 3 d.(6);
  checkb "from exit nothing reachable" true
    ((Cfg.Dist.all_distances g ~from:9).(0) = max_int)

(* ------------------------------------------------------------------ *)
(* Profiles                                                            *)

let test_profile_counts () =
  let g = diamond () in
  let trace = [| 0; 1; 3; 0; 2; 3; 0; 1; 3 |] in
  (* NB: 3 -> 0 is not an edge; those steps only count block visits. *)
  let p = Cfg.Profile.of_trace g trace in
  checki "block 0 visits" 3 (Cfg.Profile.block_count p 0);
  checki "block 3 visits" 3 (Cfg.Profile.block_count p 3);
  checki "edge 0->1" 2 (Cfg.Profile.edge_count p ~src:0 ~dst:1);
  checki "edge 0->2" 1 (Cfg.Profile.edge_count p ~src:0 ~dst:2);
  checki "non-edge not counted" 0 (Cfg.Profile.edge_count p ~src:3 ~dst:0)

let test_profile_probability () =
  let g = diamond () in
  let p = Cfg.Profile.of_trace g [| 0; 1; 3; 0; 1; 3; 0; 2 |] in
  Alcotest.check (Alcotest.float 1e-9) "p(0->1)" (2.0 /. 3.0)
    (Cfg.Profile.edge_probability p ~src:0 ~dst:1);
  Alcotest.check (Alcotest.float 1e-9) "p(0->2)" (1.0 /. 3.0)
    (Cfg.Profile.edge_probability p ~src:0 ~dst:2);
  Alcotest.check (Alcotest.float 1e-9) "non-edge" 0.0
    (Cfg.Profile.edge_probability p ~src:3 ~dst:0);
  let u = Cfg.Profile.uniform g in
  Alcotest.check (Alcotest.float 1e-9) "uniform" 0.5
    (Cfg.Profile.edge_probability u ~src:0 ~dst:1)

let test_hottest_successor () =
  let g = diamond () in
  let p = Cfg.Profile.of_trace g [| 0; 2; 3; 0; 2; 3; 0; 1 |] in
  checkb "hottest of 0 is 2" true (Cfg.Profile.hottest_successor p 0 = Some 2);
  checkb "exit has none" true (Cfg.Profile.hottest_successor p 3 = None);
  let p2 = Cfg.Profile.of_trace g [| 0; 1; 3; 0; 2 |] in
  checkb "tie -> lower id" true (Cfg.Profile.hottest_successor p2 0 = Some 1)

let test_hot_blocks () =
  let g = diamond () in
  let p = Cfg.Profile.of_trace g [| 0; 1; 3; 0; 1; 3; 0; 1; 3; 0; 2; 3 |] in
  let hot = Cfg.Profile.hot_blocks p ~fraction:0.6 in
  checkb "hot excludes cold 2" true (not (List.mem 2 hot));
  checkb "hot covers everything at 1.0" true
    (List.length (Cfg.Profile.hot_blocks p ~fraction:1.0) >= 3);
  checkb "empty at 0" true (Cfg.Profile.hot_blocks p ~fraction:0.0 = []);
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Cfg.Profile.hot_blocks: fraction must be in [0,1]")
    (fun () -> ignore (Cfg.Profile.hot_blocks p ~fraction:1.5))

(* ------------------------------------------------------------------ *)
(* DOT                                                                 *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_dot () =
  let g = diamond () in
  let dot = Cfg.Dot.to_string ~name:"test" ~highlight:[ 1 ] g in
  checkb "has header" true
    (String.length dot > 12 && String.sub dot 0 12 = "digraph test");
  checkb "has node b0" true (contains "b0 [" dot);
  checkb "has edge" true (contains "b0 -> b1" dot);
  checkb "highlight" true (contains "fillcolor" dot)

let () =
  Alcotest.run "cfg"
    [
      ( "build",
        [
          Alcotest.test_case "leaders" `Quick test_leaders;
          Alcotest.test_case "edges" `Quick test_build_edges;
          Alcotest.test_case "call/return edges" `Quick test_call_return_edges;
          Alcotest.test_case "trace of run" `Quick test_trace_of_run;
        ] );
      ( "graph",
        [
          Alcotest.test_case "accessors" `Quick test_graph_accessors;
          Alcotest.test_case "validation" `Quick test_graph_validation;
          Alcotest.test_case "address lookup" `Quick test_block_at_addr;
          Alcotest.test_case "address lookup, unsorted blocks" `Quick
            test_block_at_addr_unsorted;
          Alcotest.test_case "trace validation" `Quick
            test_validate_trace_errors;
          Alcotest.test_case "unreachable blocks" `Quick test_unreachable;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "chain and loop" `Quick
            test_dominators_chain_and_loop;
          Alcotest.test_case "unreachable" `Quick test_dominators_unreachable;
          Alcotest.test_case "reverse postorder" `Quick test_rpo;
        ] );
      ( "loops",
        [
          Alcotest.test_case "loop nest" `Quick test_loop_nest;
          Alcotest.test_case "irreducible cycles" `Quick
            test_irreducible_cycles_are_not_natural_loops;
          Alcotest.test_case "acyclic" `Quick test_no_loops;
          Alcotest.test_case "self loop" `Quick test_self_loop;
        ] );
      ( "distances",
        [
          Alcotest.test_case "within" `Quick test_dist_within;
          Alcotest.test_case "distance" `Quick test_dist_distance;
          Alcotest.test_case "self via cycle" `Quick test_dist_within_self_cycle;
          Alcotest.test_case "all distances" `Quick test_all_distances;
        ] );
      ( "profile",
        [
          Alcotest.test_case "counts" `Quick test_profile_counts;
          Alcotest.test_case "probabilities" `Quick test_profile_probability;
          Alcotest.test_case "hottest successor" `Quick test_hottest_successor;
          Alcotest.test_case "hot blocks" `Quick test_hot_blocks;
        ] );
      ("dot", [ Alcotest.test_case "export" `Quick test_dot ]);
    ]
