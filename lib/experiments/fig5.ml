type step = { label : string; action : string }

type outcome = {
  steps : (step * string) list;  (* memory state after each step *)
  final_ok : bool;
}

(* The engine's own run, read back: the events before each [Exec] are
   what that step did to the memory image. *)
let replay () =
  let g = Paper_figures.fig5 () in
  let sc = Paper_figures.scenario ~name:"fig5" g ~trace:Paper_figures.fig5_trace in
  let events, log = Util.collect_events () in
  ignore (Core.Scenario.run ~log sc (Core.Policy.on_demand ~k:2));
  let n = Array.length sc.info in
  let compressed_area =
    Array.fold_left (fun a i -> a + i.Core.Engine.compressed_bytes) 0 sc.info
  in
  let resident = Array.make n false in
  let summary () =
    let live = List.filter (fun b -> resident.(b)) (List.init n Fun.id) in
    let bytes =
      List.fold_left
        (fun a b -> a + sc.info.(b).Core.Engine.uncompressed_bytes)
        0 live
    in
    Printf.sprintf "resident: {%s}; decompressed %dB; footprint %dB"
      (String.concat ", " (List.map (Printf.sprintf "B%d'") live))
      bytes (compressed_area + bytes)
  in
  let steps = ref [] in
  let snap action =
    let label = Printf.sprintf "(%d)" (List.length !steps + 1) in
    steps := ({ label; action }, summary ()) :: !steps
  in
  snap "initial image: all blocks compressed, PC at B0";
  let discards = ref [] in
  (* what the current step has done so far *)
  let notes = ref [] and excepted = ref false and decompressed = ref false in
  let note s = notes := s :: !notes in
  List.iter
    (fun (ev : Core.Engine.event) ->
      match ev with
      | Discard { block; patched_back; _ } ->
        resident.(block) <- false;
        discards := (block, patched_back) :: !discards;
        note
          (Printf.sprintf "delete B%d' (%d branch sites patched back)" block
             patched_back)
      | Exception _ -> excepted := true
      | Demand_decompress { block; _ } ->
        resident.(block) <- true;
        decompressed := true;
        note (Printf.sprintf "exception; decompress B%d into B%d'" block block)
      | Patch { target; site; _ } ->
        note
          (if !decompressed then
             Printf.sprintf "patch branch in B%d' to B%d'" site target
           else
             Printf.sprintf
               "exception; handler patches branch in B%d' to B%d'" site target)
      | Exec { block; _ } ->
        if not !excepted then
          note (Printf.sprintf "direct branch to B%d', no exception" block);
        snap
          (Printf.sprintf "execute B%d: %s" block
             (String.concat "; " (List.rev !notes)));
        notes := [];
        excepted := false;
        decompressed := false
      | Prefetch_issue _ | Stall _ | Unpatch _ | Evict _
      | Recompress_queued _ | Flush _ ->
        ())
    (List.rev !events);
  let final_ok =
    Array.to_list resident = [ false; true; false; true ]
    && !discards = [ (0, 1) ]
  in
  { steps = List.rev !steps; final_ok }

let holds () = (replay ()).final_ok

let run () =
  let { steps; final_ok } = replay () in
  let t =
    Report.Table.create
      ~title:
        "E5 / Figure 5: memory image over the access pattern B0, B1, B0, \
         B1, B3 (k=2)"
      ~columns:
        [
          ("step", Report.Table.Left);
          ("action", Report.Table.Left);
          ("memory state", Report.Table.Left);
        ]
  in
  List.iter
    (fun ({ label; action }, state) ->
      Report.Table.add_row t [ label; action; state ])
    steps;
  Report.Table.add_row t
    [
      "";
      Printf.sprintf
        "verdict: final residents {B1', B3'}, B0' deleted with 1 patch-back \
         = %b"
        final_ok;
      "";
    ];
  t
