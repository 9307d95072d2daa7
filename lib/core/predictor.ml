type t =
  | First_successor
  | Last_taken
  | By_profile of Cfg.Profile.t

let name = function
  | First_successor -> "first-successor"
  | Last_taken -> "last-taken"
  | By_profile _ -> "profile"

type state = { last : int array (* -1 = unknown *) }

let create_state ~blocks = { last = Array.make (max blocks 1) (-1) }

let note_edge state ~src ~dst =
  if src >= 0 && src < Array.length state.last then state.last.(src) <- dst

(* Follows a single predicted path for up to [k] steps and returns the
   first candidate encountered. *)
let follow_path next_of ~from ~k ~candidate =
  let rec walk cur steps =
    if steps >= k then None
    else
      match next_of cur with
      | None -> None
      | Some nxt -> if candidate nxt then Some nxt else walk nxt (steps + 1)
  in
  walk from 0

(* Max-probability reach within [k] steps: k rounds of relaxation. *)
let best_by_profile profile g ~from ~k ~candidates =
  let frontier = ref [ (from, 1.0) ] in
  let best = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace best c 0.0) candidates;
  for _ = 1 to k do
    let next = Hashtbl.create 8 in
    List.iter
      (fun (b, p) ->
        List.iter
          (fun s ->
            let p' = p *. Cfg.Profile.edge_probability profile ~src:b ~dst:s in
            if p' > 0.0 then begin
              let cur = Option.value ~default:0.0 (Hashtbl.find_opt next s) in
              if p' > cur then Hashtbl.replace next s p'
            end)
          (Cfg.Graph.succ_ids g b))
      !frontier;
    Hashtbl.iter
      (fun b p ->
        (match Hashtbl.find_opt best b with
        | Some cur when p > cur -> Hashtbl.replace best b p
        | Some _ -> ()
        | None -> ()))
      next;
    frontier := Hashtbl.fold (fun b p acc -> (b, p) :: acc) next []
  done;
  let pick =
    List.fold_left
      (fun acc c ->
        let p = Option.value ~default:0.0 (Hashtbl.find_opt best c) in
        match acc with
        | None -> Some (c, p)
        | Some (_, bp) when p > bp -> Some (c, p)
        | Some _ -> acc)
      None candidates
  in
  Option.map fst pick

let choose t state g ~from ~k ~candidates =
  match candidates with
  | [] -> None
  | nearest :: _ -> (
    let is_candidate b = List.mem b candidates in
    let fallback = Some nearest in
    match t with
    | First_successor -> (
      let next_of b =
        match Cfg.Graph.succ_ids g b with [] -> None | s :: _ -> Some s
      in
      match follow_path next_of ~from ~k ~candidate:is_candidate with
      | Some c -> Some c
      | None -> fallback)
    | Last_taken -> (
      let next_of b =
        let remembered = state.last.(b) in
        if remembered >= 0 && List.mem remembered (Cfg.Graph.succ_ids g b) then
          Some remembered
        else
          match Cfg.Graph.succ_ids g b with [] -> None | s :: _ -> Some s
      in
      match follow_path next_of ~from ~k ~candidate:is_candidate with
      | Some c -> Some c
      | None -> fallback)
    | By_profile profile -> (
      match best_by_profile profile g ~from ~k ~candidates with
      | Some c -> Some c
      | None -> fallback))

(* ------------------------------------------------------------------ *)
(* Table-driven [choose] for one run: everything that depends only on
   the graph, the lookahead and the profile is computed once per block,
   so a pick is a scan over a precomputed frontier and, for the
   path-following predictors, a walk over successor arrays. *)

type plan = {
  predictor : t;
  frontiers : Cfg.Dist.frontiers;
  succ : int array array;
  reach : float array option array;
      (* By_profile: per block, per frontier slot, the probability
         [best_by_profile] gives the slot's block; built on first use *)
  slot_of : int array;  (* scratch while a reach row is built, else -1 *)
}

let plan predictor g frontiers =
  let n = Cfg.Graph.num_blocks g in
  {
    predictor;
    frontiers;
    succ = Cfg.Graph.succ_table g;
    reach = Array.make n None;
    slot_of = Array.make n (-1);
  }

(* [best_by_profile]'s k rounds of max-product relaxation, over frontier
   slots instead of hashtables: same products, same maxima, so the
   floats are bit-identical. Every block a walk of at most k edges
   reaches is in the frontier, so only the walks' origin [from] may
   lack a slot; it gets the extra slot [m]. *)
let reach_row plan profile ~from fr =
  let m = Array.length fr and slot_of = plan.slot_of in
  Array.iteri (fun i c -> slot_of.(c) <- i) fr;
  let cur = Array.make (m + 1) 0.0 and nxt = Array.make (m + 1) 0.0 in
  let best = Array.make m 0.0 in
  cur.(if slot_of.(from) >= 0 then slot_of.(from) else m) <- 1.0;
  for _ = 1 to Cfg.Dist.horizon plan.frontiers do
    Array.fill nxt 0 (m + 1) 0.0;
    for j = 0 to m do
      let p = cur.(j) in
      if p > 0.0 then begin
        let b = if j = m then from else fr.(j) in
        Array.iter
          (fun s ->
            let p' = p *. Cfg.Profile.edge_probability profile ~src:b ~dst:s in
            let i = slot_of.(s) in
            if p' > 0.0 && p' > nxt.(i) then nxt.(i) <- p')
          plan.succ.(b)
      end
    done;
    for i = 0 to m - 1 do
      if nxt.(i) > best.(i) then best.(i) <- nxt.(i)
    done;
    Array.blit nxt 0 cur 0 (m + 1)
  done;
  Array.iter (fun c -> slot_of.(c) <- -1) fr;
  best

let reach plan profile ~from fr =
  match plan.reach.(from) with
  | Some row -> row
  | None ->
    let row = reach_row plan profile ~from fr in
    plan.reach.(from) <- Some row;
    row

(* The helpers below are top-level recursions over ints (no local
   closures, no boxed floats), so a pick allocates nothing. *)

let rec first_compressed fr compressed i =
  if i >= Array.length fr then -1
  else if compressed (Array.unsafe_get fr i) then i
  else first_compressed fr compressed (i + 1)

(* the first compressed slot with the strictly largest reach *)
let rec best_slot fr (row : float array) compressed i bi =
  if i >= Array.length fr then bi
  else if compressed (Array.unsafe_get fr i) && row.(i) > row.(bi) then
    best_slot fr row compressed (i + 1) i
  else best_slot fr row compressed (i + 1) bi

let rec mem_int (a : int array) x i =
  i < Array.length a && (Array.unsafe_get a i = x || mem_int a x (i + 1))

(* [follow_path]: every block the walk reaches within k steps is in the
   frontier, so "is a candidate" is "is compressed". [last] is the
   last-taken table, or empty for [First_successor]. *)
let rec walk succ (last : int array) compressed ~k cur steps =
  if steps >= k then -1
  else begin
    let s = succ.(cur) in
    let remembered = if Array.length last > 0 then last.(cur) else -1 in
    let nxt =
      if remembered >= 0 && mem_int s remembered 0 then remembered
      else if Array.length s > 0 then s.(0)
      else -1
    in
    if nxt < 0 then -1
    else if compressed nxt then nxt
    else walk succ last compressed ~k nxt (steps + 1)
  end

let pick plan state ~from ~compressed =
  let fr = Cfg.Dist.frontier plan.frontiers from in
  let nearest = first_compressed fr compressed 0 in
  if nearest < 0 then -1
  else
    match plan.predictor with
    | By_profile profile ->
      let row = reach plan profile ~from fr in
      fr.(best_slot fr row compressed (nearest + 1) nearest)
    | First_successor | Last_taken ->
      let last =
        match plan.predictor with Last_taken -> state.last | _ -> [||]
      in
      let k = Cfg.Dist.horizon plan.frontiers in
      let c = walk plan.succ last compressed ~k from 0 in
      if c >= 0 then c else fr.(nearest)
