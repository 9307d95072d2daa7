(* Edge counts live per successor slot, in flat arrays parallel to each
   block's successor array: profiling a trace step is a short scan over
   immediates, with no list, tuple or hashtable in sight. A successor
   listed twice (two edge kinds to one target) counts in its first
   slot. *)

type t = {
  blocks : int array;
  succ : int array array;  (* [Graph.succ_table] *)
  counts : int array array;  (* traversals per successor slot *)
  out_total : int array;
}

let rec slot (a : int array) d i =
  if i >= Array.length a then -1 else if a.(i) = d then i else slot a d (i + 1)

let of_trace g trace =
  let n = Graph.num_blocks g in
  let succ = Graph.succ_table g in
  let counts = Array.map (fun s -> Array.make (Array.length s) 0) succ in
  let blocks = Array.make n 0 in
  let out_total = Array.make n 0 in
  let len = Array.length trace in
  for i = 0 to len - 1 do
    let b = trace.(i) in
    if b >= 0 && b < n then begin
      blocks.(b) <- blocks.(b) + 1;
      if i + 1 < len then begin
        let j = slot succ.(b) trace.(i + 1) 0 in
        if j >= 0 then begin
          counts.(b).(j) <- counts.(b).(j) + 1;
          out_total.(b) <- out_total.(b) + 1
        end
      end
    end
  done;
  { blocks; succ; counts; out_total }

let uniform g = of_trace g [||]

let block_count t b = t.blocks.(b)

let edge_count t ~src ~dst =
  if src < 0 || src >= Array.length t.succ then 0
  else
    let j = slot t.succ.(src) dst 0 in
    if j < 0 then 0 else t.counts.(src).(j)

let edge_probability t ~src ~dst =
  let succ = t.succ.(src) in
  let j = slot succ dst 0 in
  if j < 0 then 0.0
  else if t.out_total.(src) = 0 then 1.0 /. float_of_int (Array.length succ)
  else float_of_int t.counts.(src).(j) /. float_of_int t.out_total.(src)

let hottest_successor t b =
  let succ = t.succ.(b) in
  if Array.length succ = 0 then None
  else begin
    (* first successor with the strictly largest count *)
    let best = ref succ.(0) in
    let best_count = ref (edge_count t ~src:b ~dst:succ.(0)) in
    Array.iter
      (fun s ->
        let c = edge_count t ~src:b ~dst:s in
        if c > !best_count then begin
          best := s;
          best_count := c
        end)
      succ;
    Some !best
  end

let hot_blocks t ~fraction =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Cfg.Profile.hot_blocks: fraction must be in [0,1]";
  let total = Array.fold_left ( + ) 0 t.blocks in
  if total = 0 then []
  else begin
    let order =
      Array.mapi (fun i c -> (i, c)) t.blocks
      |> Array.to_list
      |> List.sort (fun (i1, c1) (i2, c2) ->
             if c1 <> c2 then compare c2 c1 else compare i1 i2)
    in
    let target = fraction *. float_of_int total in
    let rec take acc covered = function
      | [] -> List.rev acc
      | (_, 0) :: _ -> List.rev acc
      | (b, c) :: rest ->
        if float_of_int covered >= target then List.rev acc
        else take (b :: acc) (covered + c) rest
    in
    take [] 0 order
  end
