let bfs g ~from ~limit ~visit =
  let n = Graph.num_blocks g in
  let dist = Array.make n max_int in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if dist.(s) = max_int then begin
        dist.(s) <- 1;
        Queue.add s q
      end)
    (Graph.succ_ids g from);
  while not (Queue.is_empty q) do
    let b = Queue.pop q in
    visit b dist.(b);
    if dist.(b) < limit then
      List.iter
        (fun s ->
          if dist.(s) = max_int then begin
            dist.(s) <- dist.(b) + 1;
            Queue.add s q
          end)
        (Graph.succ_ids g b)
  done;
  dist

let within g ~from ~k =
  if k < 0 then invalid_arg "Cfg.Dist.within: negative k";
  let acc = ref [] in
  let _ = bfs g ~from ~limit:k ~visit:(fun b d -> acc := (b, d) :: !acc) in
  List.rev !acc

let all_distances g ~from =
  bfs g ~from ~limit:(Graph.num_blocks g + 1) ~visit:(fun _ _ -> ())

let distance g ~src ~dst =
  let dist = all_distances g ~from:src in
  if dist.(dst) = max_int then None else Some dist.(dst)

type frontiers = {
  graph : Graph.t;
  k : int;
  rows : int array option array;  (* per block, built on first request *)
}

let frontiers g ~k =
  if k < 0 then invalid_arg "Cfg.Dist.frontiers: negative k";
  { graph = g; k; rows = Array.make (Graph.num_blocks g) None }

let horizon t = t.k

let frontier t b =
  match t.rows.(b) with
  | Some row -> row
  | None ->
    let row = Array.of_list (List.map fst (within t.graph ~from:b ~k:t.k)) in
    t.rows.(b) <- Some row;
    row
