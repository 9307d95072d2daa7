type edge_kind = Fallthrough | Taken | Call | Return

let edge_kind_name = function
  | Fallthrough -> "fallthrough"
  | Taken -> "taken"
  | Call -> "call"
  | Return -> "return"

type block = {
  id : int;
  addr : int;
  n_instrs : int;
  byte_size : int;
  exec_cycles : int;
  label : string option;
}

type t = {
  blocks : block array;
  succs : (int * edge_kind) list array;
  preds : (int * edge_kind) list array;
  succ_table : int array array;  (* [succs]' ids, as arrays *)
  entry : int;
  sorted : bool;
      (* blocks in strictly increasing address order, as when built
         from a program: address lookups binary-search *)
}

let make ?(entry = 0) blocks edges =
  let n = Array.length blocks in
  if n = 0 then invalid_arg "Cfg.Graph.make: empty graph";
  Array.iteri
    (fun i b ->
      if b.id <> i then
        invalid_arg
          (Printf.sprintf "Cfg.Graph.make: block at index %d has id %d" i b.id))
    blocks;
  if entry < 0 || entry >= n then invalid_arg "Cfg.Graph.make: bad entry";
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  List.iter
    (fun (src, dst, kind) ->
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg (Printf.sprintf "Cfg.Graph.make: bad edge %d -> %d" src dst);
      succs.(src) <- (dst, kind) :: succs.(src);
      preds.(dst) <- (src, kind) :: preds.(dst))
    edges;
  (* Keep deterministic order: as given. *)
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  let succ_table = Array.map (fun l -> Array.of_list (List.map fst l)) succs in
  let sorted =
    let rec ok i =
      i >= n - 1 || (blocks.(i).addr < blocks.(i + 1).addr && ok (i + 1))
    in
    ok 0
  in
  { blocks; succs; preds; succ_table; entry; sorted }

let synthetic ?(block_bytes = 64) ?sizes n edges =
  if n <= 0 then invalid_arg "Cfg.Graph.synthetic: n must be positive";
  let size i =
    match sizes with
    | Some a ->
      if Array.length a <> n then
        invalid_arg "Cfg.Graph.synthetic: sizes length mismatch"
      else a.(i)
    | None -> block_bytes
  in
  let blocks =
    Array.init n (fun i ->
        let byte_size = size i in
        {
          id = i;
          addr = i * 1024;
          n_instrs = max 1 (byte_size / 4);
          byte_size;
          exec_cycles = max 1 (byte_size / 4);
          label = None;
        })
  in
  make blocks (List.map (fun (a, b) -> (a, b, Taken)) edges)

let num_blocks t = Array.length t.blocks
let entry t = t.entry
let block t i = t.blocks.(i)
let blocks t = t.blocks
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)
let succ_ids t i = List.map fst t.succs.(i)
let pred_ids t i = List.map fst t.preds.(i)
let succ_table t = t.succ_table

let edges t =
  let acc = ref [] in
  for i = Array.length t.blocks - 1 downto 0 do
    List.iter (fun (dst, k) -> acc := (i, dst, k) :: !acc) (List.rev t.succs.(i))
  done;
  !acc

let num_edges t = Array.fold_left (fun n l -> n + List.length l) 0 t.succs

let block_at_addr t addr =
  let rec bsearch lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      let b = t.blocks.(mid) in
      if addr < b.addr then bsearch lo (mid - 1)
      else if addr >= b.addr + b.byte_size then bsearch (mid + 1) hi
      else Some mid
  in
  if t.sorted then bsearch 0 (Array.length t.blocks - 1)
  else
    let found = ref None in
    Array.iter
      (fun b ->
        if addr >= b.addr && addr < b.addr + b.byte_size then found := Some b.id)
      t.blocks;
    !found

let block_of_leader t addr =
  match block_at_addr t addr with
  | Some i when t.blocks.(i).addr = addr -> Some i
  | Some _ | None -> None

let total_bytes t = Array.fold_left (fun n b -> n + b.byte_size) 0 t.blocks

let exits t =
  let acc = ref [] in
  for i = Array.length t.blocks - 1 downto 0 do
    if t.succs.(i) = [] then acc := i :: !acc
  done;
  !acc

let reachable t =
  let n = num_blocks t in
  let seen = Array.make n false in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter (fun (j, _) -> dfs j) t.succs.(i)
    end
  in
  dfs t.entry;
  seen

let validate_trace t trace =
  let n = num_blocks t in
  let len = Array.length trace in
  if len = 0 then Ok ()
  else if trace.(0) <> t.entry then
    Error (Printf.sprintf "trace starts at block %d, not entry %d" trace.(0) t.entry)
  else
    let rec check i =
      if i >= len then Ok ()
      else
        let src = trace.(i - 1) and dst = trace.(i) in
        if src < 0 || src >= n || dst < 0 || dst >= n then
          Error (Printf.sprintf "trace position %d: bad block id" i)
        else if List.mem dst (succ_ids t src) then check (i + 1)
        else
          Error
            (Printf.sprintf "trace position %d: no edge %d -> %d" i src dst)
    in
    check 1

let pp_stats ppf t =
  Format.fprintf ppf
    "blocks: %d; edges: %d; bytes: %d; entry: %d; exits: [%s]" (num_blocks t)
    (num_edges t) (total_bytes t) t.entry
    (String.concat "; " (List.map string_of_int (exits t)))
