type spec =
  | Kedge
  | Loop_aware of { weight : int }
  | Clock
  | Pin_hot of { pinned : int list }

let spec_name = function
  | Kedge -> "kedge"
  | Loop_aware _ -> "loop-aware"
  | Clock -> "clock"
  | Pin_hot _ -> "pin-hot"

type ctx = {
  blocks : int;
  k : int;
  k_of : (int -> int) option;
  graph : Cfg.Graph.t option;
  budget : int option;
  size_of : (int -> int) option;
}

(* k-edge counters + LRU victims: the paper's own retention scheme.
   [Kedge] and [Loop_aware] differ only in the counters' per-block k. *)
type kedge_lru = { kedge : Memsim.Kedge.t; lru : Memsim.Lru.t }

(* Clock: second-chance approximation of the k-edge/LRU pair with O(1)
   state per block.  Each resident copy has a reference bit, set on
   execution, and a timer re-armed every [k] edges — a k-edge counter,
   so the timers are a [Memsim.Kedge] whose tracked set is exactly the
   set of copies in the area.  When the timer fires with the bit set,
   the copy gets a second chance (bit cleared, timer re-armed); with
   the bit clear it is reported due.  Budget victims come from a
   clock-hand sweep that clears bits as it passes. *)
type clock = {
  timers : Memsim.Kedge.t;
  refbit : bool array;
  mutable hand : int;
}

(* Pin-hot ([Pinned]): the pinned blocks are exempt from all retention
   bookkeeping — never due, never a victim — and everything else runs
   plain k-edge/LRU. *)
type t =
  | Kedge_lru of kedge_lru
  | Clock_bits of clock
  | Pinned of { pin : bool array; inner : kedge_lru }

let kedge_lru ?k_of ctx =
  {
    kedge = Memsim.Kedge.create ?k_of ~blocks:ctx.blocks ~k:ctx.k ();
    lru = Memsim.Lru.create ();
  }

let loop_aware ~weight ctx =
  if weight < 1 then
    invalid_arg "Residency.Policy: loop-aware weight must be >= 1";
  let graph =
    match ctx.graph with
    | Some g -> g
    | None ->
      invalid_arg "Residency.Policy: loop-aware retention needs a CFG"
  in
  let depth = Cfg.Loop.loop_depth graph in
  let k_of b =
    let d = if b >= 0 && b < Array.length depth then depth.(b) else 0 in
    let scale = 1 + (weight * d) in
    let base = match ctx.k_of with None -> ctx.k | Some f -> f b in
    if base >= max_int / scale then max_int else base * scale
  in
  kedge_lru ~k_of ctx

let clock ctx =
  if ctx.k < 1 then invalid_arg "Residency.Policy: clock k must be >= 1";
  {
    timers = Memsim.Kedge.create ~blocks:ctx.blocks ~k:ctx.k ();
    refbit = Array.make ctx.blocks false;
    hand = 0;
  }

let pin_hot ~pinned ctx =
  List.iter
    (fun b ->
      if b < 0 || b >= ctx.blocks then
        invalid_arg "Residency.Policy: pinned block out of range")
    pinned;
  let distinct = List.sort_uniq compare pinned in
  (match (ctx.budget, ctx.size_of) with
  | Some cap, Some size ->
    let need = List.fold_left (fun a b -> a + size b) 0 distinct in
    if need > cap then
      invalid_arg
        (Printf.sprintf
           "Residency.Policy: pinned set needs %d bytes but the budget is %d"
           need cap)
  | _ -> ());
  let pin = Array.make ctx.blocks false in
  List.iter (fun b -> pin.(b) <- true) distinct;
  Pinned { pin; inner = kedge_lru ?k_of:ctx.k_of ctx }

let instantiate spec ctx =
  if ctx.blocks < 1 then invalid_arg "Residency.Policy: blocks must be >= 1";
  match spec with
  | Kedge -> Kedge_lru (kedge_lru ?k_of:ctx.k_of ctx)
  | Loop_aware { weight } -> Kedge_lru (loop_aware ~weight ctx)
  | Clock -> Clock_bits (clock ctx)
  | Pin_hot { pinned } -> pin_hot ~pinned ctx

(* ------------------------------------------------------------------ *)
(* The retention hooks. *)

let on_materialize t ~block ~step =
  match t with
  | Kedge_lru s -> Memsim.Kedge.track s.kedge ~block ~step
  | Clock_bits c -> Memsim.Kedge.track c.timers ~block ~step
  | Pinned { pin; inner } ->
    if not pin.(block) then Memsim.Kedge.track inner.kedge ~block ~step

let rearm = on_materialize

let on_ready t ~block ~time =
  match t with
  | Kedge_lru s -> Memsim.Lru.touch s.lru block ~time
  | Clock_bits _ -> ()
  | Pinned { pin; inner } ->
    if not pin.(block) then Memsim.Lru.touch inner.lru block ~time

let execute s ~block ~step ~time =
  Memsim.Kedge.track s.kedge ~block ~step;
  Memsim.Lru.touch s.lru block ~time

let on_execute t ~block ~step ~time =
  match t with
  | Kedge_lru s -> execute s ~block ~step ~time
  (* The bit is set by execution only, never by materialization, so
     the engine's materialize-then-execute and the runtime's
     execute-then-trap orders leave identical state. *)
  | Clock_bits c -> c.refbit.(block) <- true
  | Pinned { pin; inner } ->
    if not pin.(block) then execute inner ~block ~step ~time

(* Second chance over the fired timers [into.(0 .. n-1)], compacting
   the copies that are really due to the front. Every fired timer is
   re-armed — also when its copy is reported due: the host may spare
   it (branch target, §5) and the timer must stay alive for the
   surviving copy. *)
let rec second_chance c ~step (into : int array) n i j =
  if i = n then j
  else begin
    let b = into.(i) in
    Memsim.Kedge.track c.timers ~block:b ~step;
    if c.refbit.(b) then begin
      c.refbit.(b) <- false;
      second_chance c ~step into n (i + 1) j
    end
    else begin
      into.(j) <- b;
      second_chance c ~step into n (i + 1) (j + 1)
    end
  end

let due t ~step ~into =
  match t with
  | Kedge_lru s | Pinned { inner = s; _ } ->
    Memsim.Kedge.due_into s.kedge ~step ~into
  | Clock_bits c ->
    let n = Memsim.Kedge.due_into c.timers ~step ~into in
    second_chance c ~step into n 0 0

let sweep c ~exclude =
  let blocks = Array.length c.refbit in
  let rec go i remaining =
    if remaining = 0 then None
    else begin
      let b = i mod blocks in
      if Memsim.Kedge.tracked c.timers ~block:b && not (exclude b) then
        if c.refbit.(b) then begin
          c.refbit.(b) <- false;
          go (b + 1) (remaining - 1)
        end
        else begin
          c.hand <- b + 1;
          Some b
        end
      else go (b + 1) (remaining - 1)
    end
  in
  go c.hand (2 * blocks)

let victim t ~exclude =
  match t with
  | Kedge_lru s -> Memsim.Lru.victim s.lru ~exclude ()
  | Clock_bits c -> sweep c ~exclude
  | Pinned { pin; inner } ->
    Memsim.Lru.victim inner.lru ~exclude:(fun b -> pin.(b) || exclude b) ()

let on_release t ~block =
  match t with
  | Kedge_lru s | Pinned { inner = s; _ } ->
    Memsim.Kedge.untrack s.kedge ~block;
    Memsim.Lru.remove s.lru block
  | Clock_bits c ->
    Memsim.Kedge.untrack c.timers ~block;
    c.refbit.(block) <- false
