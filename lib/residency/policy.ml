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
  totals : (unit -> (string * int) list) option;
}

type t = {
  name : string;
  on_materialize : block:int -> step:int -> unit;
  on_ready : block:int -> time:int -> unit;
  on_execute : block:int -> step:int -> time:int -> unit;
  rearm : block:int -> step:int -> unit;
  due : step:int -> into:int array -> int;
  victim : exclude:(int -> bool) -> int option;
  on_release : block:int -> unit;
  describe : unit -> string;
}

(* ------------------------------------------------------------------ *)
(* k-edge counters + LRU victims: the paper's own retention scheme,
   shared by [Kedge], [Loop_aware] and (as fallback) [Pin_hot]. *)

let kedge_lru ~name ?k_of ~blocks ~k ~describe () =
  let kedge = Memsim.Kedge.create ?k_of ~blocks ~k () in
  let lru = Memsim.Lru.create () in
  {
    name;
    on_materialize = (fun ~block ~step -> Memsim.Kedge.track kedge ~block ~step);
    on_ready = (fun ~block ~time -> Memsim.Lru.touch lru block ~time);
    on_execute =
      (fun ~block ~step ~time ->
        Memsim.Kedge.track kedge ~block ~step;
        Memsim.Lru.touch lru block ~time);
    rearm = (fun ~block ~step -> Memsim.Kedge.track kedge ~block ~step);
    due = (fun ~step ~into -> Memsim.Kedge.due_into kedge ~step ~into);
    victim = (fun ~exclude -> Memsim.Lru.victim lru ~exclude ());
    on_release =
      (fun ~block ->
        Memsim.Kedge.untrack kedge ~block;
        Memsim.Lru.remove lru block);
    describe;
  }

let base_k ctx block =
  match ctx.k_of with None -> ctx.k | Some f -> f block

let kedge ctx =
  kedge_lru ~name:"kedge" ?k_of:ctx.k_of ~blocks:ctx.blocks ~k:ctx.k
    ~describe:(fun () -> Printf.sprintf "k-edge/LRU, k=%d" ctx.k)
    ()

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
    let base = base_k ctx b in
    if base >= max_int / scale then max_int else base * scale
  in
  kedge_lru ~name:"loop-aware" ~k_of ~blocks:ctx.blocks ~k:ctx.k
    ~describe:(fun () ->
      Printf.sprintf "loop-aware k-edge, k=%d scaled by (1 + %d*depth)" ctx.k
        weight)
    ()

(* ------------------------------------------------------------------ *)
(* Clock: second-chance approximation of the k-edge/LRU pair with O(1)
   state per block.  Each resident copy has a reference bit, set on
   execution, and a timer re-armed every [k] edges — a k-edge counter,
   so the timers are a [Memsim.Kedge] whose tracked set is exactly the
   set of copies in the area.  When the timer fires with the bit set,
   the copy gets a second chance (bit cleared, timer re-armed); with
   the bit clear it is reported due.  Budget victims come from a
   clock-hand sweep that clears bits as it passes. *)

(* Second chance over the fired timers [into.(0 .. n-1)], compacting
   the copies that are really due to the front. Every fired timer is
   re-armed — also when its copy is reported due: the host may spare
   it (branch target, §5) and the timer must stay alive for the
   surviving copy. *)
let rec second_chance timers refbit ~step (into : int array) n i j =
  if i = n then j
  else begin
    let b = into.(i) in
    Memsim.Kedge.track timers ~block:b ~step;
    if refbit.(b) then begin
      refbit.(b) <- false;
      second_chance timers refbit ~step into n (i + 1) j
    end
    else begin
      into.(j) <- b;
      second_chance timers refbit ~step into n (i + 1) (j + 1)
    end
  end

let clock ctx =
  if ctx.k < 1 then invalid_arg "Residency.Policy: clock k must be >= 1";
  let blocks = ctx.blocks and k = ctx.k in
  let timers = Memsim.Kedge.create ~blocks ~k () in
  let refbit = Array.make blocks false in
  let hand = ref 0 in
  let arm ~block ~step = Memsim.Kedge.track timers ~block ~step in
  {
    name = "clock";
    on_materialize = arm;
    on_ready = (fun ~block:_ ~time:_ -> ());
    (* The bit is set by execution only, never by materialization, so
       the engine's materialize-then-execute and the runtime's
       execute-then-trap orders leave identical state. *)
    on_execute = (fun ~block ~step:_ ~time:_ -> refbit.(block) <- true);
    rearm = arm;
    due =
      (fun ~step ~into ->
        let n = Memsim.Kedge.due_into timers ~step ~into in
        second_chance timers refbit ~step into n 0 0);
    victim =
      (fun ~exclude ->
        let rec sweep i remaining =
          if remaining = 0 then None
          else begin
            let b = i mod blocks in
            if Memsim.Kedge.tracked timers ~block:b && not (exclude b) then
              if refbit.(b) then begin
                refbit.(b) <- false;
                sweep (b + 1) (remaining - 1)
              end
              else begin
                hand := b + 1;
                Some b
              end
            else sweep (b + 1) (remaining - 1)
          end
        in
        sweep !hand (2 * blocks));
    on_release =
      (fun ~block ->
        Memsim.Kedge.untrack timers ~block;
        refbit.(block) <- false);
    describe = (fun () -> Printf.sprintf "clock (second chance), period=%d" k);
  }

(* ------------------------------------------------------------------ *)
(* Pin-hot: a profile-driven pinned set that is exempt from all
   retention bookkeeping — never due, never a victim — on top of the
   plain k-edge/LRU scheme for everything else. *)

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
  let inner = kedge ctx in
  {
    inner with
    name = "pin-hot";
    on_materialize =
      (fun ~block ~step -> if not pin.(block) then inner.on_materialize ~block ~step);
    on_ready = (fun ~block ~time -> if not pin.(block) then inner.on_ready ~block ~time);
    on_execute =
      (fun ~block ~step ~time ->
        if not pin.(block) then inner.on_execute ~block ~step ~time);
    rearm = (fun ~block ~step -> if not pin.(block) then inner.rearm ~block ~step);
    victim = (fun ~exclude -> inner.victim ~exclude:(fun b -> pin.(b) || exclude b));
    describe =
      (fun () ->
        Printf.sprintf "pin-hot (%d pinned) over k-edge, k=%d"
          (List.length distinct) ctx.k);
  }

let instantiate spec ctx =
  if ctx.blocks < 1 then invalid_arg "Residency.Policy: blocks must be >= 1";
  match spec with
  | Kedge -> kedge ctx
  | Loop_aware { weight } -> loop_aware ~weight ctx
  | Clock -> clock ctx
  | Pin_hot { pinned } -> pin_hot ~pinned ctx
