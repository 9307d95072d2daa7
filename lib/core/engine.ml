type block_info = {
  exec_cycles : int;
  uncompressed_bytes : int;
  compressed_bytes : int;
}

let info_of_graph ?(ratio = 0.6) g =
  Array.map
    (fun (b : Cfg.Graph.block) ->
      {
        exec_cycles = b.exec_cycles;
        uncompressed_bytes = b.byte_size;
        compressed_bytes =
          max 1 (int_of_float (ratio *. float_of_int b.byte_size));
      })
    (Cfg.Graph.blocks g)

let info_of_program ~codec prog g =
  Array.map
    (fun (b : Cfg.Graph.block) ->
      let bytes =
        Eris.Program.slice_bytes prog ~lo:b.addr ~hi:(b.addr + b.byte_size)
      in
      {
        exec_cycles = b.exec_cycles;
        uncompressed_bytes = b.byte_size;
        compressed_bytes = Bytes.length (codec.Compress.Codec.compress bytes);
      })
    (Cfg.Graph.blocks g)

(* The engine speaks the shared simulation vocabulary; the re-export
   keeps the historical [Core.Engine.Exec]-style paths valid. *)
type event = Sim.Events.t =
  | Exec of { block : int; at : int }
  | Exception of { block : int; at : int }
  | Demand_decompress of { block : int; at : int; cycles : int }
  | Prefetch_issue of { block : int; at : int; ready_at : int }
  | Stall of { block : int; at : int; cycles : int }
  | Patch of { target : int; site : int; at : int }
  | Unpatch of { target : int; site : int; at : int }
  | Discard of { block : int; at : int; patched_back : int; wasted : bool }
  | Evict of { block : int; at : int }
  | Recompress_queued of { block : int; at : int; done_at : int }
  | Flush of { at : int; copies : int }

module Packed = Sim.Events.Packed

(* Residency state of one block's decompressed copy, int-coded so the
   per-step transitions are plain stores. Tag in the low two bits;
   the flags above are set on prefetched copies only, so a copy the
   execution thread decompressed itself reads exactly [tag_resident].
   [Decompressing]/[Recompressing] park their timestamp in [aux]. *)
let tag_compressed = 0
let tag_decompressing = 1
let tag_resident = 2
let tag_recompressing = 3
let bit_used = 4
let bit_prefetched = 8

(* Streaming occupancy accounting. Deltas arrive in nondecreasing time
   order, except recompression frees dated in the future: those wait
   in [future], bounded by the in-flight recompressions, not the trace.
   The level at a time is the level after all of that time's deltas,
   so the peak is taken only when time moves on: copies that overlap
   within one instant never count together. *)
type occupancy = {
  future : Memsim.Pairheap.t;  (* (time, delta) *)
  mutable future_at : int;  (* earliest [future] time; max_int if none *)
  mutable horizon : int;  (* latest [future] time ever pushed *)
  mutable time : int;  (* the open group's time *)
  mutable level : int;  (* bytes, with the open group applied *)
  mutable peak : int;  (* over the closed groups *)
  mutable integral : int;  (* byte-cycles up to [time] *)
}

(* What the strategy looks up at each edge, built once per run. *)
type lookahead =
  | No_lookahead
  | All of Cfg.Dist.frontiers  (* pre-all: every frontier block *)
  | Single of Predictor.plan  (* pre-single: the predicted one *)

(* Everything [run]'s loop shares with the rare transitions it calls.
   The per-step scalars (clock, charge counters) live in the loop's
   locals; these fields count what only the rare transitions do. *)
type state = {
  policy : Policy.t;
  retention : Residency.Policy.t;
  lookahead : lookahead;
  (* packed event stream, handed to [deliver] a chunk at a time; built
     only when [listen] (a log or a sink was given) *)
  listen : bool;
  ev : Packed.chunk;
  deliver : Packed.chunk -> unit;
  stat : int array;  (* int-coded status, see the tag_/bit_ constants *)
  aux : int array;  (* ready_at / done_at for the in-flight tags *)
  base : int array;
      (* step of each copy's last k-edge (re)start, -1 without one *)
  (* remember sets (§5): the branch sites patched to point at each
     target's copy, unordered in [rs.(t).(0 .. rs_len.(t) - 1)]; the
     engine's own rather than [Memsim.Remember]'s, because the loop
     tests membership on every step and a call into another module is
     never inlined *)
  rs : int array array;
  rs_len : int array;
  due_buf : int array;  (* [Residency.Policy.due]'s hand-off *)
  pred_state : Predictor.state;
  compressed : int -> bool;  (* [stat] reads as Compressed *)
  spare : int array;
      (* the three blocks the current [make_room] must not evict *)
  spared : int -> bool;  (* [spare] or not Resident: no victim *)
  dec : Sim.Clock.resource;  (* decompression thread *)
  comp : Sim.Clock.resource;  (* compression thread *)
  occ : occupancy;
  mutable live_bytes : int;  (* decompressed area, settled view *)
  (* Time-ordered queues, popped in the lexicographic order of their
     pairs. [inflight] deletes lazily: an entry is live only while its
     block is still Decompressing with [aux] = its ready_at; a demand
     arrival that finishes a prefetch early just leaves its entry to
     be skipped. *)
  inflight : Memsim.Pairheap.t;  (* (ready_at, block) *)
  pending_frees : Memsim.Pairheap.t;  (* (time, bytes) *)
  mutable settle_at : int;
      (* earliest time in either queue, max_int if both are empty:
         until then [settle] has nothing to do *)
  (* per-block cost tables: the values of Sim.Cost's constructors,
     which stay the single source of the pricing formulas *)
  u_size : int array;
  def_cycles : int array;  (* default per-visit execution cycles *)
  dec_cyc : int array;  (* demand/prefetch decompression latency *)
  comp_cyc : int array;  (* recompression latency *)
  demand_nj : int array;
  prefetch_nj : int array;
  recompress_nj : int array;
  succ_arr : int array array;  (* [Cfg.Graph.succ_table] *)
  ret_sites : int array array;  (* per target: return-only pred sites *)
  exc_cyc : int;
  patch_cyc : int;
  (* counts of the rare transitions *)
  mutable exceptions : int;
  mutable patches : int;
  mutable patch_backs : int;
  mutable stall_cycles : int;
  mutable prefetch_decompressions : int;
  mutable prefetch_energy : int;
  mutable recompress_energy : int;
  mutable useful_prefetches : int;
  mutable wasted_prefetches : int;
  mutable discards : int;
  mutable evictions : int;
  mutable budget_overflows : int;
}

(* The loop pushes a step's own events (at most [step_events]) without
   a capacity check after one room check at the step's start. Every
   other push goes through [chunk], which flushes early enough to
   leave that many slots free behind it. Nothing is pushed unless
   [st.listen]. *)
let step_events = 5

let emit_flush st =
  if Packed.length st.ev > 0 then begin
    st.deliver st.ev;
    Packed.clear st.ev
  end

let[@inline] chunk st =
  if Packed.room st.ev <= step_events then emit_flush st;
  st.ev

(* --- occupancy stream --- *)

let[@inline] occ_apply o ~time ~delta =
  if time <> o.time then begin
    if o.level > o.peak then o.peak <- o.level;
    o.integral <- o.integral + (o.level * (time - o.time));
    o.time <- time
  end;
  o.level <- o.level + delta

let rec occ_drain o ~upto =
  let f = o.future in
  if Memsim.Pairheap.is_empty f then o.future_at <- max_int
  else if Memsim.Pairheap.min_fst f > upto then
    o.future_at <- Memsim.Pairheap.min_fst f
  else begin
    let time = Memsim.Pairheap.min_fst f in
    let delta = Memsim.Pairheap.min_snd f in
    Memsim.Pairheap.pop f;
    occ_apply o ~time ~delta;
    occ_drain o ~upto
  end

(* A delta at the current time [time]. *)
let[@inline] occ_post o ~time ~delta =
  if time >= o.future_at then occ_drain o ~upto:time;
  occ_apply o ~time ~delta

(* Closes the stream at [now]: the time-weighted occupancy of the
   decompressed area — peak, average, and the raw byte-cycles integral
   (the RAM leakage base). *)
let occ_close o ~now =
  occ_drain o ~upto:max_int;
  let until = max (max now o.horizon) 1 in
  let byte_cycles = o.integral + (o.level * (until - o.time)) in
  (max o.peak o.level, float_of_int byte_cycles /. float_of_int until,
   byte_cycles)

(* --- remember sets --- *)

(* The index of [x] in [a.(0 .. n - 1)], or [n]. *)
let[@inline] find (a : int array) n x =
  let j = ref 0 in
  while !j < n && Array.unsafe_get a !j <> x do
    incr j
  done;
  !j

let[@inline] recorded st ~target ~site =
  let n = Array.unsafe_get st.rs_len target in
  find (Array.unsafe_get st.rs target) n site < n

let record st ~target ~site =
  let n = st.rs_len.(target) in
  if n = Array.length st.rs.(target) then begin
    let grown = Array.make (max 4 (2 * n)) 0 in
    Array.blit st.rs.(target) 0 grown 0 n;
    st.rs.(target) <- grown
  end;
  st.rs.(target).(n) <- site;
  st.rs_len.(target) <- n + 1

(* Branches inside [d] vanish with its copy: drop [d] from the
   remember sets of its successors (order within a set is free). *)
let forget_branches_of st d =
  let succs = st.succ_arr.(d) in
  for i = 0 to Array.length succs - 1 do
    let t = succs.(i) in
    let a = st.rs.(t) and n = st.rs_len.(t) in
    let j = find a n d in
    if j < n then begin
      a.(j) <- a.(n - 1);
      st.rs_len.(t) <- n - 1
    end
  done

(* [site -> target] transfers the runtime can never patch: return
   addresses are home-valued constants materialized at call time, so a
   [jalr] site re-traps on every return and is never recorded. A pair
   qualifies only when every [site -> target] edge is a return — a
   site that can also branch there keeps its patchable slot. *)
let[@inline] return_only st ~site ~target =
  let a = Array.unsafe_get st.ret_sites target in
  let n = Array.length a in
  n > 0 && find a n site < n

(* --- the rare transitions --- *)

let head_time q =
  if Memsim.Pairheap.is_empty q then max_int else Memsim.Pairheap.min_fst q

(* Promote finished prefetches (skipping stale [inflight] entries) and
   apply recompression frees whose time has passed. *)
let rec promote st ~now q =
  if head_time q <= now then begin
    let ready_at = Memsim.Pairheap.min_fst q in
    let b = Memsim.Pairheap.min_snd q in
    Memsim.Pairheap.pop q;
    if st.stat.(b) land 3 = tag_decompressing && st.aux.(b) = ready_at
    then begin
      st.stat.(b) <- st.stat.(b) land bit_prefetched lor tag_resident;
      Residency.Policy.on_ready st.retention ~block:b ~time:ready_at
    end;
    promote st ~now q
  end

let rec apply_frees st ~now q =
  if head_time q <= now then begin
    st.live_bytes <- st.live_bytes - Memsim.Pairheap.min_snd q;
    Memsim.Pairheap.pop q;
    apply_frees st ~now q
  end

let settle st ~now =
  if st.settle_at <= now then begin
    promote st ~now st.inflight;
    apply_frees st ~now st.pending_frees;
    st.settle_at <- min (head_time st.inflight) (head_time st.pending_frees)
  end

(* Deletes the decompressed copy of [b] (k-edge retirement or budget
   eviction). Patch-backs run on the compression thread; the engine
   only models their timing, so every recorded site patches back. *)
let delete_copy st ~now ~eviction b =
  let s = st.stat.(b) in
  if s land 3 <> tag_resident then
    invalid_arg "Core.Engine.delete_copy: block not resident";
  let wasted = s land bit_prefetched <> 0 && s land bit_used = 0 in
  if wasted then st.wasted_prefetches <- st.wasted_prefetches + 1;
  let patched_back = st.rs_len.(b) in
  st.rs_len.(b) <- 0;
  st.base.(b) <- -1;
  Residency.Policy.on_release st.retention ~block:b;
  st.patch_backs <- st.patch_backs + patched_back;
  Sim.Clock.push_back st.comp ~now ~cycles:(patched_back * st.patch_cyc);
  forget_branches_of st b;
  let u = st.u_size.(b) in
  (match st.policy.Policy.mode with
  | Policy.Discard ->
    st.live_bytes <- st.live_bytes - u;
    occ_post st.occ ~time:now ~delta:(-u);
    st.stat.(b) <- tag_compressed
  | Policy.Recompress ->
    st.recompress_energy <- st.recompress_energy + st.recompress_nj.(b);
    let done_at = Sim.Clock.schedule st.comp ~now ~cycles:st.comp_cyc.(b) in
    Memsim.Pairheap.push st.pending_frees done_at u;
    if done_at < st.settle_at then st.settle_at <- done_at;
    let o = st.occ in
    if done_at > now then begin
      Memsim.Pairheap.push o.future done_at (-u);
      if done_at < o.future_at then o.future_at <- done_at;
      if done_at > o.horizon then o.horizon <- done_at
    end
    else occ_post o ~time:now ~delta:(-u);
    st.stat.(b) <- tag_recompressing;
    st.aux.(b) <- done_at;
    if st.listen then
      Packed.push_recompress_queued (chunk st) ~at:now ~block:b ~done_at);
  if eviction then begin
    st.evictions <- st.evictions + 1;
    if st.listen then Packed.push_evict (chunk st) ~at:now ~block:b
  end
  else begin
    st.discards <- st.discards + 1;
    if st.listen then
      Packed.push_discard (chunk st) ~at:now ~block:b ~patched_back ~wasted
  end

let rec evict_until st ~now cap bytes =
  if st.live_bytes + bytes <= cap then true
  else
    match Residency.Policy.victim st.retention ~exclude:st.spared with
    | Some v ->
      delete_copy st ~now ~eviction:true v;
      evict_until st ~now cap bytes
    | None -> false

(* Ensures [bytes] fit under the budget, evicting residents other than
   the three spared blocks. Returns false if the space cannot be
   freed. *)
let make_room st ~now ~spare1 ~spare2 ~spare3 bytes =
  match st.policy.Policy.budget with
  | None -> true
  | Some cap ->
    settle st ~now;
    st.spare.(0) <- spare1;
    st.spare.(1) <- spare2;
    st.spare.(2) <- spare3;
    evict_until st ~now cap bytes

(* Waits until [t]; returns the new time. *)
let stall st b ~now t =
  if t > now then begin
    st.stall_cycles <- st.stall_cycles + (t - now);
    if st.listen then
      Packed.push_stall (chunk st) ~at:t ~block:b ~cycles:(t - now);
    t
  end
  else now

(* Arrival at a copy a helper thread still owns; returns the new time.
   Decompressing: the branch still points into the compressed area, so
   the exception fires, then the execution thread waits out the
   pre-decompression (its [inflight] entry goes stale) and patches.
   Recompressing: wait out the compression; the caller then takes the
   demand path. *)
let arrive_in_flight st ~prev b ~now =
  let s = st.stat.(b) in
  if s land 3 = tag_decompressing then begin
    st.exceptions <- st.exceptions + 1;
    let now = now + st.exc_cyc in
    if st.listen then Packed.push_exception (chunk st) ~at:now ~block:b;
    let now = stall st b ~now st.aux.(b) in
    (* only a prefetch is in flight, and it executes next: first use *)
    st.useful_prefetches <- st.useful_prefetches + 1;
    st.stat.(b) <- tag_resident lor bit_prefetched lor bit_used;
    Residency.Policy.on_ready st.retention ~block:b ~time:now;
    if prev >= 0 && not (return_only st ~site:prev ~target:b) then begin
      record st ~target:b ~site:prev;
      st.patches <- st.patches + 1;
      let now = now + st.patch_cyc in
      if st.listen then
        Packed.push_patch (chunk st) ~at:now ~target:b ~site:prev;
      now
    end
    else now
  end
  else begin
    let now = stall st b ~now st.aux.(b) in
    settle st ~now;
    st.stat.(b) <- tag_compressed;
    now
  end

(* Queue a pre-decompression of [c] on the decompression thread, at the
   edge from [b] to [next]. *)
let issue_prefetch st ~now ~step ~b ~next c =
  if st.stat.(c) land 3 = tag_compressed then
    let u = st.u_size.(c) in
    if make_room st ~now ~spare1:b ~spare2:next ~spare3:c u then begin
      st.live_bytes <- st.live_bytes + u;
      occ_post st.occ ~time:now ~delta:u;
      let ready_at = Sim.Clock.schedule st.dec ~now ~cycles:st.dec_cyc.(c) in
      st.stat.(c) <- tag_decompressing lor bit_prefetched;
      st.aux.(c) <- ready_at;
      Memsim.Pairheap.push st.inflight ready_at c;
      if ready_at < st.settle_at then st.settle_at <- ready_at;
      Residency.Policy.on_materialize st.retention ~block:c ~step;
      st.prefetch_energy <- st.prefetch_energy + st.prefetch_nj.(c);
      st.prefetch_decompressions <- st.prefetch_decompressions + 1;
      if st.listen then
        Packed.push_prefetch (chunk st) ~at:now ~block:c ~ready_at
    end

(* The edge from [b] to [next], reaching step [step], for the policies
   without the k-edge candidate: the policy's due copies go (sparing
   the branch target, whose counter resets on execution instead, §5;
   one still in flight gets another window), then the strategy
   pre-decompresses up to [lookahead] edges ahead. *)
let traverse st ~now ~step ~b ~next =
  for i = 0 to Residency.Policy.due st.retention ~step ~into:st.due_buf - 1 do
    let d = st.due_buf.(i) in
    if d <> next then
      match st.stat.(d) land 3 with
      | 2 (* Resident *) -> delete_copy st ~now ~eviction:false d
      | 1 (* Decompressing *) ->
        Residency.Policy.rearm st.retention ~block:d ~step
      | _ -> ()
  done;
  match st.lookahead with
  | No_lookahead -> ()
  | All frontiers ->
    let fr = Cfg.Dist.frontier frontiers b in
    for i = 0 to Array.length fr - 1 do
      issue_prefetch st ~now ~step ~b ~next fr.(i)
    done
  | Single plan ->
    let c =
      Predictor.pick plan st.pred_state ~from:b ~compressed:st.compressed
    in
    if c >= 0 then issue_prefetch st ~now ~step ~b ~next c;
    Predictor.note_edge st.pred_state ~src:b ~dst:next

(* --- set-up --- *)

let nj (v : Sim.Cost.vector) = v.Sim.Cost.energy_nj

let return_only_sites graph n =
  let ret = Array.make n [] and other = Array.make n [] in
  List.iter
    (fun (s, t, k) ->
      match k with
      | Cfg.Graph.Return -> ret.(t) <- s :: ret.(t)
      | Cfg.Graph.Fallthrough | Cfg.Graph.Taken | Cfg.Graph.Call ->
        other.(t) <- s :: other.(t))
    (Cfg.Graph.edges graph);
  Array.init n (fun t ->
      Array.of_list (List.filter (fun s -> not (List.mem s other.(t))) ret.(t)))

let create ~config ~listen ~deliver ~graph ~info policy =
  let n = Cfg.Graph.num_blocks graph in
  let costs = config.Config.costs in
  let per_block f = Array.map f info in
  let stat = Array.make n tag_compressed in
  let spare = Array.make 3 (-1) in
  {
    policy;
    retention =
      Residency.Policy.instantiate policy.Policy.retention
        {
          Residency.Policy.blocks = n;
          k = policy.Policy.compress_k;
          k_of = policy.Policy.adaptive_k;
          graph = Some graph;
          budget = policy.Policy.budget;
          size_of = Some (fun b -> info.(b).uncompressed_bytes);
        };
    lookahead =
      (match policy.Policy.strategy with
      | Policy.On_demand -> No_lookahead
      | Policy.Pre_all { lookahead } ->
        All (Cfg.Dist.frontiers graph ~k:lookahead)
      | Policy.Pre_single { lookahead; predictor } ->
        Single
          (Predictor.plan predictor graph
             (Cfg.Dist.frontiers graph ~k:lookahead)));
    listen;
    (* 256 slots keep each plane within the minor heap's largest block
       (Max_young_wosize): a run's chunk dies young instead of costing
       a major-heap allocation per run *)
    ev = Packed.create ~capacity:256 ();
    deliver;
    stat;
    aux = Array.make n 0;
    base = Array.make n (-1);
    rs = Array.make n [||];
    rs_len = Array.make n 0;
    due_buf = Array.make n 0;
    pred_state = Predictor.create_state ~blocks:n;
    compressed = (fun c -> Array.unsafe_get stat c land 3 = tag_compressed);
    spare;
    spared =
      (fun v ->
        v = Array.unsafe_get spare 0
        || v = Array.unsafe_get spare 1
        || v = Array.unsafe_get spare 2
        || Array.unsafe_get stat v land 3 <> tag_resident);
    dec = Sim.Clock.resource ();
    comp = Sim.Clock.resource ();
    occ =
      {
        future = Memsim.Pairheap.create ();
        future_at = max_int;
        horizon = 0;
        time = 0;
        level = 0;
        peak = 0;
        integral = 0;
      };
    live_bytes = 0;
    inflight = Memsim.Pairheap.create ();
    pending_frees = Memsim.Pairheap.create ();
    settle_at = max_int;
    u_size = per_block (fun i -> i.uncompressed_bytes);
    def_cycles = per_block (fun i -> i.exec_cycles);
    dec_cyc =
      per_block (fun i ->
          Config.dec_cycles config ~compressed_bytes:i.compressed_bytes);
    comp_cyc =
      per_block (fun i ->
          Config.comp_cycles config ~uncompressed_bytes:i.uncompressed_bytes);
    demand_nj =
      per_block (fun i ->
          nj
            (Sim.Cost.demand_dec_charge costs
               ~compressed_bytes:i.compressed_bytes
               ~uncompressed_bytes:i.uncompressed_bytes));
    prefetch_nj =
      per_block (fun i ->
          nj
            (Sim.Cost.prefetch_dec_charge costs
               ~compressed_bytes:i.compressed_bytes
               ~uncompressed_bytes:i.uncompressed_bytes));
    recompress_nj =
      per_block (fun i ->
          nj
            (Sim.Cost.recompress_charge costs
               ~uncompressed_bytes:i.uncompressed_bytes));
    succ_arr = Cfg.Graph.succ_table graph;
    ret_sites = return_only_sites graph n;
    exc_cyc = (Sim.Cost.exception_charge costs).Sim.Cost.cycles;
    patch_cyc = (Sim.Cost.patch_charge costs).Sim.Cost.cycles;
    exceptions = 0;
    patches = 0;
    patch_backs = 0;
    stall_cycles = 0;
    prefetch_decompressions = 0;
    prefetch_energy = 0;
    recompress_energy = 0;
    useful_prefetches = 0;
    wasted_prefetches = 0;
    discards = 0;
    evictions = 0;
    budget_overflows = 0;
  }

(* --- the loop --- *)

let run ?(config = Config.default) ?log ?sink ?registry ?step_cycles ~graph
    ~info ~trace policy =
  let n = Cfg.Graph.num_blocks graph in
  if Array.length info <> n then
    invalid_arg "Core.Engine.run: info does not match graph";
  Array.iter
    (fun i ->
      if i.exec_cycles < 0 then
        invalid_arg "Core.Engine.run: negative exec_cycles")
    info;
  let len = Array.length trace in
  let sc, use_sc =
    match step_cycles with
    | None -> ([||], false)
    | Some sc ->
      if Array.length sc <> len then
        invalid_arg "Core.Engine.run: step_cycles does not match trace";
      Array.iter
        (fun c ->
          if c < 0 then invalid_arg "Core.Engine.run: negative step_cycles")
        sc;
      (sc, true)
  in
  for i = 0 to len - 1 do
    let b = Array.unsafe_get trace i in
    if b < 0 || b >= n then
      invalid_arg "Core.Engine.run: trace mentions unknown block"
  done;
  (* Events exist only for a listener: with neither a log nor a sink
     the run builds none, and computes the same metrics. *)
  let listen, deliver =
    match (log, sink) with
    | None, None -> (false, fun _ -> ())
    | Some f, None -> (true, fun ch -> Packed.iter f ch)
    | None, Some (s : Sim.Events.sink) -> (true, s.Sim.Events.emit_chunk)
    | Some f, Some s ->
      ( true,
        fun ch ->
          Packed.iter f ch;
          s.Sim.Events.emit_chunk ch )
  in
  let st = create ~config ~listen ~deliver ~graph ~info policy in
  (* On demand, with uniform-k k-edge retention and no budget, a copy
     is (re)tracked only when it executes, so the one copy that can
     fall due at step [s] is [trace.(s - k)]'s, live iff its [base] is
     still [s - k]: an O(1) check replaces the policy's due set, and
     nothing else asks the policy anything. *)
  let budgeted = policy.Policy.budget <> None in
  let candidate =
    (match policy.Policy.strategy with
    | Policy.On_demand -> true
    | Policy.Pre_all _ | Policy.Pre_single _ -> false)
    && (match policy.Policy.adaptive_k with None -> true | Some _ -> false)
    && (match policy.Policy.retention with
       | Residency.Policy.Kedge -> true
       | _ -> false)
    && not budgeted
  in
  let discard = policy.Policy.mode = Policy.Discard in
  let k = policy.Policy.compress_k in
  let stat = st.stat and base = st.base and ev = st.ev and occ = st.occ in
  let u_size = st.u_size
  and dec_cyc = st.dec_cyc
  and demand_nj = st.demand_nj
  and def_cycles = st.def_cycles
  and exc_cyc = st.exc_cyc
  and patch_cyc = st.patch_cyc in
  (* The loop's scalars: kept out of every closure so they stay
     unboxed; the rare transitions take the time and return it. *)
  let clk = ref 0 in
  let n_exc = ref 0 and n_patch = ref 0 and n_disc = ref 0 and n_pb = ref 0 in
  let n_dem = ref 0 and dem_cyc = ref 0 and dem_nj = ref 0 in
  let exec_cyc = ref 0 in
  for i = 0 to len - 1 do
    let b = Array.unsafe_get trace i in
    let prev = if i = 0 then -1 else Array.unsafe_get trace (i - 1) in
    if listen && Packed.room ev < step_events then emit_flush st;
    if st.settle_at <= !clk then settle st ~now:!clk;
    (* arrive: no cost when the branch already targets the copy;
       otherwise the exception fires and the handler patches (Fig. 5,
       steps 5-6). Return-only sites trap on every visit. *)
    let s = Array.unsafe_get stat b in
    if s land 3 = tag_resident then begin
      if s <> tag_resident && s land bit_used = 0 then begin
        (* a prefetched copy's first use *)
        st.useful_prefetches <- st.useful_prefetches + 1;
        Array.unsafe_set stat b (s lor bit_used)
      end;
      (* return-only sites are never recorded *)
      if not (recorded st ~target:b ~site:prev) then begin
        incr n_exc;
        clk := !clk + exc_cyc;
        if listen then Packed.unsafe_push_ka ev ~kind:1 ~at:!clk ~a:b;
        if prev >= 0 && not (return_only st ~site:prev ~target:b) then begin
          record st ~target:b ~site:prev;
          incr n_patch;
          clk := !clk + patch_cyc;
          if listen then
            Packed.unsafe_push_kab ev ~kind:5 ~at:!clk ~a:b ~b:prev
        end
      end
    end
    else begin
      if s <> tag_compressed then clk := arrive_in_flight st ~prev b ~now:!clk;
      if Array.unsafe_get stat b = tag_compressed then begin
        (* demand miss: exception, allocate, decompress, patch *)
        incr n_exc;
        clk := !clk + exc_cyc;
        if listen then Packed.unsafe_push_ka ev ~kind:1 ~at:!clk ~a:b;
        let u = Array.unsafe_get u_size b in
        if budgeted
           && not (make_room st ~now:!clk ~spare1:b ~spare2:b ~spare3:b u)
        then st.budget_overflows <- st.budget_overflows + 1;
        st.live_bytes <- st.live_bytes + u;
        occ_post occ ~time:!clk ~delta:u;
        let dc = Array.unsafe_get dec_cyc b in
        incr n_dem;
        dem_cyc := !dem_cyc + dc;
        dem_nj := !dem_nj + Array.unsafe_get demand_nj b;
        clk := !clk + dc;
        Array.unsafe_set stat b tag_resident;
        if not candidate then begin
          Residency.Policy.on_materialize st.retention ~block:b ~step:i;
          Residency.Policy.on_ready st.retention ~block:b ~time:!clk
        end;
        if listen then Packed.unsafe_push_kab ev ~kind:2 ~at:!clk ~a:b ~b:dc;
        (* a copy's remember set starts empty *)
        if prev >= 0 && not (return_only st ~site:prev ~target:b) then begin
          record st ~target:b ~site:prev;
          incr n_patch;
          clk := !clk + patch_cyc;
          if listen then
            Packed.unsafe_push_kab ev ~kind:5 ~at:!clk ~a:b ~b:prev
        end
      end
    end;
    (* execute *)
    Array.unsafe_set base b i;
    if not candidate then
      Residency.Policy.on_execute st.retention ~block:b ~step:i ~time:!clk;
    if listen then Packed.unsafe_push_ka ev ~kind:0 ~at:!clk ~a:b;
    let cyc =
      if use_sc then Array.unsafe_get sc i else Array.unsafe_get def_cycles b
    in
    exec_cyc := !exec_cyc + cyc;
    clk := !clk + cyc;
    (* traverse the edge to step [i + 1] *)
    let s = i + 1 in
    if s < len then begin
      let next = Array.unsafe_get trace s in
      if st.settle_at <= !clk then settle st ~now:!clk;
      if not candidate then traverse st ~now:!clk ~step:s ~b ~next
      else if s >= k then begin
        let d = Array.unsafe_get trace (s - k) in
        if
          Array.unsafe_get base d = s - k
          && d <> next
          && Array.unsafe_get stat d = tag_resident
        then
          if not discard then delete_copy st ~now:!clk ~eviction:false d
          else begin
            (* [delete_copy], inline; its patch-back time is booked at
               the end (nothing in discard mode reads the compression
               thread's free time) *)
            let nsites = Array.unsafe_get st.rs_len d in
            Array.unsafe_set st.rs_len d 0;
            Array.unsafe_set base d (-1);
            n_pb := !n_pb + nsites;
            forget_branches_of st d;
            let u = Array.unsafe_get u_size d in
            st.live_bytes <- st.live_bytes - u;
            occ_post occ ~time:!clk ~delta:(-u);
            Array.unsafe_set stat d tag_compressed;
            incr n_disc;
            if listen then
              Packed.unsafe_push_kabc ev ~kind:7 ~at:!clk ~a:d ~b:nsites ~c:0
          end
      end
    end
  done;
  emit_flush st;
  let now = !clk in
  Sim.Clock.push_back st.comp ~now ~cycles:(!n_pb * patch_cyc);
  let peak_dec, avg_dec, dec_byte_cycles = occ_close occ ~now in
  let costs = config.Config.costs in
  (* The decompressed copy area leaked for the whole run: one charge,
     priced on the exact occupancy integral. *)
  let ram_static_nj =
    nj (Sim.Cost.ram_static_charge costs ~byte_cycles:dec_byte_cycles)
  in
  (* the counts, priced: every exception and patch costs the same *)
  let exceptions = st.exceptions + !n_exc in
  let patches = st.patches + !n_patch in
  let patch_backs = st.patch_backs + !n_pb in
  let exec_energy_nj = nj (Sim.Cost.exec_charge costs ~cycles:!exec_cyc) in
  let exception_energy_nj =
    exceptions * nj (Sim.Cost.exception_charge costs)
  in
  let patch_energy_nj =
    (patches * nj (Sim.Cost.patch_charge costs))
    + nj (Sim.Cost.patch_back_charge costs ~sites:patch_backs)
  in
  let dec_energy_nj = !dem_nj + st.prefetch_energy in
  let original_bytes =
    Array.fold_left (fun acc b -> acc + b.uncompressed_bytes) 0 info
  in
  let compressed_area_bytes =
    Array.fold_left (fun acc b -> acc + b.compressed_bytes) 0 info
  in
  (* without compression, the run is its execution cycles alone *)
  let baseline_cycles = !exec_cyc in
  let m =
    {
      Metrics.total_cycles = now;
      exec_cycles = !exec_cyc;
      exception_cycles = exceptions * exc_cyc;
      patch_cycles = patches * patch_cyc;
      demand_dec_cycles = !dem_cyc;
      stall_cycles = st.stall_cycles;
      baseline_cycles;
      exceptions;
      patches = patches + patch_backs;
      demand_decompressions = !n_dem;
      prefetch_decompressions = st.prefetch_decompressions;
      useful_prefetches = st.useful_prefetches;
      wasted_prefetches = st.wasted_prefetches;
      discards = st.discards + !n_disc;
      evictions = st.evictions;
      budget_overflows = st.budget_overflows;
      dec_thread_busy_cycles = Sim.Clock.busy_cycles st.dec;
      comp_thread_busy_cycles = Sim.Clock.busy_cycles st.comp;
      energy_nj =
        exec_energy_nj + exception_energy_nj + patch_energy_nj + dec_energy_nj
        + st.recompress_energy + ram_static_nj;
      exec_energy_nj;
      exception_energy_nj;
      patch_energy_nj;
      dec_energy_nj;
      comp_energy_nj = st.recompress_energy;
      ram_static_energy_nj = ram_static_nj;
      baseline_energy_nj =
        nj (Sim.Cost.exec_charge costs ~cycles:baseline_cycles);
      original_bytes;
      compressed_area_bytes;
      peak_decompressed_bytes = peak_dec;
      avg_decompressed_bytes = avg_dec;
      peak_footprint_bytes = compressed_area_bytes + peak_dec;
      avg_footprint_bytes = float_of_int compressed_area_bytes +. avg_dec;
      trace_length = len;
      blocks = n;
    }
  in
  (match registry with
  | Some registry -> Metrics.register registry m
  | None -> ());
  m
