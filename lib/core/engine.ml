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
   per-step transitions are plain stores (the old variant allocated a
   [Resident] record on every demand decompression). Tag in the low
   two bits, flags above; [Decompressing]/[Recompressing] park their
   timestamp in the [aux] array. *)
let tag_compressed = 0
let tag_decompressing = 1
let tag_resident = 2
let tag_recompressing = 3
let bit_used = 4
let bit_prefetched = 8

(* Streaming occupancy accounting: deltas arrive in nondecreasing
   timestamp order except for recompression frees dated in the future;
   those wait in [future] (bounded by the in-flight recompressions,
   not the trace). Same-timestamp deltas are buffered and applied
   smallest-first, reproducing exactly the global (time, delta) sort
   the engine used to perform over the whole O(trace) event list. *)
type occupancy = {
  acct : Memsim.Accounting.t;
  future : Memsim.Pairheap.t;  (* (time, delta) *)
  mutable future_at : int;  (* earliest [future] time; max_int if none *)
  mutable buf_time : int;
  mutable buf : int array;  (* deltas at [buf_time], unordered *)
  mutable buf_len : int;
  mutable horizon : int;  (* latest timestamp ever posted *)
}

(* What the strategy looks up at each edge, built once per run. *)
type lookahead =
  | No_lookahead
  | All of Cfg.Dist.frontiers  (* pre-all: every frontier block *)
  | Single of Predictor.plan  (* pre-single: the predicted one *)

type state = {
  policy : Policy.t;
  lookahead : lookahead;
  (* packed event stream: the hot paths push into [ev] and hand full
     chunks to [deliver]; nothing per-event is heap-allocated *)
  ev : Packed.chunk;
  deliver : Packed.chunk -> unit;
  stat : int array;  (* int-coded status, see the tag_/bit_ constants *)
  aux : int array;  (* ready_at / done_at for the in-flight tags *)
  area : int Residency.Area.t;
      (* copy lifecycle: retention policy + remember sets; sites are
         the branching block's id *)
  pred_state : Predictor.state;
  compressed : int -> bool;  (* [stat] reads as Compressed *)
  spare : int array;
      (* the three blocks the current [make_room] must not evict *)
  spared : int -> bool;  (* [spare] or not Resident: no victim *)
  clock : Sim.Clock.t;
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
  (* every priced event lands here as one charge vector; the metrics'
     per-source cycle and energy totals are read back out at the end *)
  acc : Sim.Cost.Acc.acc;
  (* per-block cost tables, precomputed so the inner loop only adds
     ints (the constructors in Sim.Cost stay the single source of the
     pricing formulas — these are their values, cached) *)
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
  exc_nj : int;
  patch_cyc : int;
  patch_nj : int;
  exec_nj_rate : int;
  (* counters *)
  mutable exceptions : int;
  mutable patches : int;
  mutable demand_decompressions : int;
  mutable prefetch_decompressions : int;
  mutable useful_prefetches : int;
  mutable wasted_prefetches : int;
  mutable discards : int;
  mutable evictions : int;
  mutable budget_overflows : int;
}

let now st = Sim.Clock.now st.clock

let[@inline] charge_fast st src ~cycles ~energy_nj =
  Sim.Cost.Acc.charge_raw st.acc src ~cycles ~energy_nj

let emit_flush st =
  if Packed.length st.ev > 0 then begin
    st.deliver st.ev;
    Packed.clear st.ev
  end

(* Every push site grabs the chunk through this: full chunks drain to
   the sink first, so a slot is always free. *)
let[@inline] chunk st =
  if Packed.is_full st.ev then emit_flush st;
  st.ev

(* --- occupancy stream --- *)

let rec occ_insert_back (a : int array) j x =
  if j >= 0 && a.(j) > x then begin
    a.(j + 1) <- a.(j);
    occ_insert_back a (j - 1) x
  end
  else a.(j + 1) <- x

let occ_flush_buf occ =
  let n = occ.buf_len in
  if n > 0 then begin
    let a = occ.buf in
    (* Insertion sort: same-timestamp deltas apply smallest first
       (frees before allocations), matching the old global sort. The
       buffer only ever holds the deltas of one timestamp. *)
    for i = 1 to n - 1 do
      let x = a.(i) in
      occ_insert_back a (i - 1) x
    done;
    for i = 0 to n - 1 do
      Memsim.Accounting.add occ.acct ~time:occ.buf_time ~delta:a.(i)
    done;
    occ.buf_len <- 0
  end

let occ_feed occ ~time ~delta =
  if time <> occ.buf_time then begin
    occ_flush_buf occ;
    occ.buf_time <- time
  end;
  let n = occ.buf_len in
  if n = Array.length occ.buf then begin
    let grown = Array.make (2 * n) 0 in
    Array.blit occ.buf 0 grown 0 n;
    occ.buf <- grown
  end;
  occ.buf.(n) <- delta;
  occ.buf_len <- n + 1

(* The least first component of a queue, max_int when it is empty. *)
let head_time q =
  if Memsim.Pairheap.is_empty q then max_int else Memsim.Pairheap.min_fst q

let rec occ_pop occ ~upto =
  let f = occ.future in
  if (not (Memsim.Pairheap.is_empty f)) && Memsim.Pairheap.min_fst f <= upto
  then begin
    let time = Memsim.Pairheap.min_fst f in
    let delta = Memsim.Pairheap.min_snd f in
    Memsim.Pairheap.pop f;
    occ_feed occ ~time ~delta;
    occ_pop occ ~upto
  end

let occ_drain occ ~upto =
  if occ.future_at <= upto then begin
    occ_pop occ ~upto;
    occ.future_at <- head_time occ.future
  end

let mem_event st ~time ~delta =
  let occ = st.occ in
  if time > occ.horizon then occ.horizon <- time;
  if time > now st then begin
    Memsim.Pairheap.push occ.future time delta;
    if time < occ.future_at then occ.future_at <- time
  end
  else begin
    occ_drain occ ~upto:time;
    occ_feed occ ~time ~delta
  end

(* Final accounting: flush everything still queued and return the
   time-weighted occupancy of the decompressed area — peak, average,
   and the raw byte-cycles integral (the RAM leakage base). *)
let memory_stats st =
  let occ = st.occ in
  occ_drain occ ~upto:max_int;
  occ_flush_buf occ;
  let end_time = max (now st) occ.horizon in
  let until = max end_time 1 in
  let peak = Memsim.Accounting.peak occ.acct in
  let byte_cycles = Memsim.Accounting.integral occ.acct ~until in
  let avg = float_of_int byte_cycles /. float_of_int until in
  (peak, avg, byte_cycles)

(* Promote finished prefetches (skipping stale [inflight] entries) and
   apply recompression frees whose time has passed. *)
let rec promote st q =
  if head_time q <= now st then begin
    let ready_at = Memsim.Pairheap.min_fst q in
    let b = Memsim.Pairheap.min_snd q in
    Memsim.Pairheap.pop q;
    if st.stat.(b) land 3 = tag_decompressing && st.aux.(b) = ready_at
    then begin
      st.stat.(b) <- st.stat.(b) land bit_prefetched lor tag_resident;
      Residency.Area.on_ready st.area ~block:b ~time:ready_at
    end;
    promote st q
  end

let rec apply_frees st q =
  if head_time q <= now st then begin
    st.live_bytes <- st.live_bytes - Memsim.Pairheap.min_snd q;
    Memsim.Pairheap.pop q;
    apply_frees st q
  end

let settle st =
  if st.settle_at <= now st then begin
    promote st st.inflight;
    apply_frees st st.pending_frees;
    let a = head_time st.inflight and b = head_time st.pending_frees in
    st.settle_at <- (if a < b then a else b)
  end

let dec_time st b = st.dec_cyc.(b)

(* Deletes the decompressed copy of [b] (k-edge retirement or LRU
   eviction). Patch-backs run on the compression thread. *)
let delete_copy st ~eviction b =
  let s = st.stat.(b) in
  if s land 3 <> tag_resident then
    invalid_arg "Core.Engine.delete_copy: block not resident";
  let wasted = s land bit_prefetched <> 0 && s land bit_used = 0 in
  if wasted then st.wasted_prefetches <- st.wasted_prefetches + 1;
  (* [release] flushes the remember set and retires the retention
     state; the engine only models patch-back timing, so every site
     "patches back" successfully. Events are emitted below, engine-side,
     to keep Recompress_queued ahead of Discard/Evict in the stream. *)
  let patched_back = Residency.Area.release_count st.area ~block:b in
  st.patches <- st.patches + patched_back;
  charge_fast st Sim.Cost.Patch_back ~cycles:0
    ~energy_nj:(patched_back * st.patch_nj);
  Sim.Clock.push_back st.comp ~now:(now st)
    ~cycles:(patched_back * st.patch_cyc);
  (* Branches inside [b] vanish with it: drop them from the remember
     sets of their targets. Only a resident copy has a remember set
     (sites are recorded on arrival and flushed on release). *)
  let succs = st.succ_arr.(b) in
  for i = 0 to Array.length succs - 1 do
    let t = succs.(i) in
    if st.stat.(t) land 3 = tag_resident then
      ignore (Residency.Area.forget_key st.area ~target:t ~key:b)
  done;
  (match st.policy.Policy.mode with
  | Policy.Discard ->
    let u = st.u_size.(b) in
    st.live_bytes <- st.live_bytes - u;
    mem_event st ~time:(now st) ~delta:(-u);
    st.stat.(b) <- tag_compressed
  | Policy.Recompress ->
    charge_fast st Sim.Cost.Recompress ~cycles:0
      ~energy_nj:st.recompress_nj.(b);
    let done_at =
      Sim.Clock.schedule st.comp ~now:(now st) ~cycles:st.comp_cyc.(b)
    in
    Memsim.Pairheap.push st.pending_frees done_at st.u_size.(b);
    if done_at < st.settle_at then st.settle_at <- done_at;
    mem_event st ~time:done_at ~delta:(-st.u_size.(b));
    st.stat.(b) <- tag_recompressing;
    st.aux.(b) <- done_at;
    Packed.push_recompress_queued (chunk st) ~at:(now st) ~block:b ~done_at);
  if eviction then begin
    st.evictions <- st.evictions + 1;
    Packed.push_evict (chunk st) ~at:(now st) ~block:b
  end
  else begin
    st.discards <- st.discards + 1;
    Packed.push_discard (chunk st) ~at:(now st) ~block:b ~patched_back ~wasted
  end

let rec evict_until st cap bytes =
  if st.live_bytes + bytes <= cap then true
  else
    match Residency.Area.victim st.area ~exclude:st.spared with
    | Some v ->
      delete_copy st ~eviction:true v;
      evict_until st cap bytes
    | None -> false

(* Ensures [bytes] fit under the budget, evicting LRU residents other
   than the three spared blocks. Returns false if the space cannot be
   freed. *)
let make_room st ~spare1 ~spare2 ~spare3 bytes =
  match st.policy.Policy.budget with
  | None -> true
  | Some cap ->
    settle st;
    st.spare.(0) <- spare1;
    st.spare.(1) <- spare2;
    st.spare.(2) <- spare3;
    evict_until st cap bytes

(* Allocates space for a decompressed copy of [b]. *)
let allocate st b =
  let u = st.u_size.(b) in
  (match st.policy.Policy.budget with
  | None -> ()
  | Some _ ->
    let ok = make_room st ~spare1:b ~spare2:b ~spare3:b u in
    if not ok then st.budget_overflows <- st.budget_overflows + 1);
  st.live_bytes <- st.live_bytes + u;
  mem_event st ~time:(now st) ~delta:u

let charge_exception st b =
  st.exceptions <- st.exceptions + 1;
  charge_fast st Sim.Cost.Exception ~cycles:st.exc_cyc
    ~energy_nj:st.exc_nj;
  Sim.Clock.advance st.clock ~cycles:st.exc_cyc;
  Packed.push_exception (chunk st) ~at:(now st) ~block:b

let charge_patch st ~target ~site =
  st.patches <- st.patches + 1;
  charge_fast st Sim.Cost.Patch ~cycles:st.patch_cyc
    ~energy_nj:st.patch_nj;
  Sim.Clock.advance st.clock ~cycles:st.patch_cyc;
  Packed.push_patch (chunk st) ~at:(now st) ~target ~site

(* [site -> target] transfers the runtime can never patch: return
   addresses are home-valued constants materialized at call time, so a
   [jalr] site re-traps on every return and is never recorded. A pair
   qualifies only when every [site -> target] edge is a return — a
   site that can also branch there keeps its patchable slot. *)
let rec mem_site (a : int array) site i =
  i < Array.length a && (Array.unsafe_get a i = site || mem_site a site (i + 1))

let return_only_site st ~site ~target =
  mem_site (Array.unsafe_get st.ret_sites target) site 0

(* Records the branch site and charges the patch if it is new. The
   caller has already paid the exception. [site] is -1 on the initial
   entry (nothing to patch); return-only sites are never recorded. *)
let patch_site st ~target ~site =
  if site >= 0 && not (return_only_site st ~site ~target) then
    if Residency.Area.record_site st.area ~target ~site then
      charge_patch st ~target ~site

let stall_until st b t =
  let w = Sim.Clock.wait_until st.clock t in
  if w > 0 then begin
    charge_fast st Sim.Cost.Stall ~cycles:w ~energy_nj:0;
    Packed.push_stall (chunk st) ~at:(now st) ~block:b ~cycles:w
  end

(* The execution thread arrives at block [b], coming from [prev]
   (-1 = initial entry), at trace position [step]. *)
let rec arrive st ~step ~prev b =
  settle st;
  let s = st.stat.(b) in
  match s land 3 with
  | 2 (* Resident *) ->
    (* No cost when the branch already targets the decompressed copy;
       otherwise the exception fires and the handler patches (Fig. 5,
       steps 5-6). The initial entry (no prev) faults too but has no
       site to patch. *)
    if prev >= 0 then begin
      if return_only_site st ~site:prev ~target:b then
        (* the runtime traps on every home-valued return, resident or
           not, and the handler has nothing to patch *)
        charge_exception st b
      else if Residency.Area.record_site st.area ~target:b ~site:prev
      then begin
        charge_exception st b;
        charge_patch st ~target:b ~site:prev
      end
    end
    else charge_exception st b
  | 1 (* Decompressing *) ->
    (* The branch still points into the compressed area: exception,
       then wait for the in-flight pre-decompression. *)
    let ready_at = st.aux.(b) in
    charge_exception st b;
    stall_until st b ready_at;
    (* its [inflight] entry goes stale: Resident now *)
    st.stat.(b) <- s land bit_prefetched lor tag_resident;
    Residency.Area.on_ready st.area ~block:b ~time:(now st);
    patch_site st ~target:b ~site:prev
  | 3 (* Recompressing *) ->
    (* Rare: reached while the compression thread still owns it. Wait
       out the compression, then take the demand path. *)
    stall_until st b st.aux.(b);
    settle st;
    st.stat.(b) <- tag_compressed;
    arrive st ~step ~prev b
  | _ (* Compressed *) ->
    charge_exception st b;
    allocate st b;
    let cycles = st.dec_cyc.(b) in
    st.demand_decompressions <- st.demand_decompressions + 1;
    charge_fast st Sim.Cost.Demand_dec ~cycles
      ~energy_nj:st.demand_nj.(b);
    Sim.Clock.advance st.clock ~cycles;
    st.stat.(b) <- tag_resident;
    Residency.Area.on_materialize st.area ~block:b ~step;
    Residency.Area.on_ready st.area ~block:b ~time:(now st);
    Packed.push_demand (chunk st) ~at:(now st) ~block:b ~cycles;
    patch_site st ~target:b ~site:prev

let execute st ~step ~cycles b =
  let s = st.stat.(b) in
  if s land 3 <> tag_resident then
    invalid_arg "Core.Engine.execute: block not resident";
  if s land bit_prefetched <> 0 && s land bit_used = 0 then
    st.useful_prefetches <- st.useful_prefetches + 1;
  st.stat.(b) <- s lor bit_used;
  Residency.Area.on_execute st.area ~block:b ~step ~time:(now st);
  Packed.push_exec (chunk st) ~at:(now st) ~block:b;
  charge_fast st Sim.Cost.Exec ~cycles
    ~energy_nj:(st.exec_nj_rate * cycles);
  Sim.Clock.advance st.clock ~cycles

(* Queue a pre-decompression of [c] on the decompression thread, at the
   edge from [b] to [next]. *)
let issue_prefetch st ~step ~b ~next c =
  if st.stat.(c) land 3 = tag_compressed then
    if make_room st ~spare1:b ~spare2:next ~spare3:c st.u_size.(c) then begin
      st.live_bytes <- st.live_bytes + st.u_size.(c);
      mem_event st ~time:(now st) ~delta:(st.u_size.(c));
      let ready_at =
        Sim.Clock.schedule st.dec ~now:(now st) ~cycles:(dec_time st c)
      in
      st.stat.(c) <- tag_decompressing lor bit_prefetched;
      st.aux.(c) <- ready_at;
      Memsim.Pairheap.push st.inflight ready_at c;
      if ready_at < st.settle_at then st.settle_at <- ready_at;
      Residency.Area.on_materialize st.area ~block:c ~step;
      charge_fast st Sim.Cost.Prefetch_dec ~cycles:0
        ~energy_nj:st.prefetch_nj.(c);
      st.prefetch_decompressions <- st.prefetch_decompressions + 1;
      Packed.push_prefetch (chunk st) ~at:(now st) ~block:c ~ready_at
    end

(* Edge traversal from trace position [i] (block [b]) to [i+1]
   (block [next]): k-edge retirement, then pre-decompression. *)
let traverse_edge st ~b ~next ~step =
  settle st;
  (* k-edge: delete the copies whose counter reaches k, sparing the
     branch target (its counter resets on execution instead, §5). *)
  for i = 0 to Residency.Area.due st.area ~step - 1 do
    let d = Residency.Area.due_block st.area i in
    if d <> next then
      match st.stat.(d) land 3 with
      | 2 (* Resident *) -> delete_copy st ~eviction:false d
      | 1 (* Decompressing *) ->
        (* Still in flight: give it another k edges. *)
        Residency.Area.rearm st.area ~block:d ~step
      | _ -> ()
  done;
  (* Pre-decompression of blocks up to [lookahead] edges ahead. *)
  (match st.lookahead with
  | No_lookahead -> ()
  | All frontiers ->
    let fr = Cfg.Dist.frontier frontiers b in
    for i = 0 to Array.length fr - 1 do
      issue_prefetch st ~step ~b ~next fr.(i)
    done
  | Single plan ->
    let c =
      Predictor.pick plan st.pred_state ~from:b ~compressed:st.compressed
    in
    if c >= 0 then issue_prefetch st ~step ~b ~next c);
  Predictor.note_edge st.pred_state ~src:b ~dst:next

(* --- fused fast path --- *)

(* Fused inner loop for the configuration that dominates sweeps and
   the streaming benchmarks: on-demand decompression, discard mode, no
   budget, plain constant-k k-edge retention, default per-visit cycles
   and no charge journal. Observation-for-observation equivalent to
   [arrive]/[execute]/[traverse_edge] — same packed events in the same
   order, same charge totals, same occupancy stream — with the
   per-step closures, queues and module hops fused away:

   - k-edge retirement needs no queue here: the only (re)tracks at
     step [i] are for the executed block [trace.(i)], so the one
     candidate due at step [s] is [trace.(s - k)], live iff its last
     track is still [s - k] (not re-executed, not released since).
   - charges accumulate in scalar counters and post to the cost
     accumulator once at the end; all integer arithmetic, so the
     batching is exact.
   - remember sets live in a flat blocks² byte matrix — membership is
     one load, releasing a block is one row fill (the LRU shadow is
     skipped: without a budget no victim is ever asked for).
   - the occupancy integral is maintained in scalar locals (same
     buffered smallest-first application of same-time deltas as
     [occ_feed]); the function returns the (peak, avg, byte-cycles)
     triple [memory_stats] would have produced.

   The equivalence is locked down by the property suite, which runs
   both paths over random graphs/traces and compares events, metrics
   and charge totals. *)
let run_fast st ~trace ~k len =
  let exc_cyc = st.exc_cyc and patch_cyc = st.patch_cyc in
  let stat = st.stat in
  let blocks = Array.length stat in
  let base = Array.make blocks (-1) in
  (* sbits.(b * blocks + s) <> '\000' iff site [s] patched into [b] *)
  let sbits = Bytes.make (blocks * blocks) '\000' in
  (* retq mirrors sbits' indexing: pairs that only a return reaches,
     which trap every visit and are never patched *)
  let retq = Bytes.make (blocks * blocks) '\000' in
  Array.iteri
    (fun t sites ->
      Array.iter
        (fun s -> Bytes.unsafe_set retq ((t * blocks) + s) '\001')
        sites)
    st.ret_sites;
  let scount = Array.make blocks 0 in
  let ev = st.ev in
  let u_size = st.u_size
  and dec_cyc_t = st.dec_cyc
  and demand_nj_t = st.demand_nj
  and def_cycles = st.def_cycles
  and succ_arr = st.succ_arr in
  let clk = ref 0 in
  let n_exc = ref 0
  and n_patch = ref 0
  and n_dem = ref 0
  and pb_total = ref 0
  and n_disc = ref 0 in
  let dem_cyc = ref 0 and dem_nj = ref 0 and exec_cyc = ref 0 in
  (* scalar occupancy accounting (see the header comment) *)
  let o_now = ref 0
  and o_level = ref 0
  and o_peak = ref 0
  and o_integral = ref 0 in
  let o_buf = ref (Array.make 8 0) in
  let o_len = ref 0 in
  let o_time = ref 0 in
  let o_flush () =
    let n = !o_len in
    if n > 0 then begin
      let a = !o_buf in
      for i = 1 to n - 1 do
        let x = Array.unsafe_get a i in
        occ_insert_back a (i - 1) x
      done;
      o_integral := !o_integral + (!o_level * (!o_time - !o_now));
      o_now := !o_time;
      for i = 0 to n - 1 do
        o_level := !o_level + Array.unsafe_get a i;
        if !o_level > !o_peak then o_peak := !o_level
      done;
      o_len := 0
    end
  in
  (* The post itself is inlined at both sites below; only the n = 1
     flush (the overwhelmingly common case — distinct timestamps) is
     special-cased there, everything else falls back to [o_flush]. *)
  let o_post_rare delta =
    let n = !o_len in
    if n = Array.length !o_buf then begin
      let grown = Array.make (2 * n) 0 in
      Array.blit !o_buf 0 grown 0 n;
      o_buf := grown
    end;
    Array.unsafe_set !o_buf n delta;
    o_len := n + 1
  in
  for i = 0 to len - 1 do
    let b = Array.unsafe_get trace i in
    let prev = if i = 0 then -1 else Array.unsafe_get trace (i - 1) in
    (* a step emits at most 5 events: reserve them all up front *)
    if Packed.room ev < 5 then emit_flush st;
    (* arrive *)
    (if Array.unsafe_get stat b = tag_resident then begin
       if prev >= 0 then begin
         let idx = (b * blocks) + prev in
         if Bytes.unsafe_get retq idx <> '\000' then begin
           incr n_exc;
           clk := !clk + exc_cyc;
           Packed.unsafe_push_ka ev ~kind:1 ~at:!clk ~a:b
         end
         else if Bytes.unsafe_get sbits idx = '\000' then begin
           Bytes.unsafe_set sbits idx '\001';
           Array.unsafe_set scount b (Array.unsafe_get scount b + 1);
           incr n_exc;
           clk := !clk + exc_cyc;
           Packed.unsafe_push_ka ev ~kind:1 ~at:!clk ~a:b;
           incr n_patch;
           clk := !clk + patch_cyc;
           Packed.unsafe_push_kab ev ~kind:5 ~at:!clk ~a:b ~b:prev
         end
       end
     end
     else begin
       (* compressed: exception, allocate, demand-decompress, patch *)
       incr n_exc;
       clk := !clk + exc_cyc;
       Packed.unsafe_push_ka ev ~kind:1 ~at:!clk ~a:b;
       (* occupancy post, inlined: [+u_size.(b)] at [!clk] *)
       (let delta = Array.unsafe_get u_size b in
        if !clk <> !o_time then begin
          (if !o_len = 1 then begin
             o_integral := !o_integral + (!o_level * (!o_time - !o_now));
             o_now := !o_time;
             o_level := !o_level + Array.unsafe_get !o_buf 0;
             if !o_level > !o_peak then o_peak := !o_level
           end
           else if !o_len > 1 then o_flush ());
          o_time := !clk;
          Array.unsafe_set !o_buf 0 delta;
          o_len := 1
        end
        else o_post_rare delta);
       let dc = Array.unsafe_get dec_cyc_t b in
       incr n_dem;
       dem_cyc := !dem_cyc + dc;
       dem_nj := !dem_nj + Array.unsafe_get demand_nj_t b;
       clk := !clk + dc;
       Array.unsafe_set stat b tag_resident;
       Array.unsafe_set base b i;
       Packed.unsafe_push_kab ev ~kind:2 ~at:!clk ~a:b ~b:dc;
       if prev >= 0 then begin
         let idx = (b * blocks) + prev in
         if
           Bytes.unsafe_get retq idx = '\000'
           && Bytes.unsafe_get sbits idx = '\000'
         then begin
           Bytes.unsafe_set sbits idx '\001';
           Array.unsafe_set scount b (Array.unsafe_get scount b + 1);
           incr n_patch;
           clk := !clk + patch_cyc;
           Packed.unsafe_push_kab ev ~kind:5 ~at:!clk ~a:b ~b:prev
         end
       end
     end);
    (* execute *)
    Array.unsafe_set base b i;
    Packed.unsafe_push_ka ev ~kind:0 ~at:!clk ~a:b;
    let cyc = Array.unsafe_get def_cycles b in
    exec_cyc := !exec_cyc + cyc;
    clk := !clk + cyc;
    (* traverse: the single possible k-edge retirement at step i+1 *)
    let s = i + 1 in
    if s < len && s >= k then begin
      let d = Array.unsafe_get trace (s - k) in
      if
        Array.unsafe_get base d = s - k
        && d <> Array.unsafe_get trace s
        && Array.unsafe_get stat d = tag_resident
      then begin
        let nsites = Array.unsafe_get scount d in
        Bytes.unsafe_fill sbits (d * blocks) blocks '\000';
        Array.unsafe_set scount d 0;
        Array.unsafe_set base d (-1);
        pb_total := !pb_total + nsites;
        Sim.Clock.push_back st.comp ~now:!clk ~cycles:(nsites * patch_cyc);
        (* branches inside [d] vanish with it *)
        let succs = Array.unsafe_get succ_arr d in
        for j = 0 to Array.length succs - 1 do
          let t = Array.unsafe_get succs j in
          let idx = (t * blocks) + d in
          if Bytes.unsafe_get sbits idx <> '\000' then begin
            Bytes.unsafe_set sbits idx '\000';
            Array.unsafe_set scount t (Array.unsafe_get scount t - 1)
          end
        done;
        (* occupancy post, inlined: [-u_size.(d)] at [!clk] *)
        (let delta = -Array.unsafe_get u_size d in
         if !clk <> !o_time then begin
           (if !o_len = 1 then begin
              o_integral := !o_integral + (!o_level * (!o_time - !o_now));
              o_now := !o_time;
              o_level := !o_level + Array.unsafe_get !o_buf 0;
              if !o_level > !o_peak then o_peak := !o_level
            end
            else if !o_len > 1 then o_flush ());
           o_time := !clk;
           Array.unsafe_set !o_buf 0 delta;
           o_len := 1
         end
         else o_post_rare delta);
        Array.unsafe_set stat d tag_compressed;
        incr n_disc;
        Packed.unsafe_push_kabc ev ~kind:7 ~at:!clk ~a:d ~b:nsites ~c:0
      end
    end
  done;
  (* post the batched charges and counters *)
  Sim.Clock.advance st.clock ~cycles:!clk;
  charge_fast st Sim.Cost.Exception ~cycles:(!n_exc * exc_cyc)
    ~energy_nj:(!n_exc * st.exc_nj);
  charge_fast st Sim.Cost.Patch ~cycles:(!n_patch * patch_cyc)
    ~energy_nj:(!n_patch * st.patch_nj);
  charge_fast st Sim.Cost.Patch_back ~cycles:0
    ~energy_nj:(!pb_total * st.patch_nj);
  charge_fast st Sim.Cost.Demand_dec ~cycles:!dem_cyc ~energy_nj:!dem_nj;
  charge_fast st Sim.Cost.Exec ~cycles:!exec_cyc
    ~energy_nj:(st.exec_nj_rate * !exec_cyc);
  st.exceptions <- !n_exc;
  st.patches <- !n_patch + !pb_total;
  st.demand_decompressions <- !n_dem;
  st.discards <- !n_disc;
  (* close the occupancy integral exactly as [memory_stats] would:
     every post is at or before the final clock, so the horizon is the
     final clock itself *)
  o_flush ();
  let until = max !clk 1 in
  let byte_cycles = !o_integral + (!o_level * (until - !o_now)) in
  let avg = float_of_int byte_cycles /. float_of_int until in
  (!o_peak, avg, byte_cycles)

let run ?(config = Config.default) ?log ?sink ?registry ?charge_log
    ?step_cycles ~graph ~info ~trace policy =
  let n = Cfg.Graph.num_blocks graph in
  if Array.length info <> n then
    invalid_arg "Core.Engine.run: info does not match graph";
  (match step_cycles with
  | Some sc when Array.length sc <> Array.length trace ->
    invalid_arg "Core.Engine.run: step_cycles does not match trace"
  | Some _ | None -> ());
  for i = 0 to Array.length trace - 1 do
    let b = Array.unsafe_get trace i in
    if b < 0 || b >= n then
      invalid_arg "Core.Engine.run: trace mentions unknown block"
  done;
  let deliver =
    match (log, sink) with
    | None, None -> fun _ -> ()
    | Some f, None -> fun ch -> Packed.iter f ch
    | None, Some (s : Sim.Events.sink) -> s.Sim.Events.emit_chunk
    | Some f, Some s ->
      fun ch ->
        Packed.iter f ch;
        s.Sim.Events.emit_chunk ch
  in
  let acc = Sim.Cost.Acc.create ?journal:charge_log () in
  let retention =
    Residency.Policy.instantiate policy.Policy.retention
      {
        Residency.Policy.blocks = n;
        k = policy.Policy.compress_k;
        k_of = policy.Policy.adaptive_k;
        graph = Some graph;
        budget = policy.Policy.budget;
        size_of = Some (fun b -> info.(b).uncompressed_bytes);
      }
  in
  let costs = config.Config.costs in
  let stat = Array.make n tag_compressed in
  let spare = Array.make 3 (-1) in
  let st =
    {
      policy;
      lookahead =
        (match policy.Policy.strategy with
        | Policy.On_demand -> No_lookahead
        | Policy.Pre_all { lookahead } ->
          All (Cfg.Dist.frontiers graph ~k:lookahead)
        | Policy.Pre_single { lookahead; predictor } ->
          Single
            (Predictor.plan predictor graph
               (Cfg.Dist.frontiers graph ~k:lookahead)));
      (* 256 slots keep each plane within the minor heap's largest
         block (Max_young_wosize): a run's chunk dies young instead of
         costing a major-heap allocation per run *)
      ev = Packed.create ~capacity:256 ();
      deliver;
      stat;
      aux = Array.make n 0;
      area = Residency.Area.create_keyed ~policy:retention ~blocks:n ();
      pred_state = Predictor.create_state ~blocks:n;
      compressed = (fun c -> Array.unsafe_get stat c land 3 = tag_compressed);
      spare;
      spared =
        (fun v ->
          v = Array.unsafe_get spare 0
          || v = Array.unsafe_get spare 1
          || v = Array.unsafe_get spare 2
          || Array.unsafe_get stat v land 3 <> tag_resident);
      clock = Sim.Clock.create ();
      dec = Sim.Clock.resource ();
      comp = Sim.Clock.resource ();
      occ =
        {
          acct = Memsim.Accounting.create ();
          future = Memsim.Pairheap.create ();
          future_at = max_int;
          buf_time = 0;
          buf = Array.make 64 0;
          buf_len = 0;
          horizon = 0;
        };
      live_bytes = 0;
      inflight = Memsim.Pairheap.create ();
      pending_frees = Memsim.Pairheap.create ();
      settle_at = max_int;
      acc;
      u_size = Array.map (fun i -> i.uncompressed_bytes) info;
      def_cycles = Array.map (fun i -> i.exec_cycles) info;
      dec_cyc =
        Array.map
          (fun i -> Config.dec_cycles config ~compressed_bytes:i.compressed_bytes)
          info;
      comp_cyc =
        Array.map
          (fun i ->
            Config.comp_cycles config ~uncompressed_bytes:i.uncompressed_bytes)
          info;
      demand_nj =
        Array.map
          (fun i ->
            (Sim.Cost.demand_dec_charge costs
               ~compressed_bytes:i.compressed_bytes
               ~uncompressed_bytes:i.uncompressed_bytes)
              .Sim.Cost.energy_nj)
          info;
      prefetch_nj =
        Array.map
          (fun i ->
            (Sim.Cost.prefetch_dec_charge costs
               ~compressed_bytes:i.compressed_bytes
               ~uncompressed_bytes:i.uncompressed_bytes)
              .Sim.Cost.energy_nj)
          info;
      recompress_nj =
        Array.map
          (fun i ->
            (Sim.Cost.recompress_charge costs
               ~uncompressed_bytes:i.uncompressed_bytes)
              .Sim.Cost.energy_nj)
          info;
      succ_arr = Cfg.Graph.succ_table graph;
      ret_sites =
        (let ret = Array.make n [] and other = Array.make n [] in
         List.iter
           (fun (s, t, k) ->
             match k with
             | Cfg.Graph.Return -> ret.(t) <- s :: ret.(t)
             | Cfg.Graph.Fallthrough | Cfg.Graph.Taken | Cfg.Graph.Call ->
               other.(t) <- s :: other.(t))
           (Cfg.Graph.edges graph);
         Array.init n (fun t ->
             Array.of_list
               (List.filter (fun s -> not (List.mem s other.(t))) ret.(t))));
      exc_cyc = (Sim.Cost.exception_charge costs).Sim.Cost.cycles;
      exc_nj = (Sim.Cost.exception_charge costs).Sim.Cost.energy_nj;
      patch_cyc = (Sim.Cost.patch_charge costs).Sim.Cost.cycles;
      patch_nj = (Sim.Cost.patch_charge costs).Sim.Cost.energy_nj;
      exec_nj_rate = costs.Sim.Cost.energy.Sim.Cost.exec_nj_per_cycle;
      exceptions = 0;
      patches = 0;
      demand_decompressions = 0;
      prefetch_decompressions = 0;
      useful_prefetches = 0;
      wasted_prefetches = 0;
      discards = 0;
      evictions = 0;
      budget_overflows = 0;
    }
  in
  let len = Array.length trace in
  let sc = match step_cycles with Some a -> a | None -> [||] in
  let use_sc = step_cycles <> None in
  let fast_ok =
    (not use_sc)
    && (match charge_log with None -> true | Some _ -> false)
    && (match policy.Policy.strategy with
       | Policy.On_demand -> true
       | Policy.Pre_all _ | Policy.Pre_single _ -> false)
    && policy.Policy.mode = Policy.Discard
    && (match policy.Policy.budget with None -> true | Some _ -> false)
    && (match policy.Policy.adaptive_k with None -> true | Some _ -> false)
    && (match policy.Policy.retention with
       | Residency.Policy.Kedge -> true
       | _ -> false)
    (* the fast path keeps remember sets in a blocks² byte matrix *)
    && Array.length st.stat <= 1024
  in
  let fast_stats =
    if fast_ok then Some (run_fast st ~trace ~k:policy.Policy.compress_k len)
    else begin
      for i = 0 to len - 1 do
        let b = Array.unsafe_get trace i in
        let prev = if i = 0 then -1 else Array.unsafe_get trace (i - 1) in
        arrive st ~step:i ~prev b;
        let cycles =
          if use_sc then Array.unsafe_get sc i else st.def_cycles.(b)
        in
        execute st ~step:i ~cycles b;
        if i + 1 < len then
          traverse_edge st ~b ~next:(Array.unsafe_get trace (i + 1))
            ~step:(i + 1)
      done;
      None
    end
  in
  emit_flush st;
  let peak_dec, avg_dec, dec_byte_cycles =
    match fast_stats with Some s -> s | None -> memory_stats st
  in
  (* The decompressed copy area leaked for the whole run: one final
     charge, priced on the exact occupancy integral. *)
  Sim.Cost.Acc.charge acc Sim.Cost.Ram_static
    (Sim.Cost.ram_static_charge config.Config.costs
       ~byte_cycles:dec_byte_cycles);
  let original_bytes =
    Array.fold_left (fun acc b -> acc + b.uncompressed_bytes) 0 info
  in
  let compressed_area_bytes =
    Array.fold_left (fun acc b -> acc + b.compressed_bytes) 0 info
  in
  let baseline_cycles =
    let sum = ref 0 in
    if use_sc then
      for i = 0 to len - 1 do
        sum := !sum + Array.unsafe_get sc i
      done
    else
      for i = 0 to len - 1 do
        sum := !sum + st.def_cycles.(Array.unsafe_get trace i)
      done;
    !sum
  in
  let cycles_of src = (Sim.Cost.Acc.total_of acc src).Sim.Cost.cycles in
  let energy_of src = (Sim.Cost.Acc.total_of acc src).Sim.Cost.energy_nj in
  let m =
    {
      Metrics.total_cycles = now st;
      exec_cycles = cycles_of Sim.Cost.Exec;
      exception_cycles = cycles_of Sim.Cost.Exception;
      patch_cycles = cycles_of Sim.Cost.Patch;
      demand_dec_cycles = cycles_of Sim.Cost.Demand_dec;
      stall_cycles = cycles_of Sim.Cost.Stall;
      baseline_cycles;
      exceptions = st.exceptions;
      patches = st.patches;
      demand_decompressions = st.demand_decompressions;
      prefetch_decompressions = st.prefetch_decompressions;
      useful_prefetches = st.useful_prefetches;
      wasted_prefetches = st.wasted_prefetches;
      discards = st.discards;
      evictions = st.evictions;
      budget_overflows = st.budget_overflows;
      dec_thread_busy_cycles = Sim.Clock.busy_cycles st.dec;
      comp_thread_busy_cycles = Sim.Clock.busy_cycles st.comp;
      energy_nj = (Sim.Cost.Acc.total acc).Sim.Cost.energy_nj;
      exec_energy_nj = energy_of Sim.Cost.Exec;
      exception_energy_nj = energy_of Sim.Cost.Exception;
      patch_energy_nj =
        energy_of Sim.Cost.Patch + energy_of Sim.Cost.Patch_back;
      dec_energy_nj =
        energy_of Sim.Cost.Demand_dec + energy_of Sim.Cost.Prefetch_dec;
      comp_energy_nj = energy_of Sim.Cost.Recompress;
      ram_static_energy_nj = energy_of Sim.Cost.Ram_static;
      baseline_energy_nj =
        config.Config.costs.Sim.Cost.energy.Sim.Cost.exec_nj_per_cycle
        * baseline_cycles;
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
