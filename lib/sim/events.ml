type t =
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

let time = function
  | Exec { at; _ }
  | Exception { at; _ }
  | Demand_decompress { at; _ }
  | Prefetch_issue { at; _ }
  | Stall { at; _ }
  | Patch { at; _ }
  | Unpatch { at; _ }
  | Discard { at; _ }
  | Evict { at; _ }
  | Recompress_queued { at; _ }
  | Flush { at; _ } -> at

(* Dense tags double as the JSONL discriminator and the counter index;
   keep [kind_index] and [kinds] in sync with the constructor order. *)
let kind_index = function
  | Exec _ -> 0
  | Exception _ -> 1
  | Demand_decompress _ -> 2
  | Prefetch_issue _ -> 3
  | Stall _ -> 4
  | Patch _ -> 5
  | Unpatch _ -> 6
  | Discard _ -> 7
  | Evict _ -> 8
  | Recompress_queued _ -> 9
  | Flush _ -> 10

let kind_names =
  [|
    "exec";
    "exception";
    "demand_decompress";
    "prefetch_issue";
    "stall";
    "patch";
    "unpatch";
    "discard";
    "evict";
    "recompress_queued";
    "flush";
  |]

let num_kinds = Array.length kind_names
let kind ev = kind_names.(kind_index ev)
let kinds = Array.to_list kind_names

let describe = function
  | Exec { block; _ } -> Printf.sprintf "execute B%d" block
  | Exception { block; _ } -> Printf.sprintf "exception entering B%d" block
  | Demand_decompress { block; cycles; _ } ->
    Printf.sprintf "demand-decompress B%d (%d cycles)" block cycles
  | Prefetch_issue { block; ready_at; _ } ->
    Printf.sprintf "pre-decompress B%d (ready at %d)" block ready_at
  | Stall { block; cycles; _ } ->
    Printf.sprintf "stall %d cycles waiting for B%d" cycles block
  | Patch { target; site; _ } ->
    Printf.sprintf "patch branch in B%d -> B%d'" site target
  | Unpatch { target; site; _ } ->
    Printf.sprintf "patch branch in B%d' back -> B%d" site target
  | Discard { block; patched_back; wasted; _ } ->
    Printf.sprintf "discard B%d' (%d sites patched back%s)" block patched_back
      (if wasted then ", wasted prefetch" else "")
  | Evict { block; _ } -> Printf.sprintf "evict B%d' (budget)" block
  | Recompress_queued { block; done_at; _ } ->
    Printf.sprintf "recompress B%d (done at %d)" block done_at
  | Flush { copies; _ } ->
    Printf.sprintf "flush copy area (%d copies retired)" copies

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)

let to_json ev =
  let f = Printf.sprintf in
  match ev with
  | Exec { block; at } -> f {|{"ev":"exec","block":%d,"at":%d}|} block at
  | Exception { block; at } ->
    f {|{"ev":"exception","block":%d,"at":%d}|} block at
  | Demand_decompress { block; at; cycles } ->
    f
      {|{"ev":"demand_decompress","block":%d,"at":%d,"cycles":%d}|}
      block at cycles
  | Prefetch_issue { block; at; ready_at } ->
    f
      {|{"ev":"prefetch_issue","block":%d,"at":%d,"ready_at":%d}|}
      block at ready_at
  | Stall { block; at; cycles } ->
    f {|{"ev":"stall","block":%d,"at":%d,"cycles":%d}|} block at cycles
  | Patch { target; site; at } ->
    f {|{"ev":"patch","target":%d,"site":%d,"at":%d}|} target site at
  | Unpatch { target; site; at } ->
    f {|{"ev":"unpatch","target":%d,"site":%d,"at":%d}|} target site at
  | Discard { block; at; patched_back; wasted } ->
    f
      {|{"ev":"discard","block":%d,"at":%d,"patched_back":%d,"wasted":%b}|}
      block at patched_back wasted
  | Evict { block; at } -> f {|{"ev":"evict","block":%d,"at":%d}|} block at
  | Recompress_queued { block; at; done_at } ->
    f
      {|{"ev":"recompress_queued","block":%d,"at":%d,"done_at":%d}|}
      block at done_at
  | Flush { at; copies } -> f {|{"ev":"flush","at":%d,"copies":%d}|} at copies

exception Bad_json of string

(* Flat-object parser covering exactly what [to_json] writes: string,
   int and bool values, no nesting, no commas inside strings. *)
let fields_of_json line =
  let s = String.trim line in
  let n = String.length s in
  if n < 2 || s.[0] <> '{' || s.[n - 1] <> '}' then
    raise (Bad_json "not an object");
  let body = String.trim (String.sub s 1 (n - 2)) in
  if body = "" then []
  else
    String.split_on_char ',' body
    |> List.map (fun field ->
           match String.index_opt field ':' with
           | None -> raise (Bad_json ("missing ':' in " ^ field))
           | Some i ->
             let key = String.trim (String.sub field 0 i) in
             let value =
               String.trim
                 (String.sub field (i + 1) (String.length field - i - 1))
             in
             let unquote v =
               let vn = String.length v in
               if vn >= 2 && v.[0] = '"' && v.[vn - 1] = '"' then
                 String.sub v 1 (vn - 2)
               else raise (Bad_json ("unquoted key " ^ v))
             in
             (unquote key, value))

let int_field fields name =
  match List.assoc_opt name fields with
  | None -> raise (Bad_json ("missing field " ^ name))
  | Some v -> (
    match int_of_string_opt v with
    | Some i -> i
    | None -> raise (Bad_json ("field " ^ name ^ " is not an int")))

let bool_field fields name =
  match List.assoc_opt name fields with
  | Some "true" -> true
  | Some "false" -> false
  | Some _ -> raise (Bad_json ("field " ^ name ^ " is not a bool"))
  | None -> raise (Bad_json ("missing field " ^ name))

let str_field fields name =
  match List.assoc_opt name fields with
  | None -> raise (Bad_json ("missing field " ^ name))
  | Some v ->
    let n = String.length v in
    if n >= 2 && v.[0] = '"' && v.[n - 1] = '"' then String.sub v 1 (n - 2)
    else raise (Bad_json ("field " ^ name ^ " is not a string"))

let of_json line =
  match
    let fields = fields_of_json line in
    let i = int_field fields and b = bool_field fields in
    match str_field fields "ev" with
    | "exec" -> Exec { block = i "block"; at = i "at" }
    | "exception" -> Exception { block = i "block"; at = i "at" }
    | "demand_decompress" ->
      Demand_decompress
        { block = i "block"; at = i "at"; cycles = i "cycles" }
    | "prefetch_issue" ->
      Prefetch_issue { block = i "block"; at = i "at"; ready_at = i "ready_at" }
    | "stall" -> Stall { block = i "block"; at = i "at"; cycles = i "cycles" }
    | "patch" -> Patch { target = i "target"; site = i "site"; at = i "at" }
    | "unpatch" -> Unpatch { target = i "target"; site = i "site"; at = i "at" }
    | "discard" ->
      Discard
        {
          block = i "block";
          at = i "at";
          patched_back = i "patched_back";
          wasted = b "wasted";
        }
    | "evict" -> Evict { block = i "block"; at = i "at" }
    | "recompress_queued" ->
      Recompress_queued
        { block = i "block"; at = i "at"; done_at = i "done_at" }
    | "flush" -> Flush { at = i "at"; copies = i "copies" }
    | other -> raise (Bad_json ("unknown event kind " ^ other))
  with
  | ev -> Ok ev
  | exception Bad_json msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Packed representation                                               *)

module Packed = struct
  (* Struct-of-arrays chunk: the hot loops push events as a kind tag
     plus up to three int fields into preallocated arrays, so emitting
     an event costs a few stores and no heap allocation. The field
     mapping below is the only place that knows which record field
     lands in which slot; [get] is its exact inverse. *)
  type chunk = {
    cap : int;
    mutable len : int;
    kind : Bytes.t;  (** tag per event, same numbering as [kind_index] *)
    at : int array;
    a : int array;
    b : int array;
    c : int array;
  }

  let default_capacity = 4096

  let create ?(capacity = default_capacity) () =
    if capacity <= 0 then
      invalid_arg "Sim.Events.Packed.create: capacity must be positive";
    {
      cap = capacity;
      len = 0;
      kind = Bytes.create capacity;
      at = Array.make capacity 0;
      a = Array.make capacity 0;
      b = Array.make capacity 0;
      c = Array.make capacity 0;
    }

  let capacity ch = ch.cap
  let length ch = ch.len
  let is_full ch = ch.len >= ch.cap
  let clear ch = ch.len <- 0

  let push ch k at a b c =
    let i = ch.len in
    if i >= ch.cap then invalid_arg "Sim.Events.Packed.push: chunk full";
    Bytes.unsafe_set ch.kind i (Char.unsafe_chr k);
    Array.unsafe_set ch.at i at;
    Array.unsafe_set ch.a i a;
    Array.unsafe_set ch.b i b;
    Array.unsafe_set ch.c i c;
    ch.len <- i + 1

  (* Field mapping, one pusher per constructor. *)
  let push_exec ch ~at ~block = push ch 0 at block 0 0
  let push_exception ch ~at ~block = push ch 1 at block 0 0
  let push_demand ch ~at ~block ~cycles = push ch 2 at block cycles 0
  let push_prefetch ch ~at ~block ~ready_at = push ch 3 at block ready_at 0
  let push_stall ch ~at ~block ~cycles = push ch 4 at block cycles 0
  let push_patch ch ~at ~target ~site = push ch 5 at target site 0
  let push_unpatch ch ~at ~target ~site = push ch 6 at target site 0

  let push_discard ch ~at ~block ~patched_back ~wasted =
    push ch 7 at block patched_back (if wasted then 1 else 0)

  let push_evict ch ~at ~block = push ch 8 at block 0 0
  let push_recompress_queued ch ~at ~block ~done_at = push ch 9 at block done_at 0
  let push_flush ch ~at ~copies = push ch 10 at copies 0 0

  (* Low-level writer plane: a reserve-then-write protocol for fused
     producers. [unsafe_push_*] skip the capacity check (the caller
     has checked [room]) and only store the fields their kind defines
     — [get] never reads the others for that kind, so the stale slots
     are unobservable. *)
  let room ch = ch.cap - ch.len

  let unsafe_push_ka ch ~kind ~at ~a =
    let i = ch.len in
    Bytes.unsafe_set ch.kind i (Char.unsafe_chr kind);
    Array.unsafe_set ch.at i at;
    Array.unsafe_set ch.a i a;
    ch.len <- i + 1

  let unsafe_push_kab ch ~kind ~at ~a ~b =
    let i = ch.len in
    Bytes.unsafe_set ch.kind i (Char.unsafe_chr kind);
    Array.unsafe_set ch.at i at;
    Array.unsafe_set ch.a i a;
    Array.unsafe_set ch.b i b;
    ch.len <- i + 1

  let unsafe_push_kabc ch ~kind ~at ~a ~b ~c =
    let i = ch.len in
    Bytes.unsafe_set ch.kind i (Char.unsafe_chr kind);
    Array.unsafe_set ch.at i at;
    Array.unsafe_set ch.a i a;
    Array.unsafe_set ch.b i b;
    Array.unsafe_set ch.c i c;
    ch.len <- i + 1

  let push_event ch ev =
    match ev with
    | Exec { block; at } -> push_exec ch ~at ~block
    | Exception { block; at } -> push_exception ch ~at ~block
    | Demand_decompress { block; at; cycles } ->
      push_demand ch ~at ~block ~cycles
    | Prefetch_issue { block; at; ready_at } ->
      push_prefetch ch ~at ~block ~ready_at
    | Stall { block; at; cycles } -> push_stall ch ~at ~block ~cycles
    | Patch { target; site; at } -> push_patch ch ~at ~target ~site
    | Unpatch { target; site; at } -> push_unpatch ch ~at ~target ~site
    | Discard { block; at; patched_back; wasted } ->
      push_discard ch ~at ~block ~patched_back ~wasted
    | Evict { block; at } -> push_evict ch ~at ~block
    | Recompress_queued { block; at; done_at } ->
      push_recompress_queued ch ~at ~block ~done_at
    | Flush { at; copies } -> push_flush ch ~at ~copies

  let kind_tag ch i =
    if i < 0 || i >= ch.len then invalid_arg "Sim.Events.Packed.kind_tag";
    Char.code (Bytes.unsafe_get ch.kind i)

  let time_at ch i =
    if i < 0 || i >= ch.len then invalid_arg "Sim.Events.Packed.time_at";
    Array.unsafe_get ch.at i

  let get ch i =
    if i < 0 || i >= ch.len then invalid_arg "Sim.Events.Packed.get";
    let at = ch.at.(i) and a = ch.a.(i) and b = ch.b.(i) and c = ch.c.(i) in
    match Char.code (Bytes.unsafe_get ch.kind i) with
    | 0 -> Exec { block = a; at }
    | 1 -> Exception { block = a; at }
    | 2 -> Demand_decompress { block = a; at; cycles = b }
    | 3 -> Prefetch_issue { block = a; at; ready_at = b }
    | 4 -> Stall { block = a; at; cycles = b }
    | 5 -> Patch { target = a; site = b; at }
    | 6 -> Unpatch { target = a; site = b; at }
    | 7 -> Discard { block = a; at; patched_back = b; wasted = c <> 0 }
    | 8 -> Evict { block = a; at }
    | 9 -> Recompress_queued { block = a; at; done_at = b }
    | 10 -> Flush { at; copies = a }
    | k ->
      invalid_arg
        (Printf.sprintf "Sim.Events.Packed.get: bad kind tag %d" k)

  let iter f ch =
    for i = 0 to ch.len - 1 do
      f (get ch i)
    done
end

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

type sink = {
  emit_chunk : Packed.chunk -> unit;
  close : unit -> unit;
}

let null = { emit_chunk = (fun _ -> ()); close = (fun () -> ()) }

let callback f = { emit_chunk = Packed.iter f; close = (fun () -> ()) }

let tee sinks =
  {
    emit_chunk = (fun ch -> List.iter (fun s -> s.emit_chunk ch) sinks);
    close = (fun () -> List.iter (fun s -> s.close ()) sinks);
  }

type collector = { mutable rev_events : t list }

let collector () = { rev_events = [] }

let collecting c = callback (fun ev -> c.rev_events <- ev :: c.rev_events)

let collected c = List.rev c.rev_events

type counters = { per_kind : int array; mutable last_at : int }

let counters () = { per_kind = Array.make num_kinds 0; last_at = 0 }

let counting c =
  {
    emit_chunk =
      (* Tally kinds straight off the tag bytes, no boxed events
         materialized; the running max stays in a register across the
         chunk. *)
      (fun ch ->
        let n = Packed.length ch in
        let per_kind = c.per_kind in
        let kind = ch.Packed.kind and at = ch.Packed.at in
        let rec tally i last =
          if i >= n then last
          else begin
            let k = Char.code (Bytes.unsafe_get kind i) in
            Array.unsafe_set per_kind k (Array.unsafe_get per_kind k + 1);
            let a = Array.unsafe_get at i in
            tally (i + 1) (if a > last then a else last)
          end
        in
        c.last_at <- tally 0 c.last_at);
    close = (fun () -> ());
  }

let counts c =
  Array.to_list (Array.mapi (fun i n -> (kind_names.(i), n)) c.per_kind)

let count c name =
  let rec find i =
    if i >= num_kinds then
      invalid_arg (Printf.sprintf "Sim.Events.count: unknown kind %S" name)
    else if kind_names.(i) = name then c.per_kind.(i)
    else find (i + 1)
  in
  find 0

let total c = Array.fold_left ( + ) 0 c.per_kind
let last_time c = c.last_at

let to_file path =
  let oc = open_out path in
  let row ev =
    output_string oc (to_json ev);
    output_char oc '\n'
  in
  { emit_chunk = Packed.iter row; close = (fun () -> close_out oc) }

(* Shown in parse errors: enough of the line to recognize it, not
   enough to flood a terminal when the "line" is a megabyte of junk. *)
let truncate_line line =
  let limit = 80 in
  if String.length line <= limit then line
  else String.sub line 0 limit ^ "..."

let read_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let rec go lineno acc =
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        Ok (List.rev acc)
      | line when String.trim line = "" -> go (lineno + 1) acc
      | line -> (
        match of_json line with
        | Ok ev -> go (lineno + 1) (ev :: acc)
        | Error msg ->
          close_in ic;
          Error
            (Printf.sprintf "%s:%d: %s in %S" path lineno msg
               (truncate_line line)))
    in
    go 1 []

let observing registry =
  let by_kind =
    Array.map
      (fun k -> Metrics.counter registry ~labels:[ ("kind", k) ] "events_total")
      kind_names
  in
  (* [event_] prefix keeps these clear of the same-named engine totals
     (Core.Metrics publishes a [stall_cycles] counter, for one). *)
  let stalls = Metrics.histogram registry "event_stall_cycles" in
  let demand = Metrics.histogram registry "event_demand_dec_cycles" in
  let scratch = Array.make num_kinds 0 in
  {
    emit_chunk =
      (* One registry update per kind per chunk instead of one per
         event; only the (rare) cost-bearing kinds touch their
         histograms per event. *)
      (fun ch ->
        Array.fill scratch 0 num_kinds 0;
        let n = Packed.length ch in
        for i = 0 to n - 1 do
          let k = Char.code (Bytes.unsafe_get ch.Packed.kind i) in
          Array.unsafe_set scratch k (Array.unsafe_get scratch k + 1);
          if k = 4 then Metrics.observe stalls ch.Packed.b.(i)
          else if k = 2 then Metrics.observe demand ch.Packed.b.(i)
        done;
        for k = 0 to num_kinds - 1 do
          if scratch.(k) > 0 then Metrics.incr ~by:scratch.(k) by_kind.(k)
        done);
    close = (fun () -> ());
  }
