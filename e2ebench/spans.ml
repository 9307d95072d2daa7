(* The traced run's recorder: spans kept in memory around calls into
   the system's public functions, written out as JSONL at exit. Only
   the main domain records; pool workers run untraced. A layer's self
   time is its spans' duration minus what their children cover. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  req : int;  (* request id, -1 when none *)
  start_us : float;
  mutable end_us : float;
  mutable child_us : float;
}

let enabled = ref false
let epoch = Stat.now ()
let us_of t = (t -. epoch) *. 1e6
let recorded : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let reset () =
  recorded := [];
  stack := [];
  next_id := 0

let active () = !enabled && Domain.is_main_domain ()

let open_span ~req name start_us =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let s = { id = !next_id; name; parent; req; start_us; end_us = start_us; child_us = 0.0 } in
  incr next_id;
  s

let close_span s =
  (match !stack with
  | p :: _ -> p.child_us <- p.child_us +. (s.end_us -. s.start_us)
  | [] -> ());
  recorded := s :: !recorded

let with_ ?(req = -1) name f =
  if not (active ()) then f ()
  else begin
    let s = open_span ~req name (us_of (Stat.now ())) in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.end_us <- us_of (Stat.now ());
        stack := List.tl !stack;
        close_span s)
      f
  end

(* A span timed elsewhere (a request, from its due time to its reply). *)
let add ?(req = -1) name ~start ~stop =
  if active () then begin
    let s = open_span ~req name (us_of start) in
    s.end_us <- us_of stop;
    close_span s
  end

(* Time spent in a child that is counted, not recorded span by span. *)
let credit seconds =
  if active () then
    match !stack with p :: _ -> p.child_us <- p.child_us +. (seconds *. 1e6) | [] -> ()

let fold name f init =
  List.fold_left (fun acc s -> if s.name = name then f acc s else acc) init !recorded

let count name = fold name (fun n _ -> n + 1) 0
let total_s name = fold name (fun t s -> t +. ((s.end_us -. s.start_us) /. 1e6)) 0.0

let self_s name =
  fold name (fun t s -> t +. ((s.end_us -. s.start_us -. s.child_us) /. 1e6)) 0.0

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"req\":%d,\"start_us\":%.1f,\"end_us\":%.1f}\n"
        s.id s.name s.parent s.req s.start_us s.end_us)
    (List.rev !recorded);
  close_out oc

(* The codec layer, wrapped: the same closures, counted and timed.
   Their time is credited to the enclosing span as child time. *)
type codec_counts = {
  mutable comp_calls : int;
  mutable comp_bytes : int;  (* uncompressed bytes in *)
  mutable comp_s : float;
  mutable dec_calls : int;
  mutable dec_bytes : int;  (* uncompressed bytes out *)
  mutable dec_s : float;
}

let codec =
  { comp_calls = 0; comp_bytes = 0; comp_s = 0.0; dec_calls = 0; dec_bytes = 0; dec_s = 0.0 }

let reset_codec () =
  codec.comp_calls <- 0;
  codec.comp_bytes <- 0;
  codec.comp_s <- 0.0;
  codec.dec_calls <- 0;
  codec.dec_bytes <- 0;
  codec.dec_s <- 0.0

let wrap_codec (c : Compress.Codec.t) =
  {
    c with
    Compress.Codec.compress =
      (fun b ->
        let r, dt = Stat.time (fun () -> c.Compress.Codec.compress b) in
        codec.comp_calls <- codec.comp_calls + 1;
        codec.comp_bytes <- codec.comp_bytes + Bytes.length b;
        codec.comp_s <- codec.comp_s +. dt;
        credit dt;
        r);
    decompress =
      (fun b ->
        let r, dt = Stat.time (fun () -> c.Compress.Codec.decompress b) in
        codec.dec_calls <- codec.dec_calls + 1;
        codec.dec_bytes <- codec.dec_bytes + Bytes.length r;
        codec.dec_s <- codec.dec_s +. dt;
        credit dt;
        r);
  }

(* The image-trained code codec every layer defaults to; wrapped when
   tracing. *)
let code_codec image =
  let c = Compress.Registry.code_codec ~corpus:image in
  if !enabled then wrap_codec c else c
