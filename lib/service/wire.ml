let protocol_version = 1
let default_max_request_bytes = 65536

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)

type error = { code : string; msg : string; retry_after_ms : int option }

let bad_json = "bad_json"
let bad_request = "bad_request"
let unknown_op = "unknown_op"
let oversized = "oversized"
let overloaded = "overloaded"
let too_many_connections = "too_many_connections"
let deadline_exceeded = "deadline_exceeded"
let fuel_exhausted = "fuel_exhausted"
let cancelled = "cancelled"
let shutting_down = "shutting_down"
let slow_consumer = "slow_consumer"
let internal = "internal"

let err ?retry_after_ms code msg = { code; msg; retry_after_ms }

(* The pool reports blown budgets as strings (its public contract);
   map them back to wire codes by their stable prefixes. *)
let classify_run_error msg =
  let has_prefix p = String.length msg >= String.length p
                     && String.sub msg 0 (String.length p) = p in
  if has_prefix "timed out" then deadline_exceeded
  else if has_prefix "fuel exhausted" then fuel_exhausted
  else if msg = "cancelled" then cancelled
  else internal

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type request =
  | Health
  | Stats
  | Sim of Fleet.Job.t
  | Sweep of Fleet.Job.t list
  | Compress of { workload : string; codec : string option }

type envelope = {
  id : Json.t;
  timeout_ms : int option;
  fuel : int option;
  request : request;
}

let ( let* ) = Result.bind

let fail fmt = Printf.ksprintf (fun msg -> Error (err bad_request msg)) fmt

(* Field accessors over the request object; every branch reports the
   field name so the client can fix its request without guessing. *)

let opt_field obj name decode what =
  match Json.member name obj with
  | None -> Ok None
  | Some v -> (
    match decode v with
    | Some x -> Ok (Some x)
    | None -> fail "field %S: expected %s" name what)

(* A JSON list whose every element decodes. *)
let list_of decode v =
  Option.bind (Json.to_list v) (fun vs ->
      let xs = List.filter_map decode vs in
      if List.length xs = List.length vs then Some xs else None)

let str_field obj name = opt_field obj name Json.to_str "a string"
let int_field obj name = opt_field obj name Json.to_int "an integer"
let float_field obj name = opt_field obj name Json.to_float "a number"

let positive obj name =
  let* v = int_field obj name in
  match v with
  | Some v when v < 1 -> fail "field %S: must be >= 1 (got %d)" name v
  | v -> Ok v

let default d = function Some v -> v | None -> d

let workload_ok name = List.mem name Workloads.Suite.names

(* A workload field also accepts corpus specs ([gen:]/[multi:]); they
   are canonicalized here so equal shapes share fleet cache keys no
   matter how the client spelled them. *)
let check_workload name =
  if Corpus.Resolve.is_spec name then
    match Corpus.Resolve.canonicalize ~known:workload_ok name with
    | Ok canonical -> Ok canonical
    | Error msg -> fail "bad scenario spec %S: %s" name msg
  else if workload_ok name then Ok name
  else
    fail "unknown workload %S (known: %s, or a gen:/multi: spec)" name
      (String.concat ", " Workloads.Suite.names)

module Settings = Fleet.Settings

(* One settings row off the request object: an absent field keeps the
   job's default, a present one is type-checked, validated by the row
   and applied. *)
let decode_setting : type a.
    Json.t -> a Settings.t -> Fleet.Job.t -> (Fleet.Job.t, error) result =
 fun obj s job ->
  let* value =
    (match s.Settings.kind with
     | Settings.Int _ -> int_field obj s.field
     | Settings.Fraction -> float_field obj s.field
     | Settings.Name _ -> str_field obj s.field
      : (a option, error) result)
  in
  match Option.map (Settings.validate s) value with
  | None -> Ok job
  | Some (Ok v) -> Ok (s.set v job)
  | Some (Error msg) -> fail "field %S: %s" s.field msg

let decode_job ?(rows = Settings.rows) obj ~scenario =
  List.fold_left
    (fun acc (Settings.Row s) -> Result.bind acc (decode_setting obj s))
    (Ok (Settings.base ~scenario))
    rows

let required_workload obj op =
  let* workload = str_field obj "workload" in
  match workload with
  | Some w -> check_workload w
  | None -> fail "op %S requires field \"workload\"" op

let parse_sim obj =
  let* workload = required_workload obj "sim" in
  let* job = decode_job obj ~scenario:workload in
  Ok (Sim job)

let parse_sweep obj =
  let* workloads =
    opt_field obj "workloads" (list_of Json.to_str) "a list of workload names"
  in
  let workloads = default Workloads.Suite.names workloads in
  let* () =
    List.fold_left
      (fun acc w ->
        let* () = acc in
        let* _ = check_workload w in
        Ok ())
      (Ok ()) workloads
  in
  let* () = if workloads = [] then fail "field \"workloads\": empty" else Ok () in
  let* ks =
    opt_field obj "ks" (list_of Json.to_int) "a list of integers"
  in
  let ks = default [ 1; 2; 4; 8; 16; 32 ] ks in
  let* () = if ks = [] then fail "field \"ks\": empty" else Ok () in
  let* () =
    if List.for_all (fun k -> k >= 1) ks then Ok ()
    else fail "field \"ks\": every k must be >= 1"
  in
  let ks = Fleet.Sweep.normalize_ks ks in
  let* job = decode_job ~rows:Settings.sweep_rows obj ~scenario:"" in
  Ok
    (Sweep
       (List.concat_map
          (fun scenario ->
            List.map (fun k -> { job with Fleet.Job.scenario; k }) ks)
          workloads))

let parse_compress obj =
  let* workload = required_workload obj "compress" in
  let* codec = str_field obj "codec" in
  let* codec =
    match codec with
    | None -> Ok None
    | Some c when List.mem c (Compress.Registry.names ()) -> Ok (Some c)
    | Some c ->
      (* "code" (the positional model) has no standalone compressor to
         measure, so compress only takes real registry codecs *)
      fail "unknown codec %S for op \"compress\" (expected %s)" c
        (String.concat ", " (Compress.Registry.names ()))
  in
  Ok (Compress { workload; codec })

let parse_request line =
  match Json.parse line with
  | Error msg -> Error (Json.Null, err bad_json msg)
  | Ok json -> (
    let id = default Json.Null (Json.member "id" json) in
    let tag e = Error (id, e) in
    match
      let* () =
        match json with
        | Json.Obj _ -> Ok ()
        | _ -> fail "request must be a JSON object"
      in
      let* v = int_field json "v" in
      let* () =
        match v with
        | Some v when v <> protocol_version ->
          fail "protocol version %d not supported (this server speaks %d)" v
            protocol_version
        | _ -> Ok ()
      in
      let* timeout_ms = positive json "timeout_ms" in
      let* fuel = positive json "fuel" in
      let* op = str_field json "op" in
      let* request =
        match op with
        | None -> fail "missing field \"op\""
        | Some "health" -> Ok Health
        | Some "stats" -> Ok Stats
        | Some "sim" -> parse_sim json
        | Some "sweep" -> parse_sweep json
        | Some "compress" -> parse_compress json
        | Some other ->
          Error
            (err unknown_op
               (Printf.sprintf
                  "unknown op %S (known: health, stats, sim, sweep, compress)"
                  other))
      in
      Ok { id; timeout_ms; fuel; request }
    with
    | Ok envelope -> Ok envelope
    | Error e -> tag e)

(* ------------------------------------------------------------------ *)
(* Fast-path scanner                                                   *)

exception Bail

(* Recognizes exactly the [health] request —
   [{"op":"health"}]-shaped lines whose only members are [op], a
   scalar [id] and [v] equal to 1 — without allocating. Anything
   else (escapes, duplicate members, extra fields, nested ids, other
   protocol versions) bails to the full parser, so the fast path can
   never accept a request the slow path would reject or vice versa.
   The returned id span points into [buf] and is valid only until the
   caller consumes the line. *)
let scan_fast buf ~pos ~len =
  let stop = pos + len in
  let i = ref pos in
  let peek () = if !i < stop then Bytes.unsafe_get buf !i else raise Bail in
  let ws () =
    while
      !i < stop
      &&
      match Bytes.unsafe_get buf !i with
      | ' ' | '\t' | '\r' -> true
      | _ -> false
    do
      incr i
    done
  in
  let expect c =
    if peek () = c then incr i else raise Bail
  in
  let literal s =
    String.iter
      (fun c ->
        if peek () = c then incr i else raise Bail)
      s
  in
  (* a quoted string with no escapes; returns (start, length) of the
     whole token including the quotes *)
  let quoted () =
    let s0 = !i in
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> incr i
      | '\\' -> raise Bail
      | c when Char.code c < 0x20 -> raise Bail
      | _ ->
        incr i;
        go ()
    in
    go ();
    (s0, !i - s0)
  in
  let number () =
    (match peek () with
    | '-' -> incr i
    | _ -> ());
    (match peek () with '0' .. '9' -> incr i | _ -> raise Bail);
    while
      !i < stop
      &&
      match Bytes.unsafe_get buf !i with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      incr i
    done
  in
  let scalar () =
    let s0 = !i in
    (match peek () with
    | '"' -> ignore (quoted ())
    | '-' | '0' .. '9' -> number ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | _ -> raise Bail);
    (s0, !i - s0)
  in
  let key_is s (k0, klen) =
    klen = String.length s + 2
    &&
    let ok = ref true in
    String.iteri
      (fun j c -> if Bytes.unsafe_get buf (k0 + 1 + j) <> c then ok := false)
      s;
    !ok
  in
  try
    ws ();
    expect '{';
    let op_seen = ref false and id = ref None and v_seen = ref false in
    let rec members () =
      ws ();
      let k = quoted () in
      ws ();
      expect ':';
      ws ();
      if key_is "op" k then begin
        if !op_seen || not (key_is "health" (quoted ())) then raise Bail;
        op_seen := true
      end
      else if key_is "id" k then begin
        if !id <> None then raise Bail;
        id := Some (scalar ())
      end
      else if key_is "v" k then begin
        if !v_seen then raise Bail;
        v_seen := true;
        expect '1';
        match if !i < stop then Bytes.unsafe_get buf !i else ',' with
        | '0' .. '9' | '.' | 'e' | 'E' -> raise Bail (* 10, 1.5, 1e2 *)
        | _ -> ()
      end
      else raise Bail;
      ws ();
      match peek () with
      | ',' ->
        incr i;
        members ()
      | '}' -> incr i
      | _ -> raise Bail
    in
    ws ();
    (match peek () with
    | '}' -> raise Bail (* no op: the slow path owns the error *)
    | _ -> members ());
    ws ();
    if !i <> stop then raise Bail;
    if not !op_seen then raise Bail;
    Some !id
  with Bail -> None

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let ok_line ~id payload = Json.to_string (Json.Obj [ ("id", id); ("ok", payload) ])

let error_to_json { code; msg; retry_after_ms } =
  Json.Obj
    ([ ("code", Json.Str code); ("msg", Json.Str msg) ]
    @
    match retry_after_ms with
    | Some ms -> [ ("retry_after_ms", Json.Int ms) ]
    | None -> [])

let error_line ~id e =
  Json.to_string (Json.Obj [ ("id", id); ("error", error_to_json e) ])

let parse_response line =
  match Json.parse line with
  | Error msg -> Error (Printf.sprintf "unparseable response: %s" msg)
  | Ok json -> (
    let id = default Json.Null (Json.member "id" json) in
    match (Json.member "ok" json, Json.member "error" json) with
    | Some payload, None -> Ok (id, Ok payload)
    | None, Some e ->
      let str name = Option.bind (Json.member name e) Json.to_str in
      let code = default "internal" (str "code") in
      let msg = default "" (str "msg") in
      let retry_after_ms =
        Option.bind (Json.member "retry_after_ms" e) Json.to_int
      in
      Ok (id, Error { code; msg; retry_after_ms })
    | _ -> Error "response has neither \"ok\" nor \"error\"")

let metrics_to_json (m : Core.Metrics.t) =
  Json.Obj
    [
      ("total_cycles", Json.Int m.total_cycles);
      ("exec_cycles", Json.Int m.exec_cycles);
      ("exception_cycles", Json.Int m.exception_cycles);
      ("patch_cycles", Json.Int m.patch_cycles);
      ("demand_dec_cycles", Json.Int m.demand_dec_cycles);
      ("stall_cycles", Json.Int m.stall_cycles);
      ("baseline_cycles", Json.Int m.baseline_cycles);
      ("exceptions", Json.Int m.exceptions);
      ("patches", Json.Int m.patches);
      ("demand_decompressions", Json.Int m.demand_decompressions);
      ("prefetch_decompressions", Json.Int m.prefetch_decompressions);
      ("useful_prefetches", Json.Int m.useful_prefetches);
      ("wasted_prefetches", Json.Int m.wasted_prefetches);
      ("discards", Json.Int m.discards);
      ("evictions", Json.Int m.evictions);
      ("budget_overflows", Json.Int m.budget_overflows);
      ("dec_thread_busy_cycles", Json.Int m.dec_thread_busy_cycles);
      ("comp_thread_busy_cycles", Json.Int m.comp_thread_busy_cycles);
      ("energy_nj", Json.Int m.energy_nj);
      ("exec_energy_nj", Json.Int m.exec_energy_nj);
      ("exception_energy_nj", Json.Int m.exception_energy_nj);
      ("patch_energy_nj", Json.Int m.patch_energy_nj);
      ("dec_energy_nj", Json.Int m.dec_energy_nj);
      ("comp_energy_nj", Json.Int m.comp_energy_nj);
      ("ram_static_energy_nj", Json.Int m.ram_static_energy_nj);
      ("baseline_energy_nj", Json.Int m.baseline_energy_nj);
      ("original_bytes", Json.Int m.original_bytes);
      ("compressed_area_bytes", Json.Int m.compressed_area_bytes);
      ("peak_decompressed_bytes", Json.Int m.peak_decompressed_bytes);
      ("avg_decompressed_bytes", Json.Float m.avg_decompressed_bytes);
      ("peak_footprint_bytes", Json.Int m.peak_footprint_bytes);
      ("avg_footprint_bytes", Json.Float m.avg_footprint_bytes);
      ("trace_length", Json.Int m.trace_length);
      ("blocks", Json.Int m.blocks);
      ("overhead_ratio", Json.Float (Core.Metrics.overhead_ratio m));
      ("peak_memory_saving", Json.Float (Core.Metrics.peak_memory_saving m));
      ("avg_memory_saving", Json.Float (Core.Metrics.avg_memory_saving m));
      ( "energy_overhead_ratio",
        Json.Float (Core.Metrics.energy_overhead_ratio m) );
    ]

let setting_to_json : type a.
    a Settings.t -> Fleet.Job.t -> (string * Json.t) option =
 fun s job ->
  Option.map
    (fun (v : a) ->
      ( s.Settings.field,
        match s.kind with
        | Settings.Int _ -> Json.Int v
        | Settings.Fraction -> Json.Float v
        | Settings.Name _ -> Json.Str v ))
    (s.get job)

let settings_to_json ?(rows = Settings.rows) job =
  List.filter_map (fun (Settings.Row s) -> setting_to_json s job) rows

let job_to_json (j : Fleet.Job.t) =
  Json.Obj (("workload", Json.Str j.scenario) :: settings_to_json j)

let outcome_to_json (o : Fleet.Sweep.outcome) =
  Json.Obj
    ([
       ("job", job_to_json o.job);
       ("key", Json.Str (Fleet.Job.key o.job));
       ("cached", Json.Bool o.cached);
     ]
    @
    match o.result with
    | Ok m -> [ ("metrics", metrics_to_json m) ]
    | Error msg ->
      [ ("error", error_to_json (err (classify_run_error msg) msg)) ])
