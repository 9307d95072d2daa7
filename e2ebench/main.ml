(* End-to-end benchmark: one workload per process.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
     main.exe --smoke

   Prints one line per metric (value, unit, median/p10/p90/n of its
   samples), the workload's model_digest, and as the last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones; with --trace 1 the run is split
   into an untraced half and a traced half, and the metrics are the
   per-layer ones taken from the traced half plus trace_overhead_pct.
   The names must match BENCHMARK.json; --smoke checks that they do.
   Exits 1 when any output fails its reference check. *)

let workloads =
  [
    ("replay-long", (Replay.run, 3));
    ("design-space", (Design.run, 5));
    ("exec-ground-truth", (Exec.run, 5));
    ("serve-mixed", (Serve.run, 5));
  ]

(* (name, unit, value, samples behind it) *)
let end_to_end (o : Outcome.t) =
  [
    ("setup_s", "s", Stat.median o.setup_s, o.setup_s);
    ("work_per_s", "1/s", Stat.ratio o.work o.busy_s, o.rates);
    ("op_p50_ms", "ms", Stat.median o.op_ms, o.op_ms);
    ("op_p90_ms", "ms", Stat.quantile o.op_ms 0.9, o.op_ms);
    ("rss_mb", "MB", o.rss_mb, [| o.rss_mb |]);
  ]

let per_layer_units =
  let strategies = [ "on_demand"; "pre_all"; "pre_single_profile"; "pre_single_last" ] in
  [
    ("trace.decode_ids_per_s", "1/s");
    ("trace.decode_self_pct", "%");
    ("engine.fast.steps_per_s", "1/s");
    ("engine.fast.events_per_step", "events/step");
    ("engine.fast.alloc_words_per_step", "words/step");
    ("engine.general.steps_per_s", "1/s");
    ("engine.general.alloc_words_per_step", "words/step");
  ]
  @ List.map (fun s -> (Printf.sprintf "engine.%s.steps_per_s" s, "1/s")) strategies
  @ List.map
      (fun a -> (Printf.sprintf "engine.%s.steps_per_s" a, "1/s"))
      [ "recompress"; "budget"; "clock"; "loop_aware" ]
  @ List.map (fun s -> (Printf.sprintf "engine.%s.time_share_pct" s, "%")) strategies
  @ [
      ("fleet.pool_efficiency", "ratio");
      ("fleet.cache_hit_ratio", "ratio");
      ("fleet.hit_p50_ms", "ms");
      ("corpus.programs_per_s", "1/s");
      ("corpus.setup_share_pct", "%");
      ("compress.comp_MBps", "MB/s");
      ("compress.dec_calls", "count");
      ("compress.dec_MBps", "MB/s");
      ("compress.dec_self_pct", "%");
      ("runtime.block.instr_per_s", "1/s");
      ("runtime.line32.instr_per_s", "1/s");
      ("runtime.self_pct", "%");
      ("runtime.traps_per_kinstr", "traps/kinstr");
      ("runtime.alloc_words_per_instr", "words/instr");
      ("eris.interp_instr_per_s", "1/s");
      ("runtime.slowdown_x", "x");
      ("service.sim_p99_ms", "ms");
      ("service.miss_p50_ms", "ms");
      ("service.miss_p99_ms", "ms");
      ("service.overhead_ms", "ms");
      ("service.backlog_max", "count");
      ("service.light_p50_ms", "ms");
      ("service.light_p90_ms", "ms");
      ("service.light_p99_ms", "ms");
      ("service.light_p999_ms", "ms");
      ("service.health_p50_ms", "ms");
      ("service.stats_p50_ms", "ms");
      ("generator.lag_max_ms", "ms");
      ("generator.lag_p99_ms", "ms");
      ("trace_overhead_pct", "%");
    ]

(* A layer the workload does not exercise reads 0. *)
let per_layer (o : Outcome.t) ~overhead_pct =
  List.map
    (fun (name, unit) ->
      let v =
        if name = "trace_overhead_pct" then overhead_pct
        else Option.value ~default:0.0 (List.assoc_opt name o.layers)
      in
      (name, unit, v, [| v |]))
    per_layer_units

(* JSON has no NaN or infinity; a metric with nothing measured is 0. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_metric (name, unit, v, samples) =
  Printf.printf "%-38s %14.6g %-12s median %.6g p10 %.6g p90 %.6g n %d\n" name v unit
    (Stat.median samples) (Stat.quantile samples 0.1) (Stat.quantile samples 0.9)
    (Array.length samples)

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v, _) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics))

let fingerprint () =
  let cpuinfo =
    match open_in "/proc/cpuinfo" with
    | exception Sys_error _ -> []
    | ic ->
      let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> lines [])
  in
  let value l = match String.index_opt l ':' with Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1)) | None -> "" in
  let starts p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  Printf.sprintf "{\"ocaml\": \"%s\", \"nproc\": %d, \"cpu\": \"%s\", \"domains\": %d}" Sys.ocaml_version
    (List.length (List.filter (starts "processor") cpuinfo))
    (Report.Table.json_escape (match List.find_opt (starts "model name") cpuinfo with Some l -> value l | None -> "unknown"))
    (Domain.recommended_domain_count ())

(* Runs one workload; the traced run is an untraced half then a traced
   half of the same seed. Returns (correct, attempted, failed,
   metrics, digest). *)
let measure ~workload ~seed ~seconds ~trace =
  let run, setups = List.assoc workload workloads in
  if not trace then begin
    Spans.enabled := false;
    let o = run ~seed ~seconds ~setups in
    (o.Outcome.failed = 0, o.attempted, o.failed, end_to_end o, o.digest)
  end
  else begin
    Spans.enabled := false;
    let plain = run ~seed ~seconds:(seconds /. 2.0) ~setups:1 in
    Spans.reset ();
    Spans.reset_codec ();
    Spans.enabled := true;
    let traced = run ~seed ~seconds:(seconds /. 2.0) ~setups:1 in
    Spans.enabled := false;
    let overhead_pct =
      100.0 *. (Stat.ratio (Stat.median traced.op_ms) (Stat.median plain.op_ms) -. 1.0)
    in
    let failed = plain.failed + traced.failed in
    ( failed = 0 && plain.digest = traced.digest,
      plain.attempted + traced.attempted,
      failed,
      per_layer traced ~overhead_pct,
      traced.digest )
  end

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]\n\
    \       main.exe --smoke\n\
     workloads: replay-long design-space exec-ground-truth serve-mixed";
  exit 2

(* Each workload for about a second, both ways, and the metric names
   against BENCHMARK.json. *)
let smoke () =
  let declared key =
    let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
    match Service.Json.parse text with
    | Ok json ->
      List.filter_map
        (fun m -> Option.bind (Service.Json.member "name" m) Service.Json.to_str)
        (Option.value ~default:[] (Option.bind (Service.Json.member key json) Service.Json.to_list))
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let ok = ref true in
  List.iter
    (fun (workload, _) ->
      List.iter
        (fun (trace, key) ->
          let correct, _, failed, metrics, _ = measure ~workload ~seed:1 ~seconds:1.0 ~trace in
          let names = List.map (fun (n, _, _, _) -> n) metrics in
          let same = List.sort compare names = List.sort compare (declared key) in
          Printf.printf "smoke %-18s %-11s correct %b failed %d names %s\n%!" workload key correct failed
            (if same then "match BENCHMARK.json" else "DIFFER from BENCHMARK.json");
          ok := !ok && correct && same)
        [ (false, "end_to_end"); (true, "per_layer") ])
    workloads;
  exit (if !ok then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | [ _; "--serve-child"; socket; cache ] -> Serve.serve_child socket cache
  | [ _; "--smoke" ] -> smoke ()
  | _ :: args ->
    let rec parse acc = function
      | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get name = match List.assoc_opt name opts with Some v -> v | None -> usage () in
    let int name = match int_of_string_opt (get name) with Some n -> n | None -> usage () in
    let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
    let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    if (not (List.mem_assoc workload workloads)) || seconds < 1 then usage ();
    let correct, attempted, failed, metrics, digest =
      measure ~workload ~seed ~seconds:(float_of_int seconds) ~trace
    in
    Option.iter Spans.write_jsonl (List.assoc_opt "trace-out" opts);
    Printf.printf "# workload %s seed %d seconds %d trace %b\n" workload seed seconds trace;
    Printf.printf "fingerprint %s\n" (fingerprint ());
    Printf.printf "model_digest %s\n" digest;
    List.iter print_metric metrics;
    print_endline (result_json ~correct ~attempted ~failed metrics);
    exit (if correct then 0 else 1)
  | [] -> usage ()
