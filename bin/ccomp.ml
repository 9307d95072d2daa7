(* ccomp: command-line front end for the access-pattern-based code
   compression library (Ozturk et al., DATE 2005 reproduction). *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument parsers                                             *)

let workload_doc =
  Printf.sprintf
    "Workload name (one of: %s), a gen: generator spec, or a multi: \
     composition."
    (String.concat ", " Workloads.Suite.names)

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:workload_doc)

(* sim/run accept the workload either positionally or via --gen (and,
   for sim, --tasks); the positional argument becomes optional there. *)
let workload_opt_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc:workload_doc)

let gen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "gen" ] ~docv:"SPEC"
        ~doc:
          "Generate the program from a gen: spec (equivalent to passing the \
           spec as WORKLOAD).")

(* The effective scenario string for sim/run: positional or --gen,
   exactly one. *)
let effective_workload workload gen =
  match (workload, gen) with
  | Some w, None -> Ok w
  | None, Some g ->
    if Corpus.Resolve.is_gen g then Ok g
    else Error "--gen expects a gen: spec"
  | Some _, Some _ -> Error "give either WORKLOAD or --gen, not both"
  | None, None -> Error "missing WORKLOAD (or --gen SPEC)"

(* Bounds-checked integer options outside the run settings: a bad
   --jobs/--queue/--fuel is a usage error cmdliner reports cleanly,
   not an Invalid_argument escaping from deep inside the fleet. *)
let bounded_int ~min what =
  let parse s =
    match int_of_string_opt s with
    | None ->
      Error (`Msg (Printf.sprintf "expected an integer %s, got %S" what s))
    | Some v when v < min ->
      Error (`Msg (Printf.sprintf "%s must be >= %d (got %d)" what min v))
    | Some v -> Ok v
  in
  Arg.conv ~docv:"INT" (parse, Format.pp_print_int)

let positive_int what = bounded_int ~min:1 what

(* The run settings: one option per Fleet.Settings row, parsed and
   validated by the row, so a typo'd codec or a zero k is a usage
   error carrying the message the service returns for the same
   field. *)
let setting : type a. a Fleet.Settings.t -> (Fleet.Job.t -> Fleet.Job.t) Term.t
    =
 fun s ->
  let open Fleet.Settings in
  let conv =
    Arg.conv ~docv:s.docv
      ( (fun str -> Result.map_error (fun m -> `Msg m) (parse s str)),
        fun ppf v -> Format.pp_print_string ppf (to_string s v) )
  in
  let arg_info flag = Arg.info [ flag ] ~docv:s.docv ~doc:(doc s) in
  let given =
    match s.cli with
    | Flag (flag, v) ->
      Term.(
        const (fun on -> if on then Some v else None)
        $ Arg.value (Arg.flag (arg_info flag)))
    | Opt flag ->
      let none = Option.map (to_string s) (s.get (base ~scenario:"")) in
      Arg.value (Arg.opt (Arg.some ?none conv) None (arg_info flag))
  in
  Term.(
    const (fun v j -> Option.fold ~none:j ~some:(fun v -> s.set v j) v)
    $ given)

(* The given rows' options, folded in table order into the job for a
   scenario. *)
let settings rows =
  Term.(
    const (fun apply ~scenario -> apply (Fleet.Settings.base ~scenario))
    $ List.fold_left
        (fun acc (Fleet.Settings.Row s) ->
          const (fun f g j -> g (f j)) $ acc $ setting s)
        (const Fun.id) rows)

(* One setting's value alone, for commands that take no other. *)
let setting_value s =
  let open Fleet.Settings in
  Term.(
    const (fun apply -> Option.get (s.get (apply (base ~scenario:""))))
    $ setting s)

(* A failed command: the message on stderr, exit code 1. *)
let error msg =
  Format.eprintf "error: %s@." msg;
  1

let unix_error e fn arg =
  error
    (Printf.sprintf "%s: %s%s" fn (Unix.error_message e)
       (if arg = "" then "" else " (" ^ arg ^ ")"))

(* A compressed-memory execution that did not halt. *)
let runtime_error = function
  | Runtime.Out_of_fuel _ -> error "out of fuel"
  | Runtime.Machine_fault { pc; message; _ } ->
    error (Printf.sprintf "fault at %d: %s" pc message)

(* The codec a codec setting names: "code" is the workload's own
   positional model, which the scenario builds. *)
let codec_of = function
  | "code" -> None
  | other -> Some (Compress.Registry.find_exn other)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Stream the simulation event log to $(docv) in constant memory: \
           JSON Lines by default, or the compact LZSS-framed binary event \
           log when $(docv) ends in .bin/.ctb.")

(* The .bin event-log sink: five ints per event (kind, at, a, b, c —
   the packed field maps) through Trace.Event_log. *)
let binary_event_sink path =
  let oc = open_out_bin path in
  let w = Trace.Event_log.Writer.create oc in
  let push e =
    let p = Trace.Event_log.Writer.push w in
    match (e : Sim.Events.t) with
    | Exec { block; at } -> p ~kind:0 ~at ~a:block ~b:0 ~c:0
    | Exception { block; at } -> p ~kind:1 ~at ~a:block ~b:0 ~c:0
    | Demand_decompress { block; at; cycles } ->
      p ~kind:2 ~at ~a:block ~b:cycles ~c:0
    | Prefetch_issue { block; at; ready_at } ->
      p ~kind:3 ~at ~a:block ~b:ready_at ~c:0
    | Stall { block; at; cycles } -> p ~kind:4 ~at ~a:block ~b:cycles ~c:0
    | Patch { target; site; at } -> p ~kind:5 ~at ~a:target ~b:site ~c:0
    | Unpatch { target; site; at } -> p ~kind:6 ~at ~a:target ~b:site ~c:0
    | Discard { block; at; patched_back; wasted } ->
      p ~kind:7 ~at ~a:block ~b:patched_back ~c:(if wasted then 1 else 0)
    | Evict { block; at } -> p ~kind:8 ~at ~a:block ~b:0 ~c:0
    | Recompress_queued { block; at; done_at } ->
      p ~kind:9 ~at ~a:block ~b:done_at ~c:0
    | Flush { at; copies } -> p ~kind:10 ~at ~a:copies ~b:0 ~c:0
  in
  {
    Sim.Events.emit = push;
    emit_chunk = (fun ch -> Sim.Events.Packed.iter push ch);
    close =
      (fun () ->
        Trace.Event_log.Writer.close w;
        close_out oc);
  }

let binary_trace_path path =
  Filename.check_suffix path ".bin" || Filename.check_suffix path ".ctb"

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Also print the metrics registry (engine totals, occupancy, \
           per-event-kind counters and latency histograms).")

(* Shared --trace-out/--metrics plumbing: build the optional sink and
   registry, run, then close the file and render the registry. *)
let with_observability ?(observe_events = true) trace_out metrics run =
  let sink =
    match trace_out with
    | None -> None
    | Some path -> (
      try
        Some
          (if binary_trace_path path then binary_event_sink path
           else Sim.Events.to_file path)
      with Sys_error msg ->
        Stdlib.exit (error ("cannot open trace output: " ^ msg)))
  in
  let registry = if metrics then Some (Sim.Metrics.create ()) else None in
  let sink =
    match (registry, observe_events) with
    | Some r, true ->
      let observer = Sim.Events.observing r in
      Some
        (match sink with
        | Some s -> Sim.Events.tee [ s; observer ]
        | None -> observer)
    | _ -> sink
  in
  let result = run ?sink ?registry () in
  (match sink with Some s -> s.Sim.Events.close () | None -> ());
  (match trace_out with
  | Some path -> Format.printf "event trace written to %s@." path
  | None -> ());
  (match registry with
  | Some r ->
    print_string (Report.Table.render (Sim.Metrics.to_table ~title:"metrics" r))
  | None -> ());
  result

(* Any scenario string: a suite workload name, a [gen:] generator spec
   or a [multi:] composition — everywhere a WORKLOAD is accepted. *)
let scenario_of ~codec name =
  let codec = codec_of codec in
  let plain name =
    Workloads.Common.scenario ?codec (Workloads.Suite.find_exn name)
  in
  if Corpus.Resolve.is_spec name then
    Corpus.Resolve.scenario ~lookup:plain ?codec name
  else plain name

(* ------------------------------------------------------------------ *)
(* ccomp sim                                                           *)

(* Per-task attribution printout for multitask sims. *)
let print_task_stats stats =
  let t =
    Report.Table.create ~title:"per-task attribution"
      ~columns:
        [
          ("task", Report.Table.Left);
          ("visits", Report.Table.Right);
          ("demand decs", Report.Table.Right);
          ("discards", Report.Table.Right);
          ("evictions", Report.Table.Right);
          ("cross-task", Report.Table.Right);
        ]
  in
  Array.iter
    (fun (s : Corpus.Multitask.task_stats) ->
      Report.Table.add_row t
        [
          s.task.Corpus.Multitask.name;
          Report.Table.fmt_int s.visits;
          Report.Table.fmt_int s.demand_decompressions;
          Report.Table.fmt_int s.discards;
          Report.Table.fmt_int s.evictions;
          Report.Table.fmt_int s.evicted_while_inactive;
        ])
    stats;
  print_string (Report.Table.render t)

let sim workload gen tasks quantum mt_seed jitter job trace_out metrics =
  (* Prints the scenario and the policy the job names, runs it, and
     hands the result to [report]. *)
  let simulate sc job run report =
    let policy = Fleet.Job.policy sc job in
    Format.printf "%a@.policy: %s@.@." Core.Scenario.pp_summary sc
      (Core.Policy.describe policy);
    match
      with_observability trace_out metrics (fun ?sink ?registry () ->
          run ?sink ?registry policy)
    with
    | result ->
      report result;
      0
    | exception Invalid_argument msg ->
      (* e.g. a pin-hot pinned set that alone exceeds --budget *)
      error msg
  in
  match tasks with
  | Some ts -> (
    let spec =
      Printf.sprintf "multi:quantum=%d,seed=%d,jitter=%g;%s" quantum mt_seed
        jitter (String.concat "+" ts)
    in
    let job = job ~scenario:spec in
    match
      Result.map
        (Corpus.Resolve.multitask
           ~lookup:(scenario_of ~codec:job.Fleet.Job.codec)
           ?codec:(codec_of job.codec))
        (Corpus.Resolve.multi_of_string spec)
    with
    | Error msg -> error msg
    | exception Invalid_argument msg -> error msg
    | Ok mt ->
      simulate mt.Corpus.Multitask.scenario job
        (fun ?sink ?registry policy ->
          Corpus.Multitask.run ~profile:job.profile ?sink ?registry mt policy)
        (fun (m, stats) ->
          Format.printf "%a@.@." Core.Metrics.pp m;
          print_task_stats stats))
  | None -> (
    match effective_workload workload gen with
    | Error msg -> error msg
    | Ok workload -> (
      let job = job ~scenario:workload in
      match scenario_of ~codec:job.Fleet.Job.codec workload with
      | exception Invalid_argument msg -> error msg
      | sc ->
        simulate sc job
          (fun ?sink ?registry policy ->
            match job.line_size with
            | None ->
              Core.Scenario.run ~profile:job.profile ?sink ?registry sc policy
            | Some line_size ->
              Core.Lineview.run ~profile:job.profile ?sink ?registry
                ~line_size sc policy)
          (fun m -> Format.printf "%a@." Core.Metrics.pp m)))

let tasks_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "tasks" ] ~docv:"W,W,..."
        ~doc:
          "Simulate a preemptive multitask composition of these workloads \
           (names or gen: specs) sharing one decompressed area.")

let quantum_arg =
  Arg.(
    value
    & opt (positive_int "quantum") 64
    & info [ "quantum" ] ~docv:"VISITS"
        ~doc:"Preemption quantum for --tasks, in block visits.")

let mt_seed_arg =
  Arg.(
    value
    & opt int 1
    & info [ "mt-seed" ] ~docv:"SEED"
        ~doc:"Seed of the preemption jitter stream for --tasks.")

let jitter_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "jitter" ] ~docv:"FRACTION"
        ~doc:
          "Preemption jitter for --tasks: each slice is perturbed by up to \
           this fraction of the quantum (seeded, deterministic).")

let sim_cmd =
  let doc = "Simulate one workload under a compression policy." in
  Cmd.v
    (Cmd.info "sim" ~doc)
    Term.(
      const sim $ workload_opt_arg $ gen_arg $ tasks_arg $ quantum_arg
      $ mt_seed_arg $ jitter_arg
      $ settings Fleet.Settings.rows
      $ trace_out_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* Fleet options (shared by sweep and experiments)                     *)

let jobs_arg =
  Arg.(
    value
    & opt (positive_int "jobs") 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker-domain pool size; 1 runs inline with no domains.")

(* The per-job guards of sweep, serve and call; each command says what
   its limit applies to. *)
let fuel_arg doc =
  Arg.(
    value
    & opt (some (positive_int "fuel")) None
    & info [ "fuel" ] ~docv:"TICKS" ~doc)

let timeout_arg doc =
  Arg.(
    value
    & opt (some (positive_int "timeout")) None
    & info [ "timeout-ms" ] ~docv:"MS" ~doc)

let cache_dir_arg ~default =
  let doc =
    if default then
      Printf.sprintf
        "Content-addressed result cache directory (default %s)."
        Fleet.Cache.default_dir
    else
      "Content-addressed result cache directory (caching is off unless \
       this is given)."
  in
  Arg.(
    value
    & opt (some string)
        (if default then Some Fleet.Cache.default_dir else None)
    & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Disable the result cache entirely.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Emit one JSONL line per completed job on stderr (same \
           line-per-record format as --trace-out).")

let fleet_cache ~no_cache ~cache_dir =
  match cache_dir with
  | Some dir when not no_cache -> Some (Fleet.Cache.open_dir dir)
  | _ -> None

let fleet_progress progress =
  if progress then
    Some
      (fun line ->
        output_string stderr (line ^ "\n");
        flush stderr)
  else None

let print_fleet_summary registry =
  let value name =
    Sim.Metrics.value (Sim.Metrics.counter registry name)
  in
  Printf.printf
    "fleet: submitted=%d completed=%d cache_hits=%d cache_misses=%d \
     engine_runs=%d errors=%d\n"
    (value "fleet_jobs_submitted")
    (value "fleet_jobs_completed")
    (value "fleet_cache_hits")
    (value "fleet_cache_misses")
    (value "fleet_engine_runs")
    (value "fleet_jobs_errored")

(* ------------------------------------------------------------------ *)
(* ccomp experiments                                                   *)

let experiments ids csv_dir list_only jobs cache_dir no_cache progress metrics
    =
  if list_only then begin
    let t =
      Report.Table.create ~title:"registered experiments"
        ~columns:
          [
            ("id", Report.Table.Left);
            ("slug", Report.Table.Left);
            ("paper anchor", Report.Table.Left);
          ]
    in
    List.iter
      (fun (e : Experiments.Registry.entry) ->
        Report.Table.add_row t [ e.id; e.slug; e.paper_anchor ])
      Experiments.Registry.all;
    print_string (Report.Table.render t);
    0
  end
  else
    match
      List.map
        (fun id ->
          match Experiments.Registry.find id with
          | Some e -> e
          | None ->
            invalid_arg
              (Printf.sprintf
                 "unknown experiment %S (ccomp experiments --list names them)"
                 id))
        ids
    with
    | exception Invalid_argument msg -> error msg
    | named ->
      let entries = if ids = [] then Experiments.Registry.all else named in
      let registry = Sim.Metrics.create () in
      Experiments.Util.configure_fleet ~jobs
        ?cache:(fleet_cache ~no_cache ~cache_dir)
        ~registry
        ?progress:(fleet_progress progress) ();
      List.iter
        (fun (e : Experiments.Registry.entry) ->
          let table = e.runner () in
          Printf.printf "[%s / %s] (%s)\n%s\n" e.id e.slug e.paper_anchor
            (Report.Table.render table);
          match csv_dir with
          | None -> ()
          | Some dir ->
            let path = Filename.concat dir (e.slug ^ ".csv") in
            let oc = open_out path in
            output_string oc (Report.Table.to_csv table);
            close_out oc;
            Printf.printf "(csv written to %s)\n\n" path)
        entries;
      if metrics then
        print_string
          (Report.Table.render
             (Sim.Metrics.to_table ~title:"metrics" registry));
      (* Keep the default output identical to the pre-fleet harness: the
         summary only appears when a fleet knob was actually turned. *)
      if jobs > 1 || cache_dir <> None || metrics || progress then
        print_fleet_summary registry;
      0

let experiments_cmd =
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids (E1..E21) or slugs; all when omitted.")
  in
  let csv =
    Arg.(
      value & opt (some dir) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV here.")
  in
  let list_only =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:
            "Print each registered experiment's id, slug and paper anchor \
             without running anything.")
  in
  let doc = "Regenerate the paper's figures/tables (E1..E21)." in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(
      const experiments $ ids $ csv $ list_only $ jobs_arg
      $ cache_dir_arg ~default:false $ no_cache_arg $ progress_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* ccomp sweep                                                         *)

let sweep workloads gens ks job jobs cache_dir no_cache progress fuel
    timeout_ms metrics =
  match
    let names =
      match workloads @ gens with [] -> Workloads.Suite.names | ws -> ws
    in
    (* plain names are checked against the suite; gen:/multi: specs are
       canonicalized so equal shapes share cache keys *)
    List.map
      (fun n ->
        match
          Corpus.Resolve.canonicalize
            ~known:(fun w -> List.mem w Workloads.Suite.names)
            n
        with
        | Ok canonical -> canonical
        | Error msg -> invalid_arg msg)
      names
  with
  | exception Invalid_argument msg -> error msg
  | names ->
    let ks =
      let normalized = Fleet.Sweep.normalize_ks ks in
      if normalized <> ks then
        Format.eprintf "warning: --ks deduplicated and sorted to %s@."
          (String.concat "," (List.map string_of_int normalized));
      normalized
    in
    let specs =
      List.concat_map
        (fun scenario ->
          let j = job ~scenario in
          List.map (fun k -> { j with Fleet.Job.k }) ks)
        names
    in
    let codec = (job ~scenario:(List.hd names)).Fleet.Job.codec in
    let registry = Sim.Metrics.create () in
    let outcomes =
      Fleet.Sweep.run ~jobs
        ?cache:(fleet_cache ~no_cache ~cache_dir)
        ~registry
        ?progress:(fleet_progress progress)
        ?fuel ?timeout_ms
        ~resolve:(fun ~scenario ~codec -> scenario_of ~codec scenario)
        specs
    in
    let t =
      Report.Table.create
        ~title:
          (Printf.sprintf
             "sweep: %d jobs over %d workloads (codec %s, %d worker%s)"
             (List.length specs) (List.length names) codec jobs
             (if jobs = 1 then "" else "s"))
        ~columns:
          [
            ("workload", Report.Table.Left);
            ("k", Report.Table.Right);
            ("overhead", Report.Table.Right);
            ("peak mem saving", Report.Table.Right);
            ("avg mem saving", Report.Table.Right);
            ("demand decs", Report.Table.Right);
            ("discards", Report.Table.Right);
          ]
    in
    let errors = ref [] in
    List.iter
      (fun (o : Fleet.Sweep.outcome) ->
        match o.result with
        | Ok m ->
          Report.Table.add_row t
            [
              o.job.Fleet.Job.scenario;
              string_of_int o.job.Fleet.Job.k;
              Report.Table.fmt_pct (Core.Metrics.overhead_ratio m);
              Report.Table.fmt_pct (Core.Metrics.peak_memory_saving m);
              Report.Table.fmt_pct (Core.Metrics.avg_memory_saving m);
              string_of_int m.Core.Metrics.demand_decompressions;
              string_of_int m.Core.Metrics.discards;
            ]
        | Error msg ->
          errors := (Fleet.Job.describe o.job, msg) :: !errors)
      outcomes;
    print_string (Report.Table.render t);
    print_newline ();
    if metrics then
      print_string
        (Report.Table.render (Sim.Metrics.to_table ~title:"metrics" registry));
    print_fleet_summary registry;
    List.iter
      (fun (job, msg) -> Format.eprintf "error: %s: %s@." job msg)
      (List.rev !errors);
    if !errors = [] then 0 else 1

let sweep_cmd =
  let workloads =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "Workloads to sweep: suite names, gen: specs or multi: \
             compositions (all suite workloads when omitted).")
  in
  let gens =
    Arg.(
      value
      & opt_all string []
      & info [ "gen" ] ~docv:"SPEC"
          ~doc:
            "Add a gen: generated program to the sweep (repeatable; joins \
             any positional workloads).")
  in
  let ks =
    Arg.(
      value
      & opt (list (positive_int "k")) [ 1; 2; 4; 8; 16; 32 ]
      & info [ "ks" ] ~docv:"K,K,..."
          ~doc:"Comma-separated k values of the sweep grid.")
  in
  let fuel =
    fuel_arg "Per-job fuel: abort a job after this many simulation events."
  in
  let timeout_ms = timeout_arg "Per-job wall-clock timeout." in
  let doc =
    "Run a workload/policy sweep matrix through the fleet: a fixed-size \
     domain worker pool with a content-addressed on-disk result cache."
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const sweep $ workloads $ gens $ ks
      $ settings Fleet.Settings.sweep_rows
      $ jobs_arg
      $ cache_dir_arg ~default:true
      $ no_cache_arg $ progress_arg $ fuel $ timeout_ms $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* ccomp workloads                                                     *)

let workloads_check () =
  let results = Workloads.Suite.check_all () in
  List.iter
    (fun (name, result) ->
      match result with
      | Ok () -> Printf.printf "PASS %s\n" name
      | Error msg -> Printf.printf "FAIL %s: %s\n" name msg)
    results;
  if List.for_all (fun (_, r) -> Result.is_ok r) results then 0 else 1

let workloads_cmd =
  let doc = "Run every benchmark kernel against its OCaml reference." in
  Cmd.v (Cmd.info "workloads" ~doc) Term.(const workloads_check $ const ())

(* ------------------------------------------------------------------ *)
(* ccomp asm                                                           *)

let asm file listing dot =
  match In_channel.with_open_text file In_channel.input_all with
  | source -> (
    match Eris.Asm.assemble source with
    | Error e ->
      Format.eprintf "%s: %a@." file Eris.Asm.pp_error e;
      1
    | Ok prog ->
      let graph = Cfg.Build.of_program prog in
      Format.printf "%s: %d instructions, %d bytes@." file
        (Eris.Program.length prog)
        (Eris.Program.byte_size prog);
      Format.printf "%a@." Cfg.Graph.pp_stats graph;
      if listing then Format.printf "@.%a" Eris.Program.pp_listing prog;
      (match dot with
      | Some path ->
        Cfg.Dot.write_file path graph;
        Format.printf "CFG written to %s@." path
      | None -> ());
      0)
  | exception Sys_error msg -> error msg

let asm_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Assembly source.")
  in
  let listing =
    Arg.(value & flag & info [ "listing" ] ~doc:"Print the disassembly listing.")
  in
  let dot =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"OUT" ~doc:"Write the CFG in Graphviz format.")
  in
  let doc = "Assemble an ERIS-32 source file and analyze its CFG." in
  Cmd.v (Cmd.info "asm" ~doc) Term.(const asm $ file $ listing $ dot)

(* ------------------------------------------------------------------ *)
(* ccomp trace                                                         *)

let trace_cmd_impl workload codec out =
  match scenario_of ~codec workload with
  | sc ->
    Format.printf "%a@." Core.Scenario.pp_summary sc;
    let profile = Core.Scenario.profile sc in
    let g = sc.Core.Scenario.graph in
    Format.printf "block visit counts:@.";
    Array.iter
      (fun (b : Cfg.Graph.block) ->
        Format.printf "  B%-3d %6d visits  (%3dB%s)@." b.id
          (Cfg.Profile.block_count profile b.id)
          b.byte_size
          (match b.label with Some l -> ", " ^ l | None -> ""))
      (Cfg.Graph.blocks g);
    (match out with
    | Some path ->
      Trace.Io.save path sc.Core.Scenario.trace;
      Format.printf "trace written to %s@." path
    | None -> ());
    0
  | exception Invalid_argument msg -> error msg

let trace_convert_impl input output to_format lzss frame =
  match Trace.Io.load input with
  | Error e -> error (input ^ ": " ^ e)
  | Ok ids ->
    let binary =
      match to_format with
      | `Binary -> true
      | `Text -> false
      | `Auto -> binary_trace_path output
    in
    (try
       if binary then Trace.Binary.write_file ~lzss ~frame output ids
       else Trace.Io.save ~format:`Text output ids
     with Invalid_argument msg -> Stdlib.exit (error msg));
    let size path = (Unix.stat path).Unix.st_size in
    Format.printf "%s: %d ids, %d bytes -> %s: %d bytes (%s)@." input
      (Array.length ids) (size input) output (size output)
      (if binary then if lzss then "binary+lzss" else "binary" else "text");
    0

let trace_info_impl file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg -> error msg
  | data ->
    if Trace.Binary.is_binary data then (
      match Trace.Binary.info data with
      | Error e -> error (file ^ ": " ^ e)
      | Ok i ->
        Format.printf "format:       binary v%d%s@." i.Trace.Binary.version
          (if i.lzss then " (lzss frames)" else "");
        (match i.header_count with
        | Some c -> Format.printf "header count: %d@." c
        | None -> Format.printf "header count: unknown (unseekable writer)@.");
        Format.printf "ids:          %d@." i.ids;
        Format.printf "frames:       %d@." i.frames;
        Format.printf "payload:      %d bytes stored, %d raw@." i.stored_bytes
          i.raw_bytes;
        Format.printf "file:         %d bytes (%.2f bytes/id)@."
          (String.length data)
          (if i.ids = 0 then 0.0
           else float_of_int (String.length data) /. float_of_int i.ids);
        0)
    else (
      match Trace.Io.of_string data with
      | Error e -> error (file ^ ": " ^ e)
      | Ok ids ->
        Format.printf "format:       text@.";
        Format.printf "ids:          %d@." (Array.length ids);
        Format.printf "file:         %d bytes (%.2f bytes/id)@."
          (String.length data)
          (if Array.length ids = 0 then 0.0
           else float_of_int (String.length data)
                /. float_of_int (Array.length ids));
        0)

let trace_cmd =
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Save the block trace to a file (binary when $(docv) ends in \
             .bin/.ctb, text otherwise).")
  in
  let doc = "Show a workload's dynamic basic-block access pattern." in
  let gen_term =
    Term.(
      const trace_cmd_impl $ workload_arg
      $ setting_value Fleet.Settings.codec
      $ out)
  in
  let gen_cmd =
    Cmd.v
      (Cmd.info "gen"
         ~doc:
           "Generate a workload's trace (the default when WORKLOAD is given \
            directly).")
      gen_term
  in
  let convert_cmd =
    let input =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"INPUT" ~doc:"Trace file to read (either format).")
    in
    let output =
      Arg.(
        required
        & pos 1 (some string) None
        & info [] ~docv:"OUTPUT" ~doc:"Trace file to write.")
    in
    let to_format =
      Arg.(
        value
        & opt (enum [ ("auto", `Auto); ("text", `Text); ("binary", `Binary) ])
            `Auto
        & info [ "to" ] ~docv:"FORMAT"
            ~doc:
              "Output format: $(b,text), $(b,binary), or $(b,auto) (by \
               OUTPUT's extension).")
    in
    let lzss =
      Arg.(
        value & flag
        & info [ "lzss" ]
            ~doc:"LZSS-compress each binary frame (dogfoods lib/compress).")
    in
    let frame =
      Arg.(
        value & opt int 65536
        & info [ "frame" ] ~docv:"N" ~doc:"Ids per binary frame.")
    in
    Cmd.v
      (Cmd.info "convert" ~doc:"Convert a trace between text and binary.")
      Term.(const trace_convert_impl $ input $ output $ to_format $ lzss $ frame)
  in
  let info_cmd =
    let file =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"FILE" ~doc:"Trace file to inspect.")
    in
    Cmd.v
      (Cmd.info "info"
         ~doc:"Show a trace file's format, header and size statistics.")
      Term.(const trace_info_impl $ file)
  in
  Cmd.group ~default:gen_term (Cmd.info "trace" ~doc)
    [ gen_cmd; convert_cmd; info_cmd ]

(* ------------------------------------------------------------------ *)
(* ccomp cc                                                            *)

let cc file emit_asm optimize k =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg -> error msg
  | source -> (
    match Minic.Compile.to_assembly ~optimize source with
    | Error e ->
      Format.eprintf "%s: %a@." file Minic.Compile.pp_error e;
      1
    | Ok asm ->
      if emit_asm then begin
        print_string asm;
        0
      end
      else begin
        let prog = Eris.Asm.assemble_exn asm in
        let graph = Cfg.Build.of_program prog in
        Format.printf "%s: %d instructions, %d basic blocks@." file
          (Eris.Program.length prog)
          (Cfg.Graph.num_blocks graph);
        match Runtime.run ~k prog with
        | Ok (machine, stats) ->
          Format.printf
            "main() = %d (executed from compressed memory, k=%d)@.%d \
             instructions, %d traps, %d decompressions, %dB peak copies@."
            (let raw = Eris.Machine.read_word machine Minic.Codegen.result_addr in
             if raw land 0x80000000 <> 0 then raw - 0x100000000 else raw)
            k stats.Runtime.instructions stats.Runtime.traps
            stats.Runtime.decompressions stats.Runtime.peak_copy_bytes;
          0
        | Error e -> runtime_error e
      end)

let cc_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source.")
  in
  let emit_asm =
    Arg.(value & flag & info [ "S" ] ~doc:"Emit ERIS-32 assembly and stop.")
  in
  let optimize =
    Arg.(
      value & flag
      & info [ "O" ]
          ~doc:"Optimize (constant folding, strength reduction, branch pruning).")
  in
  let doc =
    "Compile a MiniC source file and execute it from compressed memory."
  in
  Cmd.v (Cmd.info "cc" ~doc)
    Term.(
      const cc $ file $ emit_asm $ optimize $ setting_value Fleet.Settings.k)

(* ------------------------------------------------------------------ *)
(* ccomp run                                                           *)

let run_real workload gen job trace_out metrics =
  match effective_workload workload gen with
  | Error msg -> error msg
  | Ok name when Corpus.Resolve.is_multi name ->
    error
      "multi: compositions are simulation-only (one machine runs one \
       program) — use `ccomp sim --tasks`"
  | Ok name -> (
    let job = job ~scenario:name in
    (* a suite program is assembled directly; the scenario, a traced
       run in the plain interpreter, is built only for a generated
       program or for pin-hot's profile *)
    let sc = lazy (scenario_of ~codec:"code" name) in
    match
      match Workloads.Suite.find name with
      | Some w -> Eris.Asm.assemble_exn w.Workloads.Common.source
      | None -> Option.get (Lazy.force sc).Core.Scenario.program
    with
    | exception Invalid_argument msg -> error msg
    | program -> (
      let retention =
        Fleet.Job.retention_spec job ~profile:(fun () ->
            Core.Scenario.profile (Lazy.force sc))
      in
      match
        with_observability trace_out metrics (fun ?sink ?registry () ->
            Runtime.run ~k:job.k ~retention ~profile:job.profile
              ?codec:(codec_of job.codec) ?line_size:job.line_size ?sink
              ?registry program)
      with
      | Ok (machine, stats) ->
        (* suite workloads check their reference checksum; generated
           programs carry none, and the runtime completing the same
           trace shape is the verification *)
        let checksum =
          Option.map
            (fun w ->
              let got =
                Eris.Machine.read_word machine w.Workloads.Common.result_addr
              in
              (got, got = w.Workloads.Common.expected))
            (Workloads.Suite.find name)
        in
        let pp_checksum ppf = function
          | None -> ()
          | Some (got, ok) ->
            Format.fprintf ppf "checksum: 0x%08x (%s)@," got
              (if ok then "matches reference" else "MISMATCH")
        in
        Format.printf
          "@[<v>%s executed from compressed memory (k=%d)@,\
           %ainstructions: %d; traps: %d; decompressions: %d; patches: %d; \
           deletions: %d@,\
           image: %dB original, %dB compressed; copies: %dB peak, %dB at \
           halt@]@."
          name job.k pp_checksum checksum stats.Runtime.instructions
          stats.Runtime.traps stats.Runtime.decompressions
          stats.Runtime.patches stats.Runtime.deletions
          stats.Runtime.original_image_bytes
          stats.Runtime.compressed_image_bytes stats.Runtime.peak_copy_bytes
          stats.Runtime.live_copy_bytes;
        if Option.fold ~none:true ~some:snd checksum then 0 else 1
      | Error e -> runtime_error e))

let run_cmd =
  let doc =
    "Execute a workload for real from an all-compressed image (the \
     executable implementation of the paper's section 5 scheme)."
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_real $ workload_opt_arg $ gen_arg
      $ settings
          Fleet.Settings.
            [ Row codec; Row k; Row retention; Row profile; Row line_size ]
      $ trace_out_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* ccomp analyze                                                       *)

let analyze workload codec =
  match scenario_of ~codec workload with
  | sc ->
    let g = sc.Core.Scenario.graph in
    let n = Cfg.Graph.num_blocks g in
    Format.printf "%a@.@." Core.Scenario.pp_summary sc;
    Format.printf "%a@.@." (Trace.Analysis.pp_summary ~blocks:n)
      sc.Core.Scenario.trace;
    let loops = Cfg.Loop.detect g in
    Format.printf "natural loops: %d@." (List.length loops);
    List.iter
      (fun l ->
        Format.printf "  header B%d, body {%s}@." l.Cfg.Loop.header
          (String.concat ", "
             (List.map (Printf.sprintf "B%d") l.Cfg.Loop.body)))
      loops;
    let profile = Core.Scenario.profile sc in
    Format.printf "hot blocks (95%% of visits): {%s}@.@."
      (String.concat ", "
         (List.map (Printf.sprintf "B%d")
            (Cfg.Profile.hot_blocks profile ~fraction:0.95)));
    let loop_k = Core.Adaptive.loop_aware g in
    let reuse_k = Core.Adaptive.reuse_aware g sc.Core.Scenario.trace in
    Format.printf "recommended per-block k (loop-aware / reuse-aware):@.";
    Array.iter
      (fun (b : Cfg.Graph.block) ->
        Format.printf "  B%-3d %3d / %3d  (%d visits)@." b.id (loop_k b.id)
          (reuse_k b.id)
          (Cfg.Profile.block_count profile b.id))
      (Cfg.Graph.blocks g);
    0
  | exception Invalid_argument msg -> error msg

let analyze_cmd =
  let doc =
    "Analyze a workload's access pattern: reuse distances, loops, hot \
     blocks and recommended k values."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const analyze $ workload_arg $ setting_value Fleet.Settings.codec)

(* ------------------------------------------------------------------ *)
(* ccomp serve                                                         *)

let serve socket tcp jobs queue max_conns cache_dir no_cache fuel timeout_ms
    idle_timeout max_buffer_kb =
  if socket = None && tcp = None then
    error "need --socket PATH and/or --tcp PORT"
  else
    match
      let lifecycle = Service.Lifecycle.create () in
      Service.Lifecycle.install_signal_handlers lifecycle;
      let config =
        {
          Service.Server.default_config with
          socket_path = socket;
          tcp_port = tcp;
          jobs;
          queue;
          max_conns;
          cache = fleet_cache ~no_cache ~cache_dir;
          fuel;
          timeout_ms;
          idle_timeout_s = Option.map float_of_int idle_timeout;
          max_buffer_bytes = max_buffer_kb * 1024;
        }
      in
      Service.Server.create ~lifecycle config
    with
    | server ->
      List.iter
        (fun e -> Format.printf "ccomp serve: listening on %s@." e)
        (Service.Server.endpoints server);
      Format.printf
        "ccomp serve: %d worker%s, queue %d, max %d connection%s, cache %s@."
        jobs
        (if jobs = 1 then "" else "s")
        queue max_conns
        (if max_conns = 1 then "" else "s")
        (match cache_dir with
        | Some d when not no_cache -> d
        | _ -> "off");
      Service.Server.run server;
      Format.printf "ccomp serve: drained@.";
      0
    | exception Invalid_argument msg | exception Sys_error msg -> error msg
    | exception Unix.Unix_error (e, fn, arg) -> unix_error e fn arg

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")

let tcp_arg =
  Arg.(
    value
    & opt (some (positive_int "port")) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"Loopback TCP port to listen on.")

let serve_cmd =
  let queue =
    Arg.(
      value
      & opt (bounded_int ~min:0 "queue") 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission queue depth on top of the executing requests; a \
             request arriving when jobs + queue are busy is rejected with \
             an 'overloaded' error and a retry hint.")
  in
  let max_conns =
    Arg.(
      value
      & opt (positive_int "max-conns") 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Maximum simultaneous client connections.")
  in
  let fuel =
    fuel_arg "Default per-request fuel cap (requests may only tighten it)."
  in
  let timeout_ms =
    timeout_arg "Default per-request deadline (requests may only tighten it)."
  in
  let idle_timeout =
    Arg.(
      value
      & opt (some (positive_int "idle-timeout")) None
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Drain and exit after this long with no connections and no \
             requests.")
  in
  let max_buffer_kb =
    Arg.(
      value
      & opt (bounded_int ~min:16 "max-buffer-kb") 4096
      & info [ "max-buffer-kb" ] ~docv:"KB"
          ~doc:
            "Per-connection write-buffer cap: a client that stops reading \
             while responses pile up past this is sent a 'slow_consumer' \
             error and disconnected (reads pause at half the cap).")
  in
  let doc =
    "Run the resident simulation daemon: a JSONL request/response \
     service over a Unix-domain socket (and/or loopback TCP) whose \
     requests share one worker pool, scenario memo and result cache. \
     Clients may pipeline requests; responses to heavy ops may arrive \
     out of order, re-associated by id. SIGTERM/SIGINT drain \
     gracefully; a second signal cancels in-flight work."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ socket_arg $ tcp_arg $ jobs_arg $ queue $ max_conns
      $ cache_dir_arg ~default:false
      $ no_cache_arg $ fuel $ timeout_ms $ idle_timeout $ max_buffer_kb)

(* ------------------------------------------------------------------ *)
(* ccomp call                                                          *)

let call_connect ~socket ~tcp =
  match (socket, tcp) with
  | Some path, _ ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  | None, Some port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    fd
  | None, None -> failwith "need --socket PATH or --tcp PORT"

(* Build the request object the same way the server parses it: only the
   fields this op consumes, so the line documents itself. *)
let call_request ~op ~workloads ~job ~ks ~fuel ~timeout_ms ~id =
  let open Service.Json in
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let guards =
    opt "timeout_ms" (fun v -> Int v) timeout_ms
    @ opt "fuel" (fun v -> Int v) fuel
  in
  let base =
    [
      ("v", Int Service.Wire.protocol_version);
      ("id", Int id);
      ("op", Str op);
    ]
  in
  let one_workload () =
    match workloads with
    | [ w ] -> w
    | [] -> failwith (op ^ " needs a WORKLOAD argument")
    | _ -> failwith (op ^ " takes exactly one WORKLOAD")
  in
  match op with
  | "health" | "stats" ->
    if workloads <> [] then failwith (op ^ " takes no WORKLOAD arguments");
    Obj base
  | "sim" ->
    let w = one_workload () in
    Obj
      (base
      @ (("workload", Str w) :: Service.Wire.settings_to_json (job ~scenario:w))
      @ guards)
  | "sweep" ->
    let ws =
      match workloads with
      | [] -> []
      | ws -> [ ("workloads", List (List.map (fun w -> Str w) ws)) ]
    in
    let ks =
      opt "ks" (fun vs -> List (List.map (fun v -> Int v) vs)) ks
    in
    let policy =
      Service.Wire.settings_to_json ~rows:Fleet.Settings.sweep_rows
        (job ~scenario:"")
    in
    Obj (base @ ws @ ks @ policy @ guards)
  | "compress" ->
    let w = one_workload () in
    let codec =
      match (job ~scenario:w).Fleet.Job.codec with
      | "code" -> []
      | codec -> [ ("codec", Str codec) ]
    in
    Obj (base @ [ ("workload", Str w) ] @ codec @ guards)
  | other ->
    failwith
      (Printf.sprintf
         "unknown op %S (expected health, stats, sim, sweep or compress; \
          use --raw for anything else)"
         other)

(* One reply on stdout/stderr; returns whether it was ok. *)
let print_reply ~compact reply =
  match Service.Wire.parse_response reply with
  | Error msg ->
    Format.eprintf "error: unparseable response (%s): %s@." msg reply;
    false
  | Ok (_id, Ok payload) ->
    print_endline
      (if compact then Service.Json.to_string payload
       else Service.Json.pretty payload);
    true
  | Ok (_id, Error e) ->
    Format.eprintf "error: %s: %s%s@." e.Service.Wire.code e.Service.Wire.msg
      (match e.Service.Wire.retry_after_ms with
      | Some ms -> Printf.sprintf " (retry after %dms)" ms
      | None -> "");
    false

let call socket tcp raw op_args job ks fuel timeout_ms id compact repeat
    pipeline =
  match
    let build i =
      match (raw, op_args) with
      | Some line, [] -> line
      | Some _, _ :: _ -> failwith "--raw and OP are mutually exclusive"
      | None, [] ->
        failwith "missing OP (health, stats, sim, sweep or compress)"
      | None, op :: workloads ->
        Service.Json.to_string
          (call_request ~op ~workloads ~job ~ks ~fuel ~timeout_ms
             ~id:(id + i))
    in
    let lines = Array.init repeat build in
    let window = min pipeline repeat in
    let fd = call_connect ~socket ~tcp in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let oc = Unix.out_channel_of_descr fd in
        let ic = Unix.in_channel_of_descr fd in
        let sent = ref 0 in
        let send_upto target =
          let target = min target repeat in
          if !sent < target then begin
            while !sent < target do
              output_string oc lines.(!sent);
              output_char oc '\n';
              incr sent
            done;
            flush oc
          end
        in
        send_upto window;
        let failures = ref 0 in
        let received = ref 0 in
        while !received < repeat do
          let reply = input_line ic in
          incr received;
          if not (print_reply ~compact reply) then incr failures;
          (* refill the pipeline once it half-drains *)
          if !sent < repeat && !sent - !received <= window / 2 then
            send_upto (!received + window)
        done;
        if !failures = 0 then 0 else 1)
  with
  | exception Failure msg -> error msg
  | exception End_of_file ->
    error "server closed the connection without replying"
  | exception Unix.Unix_error (e, fn, arg) -> unix_error e fn arg
  | code -> code

let call_cmd =
  let op_args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"OP [WORKLOAD..]"
          ~doc:
            "Operation (health, stats, sim, sweep or compress) followed by \
             its workload arguments.")
  in
  let raw =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~docv:"JSON"
          ~doc:"Send this exact request line instead of building one.")
  in
  let ks =
    Arg.(
      value
      & opt (some (list (positive_int "k"))) None
      & info [ "ks" ] ~docv:"K,K,..."
          ~doc:"Sweep k values (server default when omitted).")
  in
  let fuel = fuel_arg "Per-request fuel cap." in
  let timeout_ms = timeout_arg "Per-request deadline." in
  let id =
    Arg.(
      value
      & opt (positive_int "id") 1
      & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed by the server.")
  in
  let compact =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:"Print the reply as one line instead of pretty-printing.")
  in
  let repeat =
    Arg.(
      value
      & opt (positive_int "repeat") 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Send the request N times on one connection (ids ID..ID+N-1), \
             printing each reply as it arrives.")
  in
  let pipeline =
    Arg.(
      value
      & opt (positive_int "pipeline") 1
      & info [ "pipeline" ] ~docv:"N"
          ~doc:
            "With --repeat, keep up to N requests in flight instead of \
             waiting for each reply (heavy ops may answer out of order; \
             match replies by id).")
  in
  let doc =
    "Send a request to a running $(b,ccomp serve) daemon and \
     pretty-print the reply (or several, with --repeat/--pipeline). \
     Exits 0 when every reply is ok, 1 otherwise."
  in
  Cmd.v (Cmd.info "call" ~doc)
    Term.(
      const call $ socket_arg $ tcp_arg $ raw $ op_args
      $ settings Fleet.Settings.rows
      $ ks $ fuel $ timeout_ms $ id $ compact $ repeat $ pipeline)

(* ------------------------------------------------------------------ *)
(* ccomp bench-serve                                                   *)

let bench_serve clients requests pipeline tcp op smoke =
  let clients, requests, pipeline =
    if smoke then (2, 5_000, 32) else (clients, requests, pipeline)
  in
  match Service.Bench.run_load ~tcp ~op ~clients ~requests ~pipeline () with
  | exception Invalid_argument msg | exception Sys_error msg -> error msg
  | exception Unix.Unix_error (e, fn, arg) -> unix_error e fn arg
  | r ->
    Printf.printf
      "bench-serve: %d client%s x %d requests, pipeline %d, %s, op %s\n"
      r.Service.Bench.clients
      (if r.Service.Bench.clients = 1 then "" else "s")
      requests r.Service.Bench.pipeline
      (if tcp then "tcp" else "unix")
      op;
    Printf.printf
      "bench-serve: %d responses in %.3f s = %.0f req/s, p50 %.3f ms, p99 \
       %.3f ms, max %.3f ms, errors %d\n"
      r.Service.Bench.total r.Service.Bench.wall_s r.Service.Bench.req_per_s
      r.Service.Bench.p50_ms r.Service.Bench.p99_ms r.Service.Bench.max_ms
      r.Service.Bench.errors;
    if r.Service.Bench.errors = 0 then 0 else 1

let bench_serve_cmd =
  let clients =
    Arg.(
      value
      & opt (positive_int "clients") 4
      & info [ "clients" ] ~docv:"N"
          ~doc:"Concurrent load-generator clients (each its own domain).")
  in
  let requests =
    Arg.(
      value
      & opt (positive_int "requests") 25_000
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let pipeline =
    Arg.(
      value
      & opt (positive_int "pipeline") 32
      & info [ "pipeline" ] ~docv:"N"
          ~doc:"Requests each client keeps in flight.")
  in
  let tcp =
    Arg.(
      value & flag
      & info [ "tcp" ]
          ~doc:
            "Benchmark over an ephemeral loopback TCP port instead of a \
             Unix-domain socket.")
  in
  let op =
    Arg.(
      value
      & opt (enum [ ("health", "health"); ("stats", "stats") ]) "health"
      & info [ "op" ] ~docv:"OP"
          ~doc:"Request to hammer with: $(b,health) or $(b,stats).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Quick CI-sized run (2 clients x 5000 requests), overriding \
             --clients/--requests/--pipeline.")
  in
  let doc =
    "Load-test the service event loop: spin up an in-process daemon and \
     hammer it with pipelined requests from concurrent clients, \
     reporting throughput and latency quantiles."
  in
  Cmd.v (Cmd.info "bench-serve" ~doc)
    Term.(
      const bench_serve $ clients $ requests $ pipeline $ tcp $ op $ smoke)

(* ------------------------------------------------------------------ *)
(* ccomp cache                                                         *)

let cache_admin dir prune_to =
  match Fleet.Cache.open_dir dir with
  | exception Sys_error msg -> error msg
  | cache ->
    (match prune_to with
    | None -> ()
    | Some max_bytes ->
      let removed = Fleet.Cache.gc cache ~max_bytes in
      Printf.printf "evicted %d entr%s (%d bytes)\n"
        removed.Fleet.Cache.entries
        (if removed.Fleet.Cache.entries = 1 then "y" else "ies")
        removed.Fleet.Cache.bytes);
    let s = Fleet.Cache.stats cache in
    Printf.printf "cache %s: %d entr%s, %d bytes\n" dir s.Fleet.Cache.entries
      (if s.Fleet.Cache.entries = 1 then "y" else "ies")
      s.Fleet.Cache.bytes;
    0

let cache_cmd =
  let dir =
    Arg.(
      value
      & opt string Fleet.Cache.default_dir
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Cache directory (same default as the sweep commands).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print entry count and total bytes (the default action).")
  in
  let prune_to =
    Arg.(
      value
      & opt (some (bounded_int ~min:0 "prune-to")) None
      & info [ "prune-to" ] ~docv:"BYTES"
          ~doc:
            "Evict oldest entries first until at most $(docv) remain on \
             disk; 0 empties the cache.")
  in
  let doc =
    "Inspect or prune the content-addressed result cache shared by \
     sweep, experiments and serve."
  in
  Cmd.v (Cmd.info "cache" ~doc)
    Term.(
      const (fun dir _stats prune_to -> cache_admin dir prune_to)
      $ dir $ stats $ prune_to)

(* ------------------------------------------------------------------ *)
(* ccomp compress                                                      *)

(* Per-codec wall-clock throughput and ratio over assembled workload
   images, through Compress.Stats.throughput — the CLI answer to "how
   fast is decompression on this machine", next to the simulator's
   cycle-cost model. *)
(* `ccomp compress --list`: the registry contents, so --codec takers
   and the unknown-codec error have a discoverable source of truth. *)
let compress_list () =
  let t =
    Report.Table.create
      ~title:
        "registered codecs (--codec also takes 'code': the positional \
         shared-Huffman model trained on the workload itself)"
      ~columns:
        [
          ("codec", Report.Table.Left);
          ("dec cycles/B", Report.Table.Right);
          ("comp cycles/B", Report.Table.Right);
        ]
  in
  List.iter
    (fun (c : Compress.Codec.t) ->
      Report.Table.add_row t
        [
          c.name;
          string_of_int c.dec_cycles_per_byte;
          string_of_int c.comp_cycles_per_byte;
        ])
    (Compress.Registry.all ());
  Report.Table.print t;
  0

let compress_report list_only workloads min_time_ms =
  if list_only then compress_list ()
  else
  let names =
    match workloads with [] -> Workloads.Suite.names | ws -> ws
  in
  match
    List.find_opt
      (fun n -> not (List.mem n Workloads.Suite.names))
      names
  with
  | Some bad ->
    error (Printf.sprintf "unknown workload %S (try: ccomp workloads)" bad)
  | None ->
    let images =
      List.map
        (fun name ->
          let w = Workloads.Suite.find_exn name in
          (Eris.Asm.assemble_exn w.Workloads.Common.source).Eris.Program.image)
        names
    in
    let corpus = Bytes.concat Bytes.empty images in
    let codecs =
      Compress.Registry.all () @ Compress.Registry.shared_all ~corpus
    in
    let total = List.fold_left (fun a b -> a + Bytes.length b) 0 images in
    let t =
      Report.Table.create
        ~title:
          (Printf.sprintf
             "codec throughput: %d workload image%s, %d bytes total (MiB/s \
              of uncompressed bytes; shared models trained on the same \
              images)"
             (List.length images)
             (if List.length images = 1 then "" else "s")
             total)
        ~columns:
          [
            ("codec", Report.Table.Left);
            ("comp MiB/s", Report.Table.Right);
            ("dec MiB/s", Report.Table.Right);
            ("ratio", Report.Table.Right);
          ]
    in
    List.iter
      (fun codec ->
        let tp =
          Compress.Stats.throughput
            ~min_time_s:(float_of_int min_time_ms /. 1000.0)
            codec images
        in
        Report.Table.add_row t
          [
            tp.Compress.Stats.tp_codec_name;
            Report.Table.fmt_float ~decimals:1 tp.Compress.Stats.comp_mbps;
            Report.Table.fmt_float ~decimals:1 tp.Compress.Stats.dec_mbps;
            Report.Table.fmt_float ~decimals:3 tp.Compress.Stats.tp_ratio;
          ])
      codecs;
    Report.Table.print t;
    0

let compress_cmd =
  let workloads =
    let doc =
      Printf.sprintf
        "Workloads whose images to measure (default: the whole suite; one \
         of: %s)."
        (String.concat ", " Workloads.Suite.names)
    in
    Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD" ~doc)
  in
  let min_time =
    Arg.(
      value
      & opt (positive_int "min-time") 50
      & info [ "min-time" ] ~docv:"MS"
          ~doc:"Minimum wall-clock time per codec per direction.")
  in
  let list_only =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:
            "List the registered codecs (with their modeled cycle costs) \
             and exit without measuring anything.")
  in
  let doc =
    "Measure per-codec compress/decompress throughput and ratio on \
     workload images."
  in
  Cmd.v (Cmd.info "compress" ~doc)
    Term.(const compress_report $ list_only $ workloads $ min_time)

(* ------------------------------------------------------------------ *)
(* ccomp gen                                                           *)

let gen_describe spec_str =
  match Corpus.Spec.of_string spec_str with
  | Error msg -> error msg
  | Ok spec ->
    let bt = Corpus.Gen.build spec in
    Format.printf
      "@[<v>spec: %s@,\
       blocks: %d (%d hot)@,\
       image: %dB@,\
       trace: %d visits@,\
       measured skew: %.3f@,\
       image md5: %s@,\
       trace md5: %s@]@."
      (Corpus.Spec.to_string bt.Corpus.Gen.spec)
      (Cfg.Graph.num_blocks bt.Corpus.Gen.graph)
      bt.Corpus.Gen.hot_blocks
      (Eris.Program.byte_size bt.Corpus.Gen.program)
      (Array.length bt.Corpus.Gen.trace)
      bt.Corpus.Gen.measured_skew (Corpus.Gen.image_md5 bt)
      (Corpus.Gen.trace_md5 bt);
    0

let gen_cmd =
  let spec =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC" ~doc:"A gen: generator spec.")
  in
  let doc =
    "Generate a synthetic program from a gen: spec and print its canonical \
     spec, shape and content digests (equal specs print identical digests in \
     any process — the determinism contract)."
  in
  Cmd.v (Cmd.info "gen" ~doc) Term.(const gen_describe $ spec)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc =
    "access pattern-based code compression for memory-constrained embedded \
     systems (DATE 2005 reproduction)"
  in
  Cmd.group
    (Cmd.info "ccomp" ~version:"1.0.0" ~doc)
    [
      sim_cmd;
      gen_cmd;
      cc_cmd;
      compress_cmd;
      run_cmd;
      sweep_cmd;
      experiments_cmd;
      workloads_cmd;
      asm_cmd;
      trace_cmd;
      analyze_cmd;
      serve_cmd;
      call_cmd;
      bench_serve_cmd;
      cache_cmd;
    ]

(* Back-compat shim: `ccomp trace WORKLOAD ...` predates the
   convert/info subcommands; route any non-subcommand first token
   through the explicit `gen` subcommand. *)
let () =
  let argv = Sys.argv in
  let argv =
    if
      Array.length argv > 2
      && argv.(1) = "trace"
      &&
      match argv.(2) with
      | "gen" | "convert" | "info" -> false
      | s -> String.length s > 0 && s.[0] <> '-'
    then
      Array.concat
        [
          [| argv.(0); "trace"; "gen" |];
          Array.sub argv 2 (Array.length argv - 2);
        ]
    else argv
  in
  exit (Cmd.eval' ~argv main_cmd)
