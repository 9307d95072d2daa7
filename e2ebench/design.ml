(* design-space: the paper's Fig. 3 policy space swept over generated
   programs by the fleet, two worker domains, no result cache.

   Set-up builds 4 shape families x 2 seeds of [gen:] programs and
   compresses their images, so codecs run only there. One pass is one
   Fleet.Sweep.run over 96 policies per program: every strategy, both
   compression modes, with and without a budget of a third of the
   image, three retention policies and two k. Only the on-demand,
   discard, unbudgeted k-edge jobs (2 of 96) take the engine's fast
   path; the rest take the general one. *)

(* The four shape families of the corpus experiment, each with the
   rounds that give it about 4,400 trace steps, so every family weighs
   about the same and a seed's programs cost about what another's do. *)
let families =
  [
    "gen:depth=4,fanout=2,blocks=geo:14,calls=0,skew=0.95,cold=8,rounds=25";
    "gen:depth=1,fanout=6,blocks=bim:4-40,calls=0,skew=0.7,cold=12,rounds=100";
    "gen:depth=2,fanout=2,blocks=geo:10,calls=4,skew=0.85,cold=6,rounds=65";
    "gen:depth=1,fanout=1,blocks=uni:8-24,calls=1,skew=0.55,cold=24,rounds=79";
  ]

let seeds_per_family = 2
let jobs = 2

let strategies =
  Fleet.Job.
    [
      On_demand;
      Pre_all { lookahead = 4 };
      Pre_single { lookahead = 2; predictor = "profile" };
      Pre_single { lookahead = 2; predictor = "last-taken" };
    ]

(* [per_family] programs of each family for [seed]. *)
let specs ~seed ~per_family =
  List.concat_map
    (fun base ->
      List.init per_family (fun j ->
          { (Corpus.Spec.of_string_exn base) with Corpus.Spec.seed = (seed * per_family) + j + 1 }))
    families

(* Corpus.Gen.scenario, split so the generator and the codec are timed
   apart. *)
let scenario spec =
  let b = Spans.with_ "corpus.build" (fun () -> Corpus.Gen.build spec) in
  let codec = Spans.code_codec b.Corpus.Gen.program.Eris.Program.image in
  {
    Core.Scenario.name = Corpus.Spec.to_string spec;
    graph = b.graph;
    info = Core.Engine.info_of_program ~codec b.program b.graph;
    trace = b.trace;
    codec;
    program = Some b.program;
  }

type setup = {
  scenarios : (string, Core.Scenario.t) Hashtbl.t;
  jobs : Fleet.Job.t list;
}

let setup ~seed () =
  let scenarios = Hashtbl.create 8 in
  let jobs =
    List.concat_map
      (fun spec ->
        let sc = scenario spec in
        Hashtbl.replace scenarios sc.name sc;
        let image = Array.fold_left (fun a i -> a + i.Core.Engine.uncompressed_bytes) 0 sc.info in
        Fleet.Sweep.matrix ~scenarios:[ sc.name ] ~ks:[ 4; 16 ] ~strategies
          ~modes:[ Fleet.Job.Discard; Recompress ]
          ~budgets:[ None; Some (max 1 (image / 3)) ]
          ~retentions:[ Kedge; Clock; Loop_aware { weight = 4 } ]
          ())
      (specs ~seed ~per_family:seeds_per_family)
  in
  { scenarios; jobs }

let fast_path (j : Fleet.Job.t) =
  j.strategy = On_demand && j.mode = Discard && j.budget = None && j.retention = Kedge

let strategy_name : Fleet.Job.strategy -> string = function
  | On_demand -> "on_demand"
  | Pre_all _ -> "pre_all"
  | Pre_single { predictor = "profile"; _ } -> "pre_single_profile"
  | Pre_single _ -> "pre_single_last"

(* Each policy axis against its default, for the marginal rates. *)
let axes =
  [
    ("recompress", fun (j : Fleet.Job.t) -> j.mode = Recompress);
    ("budget", fun (j : Fleet.Job.t) -> j.budget <> None);
    ("clock", fun (j : Fleet.Job.t) -> j.retention = Clock);
    ("loop_aware", fun (j : Fleet.Job.t) -> match j.retention with Loop_aware _ -> true | _ -> false);
  ]

(* Traced only: the job list again through Fleet.Job.execute at one
   job at a time, in a seeded order, so engine time is attributable
   per policy; stops after [seconds]. Returns (job, steps, s, words). *)
let attribute st ~seed ~seconds =
  let order = Stat.shuffle (Random.State.make [| seed |]) (Array.of_list st.jobs) in
  let runs = ref [] in
  let stop = Stat.now () +. seconds in
  Array.iteri
    (fun i (j : Fleet.Job.t) ->
      if Stat.now () < stop then begin
        let sc = Hashtbl.find st.scenarios j.scenario in
        let a0 = Stat.alloc_words () in
        let _, dt = Stat.time (fun () -> Spans.with_ ~req:i "fleet.job" (fun () -> Fleet.Job.execute sc j)) in
        runs := (j, Array.length sc.trace, dt, Stat.alloc_words () -. a0) :: !runs
      end)
    order;
  !runs

let run ~seed ~seconds ~setups =
  let setup_s, st = Outcome.repeat_setup setups (setup ~seed) in
  let resolve ~scenario ~codec:_ = Hashtbl.find st.scenarios scenario in
  let njobs = List.length st.jobs in
  let first = ref [||] in
  let pass_s = ref [] and gaps = ref [] and failed = ref 0 and attempted = ref 0 in
  let rss = Stat.rss_sampler () and completed = ref 0 in
  Outcome.until ~seconds (fun i ->
      (* Each worker's time between completions is one job's latency;
         progress runs under the sweep's own mutex. *)
      let t0 = Stat.now () in
      let last = Hashtbl.create 4 in
      let progress _ =
        let t = Stat.now () and d = (Domain.self () :> int) in
        gaps := (t -. Option.value ~default:t0 (Hashtbl.find_opt last d)) :: !gaps;
        Hashtbl.replace last d t;
        incr completed;
        if !completed mod 32 = 0 then Stat.sample rss
      in
      let outcomes =
        Spans.with_ ~req:i "fleet.sweep" (fun () -> Fleet.Sweep.run ~jobs ~progress ~resolve st.jobs)
      in
      pass_s := (Stat.now () -. t0) :: !pass_s;
      let results = Array.of_list (List.map (fun (o : Fleet.Sweep.outcome) -> o.result) outcomes) in
      if i = 0 then first := results;
      attempted := !attempted + njobs;
      Array.iteri
        (fun j r ->
          match r with
          | Ok m when Stat.metrics_consistent m && r = !first.(j) -> ()
          | _ -> incr failed)
        results);
  let pass_s = Array.of_list (List.rev !pass_s) in
  let layers () =
    let runs = attribute st ~seed ~seconds:(seconds /. 2.0) in
    let rate p =
      let steps, s =
        List.fold_left
          (fun (n, t) (j, steps, dt, _) -> if p j then (n + steps, t +. dt) else (n, t))
          (0, 0.0) runs
      in
      Stat.ratio (float_of_int steps) s
    in
    let total_s = List.fold_left (fun t (_, _, dt, _) -> t +. dt) 0.0 runs in
    let share name =
      List.fold_left (fun t ((j : Fleet.Job.t), _, dt, _) -> if strategy_name j.strategy = name then t +. dt else t) 0.0 runs
    in
    let general = List.filter (fun (j, _, _, _) -> not (fast_path j)) runs in
    let gen_steps, gen_words =
      List.fold_left (fun (n, w) (_, steps, _, words) -> (n + steps, w +. words)) (0, 0.0) general
    in
    let strategies = List.map strategy_name strategies in
    [
      ("engine.general.steps_per_s", rate (fun j -> not (fast_path j)));
      ("engine.general.alloc_words_per_step", Stat.ratio gen_words (float_of_int gen_steps));
      ( "fleet.pool_efficiency",
        Stat.ratio
          (total_s /. float_of_int (List.length runs) *. float_of_int njobs)
          (Stat.median pass_s *. float_of_int jobs) );
      ("corpus.programs_per_s", Stat.ratio (float_of_int (Spans.count "corpus.build")) (Spans.total_s "corpus.build"));
      ("corpus.setup_share_pct", 100.0 *. Stat.ratio (Spans.total_s "corpus.build") (Stat.sum setup_s));
      ( "compress.comp_MBps",
        Stat.ratio (float_of_int Spans.codec.comp_bytes /. 1e6) Spans.codec.comp_s );
    ]
    @ List.map (fun s -> (Printf.sprintf "engine.%s.steps_per_s" s, rate (fun j -> strategy_name j.strategy = s))) strategies
    @ List.map (fun (a, p) -> (Printf.sprintf "engine.%s.steps_per_s" a, rate p)) axes
    @ List.map
        (fun s -> (Printf.sprintf "engine.%s.time_share_pct" s, 100.0 *. Stat.ratio (share s) total_s))
        strategies
  in
  {
    Outcome.setup_s;
    work = float_of_int (njobs * Array.length pass_s);
    busy_s = Stat.sum pass_s;
    rates = Array.map (fun s -> float_of_int njobs /. s) pass_s;
    op_ms = Array.of_list (List.map (fun s -> s *. 1000.0) !gaps);
    attempted = !attempted;
    failed = !failed;
    digest = Stat.digest_metrics (List.filter_map Result.to_option (Array.to_list !first));
    rss_mb = Stat.rss_median rss;
    layers = (if !Spans.enabled then layers () else []);
  }
