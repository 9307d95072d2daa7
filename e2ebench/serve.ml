(* serve-mixed: the daemon through its socket, under open-loop load.

   A server subprocess (this executable in --serve-child mode, which
   does what [ccomp serve --jobs 1 --cache-dir DIR] does) starts with an
   empty result cache; set-up also warms its scenario memo. One thread
   here drives two connections on a fixed schedule: 40 sim requests/s
   over 288 keys (24 [gen:] programs x 4 policies x 3 k) with Zipf(1)
   popularity, and 1000 light requests/s, 9 health to 1 stats. Each
   request is timed from when it was due, so a stall also charges the
   requests queued behind it. Only this workload passes through the
   wire, the event loop, admission and the result cache; heavy and
   light requests share one loop, so a change that helps one and hurts
   the other shows. One worker, because two would oversubscribe a
   2-core machine shared with this generator. *)

module Json = Service.Json

let specs_per_family = 6
let ks = [ 2; 8; 32 ]
let sim_rate = 40.0
let light_rate = 1000.0

let policies =
  Fleet.Job.
    [
      (On_demand, Kedge);
      (On_demand, Clock);
      (Pre_all { lookahead = 4 }, Kedge);
      (Pre_single { lookahead = 2; predictor = "profile" }, Kedge);
    ]

let keys ~seed =
  Array.of_list
    (List.concat_map
       (fun spec ->
         List.concat_map
           (fun (strategy, retention) ->
             List.map
               (fun k ->
                 Fleet.Job.make ~strategy ~retention ~scenario:(Corpus.Spec.to_string spec) ~k ())
               ks)
           policies)
       (Design.specs ~seed ~per_family:specs_per_family))

(* Key indices drawn Zipf(1) over popularity ranks. The permutation
   is stratified: rank r belongs to stratum r mod 16 (policy x shape
   family), and the seed orders each stratum's 18 keys (6 programs x 3
   k). So the popular head has the same cost mix for every seed and
   the latency quantiles do not hang on which keys the seed made
   popular. *)
let schedule ~seed n =
  let rng = Random.State.make [| seed; 1 |] in
  let npol = List.length policies and nfam = List.length Design.families and ks = List.length ks in
  let strata =
    Array.init (npol * nfam) (fun s ->
        let pol = s mod npol and fam = s / npol in
        Stat.shuffle rng
          (Array.init (specs_per_family * ks) (fun v ->
               let spec = (fam * specs_per_family) + (v / ks) in
               (((spec * npol) + pol) * ks) + (v mod ks))))
  in
  let nkeys = Array.length strata * specs_per_family * ks in
  let perm = Array.init nkeys (fun r -> strata.(r mod Array.length strata).(r / Array.length strata)) in
  let cdf = Array.make nkeys 0.0 in
  for r = 0 to nkeys - 1 do
    cdf.(r) <- (if r = 0 then 0.0 else cdf.(r - 1)) +. (1.0 /. float_of_int (r + 1))
  done;
  (* Latin-hypercube draws: draw i takes a random point of its own
     1/n-th of the distribution, in seeded order, so every run draws
     each rank about its expected number of times *)
  let slots = Stat.shuffle rng (Array.init n Fun.id) in
  Array.init n (fun i ->
      let u = (float_of_int slots.(i) +. Random.State.float rng 1.0) /. float_of_int n *. cdf.(nkeys - 1) in
      let rec find lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cdf.(mid) < u then find (mid + 1) hi else find lo mid
      in
      perm.(find 0 (nkeys - 1)))

(* ------------------------------------------------------------------ *)
(* The server subprocess                                                *)

(* Sockets and caches live in the working tree, by relative path. *)
let tmp_dir = ".bench_tmp"

let serve_child socket cache =
  let lifecycle = Service.Lifecycle.create () in
  Service.Lifecycle.install_signal_handlers lifecycle;
  Service.Server.run
    (Service.Server.create ~lifecycle
       {
         Service.Server.default_config with
         socket_path = Some socket;
         jobs = 1;
         cache = Some (Fleet.Cache.open_dir cache);
         (* an orphaned server drains by itself *)
         idle_timeout_s = Some 30.0;
       })

type server = { pid : int; socket : string; cache : string }

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  remove_tree s.cache;
  remove_tree s.socket;
  try Sys.rmdir tmp_dir with Sys_error _ -> ()

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let started = ref 0

(* Spawns a server and waits until it accepts a connection. *)
let start () =
  if not (Sys.file_exists tmp_dir) then Sys.mkdir tmp_dir 0o755;
  incr started;
  let base = Filename.concat tmp_dir (Printf.sprintf "%d-%d" (Unix.getpid ()) !started) in
  let socket = base ^ ".sock" and cache = base ^ ".cache" in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve-child"; socket; cache |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let s = { pid; socket; cache } in
  let deadline = Stat.now () +. 30.0 in
  let rec wait () =
    match connect socket with
    | Some fd -> Unix.close fd
    | None ->
      if Stat.now () > deadline then begin
        stop s;
        failwith "serve-mixed: the server did not start"
      end;
      Unix.sleepf 0.002;
      wait ()
  in
  wait ();
  s

(* ------------------------------------------------------------------ *)
(* The load generator                                                   *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let open_conn s =
  match connect s.socket with
  | Some fd -> { fd; pending = Buffer.create 65536; chunk = Bytes.create 65536 }
  | None -> failwith "serve-mixed: cannot connect"

let send c line =
  let s = line ^ "\n" in
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring c.fd s !off (String.length s - !off)
  done

(* The complete reply lines that arrived. *)
let receive c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "serve-mixed: the server closed the connection"
  | n ->
    Buffer.add_subbytes c.pending c.chunk 0 n;
    let rest, complete =
      match List.rev (String.split_on_char '\n' (Buffer.contents c.pending)) with
      | rest :: complete -> (rest, List.rev complete)
      | [] -> ("", [])
    in
    Buffer.clear c.pending;
    Buffer.add_string c.pending rest;
    complete

type request = {
  due : float;
  mutable sent : float;
  mutable replied : float;  (* 0 until the reply arrives *)
  mutable payload : Json.t option;  (* the "ok" payload *)
}

let request op id fields =
  Json.to_string (Json.Obj (("op", Json.Str op) :: ("id", Json.Int id) :: fields))

let light_op j = if j mod 10 = 9 then "stats" else "health"

(* Drives both connections until every request is sent and answered,
   or 30 s after the last was sent, sampling the server's resident set
   every 100 ms. Returns the largest number of sim requests
   outstanding at once. *)
let drive ~sim_lines ~light_lines ~server ~rss sim light =
  let t0 = Stat.now () +. 0.01 in
  let table rate lines =
    Array.mapi
      (fun i _ -> { due = t0 +. (float_of_int i /. rate); sent = 0.0; replied = 0.0; payload = None })
      lines
  in
  let sims = table sim_rate sim_lines and lights = table light_rate light_lines in
  let next_sim = ref 0 and next_light = ref 0 in
  let open_sims = ref 0 and open_lights = ref 0 and backlog = ref 0 in
  let settle reqs counter lines =
    List.iter
      (fun line ->
        match Service.Wire.parse_response line with
        | Ok (Json.Int id, result) when id >= 0 && id < Array.length reqs ->
          let r = reqs.(id) in
          r.replied <- Stat.now ();
          r.payload <- Result.to_option result;
          decr counter
        | _ -> ())
      lines
  in
  let send_due reqs lines next counter conn =
    let now = Stat.now () in
    while !next < Array.length reqs && reqs.(!next).due <= now do
      send conn lines.(!next);
      reqs.(!next).sent <- Stat.now ();
      incr next;
      incr counter
    done
  in
  let give_up = ref infinity and next_sample = ref t0 in
  while
    (!next_sim < Array.length sims || !next_light < Array.length lights || !open_sims + !open_lights > 0)
    && Stat.now () < !give_up
  do
    send_due sims sim_lines next_sim open_sims sim;
    send_due lights light_lines next_light open_lights light;
    backlog := max !backlog !open_sims;
    if Stat.now () >= !next_sample then begin
      Stat.sample ~pid:server.pid rss;
      next_sample := !next_sample +. 0.1
    end;
    let next_due =
      Float.min
        (if !next_sim < Array.length sims then sims.(!next_sim).due else infinity)
        (if !next_light < Array.length lights then lights.(!next_light).due else infinity)
    in
    if next_due = infinity && !give_up = infinity then give_up := Stat.now () +. 30.0;
    let timeout = Float.max 0.0 (Float.min 0.1 (next_due -. Stat.now ())) in
    match Unix.select [ sim.fd; light.fd ] [] [] timeout with
    | ready, _, _ ->
      if List.mem sim.fd ready then settle sims open_sims (receive sim);
      if List.mem light.fd ready then settle lights open_lights (receive light)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (sims, lights, !backlog)

(* One request answered synchronously, once the load is over. *)
let call c line =
  send c line;
  let rec wait () = match receive c with [] -> wait () | reply :: _ -> reply in
  match Service.Wire.parse_response (wait ()) with
  | Ok (_, Ok payload) -> Some payload
  | _ -> None

let field name conv payload = Option.bind payload (fun p -> Option.bind (Json.member name p) conv)

(* Part of set-up: one cheap [compress] request per program builds the
   server's scenario memo, so a cold key costs an engine run, not a
   program build holding the runtime lock under live traffic. The
   result cache stays empty. *)
let warm s programs =
  let c = open_conn s in
  Fun.protect
    ~finally:(fun () -> Unix.close c.fd)
    (fun () ->
      List.iteri
        (fun i p -> send c (request "compress" i [ ("workload", Json.Str p); ("codec", Json.Str "null") ]))
        programs;
      let rec await n =
        if n > 0 then
          await
            (List.fold_left
               (fun n line ->
                 match Service.Wire.parse_response line with
                 | Ok (_, Ok _) -> n - 1
                 | _ -> failwith "serve-mixed: warming the server failed")
               n (receive c))
      in
      await (List.length programs))

(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~setups =
  (* a server that dies shows as a failed write, not a dead generator *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let keys = keys ~seed in
  let order = schedule ~seed (int_of_float (seconds *. sim_rate)) in
  let sim_lines =
    Array.mapi
      (fun i key ->
        match Service.Wire.job_to_json keys.(key) with
        | Json.Obj fields -> request "sim" i fields
        | _ -> assert false)
      order
  in
  let light_lines = Array.init (int_of_float (seconds *. light_rate)) (fun j -> request (light_op j) j []) in
  let programs = List.sort_uniq compare (Array.to_list (Array.map (fun (j : Fleet.Job.t) -> j.scenario) keys)) in
  let setup () =
    let s = start () in
    match warm s programs with
    | () -> s
    | exception e ->
      stop s;
      raise e
  in
  let setup_s, server = Outcome.repeat_setup ~dispose:stop setups setup in
  let rss = Stat.rss_sampler () in
  let sims, lights, backlog, quiet =
    Fun.protect
      ~finally:(fun () -> stop server)
      (fun () ->
        let sim = open_conn server and light = open_conn server in
        Fun.protect
          ~finally:(fun () ->
            Unix.close sim.fd;
            Unix.close light.fd)
          (fun () ->
            let sims, lights, backlog = drive ~sim_lines ~light_lines ~server ~rss sim light in
            (* the daemon's counters return to zero once traffic stops *)
            let health = call light (request "health" (-1) []) in
            let stats = call light (request "stats" (-2) []) in
            let quiet =
              field "in_flight" Json.to_int health = Some 0
              && field "queue_depth" Json.to_int stats = Some 0
            in
            (sims, lights, backlog, quiet)))
  in
  (* The reference: every distinct key once, through the library. *)
  let scenarios = Hashtbl.create 32 and direct = Hashtbl.create 256 in
  let first_seen = ref [] in
  Array.iteri
    (fun i key ->
      if not (Hashtbl.mem direct key) then begin
        let j = keys.(key) in
        if not (Hashtbl.mem scenarios j.Fleet.Job.scenario) then
          Hashtbl.replace scenarios j.scenario
            (Spans.with_ ~req:i "corpus.resolve" (fun () ->
                 Corpus.Resolve.scenario ~lookup:invalid_arg j.scenario));
        let sc = Hashtbl.find scenarios j.scenario in
        let m, exec_s =
          Stat.time (fun () -> Spans.with_ ~req:i "fleet.job" (fun () -> Fleet.Job.execute sc j))
        in
        Hashtbl.replace direct key (m, exec_s);
        first_seen := key :: !first_seen
      end)
    order;
  let expected key =
    Json.parse (Json.to_string (Service.Wire.metrics_to_json (fst (Hashtbl.find direct key))))
  in
  let answered r = r.replied > 0.0 in
  let sim_ok i r =
    answered r
    && match field "metrics" Option.some r.payload with
       | Some m -> expected order.(i) = Ok m
       | None -> false
  in
  let count p a = Array.fold_left (fun n x -> if p x then n + 1 else n) 0 a in
  let failed =
    count not (Array.mapi sim_ok sims)
    + count (fun r -> r.payload = None) lights
    + if quiet then 0 else 1
  in
  let lat r = (r.replied -. r.due) *. 1000.0 in
  (* latency less [base] of each answered request that satisfies [p] *)
  let latencies ?(base = fun _ -> 0.0) p reqs =
    let acc = ref [] in
    Array.iteri (fun i r -> if answered r && p i r then acc := (lat r -. base i) :: !acc) reqs;
    Array.of_list !acc
  in
  let all_sims = latencies (fun _ _ -> true) sims in
  let done_ = Array.length all_sims + count answered lights in
  (* from the first request's due time to the last reply: a server
     that falls behind stretches it *)
  let span =
    Array.fold_left (fun t r -> Float.max t r.replied) 0.0 (Array.append sims lights)
    -. Float.min sims.(0).due lights.(0).due
  in
  Array.iteri (fun i r -> if answered r then Spans.add ~req:i "service.sim" ~start:r.due ~stop:r.replied) sims;
  Array.iteri
    (fun j r -> if answered r then Spans.add ~req:j ("service." ^ light_op j) ~start:r.due ~stop:r.replied)
    lights;
  let layers () =
    let cached r = field "cached" Json.to_bool r.payload = Some true in
    let hits = latencies (fun _ r -> cached r) sims in
    let misses = latencies (fun _ r -> not (cached r)) sims in
    (* a miss's latency less the library's own time for the same run *)
    let overhead =
      latencies ~base:(fun i -> snd (Hashtbl.find direct order.(i)) *. 1000.0) (fun _ r -> not (cached r)) sims
    in
    let light = latencies (fun _ _ -> true) lights in
    let lags = Array.map (fun r -> (r.sent -. r.due) *. 1000.0) (Array.append sims lights) in
    [
      ("fleet.cache_hit_ratio", Stat.ratio (float_of_int (Array.length hits)) (float_of_int (Array.length all_sims)));
      ("fleet.hit_p50_ms", Stat.median hits);
      ("service.sim_p99_ms", Stat.quantile all_sims 0.99);
      ("service.miss_p50_ms", Stat.median misses);
      ("service.miss_p99_ms", Stat.quantile misses 0.99);
      ("service.overhead_ms", Stat.median overhead);
      ("service.backlog_max", float_of_int backlog);
      ("service.light_p50_ms", Stat.median light);
      ("service.light_p90_ms", Stat.quantile light 0.9);
      ("service.light_p99_ms", Stat.quantile light 0.99);
      ("service.light_p999_ms", Stat.quantile light 0.999);
      ("service.health_p50_ms", Stat.median (latencies (fun j _ -> light_op j = "health") lights));
      ("service.stats_p50_ms", Stat.median (latencies (fun j _ -> light_op j = "stats") lights));
      ("generator.lag_max_ms", Array.fold_left Float.max 0.0 lags);
      ("generator.lag_p99_ms", Stat.quantile lags 0.99);
      ( "corpus.programs_per_s",
        Stat.ratio (float_of_int (Spans.count "corpus.resolve")) (Spans.total_s "corpus.resolve") );
    ]
  in
  {
    Outcome.setup_s;
    work = float_of_int done_;
    busy_s = span;
    rates = [| float_of_int done_ /. span |];
    op_ms = all_sims;
    attempted = Array.length sims + Array.length lights + 1;
    failed;
    digest = Stat.digest_metrics (List.rev_map (fun key -> fst (Hashtbl.find direct key)) !first_seen);
    rss_mb = Stat.rss_median rss;
    layers = (if !Spans.enabled then layers () else []);
  }
