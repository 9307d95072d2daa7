type t = {
  registry : Sim.Metrics.t;
  mutable ops_seen : string list;  (* registration order *)
  mutable reject_codes : string list;
  (* preregistered cells for the zero-alloc health path: bumping these
     allocates no label lists and no hashtable probes *)
  health_count : Sim.Metrics.counter;
  health_latency : Sim.Metrics.histogram;
}

(* Sub-millisecond to half a minute; service latencies outside this
   band land in +Inf and still report max/mean exactly. *)
let latency_buckets_ms =
  [ 1; 2; 5; 10; 25; 50; 100; 250; 500; 1000; 2500; 5000; 10000; 30000 ]

let latency_of registry ~op =
  Sim.Metrics.histogram registry ~labels:[ ("op", op) ]
    ~buckets:latency_buckets_ms "service_latency_ms"

let create () =
  let registry = Sim.Metrics.create () in
  {
    registry;
    ops_seen = [ "health"; "stats" ];
    reject_codes = [];
    health_count =
      Sim.Metrics.counter registry
        ~labels:[ ("op", "health"); ("status", "ok") ]
        "service_requests_total";
    health_latency = latency_of registry ~op:"health";
  }

let latency t ~op = latency_of t.registry ~op

let record t ~op ~ok ~elapsed_ms =
  if not (List.mem op t.ops_seen) then t.ops_seen <- t.ops_seen @ [ op ];
  let status = if ok then "ok" else "error" in
  Sim.Metrics.incr
    (Sim.Metrics.counter t.registry
       ~labels:[ ("op", op); ("status", status) ]
       "service_requests_total");
  Sim.Metrics.observe (latency t ~op)
    (max 0 (int_of_float (Float.round elapsed_ms)))

let record_health t =
  Sim.Metrics.incr t.health_count;
  Sim.Metrics.observe t.health_latency 0

let reject t ~code =
  if not (List.mem code t.reject_codes) then
    t.reject_codes <- t.reject_codes @ [ code ];
  Sim.Metrics.incr
    (Sim.Metrics.counter t.registry
       ~labels:[ ("code", code) ]
       "service_rejections_total")

let connection t event =
  let name =
    match event with
    | `Opened -> "service_connections_opened"
    | `Closed -> "service_connections_closed"
    | `Refused -> "service_connections_refused"
  in
  Sim.Metrics.incr (Sim.Metrics.counter t.registry name)

let queue_depth t depth =
  Sim.Metrics.set (Sim.Metrics.counter t.registry "service_queue_depth") depth

let absorb_fleet t other =
  List.iter
    (fun name ->
      let v = Sim.Metrics.value (Sim.Metrics.counter other name) in
      if v > 0 then Sim.Metrics.incr ~by:v (Sim.Metrics.counter t.registry name)
      else ignore (Sim.Metrics.counter t.registry name))
    Fleet.Sweep.counter_names

let stats_json t =
  let counter ?labels name =
    Sim.Metrics.value (Sim.Metrics.counter t.registry ?labels name)
  in
  let per_op op =
    let h = latency t ~op in
    let ok =
      counter ~labels:[ ("op", op); ("status", "ok") ] "service_requests_total"
    in
    let errors =
      counter ~labels:[ ("op", op); ("status", "error") ] "service_requests_total"
    in
    ( op,
      Json.Obj
        [
          ("count", Json.Int (Sim.Metrics.observations h));
          ("ok", Json.Int ok);
          ("error", Json.Int errors);
          ("mean_ms", Json.Float (Sim.Metrics.mean h));
          ("p50_ms", Json.Float (Sim.Metrics.quantile h 0.5));
          ("p90_ms", Json.Float (Sim.Metrics.quantile h 0.9));
          ("max_ms", Json.Int (Sim.Metrics.max_value h));
        ] )
  in
  let rejections =
    List.map
      (fun code ->
        ( code,
          Json.Int (counter ~labels:[ ("code", code) ] "service_rejections_total")
        ))
      t.reject_codes
  in
  let fleet =
    List.map (fun name -> (name, Json.Int (counter name))) Fleet.Sweep.counter_names
  in
  Json.Obj
    [
      ("ops", Json.Obj (List.map per_op t.ops_seen));
      ("rejections", Json.Obj rejections);
      ( "connections",
        Json.Obj
          [
            ("opened", Json.Int (counter "service_connections_opened"));
            ("closed", Json.Int (counter "service_connections_closed"));
            ("refused", Json.Int (counter "service_connections_refused"));
          ] );
      ("queue_depth", Json.Int (counter "service_queue_depth"));
      ("fleet", Json.Obj fleet);
    ]
