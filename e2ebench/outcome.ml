(* What one workload run measured, before it is rendered as metrics. *)

type t = {
  setup_s : float array;  (* one sample per repeated set-up *)
  work : float;  (* units of the workload's work done in the window *)
  busy_s : float;  (* seconds that work took *)
  rates : float array;  (* work per second of each pass, for the spread *)
  op_ms : float array;  (* latency of each operation *)
  attempted : int;
  failed : int;
  digest : string;  (* model_digest: MD5 of the first pass's results *)
  rss_mb : float;  (* median resident set over the window *)
  layers : (string * float) list;  (* per-layer metrics, traced runs only *)
}

(* Runs [setup] [n] times and keeps the last result, so set-up time is
   a median, not one cold shot. [dispose] releases a discarded one. *)
let repeat_setup ?(dispose = ignore) n setup =
  let times = Array.make n 0.0 in
  let last = ref None in
  for i = 0 to n - 1 do
    Option.iter dispose !last;
    last := None;
    let r, dt = Stat.time setup in
    times.(i) <- dt;
    last := Some r
  done;
  (times, Option.get !last)

(* An operation's check; one that raises has failed. *)
let checked f = try f () with _ -> false

(* Calls [op 0], [op 1], ... until [seconds] have passed, and at least
   [min] times, so the first pass (which the digest covers) is whole. *)
let until ?(min = 1) ~seconds op =
  let stop = Stat.now () +. seconds in
  let rec go i =
    op i;
    if i + 1 < min || Stat.now () < stop then go (i + 1)
  in
  go 0
