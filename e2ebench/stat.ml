(* Clocks, quantiles and process counters shared by every workload. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks; 0 for no samples. *)
let quantile samples p =
  let n = Array.length samples in
  if n = 0 then 0.0
  else begin
    let a = Array.copy samples in
    Array.sort Float.compare a;
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median samples = quantile samples 0.5
let sum = Array.fold_left ( +. ) 0.0

(* [num / den], or 0 when nothing was measured. *)
let ratio num den = if den > 0.0 then num /. den else 0.0

(* Words allocated by this domain so far (minor + direct major).
   Gc.counters, not quick_stat: on OCaml 5 the latter's minor count
   only moves at a collection. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Resident set of a process now, in MB (VmRSS); 0 where /proc is
   missing. *)
let rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmRSS:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
      | exception End_of_file -> 0.0
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Resident-set samples taken while a workload runs; their median is
   steadier than the high-water mark, which moves with GC timing. *)
type rss = { mutable samples : float list }

let rss_sampler () = { samples = [] }
let sample ?pid r = r.samples <- rss_mb ?pid () :: r.samples
let rss_median r = median (Array.of_list r.samples)

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The invariant every engine run must satisfy: the execution thread's
   time splits exactly into its components, and executing block bodies
   costs what the all-resident baseline does. *)
let metrics_consistent (m : Core.Metrics.t) =
  m.total_cycles
  = m.exec_cycles + m.exception_cycles + m.patch_cycles + m.demand_dec_cycles
    + m.stall_cycles
  && m.exec_cycles = m.baseline_cycles

let digest_metrics ms =
  let b = Buffer.create 4096 in
  List.iter (fun m -> Buffer.add_string b (Fleet.Cache.metrics_to_string m)) ms;
  Digest.to_hex (Digest.string (Buffer.contents b))
