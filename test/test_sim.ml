(* Tests for the shared simulation kernel: cost model, helper-thread
   resources, the streaming event bus (including JSONL round-trips and the
   constant-memory guarantee) and the metrics registry. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Cost and helper-thread resources *)

let test_cost () =
  let c = Sim.Cost.default in
  checki "dec" (30 + (4 * 10)) (Sim.Cost.dec_cycles c ~compressed_bytes:10);
  checki "comp" (30 + (8 * 10)) (Sim.Cost.comp_cycles c ~uncompressed_bytes:10);
  let c2 = Sim.Cost.with_rates ~dec_cycles_per_byte:1 ~comp_cycles_per_byte:2 c in
  checki "rates swap" (30 + 10) (Sim.Cost.dec_cycles c2 ~compressed_bytes:10);
  checki "fixed costs kept" c.Sim.Cost.exception_cycles
    c2.Sim.Cost.exception_cycles

(* ---- the pluggable cost vocabulary ---- *)

let test_cost_profiles () =
  checkb "paper-2005 is the default profile" true
    (Sim.Cost.profile "paper-2005" = Sim.Cost.default);
  checks "head of profile_names is the default" "paper-2005"
    (List.hd Sim.Cost.profile_names);
  (* the paper profile prices no energy: cycle numbers cannot move *)
  let e = Sim.Cost.default.Sim.Cost.energy in
  checki "no flash energy" 0 e.Sim.Cost.flash_read_nj_per_byte;
  checki "no exec energy" 0 e.Sim.Cost.exec_nj_per_cycle;
  checki "no leakage" 0 e.Sim.Cost.ram_static_nj_per_kb_cycle;
  List.iter
    (fun name ->
      let c = Sim.Cost.profile name in
      checks "profile field matches its name" name c.Sim.Cost.profile;
      checkb "every registered profile validates" true
        (Sim.Cost.validate c == c))
    Sim.Cost.profile_names;
  Alcotest.check_raises "unknown profile lists the known ones"
    (Invalid_argument
       "unknown device profile \"lunar-lander\" (known: paper-2005, \
        cortex-m-flash, sram-heavy)") (fun () ->
      ignore (Sim.Cost.profile "lunar-lander"))

let test_cost_validation () =
  let c = Sim.Cost.default in
  (* with_rates guards both rates *)
  Alcotest.check_raises "zero dec rate"
    (Invalid_argument "dec_cycles_per_byte must be >= 1 (got 0)") (fun () ->
      ignore (Sim.Cost.with_rates ~dec_cycles_per_byte:0 ~comp_cycles_per_byte:1 c));
  Alcotest.check_raises "negative comp rate"
    (Invalid_argument "comp_cycles_per_byte must be >= 1 (got -3)") (fun () ->
      ignore
        (Sim.Cost.with_rates ~dec_cycles_per_byte:1 ~comp_cycles_per_byte:(-3) c));
  (* validate guards every coefficient with the field's own name *)
  Alcotest.check_raises "negative fixed cost"
    (Invalid_argument "exception_cycles must be >= 0 (got -1)") (fun () ->
      ignore (Sim.Cost.validate { c with Sim.Cost.exception_cycles = -1 }));
  Alcotest.check_raises "negative energy coefficient"
    (Invalid_argument "flash_read_nj_per_byte must be >= 0 (got -5)")
    (fun () ->
      ignore
        (Sim.Cost.validate
           {
             c with
             Sim.Cost.energy =
               { c.Sim.Cost.energy with Sim.Cost.flash_read_nj_per_byte = -5 };
           }));
  Alcotest.check_raises "zero per-byte cycle rate"
    (Invalid_argument "dec_cycles_per_byte must be >= 1 (got 0)") (fun () ->
      ignore (Sim.Cost.validate { c with Sim.Cost.dec_cycles_per_byte = 0 }))

let test_cost_charges () =
  let c = Sim.Cost.profile "cortex-m-flash" in
  let e = c.Sim.Cost.energy in
  let v = Sim.Cost.exec_charge c ~cycles:100 in
  checki "exec cycles" 100 v.Sim.Cost.cycles;
  checki "exec energy" (100 * e.Sim.Cost.exec_nj_per_cycle) v.Sim.Cost.energy_nj;
  let v = Sim.Cost.demand_dec_charge c ~compressed_bytes:10 ~uncompressed_bytes:40 in
  checki "demand dec advances the clock"
    (Sim.Cost.dec_cycles c ~compressed_bytes:10)
    v.Sim.Cost.cycles;
  checki "demand dec energy: flash in, compute + ram write out"
    ((10 * e.Sim.Cost.flash_read_nj_per_byte)
    + (40 * e.Sim.Cost.dec_compute_nj_per_byte)
    + (40 * e.Sim.Cost.ram_write_nj_per_byte))
    v.Sim.Cost.energy_nj;
  let p = Sim.Cost.prefetch_dec_charge c ~compressed_bytes:10 ~uncompressed_bytes:40 in
  checki "prefetch costs no wall clock" 0 p.Sim.Cost.cycles;
  checki "prefetch energy equals demand energy" v.Sim.Cost.energy_nj
    p.Sim.Cost.energy_nj;
  let r = Sim.Cost.recompress_charge c ~uncompressed_bytes:40 in
  checki "recompress on the helper thread" 0 r.Sim.Cost.cycles;
  checki "recompress energy: ram read + compute"
    (40 * (e.Sim.Cost.ram_read_nj_per_byte + e.Sim.Cost.comp_compute_nj_per_byte))
    r.Sim.Cost.energy_nj;
  let s = Sim.Cost.ram_static_charge c ~byte_cycles:(3 * 1024) in
  checki "leakage per kB-cycle" (3 * e.Sim.Cost.ram_static_nj_per_kb_cycle)
    s.Sim.Cost.energy_nj;
  Alcotest.check_raises "negative occupancy integral"
    (Invalid_argument "byte_cycles must be >= 0 (got -1)") (fun () ->
      ignore (Sim.Cost.ram_static_charge c ~byte_cycles:(-1)));
  checki "stalls burn no energy" 0
    (Sim.Cost.stall_charge c ~cycles:50).Sim.Cost.energy_nj

let test_cost_acc () =
  let acc = Sim.Cost.Acc.create () in
  let c = Sim.Cost.profile "sram-heavy" in
  let charges =
    [
      (Sim.Cost.Exec, Sim.Cost.exec_charge c ~cycles:10);
      (Sim.Cost.Exec, Sim.Cost.exec_charge c ~cycles:5);
      (Sim.Cost.Exception, Sim.Cost.exception_charge c);
    ]
  in
  List.iter (fun (src, v) -> Sim.Cost.Acc.charge acc src v) charges;
  let total = Sim.Cost.Acc.total acc in
  let sum f = List.fold_left (fun a (_, v) -> a + f v) 0 charges in
  checki "total cycles = sum of charges" (sum (fun v -> v.Sim.Cost.cycles))
    total.Sim.Cost.cycles;
  checki "total energy = sum of charges" (sum (fun v -> v.Sim.Cost.energy_nj))
    total.Sim.Cost.energy_nj;
  let exec = Sim.Cost.Acc.total_of acc Sim.Cost.Exec in
  checki "per-source cycles" 15 exec.Sim.Cost.cycles;
  checki "untouched source is zero" 0
    (Sim.Cost.Acc.total_of acc Sim.Cost.Recompress).Sim.Cost.cycles;
  Alcotest.check
    Alcotest.(list (pair string int))
    "dimension_totals mirrors the vector"
    [
      ("cycles", total.Sim.Cost.cycles); ("energy_nj", total.Sim.Cost.energy_nj);
    ]
    (Sim.Cost.Acc.dimension_totals acc)

let test_resource () =
  let r = Sim.Clock.resource () in
  checki "idle resource starts now" 10 (Sim.Clock.schedule r ~now:0 ~cycles:10);
  (* second request queues behind the first even though now < free_at *)
  checki "fifo queueing" 15 (Sim.Clock.schedule r ~now:5 ~cycles:5);
  (* a request after idle time starts at now *)
  checki "idle gap" 110 (Sim.Clock.schedule r ~now:100 ~cycles:10);
  checki "busy accumulates" 25 (Sim.Clock.busy_cycles r);
  Sim.Clock.push_back r ~now:0 ~cycles:7;
  checki "push_back extends backlog" 117 (Sim.Clock.free_at r);
  checki "push_back is busy work" 32 (Sim.Clock.busy_cycles r)

(* ------------------------------------------------------------------ *)
(* Event JSON round-trips *)

let sample_events =
  Sim.Events.
    [
      Exec { block = 0; at = 0 };
      Exec { block = 12; at = 999999999 };
      Exception { block = 3; at = 41 };
      Demand_decompress { block = 7; at = 100; cycles = 66 };
      Prefetch_issue { block = 2; at = 5; ready_at = 93 };
      Stall { block = 2; at = 50; cycles = 43 };
      Patch { target = 4; site = 9; at = 77 };
      Unpatch { target = 4; site = 9; at = 81 };
      Discard { block = 1; at = 200; patched_back = 3; wasted = false };
      Discard { block = 6; at = 201; patched_back = 0; wasted = true };
      Evict { block = 8; at = 300 };
      Recompress_queued { block = 5; at = 400; done_at = 460 };
      Flush { at = 500; copies = 17 };
    ]

(* A sink's one entry point: the events packed into a chunk, in order. *)
let emit_events (sink : Sim.Events.sink) evs =
  let ch = Sim.Events.Packed.create ~capacity:(max 1 (List.length evs)) () in
  List.iter (Sim.Events.Packed.push_event ch) evs;
  sink.Sim.Events.emit_chunk ch

let test_json_roundtrip () =
  List.iter
    (fun ev ->
      match Sim.Events.of_json (Sim.Events.to_json ev) with
      | Ok ev' -> checkb (Sim.Events.to_json ev) true (ev = ev')
      | Error msg -> Alcotest.failf "%s: %s" (Sim.Events.to_json ev) msg)
    sample_events

let test_json_rejects_garbage () =
  List.iter
    (fun s -> checkb s true (Result.is_error (Sim.Events.of_json s)))
    [
      "";
      "{}";
      "not json";
      {|{"ev":"exec","block":1}|} (* missing at *);
      {|{"ev":"warp","block":1,"at":2}|} (* unknown kind *);
      {|{"ev":"exec","block":"x","at":2}|} (* non-numeric field *);
    ]

let test_file_roundtrip () =
  let path = Filename.temp_file "test_sim" ".jsonl" in
  let sink = Sim.Events.to_file path in
  emit_events sink sample_events;
  sink.Sim.Events.close ();
  (match Sim.Events.read_file path with
  | Ok evs -> checkb "file round-trip" true (evs = sample_events)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Sinks *)

let test_counting_sink () =
  let c = Sim.Events.counters () in
  let sink = Sim.Events.counting c in
  emit_events sink sample_events;
  checki "total" (List.length sample_events) (Sim.Events.total c);
  checki "execs" 2 (Sim.Events.count c "exec");
  checki "discards" 2 (Sim.Events.count c "discard");
  checki "flushes" 1 (Sim.Events.count c "flush");
  checki "last time" 999999999 (Sim.Events.last_time c);
  checkb "unknown kind rejected" true
    (match Sim.Events.count c "nope" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_tee_and_collector () =
  let a = Sim.Events.collector () in
  let b = Sim.Events.counters () in
  let sink =
    Sim.Events.tee [ Sim.Events.collecting a; Sim.Events.counting b ]
  in
  emit_events sink sample_events;
  checkb "collector ordered" true (Sim.Events.collected a = sample_events);
  checki "tee reaches both" (List.length sample_events) (Sim.Events.total b)

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_counters () =
  let r = Sim.Metrics.create () in
  let c = Sim.Metrics.counter r "hits" in
  Sim.Metrics.incr c;
  Sim.Metrics.incr ~by:4 c;
  checki "incr" 5 (Sim.Metrics.value c);
  (* registration is idempotent: same name+labels = same cell *)
  Sim.Metrics.incr (Sim.Metrics.counter r "hits");
  checki "idempotent" 6 (Sim.Metrics.value c);
  (* labels distinguish, order-insensitively *)
  let l1 = Sim.Metrics.counter r ~labels:[ ("a", "1"); ("b", "2") ] "hits" in
  let l2 = Sim.Metrics.counter r ~labels:[ ("b", "2"); ("a", "1") ] "hits" in
  Sim.Metrics.incr l1;
  checki "label order irrelevant" 1 (Sim.Metrics.value l2);
  checki "unlabelled unaffected" 6 (Sim.Metrics.value c)

let test_metrics_histogram () =
  let r = Sim.Metrics.create () in
  let h = Sim.Metrics.histogram r ~buckets:[ 10; 100 ] "lat" in
  List.iter (Sim.Metrics.observe h) [ 1; 10; 11; 1000 ];
  checki "n" 4 (Sim.Metrics.observations h);
  checki "sum" 1022 (Sim.Metrics.sum h);
  checki "max" 1000 (Sim.Metrics.max_value h);
  Alcotest.(check (list (pair (option int) int)))
    "cumulative buckets"
    [ (Some 10, 2); (Some 100, 3); (None, 4) ]
    (Sim.Metrics.bucket_counts h);
  checkb "unsorted buckets rejected" true
    (match Sim.Metrics.histogram r ~buckets:[ 5; 5 ] "bad" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_metrics_quantile () =
  let checkf = Alcotest.check (Alcotest.float 1e-9) in
  let r = Sim.Metrics.create () in
  let h = Sim.Metrics.histogram r ~buckets:[ 10; 100; 1000 ] "lat" in
  checkf "empty histogram" 0.0 (Sim.Metrics.quantile h 0.5);
  (* 8 observations in [0,10], 2 in (100,1000] *)
  List.iter (Sim.Metrics.observe h) [ 1; 2; 3; 4; 5; 6; 7; 8; 500; 600 ];
  (* rank 5 of 8 in the first bucket: linear interpolation inside it *)
  checkf "p50" 6.25 (Sim.Metrics.quantile h 0.5);
  (* rank 9 of 10 falls in the (100,1000] bucket *)
  checkf "p90" 550.0 (Sim.Metrics.quantile h 0.9);
  (* the estimate never exceeds the observed max *)
  checkb "p100 clamps to max" true (Sim.Metrics.quantile h 1.0 <= 600.0);
  (* everything past the last bound lands in the +Inf bucket, which
     reports the observed max rather than infinity *)
  let o = Sim.Metrics.histogram r ~buckets:[ 10 ] "overflow" in
  List.iter (Sim.Metrics.observe o) [ 50; 60; 70 ];
  checkf "overflow bucket reports max" 70.0 (Sim.Metrics.quantile o 0.5);
  checkb "out-of-range q rejected" true
    (match Sim.Metrics.quantile h 1.5 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_metrics_render () =
  checks "plain" "x" (Sim.Metrics.render_name "x" []);
  checks "labelled" {|x{k="v"}|} (Sim.Metrics.render_name "x" [ ("k", "v") ]);
  let r = Sim.Metrics.create () in
  Sim.Metrics.set (Sim.Metrics.counter r "total") 7;
  let t = Sim.Metrics.to_table r in
  checks "table row" "7" (Report.Table.cell t ~row:0 ~col:"value");
  checks "jsonl" "{\"metric\":\"total\",\"value\":\"7\"}\n"
    (Sim.Metrics.to_jsonl r)

let test_observing_sink () =
  let r = Sim.Metrics.create () in
  let sink = Sim.Events.observing r in
  emit_events sink sample_events;
  checki "kind counter" 2
    (Sim.Metrics.value
       (Sim.Metrics.counter r ~labels:[ ("kind", "exec") ] "events_total"));
  checki "stall histogram" 1
    (Sim.Metrics.observations (Sim.Metrics.histogram r "event_stall_cycles"))

(* ------------------------------------------------------------------ *)
(* Engine equivalence: the streaming sink sees byte-for-byte the same
   event sequence as the back-compat ~log callback, and the metrics do
   not depend on whether anyone is listening. *)

let jsonl_of events =
  String.concat "\n" (List.map Sim.Events.to_json events)

let policies =
  [
    ("on-demand k=4", Core.Policy.on_demand ~k:4);
    ("pre-all", Core.Policy.pre_all ~k:8 ~lookahead:2);
    ( "recompress budget",
      Core.Policy.make ~mode:Core.Policy.Recompress ~compress_k:4 ~budget:96 ()
    );
  ]

let test_engine_equivalence () =
  List.iter
    (fun sc ->
      List.iter
        (fun (pname, policy) ->
          let ctx = sc.Core.Scenario.name ^ " / " ^ pname in
          let via_log = ref [] in
          let m_log =
            Core.Scenario.run ~log:(fun ev -> via_log := ev :: !via_log) sc
              policy
          in
          let c = Sim.Events.collector () in
          let m_sink =
            Core.Scenario.run ~sink:(Sim.Events.collecting c) sc policy
          in
          checks ctx
            (jsonl_of (List.rev !via_log))
            (jsonl_of (Sim.Events.collected c));
          checkb (ctx ^ ": metrics agree") true (m_log = m_sink))
        policies)
    (Workloads.Suite.scenarios ())

(* ------------------------------------------------------------------ *)
(* Constant memory: a million-step Markov walk streamed through the
   counting sink must not grow the heap with the trace. An event list
   at this scale would be tens of millions of words. *)

let test_constant_memory () =
  let graph, _ =
    Trace.Synthetic.hot_cold ~hot_blocks:5 ~cold_blocks:20 ~hot_iters:3
      ~cold_visit_every:11 ()
  in
  let trace = Trace.Synthetic.markov ~seed:7 graph ~length:1_000_000 in
  let sc = Core.Scenario.of_graph ~name:"markov-1M" graph ~trace in
  let policy = Core.Policy.on_demand ~k:2 in
  ignore (Core.Scenario.run sc policy) (* warm-up *);
  let counters = Sim.Events.counters () in
  Gc.compact ();
  let before = (Gc.stat ()).Gc.top_heap_words in
  ignore (Core.Scenario.run ~sink:(Sim.Events.counting counters) sc policy);
  let growth = (Gc.stat ()).Gc.top_heap_words - before in
  checkb "at least a million events" true (Sim.Events.total counters >= 1_000_000);
  checkb
    (Printf.sprintf "constant-memory streaming (top-heap grew %d words)" growth)
    true
    (growth < 500_000)

let () =
  Alcotest.run ~and_exit:false "sim"
    [
      ( "kernel",
        [
          Alcotest.test_case "cost model" `Quick test_cost;
          Alcotest.test_case "device profiles" `Quick test_cost_profiles;
          Alcotest.test_case "coefficient validation" `Quick
            test_cost_validation;
          Alcotest.test_case "charge constructors" `Quick test_cost_charges;
          Alcotest.test_case "accumulator" `Quick test_cost_acc;
          Alcotest.test_case "resource threads" `Quick test_resource;
        ] );
      ( "events",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "json rejects garbage" `Quick
            test_json_rejects_garbage;
          Alcotest.test_case "jsonl file round-trip" `Quick test_file_roundtrip;
          Alcotest.test_case "counting sink" `Quick test_counting_sink;
          Alcotest.test_case "tee + collector" `Quick test_tee_and_collector;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "histograms" `Quick test_metrics_histogram;
          Alcotest.test_case "quantiles" `Quick test_metrics_quantile;
          Alcotest.test_case "rendering" `Quick test_metrics_render;
          Alcotest.test_case "observing sink" `Quick test_observing_sink;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "sink == log on the workload suite" `Slow
            test_engine_equivalence;
          Alcotest.test_case "constant memory at 1M steps" `Slow
            test_constant_memory;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Packed events (appended suite): the struct-of-arrays chunk must be
   a lossless re-encoding of the boxed vocabulary — [get] is the exact
   inverse of the pushers, over every constructor. *)

let event_gen =
  let open QCheck.Gen in
  let id = int_range 0 50_000 in
  let cyc = int_range 0 1_000_000 in
  oneof
    [
      map2 (fun block at -> Sim.Events.Exec { block; at }) id cyc;
      map2 (fun block at -> Sim.Events.Exception { block; at }) id cyc;
      map3
        (fun block at cycles ->
          Sim.Events.Demand_decompress { block; at; cycles })
        id cyc cyc;
      map3
        (fun block at ready_at ->
          Sim.Events.Prefetch_issue { block; at; ready_at })
        id cyc cyc;
      map3 (fun block at cycles -> Sim.Events.Stall { block; at; cycles })
        id cyc cyc;
      map3 (fun target site at -> Sim.Events.Patch { target; site; at })
        id id cyc;
      map3 (fun target site at -> Sim.Events.Unpatch { target; site; at })
        id id cyc;
      map3
        (fun block at (patched_back, wasted) ->
          Sim.Events.Discard { block; at; patched_back; wasted })
        id cyc
        (pair (int_range 0 100) bool);
      map2 (fun block at -> Sim.Events.Evict { block; at }) id cyc;
      map3
        (fun block at done_at ->
          Sim.Events.Recompress_queued { block; at; done_at })
        id cyc cyc;
      map2 (fun at copies -> Sim.Events.Flush { at; copies }) cyc id;
    ]

let events_arb =
  QCheck.make
    ~print:(fun evs ->
      String.concat "\n" (List.map Sim.Events.to_json evs))
    QCheck.Gen.(list_size (int_range 0 200) event_gen)

let prop_packed_roundtrip =
  QCheck.Test.make ~count:300 ~name:"packed get inverts push_event"
    events_arb
    (fun evs ->
      let ch = Sim.Events.Packed.create () in
      List.iter (Sim.Events.Packed.push_event ch) evs;
      let back = ref [] in
      Sim.Events.Packed.iter (fun e -> back := e :: !back) ch;
      List.rev !back = evs
      && Sim.Events.Packed.length ch = List.length evs
      && List.for_all2
           (fun ev i ->
             Sim.Events.Packed.get ch i = ev
             && Sim.Events.Packed.time_at ch i = Sim.Events.time ev
             && List.nth Sim.Events.kinds (Sim.Events.Packed.kind_tag ch i)
                = Sim.Events.kind ev)
           evs
           (List.init (List.length evs) Fun.id))

(* The reserve-then-write plane stores only the fields each kind
   defines; pushing through it with the documented field maps must be
   indistinguishable from [push_event]. *)
let unsafe_push_mapped ch ev =
  let open Sim.Events in
  match ev with
  | Exec { block; at } -> Packed.unsafe_push_ka ch ~kind:0 ~at ~a:block
  | Exception { block; at } -> Packed.unsafe_push_ka ch ~kind:1 ~at ~a:block
  | Demand_decompress { block; at; cycles } ->
    Packed.unsafe_push_kab ch ~kind:2 ~at ~a:block ~b:cycles
  | Prefetch_issue { block; at; ready_at } ->
    Packed.unsafe_push_kab ch ~kind:3 ~at ~a:block ~b:ready_at
  | Stall { block; at; cycles } ->
    Packed.unsafe_push_kab ch ~kind:4 ~at ~a:block ~b:cycles
  | Patch { target; site; at } ->
    Packed.unsafe_push_kab ch ~kind:5 ~at ~a:target ~b:site
  | Unpatch { target; site; at } ->
    Packed.unsafe_push_kab ch ~kind:6 ~at ~a:target ~b:site
  | Discard { block; at; patched_back; wasted } ->
    Packed.unsafe_push_kabc ch ~kind:7 ~at ~a:block ~b:patched_back
      ~c:(if wasted then 1 else 0)
  | Evict { block; at } -> Packed.unsafe_push_ka ch ~kind:8 ~at ~a:block
  | Recompress_queued { block; at; done_at } ->
    Packed.unsafe_push_kab ch ~kind:9 ~at ~a:block ~b:done_at
  | Flush { at; copies } -> Packed.unsafe_push_ka ch ~kind:10 ~at ~a:copies

let prop_packed_unsafe_plane =
  QCheck.Test.make ~count:300 ~name:"unsafe pushers match the field maps"
    events_arb
    (fun evs ->
      let ch = Sim.Events.Packed.create () in
      List.iter
        (fun ev ->
          QCheck.assume (Sim.Events.Packed.room ch > 0);
          unsafe_push_mapped ch ev)
        evs;
      let back = ref [] in
      Sim.Events.Packed.iter (fun e -> back := e :: !back) ch;
      List.rev !back = evs)

let prop_packed_sink_equivalence =
  QCheck.Test.make ~count:200
    ~name:"emit_chunk == iter emit on counting and collecting sinks"
    events_arb
    (fun evs ->
      let ch = Sim.Events.Packed.create () in
      List.iter (Sim.Events.Packed.push_event ch) evs;
      (* counting: one whole chunk vs one chunk per event *)
      let by_chunk = Sim.Events.counters () in
      (Sim.Events.counting by_chunk).Sim.Events.emit_chunk ch;
      let one_by_one = Sim.Events.counters () in
      List.iter (fun ev -> emit_events (Sim.Events.counting one_by_one) [ ev ])
        evs;
      (* collecting: boxing at the boundary preserves order *)
      let col = Sim.Events.collector () in
      (Sim.Events.collecting col).Sim.Events.emit_chunk ch;
      Sim.Events.counts by_chunk = Sim.Events.counts one_by_one
      && Sim.Events.last_time by_chunk = Sim.Events.last_time one_by_one
      && Sim.Events.collected col = evs)

let test_packed_chunk_basics () =
  let ch = Sim.Events.Packed.create ~capacity:2 () in
  checki "capacity" 2 (Sim.Events.Packed.capacity ch);
  checki "room" 2 (Sim.Events.Packed.room ch);
  checkb "not full" true (not (Sim.Events.Packed.is_full ch));
  Sim.Events.Packed.push_exec ch ~at:1 ~block:0;
  Sim.Events.Packed.push_flush ch ~at:2 ~copies:3;
  checkb "full" true (Sim.Events.Packed.is_full ch);
  checki "no room" 0 (Sim.Events.Packed.room ch);
  Alcotest.check_raises "push on full"
    (Invalid_argument "Sim.Events.Packed.push: chunk full") (fun () ->
      Sim.Events.Packed.push_exec ch ~at:3 ~block:1);
  Sim.Events.Packed.clear ch;
  checki "cleared" 0 (Sim.Events.Packed.length ch);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Sim.Events.Packed.create: capacity must be positive")
    (fun () -> ignore (Sim.Events.Packed.create ~capacity:0 ()))

let () =
  Alcotest.run "sim-packed"
    [
      ( "packed",
        [
          Alcotest.test_case "chunk basics" `Quick test_packed_chunk_basics;
          QCheck_alcotest.to_alcotest prop_packed_roundtrip;
          QCheck_alcotest.to_alcotest prop_packed_unsafe_plane;
          QCheck_alcotest.to_alcotest prop_packed_sink_equivalence;
        ] );
    ]
