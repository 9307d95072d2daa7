(* exec-ground-truth: real compressed execution, checked against
   plain interpretation.

   Every suite kernel plus one seeded [gen:] program per shape family
   runs through Runtime.run under 8 configurations: k in {2, 8} x
   {k-edge, clock} retention x {block, 32-byte line} granularity. This
   is the only workload with real decompression, relocation and traps;
   the timing engine does no work here. One operation is the whole
   program set under one configuration, and the window holds whole
   passes over the configurations: single runs differ in size by three
   orders of magnitude, so their quantiles would land on whichever
   seeded program sits at the boundary. *)

type reference =
  | Checksum of int  (* a kernel's Workloads.Common.expected *)
  | Memory of string  (* digest of a plain run's final data memory *)

type program = { name : string; prog : Eris.Program.t; reference : reference }

let configs =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun retention -> List.map (fun line_size -> (k, retention, line_size)) [ None; Some 32 ])
        [ Residency.Policy.Kedge; Clock ])
    [ 2; 8 ]

let memory_digest m =
  let b = Buffer.create 65536 in
  for w = 0 to (65536 / 4) - 1 do
    Buffer.add_int32_le b (Int32.of_int (Eris.Machine.read_word m (4 * w)))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The plain interpreter run that is both the reference and the
   baseline the runtime's slowdown is measured against. *)
let interpret prog =
  let m = Eris.Machine.create prog in
  let r = Spans.with_ "eris.run" (fun () -> Eris.Machine.run_to_halt ~fuel:100_000_000 m) in
  (m, r.Eris.Machine.instrs)

let setup ~seed () =
  let interp_instrs = ref 0 in
  let plain prog =
    let m, n = interpret prog in
    interp_instrs := !interp_instrs + n;
    m
  in
  let kernels =
    List.map
      (fun (w : Workloads.Common.t) ->
        let prog = Eris.Asm.assemble_exn w.source in
        if Eris.Machine.read_word (plain prog) Workloads.Common.result_addr <> w.expected then
          failwith ("exec-ground-truth: interpreter disagrees with the reference of " ^ w.name);
        { name = w.name; prog; reference = Checksum w.expected })
      Workloads.Suite.all
  in
  let generated =
    List.map
      (fun spec ->
        let prog = Spans.with_ "corpus.build" (fun () -> Corpus.Gen.program spec) in
        { name = Corpus.Spec.to_string spec; prog; reference = Memory (memory_digest (plain prog)) })
      (Design.specs ~seed ~per_family:1)
  in
  (Array.of_list (kernels @ generated), !interp_instrs)

let passes_check p m =
  match p.reference with
  | Checksum e -> Eris.Machine.read_word m Workloads.Common.result_addr = e
  | Memory d -> memory_digest m = d

let run ~seed ~seconds ~setups =
  let setup_s, (programs, interp_instrs) = Outcome.repeat_setup setups (setup ~seed) in
  let first = Hashtbl.create 256 in
  let runs = ref [] and op_s = ref [] and pass_rates = ref [] in
  let failed = ref 0 and attempted = ref 0 in
  let rss = Stat.rss_sampler () in
  (* one program under one configuration: its run, checked *)
  let run_one (k, retention, line_size) p =
    incr attempted;
    let a0 = Stat.alloc_words () in
    let r, dt =
      Stat.time (fun () ->
          Spans.with_ ~req:!attempted "runtime.run" (fun () ->
              Runtime.run ~k ~retention ~codec:(Spans.code_codec p.prog.image) ?line_size p.prog))
    in
    let words = Stat.alloc_words () -. a0 in
    match r with
    | Ok (m, stats) ->
      let key = (p.name, k, retention, line_size) in
      if not (Hashtbl.mem first key) then Hashtbl.replace first key stats;
      if not (passes_check p m && Hashtbl.find first key = stats) then incr failed;
      runs := (line_size, stats, dt, words) :: !runs;
      (stats.Runtime.instructions, dt)
    | Error _ ->
      incr failed;
      (0, dt)
  in
  let t0 = Stat.now () in
  let stop = t0 +. seconds in
  while !pass_rates = [] || Stat.now () < stop do
    let pass =
      List.map
        (fun config ->
          Stat.sample rss;
          let n, s =
            Array.fold_left
              (fun (n, s) p ->
                let n', s' = run_one config p in
                (n + n', s +. s'))
              (0, 0.0) programs
          in
          op_s := s :: !op_s;
          (n, s))
        configs
    in
    let n, s = List.fold_left (fun (n, s) (n', s') -> (n + n', s +. s')) (0, 0.0) pass in
    pass_rates := (float_of_int n /. s) :: !pass_rates
  done;
  let wall = Stat.now () -. t0 in
  let runs = List.rev !runs in
  let instrs = List.fold_left (fun n (_, s, _, _) -> n + s.Runtime.instructions) 0 runs in
  let busy = Stat.sum (Array.of_list !op_s) in
  let layers () =
    let granular g =
      let n, t =
        List.fold_left
          (fun (n, t) (l, s, dt, _) -> if l = g then (n + s.Runtime.instructions, t +. dt) else (n, t))
          (0, 0.0) runs
      in
      Stat.ratio (float_of_int n) t
    in
    let traps = List.fold_left (fun n (_, s, _, _) -> n + s.Runtime.traps) 0 runs in
    let words = List.fold_left (fun w (_, _, _, x) -> w +. x) 0.0 runs in
    let interp = Stat.ratio (float_of_int interp_instrs) (Spans.total_s "eris.run") in
    let runtime = Stat.ratio (float_of_int instrs) busy in
    [
      ("compress.dec_calls", float_of_int Spans.codec.dec_calls);
      ("compress.dec_MBps", Stat.ratio (float_of_int Spans.codec.dec_bytes /. 1e6) Spans.codec.dec_s);
      ("compress.dec_self_pct", 100.0 *. Stat.ratio Spans.codec.dec_s wall);
      ( "compress.comp_MBps",
        Stat.ratio (float_of_int Spans.codec.comp_bytes /. 1e6) Spans.codec.comp_s );
      ("runtime.block.instr_per_s", granular None);
      ("runtime.line32.instr_per_s", granular (Some 32));
      ("runtime.self_pct", 100.0 *. Stat.ratio (Spans.self_s "runtime.run") wall);
      ("runtime.traps_per_kinstr", 1000.0 *. Stat.ratio (float_of_int traps) (float_of_int instrs));
      ("runtime.alloc_words_per_instr", Stat.ratio words (float_of_int instrs));
      ("eris.interp_instr_per_s", interp);
      ("runtime.slowdown_x", Stat.ratio interp runtime);
      ("corpus.programs_per_s", Stat.ratio (float_of_int (Spans.count "corpus.build")) (Spans.total_s "corpus.build"));
      ("corpus.setup_share_pct", 100.0 *. Stat.ratio (Spans.total_s "corpus.build") (Stat.sum setup_s));
    ]
  in
  (* the first pass's stats, in program and configuration order *)
  let first_pass =
    List.concat_map
      (fun (k, retention, line_size) ->
        Array.to_list
          (Array.map (fun p -> Hashtbl.find_opt first (p.name, k, retention, line_size)) programs))
      configs
  in
  {
    Outcome.setup_s;
    work = float_of_int instrs;
    busy_s = busy;
    rates = Array.of_list !pass_rates;
    op_ms = Array.of_list (List.rev_map (fun s -> s *. 1000.0) !op_s);
    attempted = !attempted;
    failed = !failed;
    digest = Digest.to_hex (Digest.string (Marshal.to_string first_pass [ Marshal.No_sharing ]));
    rss_mb = Stat.rss_median rss;
    layers = (if !Spans.enabled then layers () else []);
  }
