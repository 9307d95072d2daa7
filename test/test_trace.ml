(* Tests for trace generation and serialization. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let strongly_connected () =
  Cfg.Graph.synthetic 4 [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 0); (2, 0) ]

let test_markov_validity () =
  let g = strongly_connected () in
  let t = Trace.Synthetic.markov g ~length:500 in
  checki "length" 500 (Array.length t);
  checkb "valid trace" true (Cfg.Graph.validate_trace g t = Ok ())

let test_markov_deterministic_seed () =
  let g = strongly_connected () in
  let a = Trace.Synthetic.markov ~seed:5 g ~length:100 in
  let b = Trace.Synthetic.markov ~seed:5 g ~length:100 in
  let c = Trace.Synthetic.markov ~seed:6 g ~length:100 in
  checkb "same seed same walk" true (a = b);
  checkb "different seed differs" true (a <> c)

let test_markov_weights () =
  (* A split where one arm gets weight 9 and the other 1: the heavy
     arm must be taken far more often. *)
  let g = Cfg.Graph.synthetic 4 [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 0) ] in
  let weight ~src ~dst =
    if src = 0 && dst = 1 then 9.0
    else if src = 0 && dst = 2 then 1.0
    else 1.0
  in
  let t = Trace.Synthetic.markov ~seed:11 ~weight g ~length:4000 in
  let count b = Array.fold_left (fun a x -> if x = b then a + 1 else a) 0 t in
  checkb "heavy arm dominates" true (count 1 > 3 * count 2)

let test_markov_zero_weights_fall_back () =
  let g = Cfg.Graph.synthetic 2 [ (0, 1); (1, 0) ] in
  let t =
    Trace.Synthetic.markov ~weight:(fun ~src:_ ~dst:_ -> 0.0) g ~length:50
  in
  checki "still walks" 50 (Array.length t)

let test_markov_restart_at_exit () =
  let g = Cfg.Graph.synthetic 2 [ (0, 1) ] in
  let t = Trace.Synthetic.markov g ~length:6 in
  checkb "alternates through restart" true (t = [| 0; 1; 0; 1; 0; 1 |])

let test_markov_errors () =
  let g = strongly_connected () in
  Alcotest.check_raises "negative length"
    (Invalid_argument "Trace.Synthetic.markov: negative length") (fun () ->
      ignore (Trace.Synthetic.markov g ~length:(-1)))

let test_loop_nest () =
  let g, t = Trace.Synthetic.loop_nest ~levels:2 ~iters:[| 3; 4 |] in
  checki "blocks" 6 (Cfg.Graph.num_blocks g);
  checkb "valid trace" true (Cfg.Graph.validate_trace g t = Ok ());
  (* inner body executes 3*4 times *)
  let inner_body = 4 in
  let count b = Array.fold_left (fun a x -> if x = b then a + 1 else a) 0 t in
  checki "inner body visits" 12 (count inner_body);
  checki "outer body visits" 3 (count 1);
  (* ends at the outermost exit *)
  checki "ends at exit" 2 t.(Array.length t - 1)

let test_loop_nest_errors () =
  Alcotest.check_raises "iters mismatch"
    (Invalid_argument "Trace.Synthetic.loop_nest: iters length mismatch")
    (fun () -> ignore (Trace.Synthetic.loop_nest ~levels:2 ~iters:[| 3 |]))

let test_hot_cold () =
  let g, t =
    Trace.Synthetic.hot_cold ~hot_blocks:4 ~cold_blocks:6 ~hot_iters:50
      ~cold_visit_every:10 ()
  in
  checki "blocks" 10 (Cfg.Graph.num_blocks g);
  checkb "valid trace" true (Cfg.Graph.validate_trace g t = Ok ());
  let count b = Array.fold_left (fun a x -> if x = b then a + 1 else a) 0 t in
  checki "cold chain entered 5 times" 5 (count 4);
  checkb "hot dominates" true (count 0 > count 4)

let test_diamond_chain () =
  let g = Trace.Synthetic.diamond_chain ~diamonds:3 in
  checki "blocks" 10 (Cfg.Graph.num_blocks g);
  Alcotest.check
    Alcotest.(list int)
    "split successors" [ 1; 2 ] (Cfg.Graph.succ_ids g 0);
  Alcotest.check Alcotest.(list int) "exit" [ 9 ] (Cfg.Graph.exits g)

let test_io_roundtrip () =
  let t = [| 0; 5; 3; 3; 1; 0 |] in
  match Trace.Io.of_string (Trace.Io.to_string t) with
  | Ok t' -> checkb "roundtrip" true (t = t')
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg

let test_io_empty () =
  match Trace.Io.of_string (Trace.Io.to_string [||]) with
  | Ok t -> checki "empty roundtrip" 0 (Array.length t)
  | Error msg -> Alcotest.failf "empty roundtrip failed: %s" msg

let test_io_errors () =
  checkb "bad header" true (Result.is_error (Trace.Io.of_string "nope\n1\n"));
  checkb "bad line" true
    (Result.is_error (Trace.Io.of_string "ccomp-trace 1\nxyz\n"));
  checkb "empty input" true (Result.is_error (Trace.Io.of_string ""))

let test_io_crlf () =
  (* Windows line endings and trailing blank lines both parse. *)
  (match Trace.Io.of_string "ccomp-trace 1\r\n0\r\n5\r\n3\r\n\r\n\r\n" with
  | Ok t -> checkb "crlf" true (t = [| 0; 5; 3 |])
  | Error msg -> Alcotest.failf "crlf parse failed: %s" msg);
  (match Trace.Io.of_string "ccomp-trace 1\n1\n2\n\n\n" with
  | Ok t -> checkb "trailing blanks" true (t = [| 1; 2 |])
  | Error msg -> Alcotest.failf "trailing-blank parse failed: %s" msg);
  match Trace.Io.of_string "ccomp-trace 1\r\n" with
  | Ok t -> checki "crlf header only" 0 (Array.length t)
  | Error msg -> Alcotest.failf "crlf header-only parse failed: %s" msg

let test_io_file () =
  let path = Filename.temp_file "ccomp" ".trace" in
  let t = Array.init 100 (fun i -> i mod 7) in
  Trace.Io.save path t;
  (match Trace.Io.load path with
  | Ok t' -> checkb "file roundtrip" true (t = t')
  | Error msg -> Alcotest.failf "load failed: %s" msg);
  Sys.remove path;
  checkb "missing file" true (Result.is_error (Trace.Io.load path))

let () =
  Alcotest.run ~and_exit:false "trace"
    [
      ( "markov",
        [
          Alcotest.test_case "validity" `Quick test_markov_validity;
          Alcotest.test_case "seeding" `Quick test_markov_deterministic_seed;
          Alcotest.test_case "weights" `Quick test_markov_weights;
          Alcotest.test_case "zero weights" `Quick
            test_markov_zero_weights_fall_back;
          Alcotest.test_case "restart at exit" `Quick test_markov_restart_at_exit;
          Alcotest.test_case "errors" `Quick test_markov_errors;
        ] );
      ( "generators",
        [
          Alcotest.test_case "loop nest" `Quick test_loop_nest;
          Alcotest.test_case "loop nest errors" `Quick test_loop_nest_errors;
          Alcotest.test_case "hot/cold" `Quick test_hot_cold;
          Alcotest.test_case "diamond chain" `Quick test_diamond_chain;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "empty" `Quick test_io_empty;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "crlf tolerance" `Quick test_io_crlf;
          Alcotest.test_case "files" `Quick test_io_file;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Analysis (appended suite)                                           *)

let test_reuse_distances () =
  let trace = [| 0; 1; 0; 1; 0; 2 |] in
  let ds = Trace.Analysis.reuse_distances ~blocks:3 trace in
  Alcotest.check Alcotest.(list int) "block 0" [ 2; 2 ] ds.(0);
  Alcotest.check Alcotest.(list int) "block 1" [ 2 ] ds.(1);
  Alcotest.check Alcotest.(list int) "block 2 never reused" [] ds.(2);
  Alcotest.check Alcotest.(list int) "all sorted" [ 2; 2; 2 ]
    (Trace.Analysis.all_reuse_distances ~blocks:3 trace)

let test_percentile () =
  checkb "median" true (Trace.Analysis.percentile 0.5 [ 1; 2; 3; 4 ] = Some 3);
  checkb "p0" true (Trace.Analysis.percentile 0.0 [ 1; 2; 3 ] = Some 1);
  checkb "p1 clamps" true (Trace.Analysis.percentile 1.0 [ 1; 2; 3 ] = Some 3);
  checkb "empty" true (Trace.Analysis.percentile 0.5 [] = None);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Trace.Analysis.percentile") (fun () ->
      ignore (Trace.Analysis.percentile 1.5 [ 1 ]))

let test_survival_fraction () =
  let trace = [| 0; 1; 0; 2; 2 |] in
  (* distances: 0 reused at 2; 2 reused at 1 *)
  Alcotest.check (Alcotest.float 1e-9) "k=1 catches half" 0.5
    (Trace.Analysis.survival_fraction ~blocks:3 trace ~k:1);
  Alcotest.check (Alcotest.float 1e-9) "k=2 catches all" 1.0
    (Trace.Analysis.survival_fraction ~blocks:3 trace ~k:2);
  Alcotest.check (Alcotest.float 1e-9) "no reuse" 1.0
    (Trace.Analysis.survival_fraction ~blocks:3 [| 0; 1; 2 |] ~k:1)

let test_working_set () =
  let trace = [| 0; 0; 1; 1; 2; 3 |] in
  Alcotest.check
    Alcotest.(array int)
    "windows of 2" [| 1; 1; 2 |]
    (Trace.Analysis.working_set_sizes trace ~window:2);
  checki "distinct" 4 (Trace.Analysis.distinct_blocks trace);
  Alcotest.check_raises "bad window"
    (Invalid_argument "Trace.Analysis.working_set_sizes") (fun () ->
      ignore (Trace.Analysis.working_set_sizes trace ~window:0))

let test_summary_renders () =
  let g, trace = Trace.Synthetic.loop_nest ~levels:2 ~iters:[| 4; 4 |] in
  let s =
    Format.asprintf "%a"
      (Trace.Analysis.pp_summary ~blocks:(Cfg.Graph.num_blocks g))
      trace
  in
  checkb "mentions hit rate" true (String.length s > 40)

(* The survival fraction at k predicts the engine's demand-miss rate
   shape: higher k must never lower it. *)
let prop_survival_monotone =
  QCheck.Test.make ~count:200 ~name:"survival fraction monotone in k"
    QCheck.(pair (int_range 0 500) (int_range 2 8))
    (fun (seed, blocks) ->
      let ring = List.init blocks (fun i -> (i, (i + 1) mod blocks)) in
      let g = Cfg.Graph.synthetic blocks ((0, blocks / 2) :: ring) in
      let trace = Trace.Synthetic.markov ~seed g ~length:200 in
      let f k = Trace.Analysis.survival_fraction ~blocks trace ~k in
      f 1 <= f 2 +. 1e-9 && f 2 <= f 4 +. 1e-9 && f 4 <= f 8 +. 1e-9)

let () =
  Alcotest.run ~and_exit:false "trace-analysis"
    [
      ( "analysis",
        [
          Alcotest.test_case "reuse distances" `Quick test_reuse_distances;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "survival fraction" `Quick test_survival_fraction;
          Alcotest.test_case "working set" `Quick test_working_set;
          Alcotest.test_case "summary" `Quick test_summary_renders;
          QCheck_alcotest.to_alcotest prop_survival_monotone;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Binary format (appended suite)                                      *)

(* Block ids in practice are small non-negatives, but the container
   must round-trip any int the delta coder can see — including
   negatives and large magnitudes that exercise multi-byte varints. *)
let ids_gen =
  QCheck.(
    list
      (oneof
         [
           int_range 0 64;
           int_range (-1000) 1000;
           int_range (-1_000_000_000) 1_000_000_000;
         ]))

let roundtrip_prop ~lzss (ids, frame) =
  let ids = Array.of_list ids in
  match Trace.Binary.decode (Trace.Binary.encode ~lzss ~frame ids) with
  | Ok ids' -> ids' = ids
  | Error _ -> false

let prop_binary_roundtrip =
  QCheck.Test.make ~count:300 ~name:"binary round-trip (plain)"
    QCheck.(pair ids_gen (int_range 1 64))
    (roundtrip_prop ~lzss:false)

let prop_binary_roundtrip_lzss =
  QCheck.Test.make ~count:300 ~name:"binary round-trip (lzss)"
    QCheck.(pair ids_gen (int_range 1 64))
    (roundtrip_prop ~lzss:true)

(* Any strict prefix of a valid encoding must decode to [Error] —
   never raise, loop, or silently return a short array. *)
let prop_binary_truncation =
  QCheck.Test.make ~count:300 ~name:"truncation is always Error"
    QCheck.(triple ids_gen bool small_nat)
    (fun (ids, lzss, cut) ->
      let enc = Trace.Binary.encode ~lzss ~frame:16 (Array.of_list ids) in
      let cut = cut mod String.length enc in
      Result.is_error (Trace.Binary.decode (String.sub enc 0 cut)))

(* A single bit flip must either be rejected or land on a bit the
   decoder provably ignores (yielding the identical array) — it can
   never corrupt data silently. *)
let prop_binary_bitflip =
  QCheck.Test.make ~count:500 ~name:"bit flip is Error or harmless"
    QCheck.(triple ids_gen small_nat (int_range 0 7))
    (fun (ids, pos, bit) ->
      let ids = Array.of_list ids in
      let enc = Trace.Binary.encode ~lzss:true ~frame:16 ids in
      let pos = pos mod String.length enc in
      let buf = Bytes.of_string enc in
      Bytes.set buf pos
        (Char.chr (Char.code (Bytes.get buf pos) lxor (1 lsl bit)));
      match Trace.Binary.decode (Bytes.to_string buf) with
      | Error _ -> true
      | Ok ids' -> ids' = ids)

(* Every single-bit flip of [enc] decodes to an Error or to [ids]. *)
let check_all_bitflips ~lzss ids =
  let enc = Trace.Binary.encode ~lzss ~frame:16 ids in
  for pos = 0 to String.length enc - 1 do
    for bit = 0 to 7 do
      let buf = Bytes.of_string enc in
      Bytes.set buf pos (Char.chr (Char.code enc.[pos] lxor (1 lsl bit)));
      match Trace.Binary.decode (Bytes.to_string buf) with
      | Error _ -> ()
      | Ok ids' ->
        if ids' <> ids then
          Alcotest.failf "flip of bit %d in byte %d decodes silently to [%s]"
            bit pos
            (String.concat "; " (Array.to_list (Array.map string_of_int ids')))
    done
  done

(* Flipping the low bit of a zigzag delta turns an id x into lnot x,
   which the frame checksum used to fold identically: [|22|] decoded
   as [|-23|] with a matching checksum. *)
let test_binary_sign_flip_detected () =
  let enc = Trace.Binary.encode ~lzss:true ~frame:16 [| 22 |] in
  let buf = Bytes.of_string enc in
  Bytes.set buf 18 (Char.chr (Char.code enc.[18] lxor 1));
  checkb "sign flip rejected" true
    (Result.is_error (Trace.Binary.decode (Bytes.to_string buf)))

let test_binary_bitflips_exhaustive () =
  List.iter
    (fun ids ->
      check_all_bitflips ~lzss:true ids;
      check_all_bitflips ~lzss:false ids)
    [
      [| 22 |];
      [| -23 |];
      [| 0; -1; 5 |];
      [| 7; -8; 1_000_000; -1_000_001 |];
      [| -1_000_000_000; 3; 3; -64; 64 |];
    ]

(* What [decode] and [read_file] make of every truncation and every
   single-bit flip of a few multi-frame traces, pinned by MD5 of the
   list of (position, result or exact error message): any change to
   which error a malformed stream gets, or to what a harmless flip
   decodes to, moves the digest. *)
let pin_traces =
  [
    (false, Array.init 40 (fun i -> (i * 7) mod 13));
    (true, Array.init 40 (fun i -> (i * 7) mod 13));
    ( false,
      Array.init 35 (fun i ->
          match i mod 5 with
          | 0 -> -i
          | 1 -> 1_000_000 * i
          | 2 -> -1_000_000_000 + i
          | 3 -> max_int - i
          | _ -> i) );
    (true, Array.init 50 (fun i -> if i mod 3 = 0 then -1_000_003 * i else i / 4));
  ]

let show_result = function
  | Ok ids ->
    "ok " ^ String.concat "," (Array.to_list (Array.map string_of_int ids))
  | Error e -> "error " ^ e

let pin_digest () =
  let path = Filename.temp_file "ccomp" ".ctb" in
  let buf = Buffer.create 65536 in
  let record tag pos bytes =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc;
    Printf.bprintf buf "%s %d: %s | %s\n" tag pos
      (show_result (Trace.Binary.decode bytes))
      (show_result (Trace.Binary.read_file path))
  in
  List.iter
    (fun (lzss, ids) ->
      let enc = Trace.Binary.encode ~lzss ~frame:16 ids in
      for cut = 0 to String.length enc - 1 do
        record "cut" cut (String.sub enc 0 cut)
      done;
      for pos = 0 to String.length enc - 1 do
        for bit = 0 to 7 do
          let b = Bytes.of_string enc in
          Bytes.set b pos (Char.chr (Char.code enc.[pos] lxor (1 lsl bit)));
          record "flip" ((8 * pos) + bit) (Bytes.to_string b)
        done
      done)
    pin_traces;
  Sys.remove path;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_binary_error_pin () =
  Alcotest.check Alcotest.string "decode results"
    "5a675a31f31dd36f5d76d7d7edb7ebcf" (pin_digest ())

(* The header's count, overwritten: the stream's true length must
   still be reported. *)
let with_count enc c =
  let b = Bytes.of_string enc in
  Bytes.set_int64_le b 6 (Int64.of_int c);
  Bytes.to_string b

let test_binary_header_lies () =
  let ids = Array.init 40 (fun i -> (i * 7) mod 13) in
  let enc = Trace.Binary.encode ~frame:16 ids in
  List.iter
    (fun c ->
      let expect =
        Error (Printf.sprintf "header promises %d ids, stream holds 40" c)
      in
      let lying = with_count enc c in
      checkb (Printf.sprintf "decode, count %d" c) true
        (Trace.Binary.decode lying = expect);
      let path = Filename.temp_file "ccomp" ".ctb" in
      let oc = open_out_bin path in
      output_string oc lying;
      close_out oc;
      checkb (Printf.sprintf "read_file, count %d" c) true
        (Trace.Binary.read_file path = expect);
      Sys.remove path)
    [ 39; 1; 41; 1_000_000 ]

(* A writer on a channel that cannot seek leaves the count at -1: the
   stream still decodes, whole and through [read_file]. *)
let test_binary_unknown_count () =
  let ids = Array.init 100 (fun i -> (i * 37) mod 23 - 5) in
  let rd, wr = Unix.pipe () in
  let oc = Unix.out_channel_of_descr wr in
  let w = Trace.Binary.Writer.create ~frame:16 oc in
  Array.iter (Trace.Binary.Writer.push w) ids;
  Trace.Binary.Writer.close w;
  close_out oc;
  let ic = Unix.in_channel_of_descr rd in
  let enc = In_channel.input_all ic in
  close_in ic;
  checkb "count is -1" true
    (String.sub enc 6 8 = String.make 8 '\255');
  checkb "decodes" true (Trace.Binary.decode enc = Ok ids);
  let path = Filename.temp_file "ccomp" ".ctb" in
  let oc = open_out_bin path in
  output_string oc enc;
  close_out oc;
  checkb "read_file" true (Trace.Binary.read_file path = Ok ids);
  Sys.remove path

(* An LZSS trace holds more ids than bytes, so its result array must
   grow past its first size, with the count known and with it unknown;
   a lying count must still report the true length. *)
let test_binary_dense_lzss () =
  let ids = Array.init 20_000 (fun i -> (i mod 4) + (i / 5000)) in
  let enc = Trace.Binary.encode ~lzss:true ~frame:1000 ids in
  checkb "fewer bytes than ids" true (String.length enc < Array.length ids);
  checkb "decodes" true (Trace.Binary.decode enc = Ok ids);
  checkb "decodes, count -1" true (Trace.Binary.decode (with_count enc (-1)) = Ok ids);
  checkb "count too small" true
    (Trace.Binary.decode (with_count enc 10)
    = Error "header promises 10 ids, stream holds 20000");
  let path = Filename.temp_file "ccomp" ".ctb" in
  let oc = open_out_bin path in
  output_string oc enc;
  close_out oc;
  checkb "read_file" true (Trace.Binary.read_file path = Ok ids);
  Sys.remove path

let test_binary_empty () =
  let enc = Trace.Binary.encode [||] in
  checkb "magic" true (Trace.Binary.is_binary enc);
  match Trace.Binary.decode enc with
  | Ok t -> checki "empty roundtrip" 0 (Array.length t)
  | Error msg -> Alcotest.failf "empty decode failed: %s" msg

let test_binary_rejects_garbage () =
  checkb "not binary" true (not (Trace.Binary.is_binary "ccomp-trace 1\n0\n"));
  checkb "garbage" true (Result.is_error (Trace.Binary.decode "ccbtXXXX"));
  let enc = Trace.Binary.encode [| 1; 2; 3 |] in
  checkb "trailing junk" true
    (Result.is_error (Trace.Binary.decode (enc ^ "\001")))

let test_binary_info () =
  let ids = Array.init 1000 (fun i -> i mod 13) in
  let enc = Trace.Binary.encode ~lzss:true ~frame:100 ids in
  match Trace.Binary.info enc with
  | Error msg -> Alcotest.failf "info failed: %s" msg
  | Ok i ->
    checki "version" 1 i.Trace.Binary.version;
    checkb "lzss flag" true i.Trace.Binary.lzss;
    checkb "header count" true (i.Trace.Binary.header_count = Some 1000);
    checki "ids" 1000 i.Trace.Binary.ids;
    checki "frames" 10 i.Trace.Binary.frames;
    checkb "lzss shrinks this" true
      (i.Trace.Binary.stored_bytes < i.Trace.Binary.raw_bytes)

let test_binary_streaming_writer () =
  (* The streaming writer must produce a stream the one-shot decoder
     accepts, and the chunked reader must agree with it. *)
  let path = Filename.temp_file "ccomp" ".ctb" in
  let ids = Array.init 10_000 (fun i -> (i * 7) mod 97) in
  let oc = open_out_bin path in
  let w = Trace.Binary.Writer.create ~lzss:true ~frame:777 oc in
  Array.iter (fun id -> Trace.Binary.Writer.push w id) ids;
  Trace.Binary.Writer.close w;
  close_out oc;
  (match Trace.Binary.read_file path with
  | Ok ids' -> checkb "writer/decode agree" true (ids' = ids)
  | Error msg -> Alcotest.failf "read_file failed: %s" msg);
  (match
     Trace.Binary.fold_file path ~init:[] ~f:(fun acc chunk ->
         chunk :: acc)
   with
  | Error msg -> Alcotest.failf "fold_file failed: %s" msg
  | Ok rev_chunks ->
    let flat = Array.concat (List.rev rev_chunks) in
    checkb "fold_file agrees" true (flat = ids);
    checkb "several frames" true (List.length rev_chunks > 1));
  Sys.remove path

let test_io_auto_format () =
  let ids = Array.init 500 (fun i -> i mod 11) in
  let bin = Filename.temp_file "ccomp" ".bin" in
  let txt = Filename.temp_file "ccomp" ".trace" in
  Trace.Io.save bin ids;
  Trace.Io.save txt ids;
  let read_all p =
    let ic = open_in_bin p in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  checkb ".bin is binary" true (Trace.Binary.is_binary (read_all bin));
  checkb ".trace is text" true (not (Trace.Binary.is_binary (read_all txt)));
  (match (Trace.Io.load bin, Trace.Io.load txt) with
  | Ok a, Ok b ->
    checkb "binary load" true (a = ids);
    checkb "text load" true (b = ids)
  | Error msg, _ | _, Error msg -> Alcotest.failf "auto load failed: %s" msg);
  Sys.remove bin;
  Sys.remove txt

let test_io_strict_parsing () =
  let expect_err body frag =
    match Trace.Io.of_string ("ccomp-trace 1\n" ^ body) with
    | Ok _ -> Alcotest.failf "accepted %S" body
    | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i =
          i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
        in
        at 0
      in
      checkb
        (Printf.sprintf "%S error mentions %S" body frag)
        true (contains msg frag)
  in
  (* int_of_string would happily take all of these *)
  expect_err "0x10\n" "0x10";
  expect_err "1_0\n" "1_0";
  expect_err "0b101\n" "line 2";
  expect_err "3\n4\n5junk\n" "line 4";
  expect_err "3\n- 4\n" "line 3";
  (* signs are still fine *)
  match Trace.Io.of_string "ccomp-trace 1\n-4\n+3\n" with
  | Ok t -> checkb "signed ids" true (t = [| -4; 3 |])
  | Error msg -> Alcotest.failf "signed parse failed: %s" msg

let test_event_log_roundtrip () =
  let path = Filename.temp_file "ccomp" ".bin" in
  let events =
    List.init 400 (fun i ->
        ((i * 3) mod 11, i, (i * 5) mod 97, -i, i mod 2))
  in
  let oc = open_out_bin path in
  (* frame of 7 ids is not a multiple of 5, so events straddle frames *)
  let w = Trace.Event_log.Writer.create ~lzss:true ~frame:7 oc in
  List.iter
    (fun (kind, at, a, b, c) -> Trace.Event_log.Writer.push w ~kind ~at ~a ~b ~c)
    events;
  Trace.Event_log.Writer.close w;
  close_out oc;
  (match
     Trace.Event_log.fold_file path ~init:[] ~f:(fun acc ~kind ~at ~a ~b ~c ->
         (kind, at, a, b, c) :: acc)
   with
  | Error msg -> Alcotest.failf "event fold failed: %s" msg
  | Ok rev -> checkb "event roundtrip" true (List.rev rev = events));
  (* a log whose id count is not a multiple of five is rejected *)
  let oc = open_out_bin path in
  let w = Trace.Binary.Writer.create ~lzss:false oc in
  List.iter (Trace.Binary.Writer.push w) [ 1; 2; 3; 4; 5; 6; 7 ];
  Trace.Binary.Writer.close w;
  close_out oc;
  checkb "mid-event tail rejected" true
    (Result.is_error
       (Trace.Event_log.fold_file path ~init:() ~f:(fun () ~kind:_ ~at:_ ~a:_
                                                        ~b:_ ~c:_ -> ())));
  Sys.remove path

let () =
  Alcotest.run "trace-binary"
    [
      ( "binary",
        [
          Alcotest.test_case "empty" `Quick test_binary_empty;
          Alcotest.test_case "garbage rejected" `Quick
            test_binary_rejects_garbage;
          Alcotest.test_case "info" `Quick test_binary_info;
          Alcotest.test_case "streaming writer" `Quick
            test_binary_streaming_writer;
          QCheck_alcotest.to_alcotest prop_binary_roundtrip;
          QCheck_alcotest.to_alcotest prop_binary_roundtrip_lzss;
          QCheck_alcotest.to_alcotest prop_binary_truncation;
          QCheck_alcotest.to_alcotest prop_binary_bitflip;
          Alcotest.test_case "sign flip detected" `Quick
            test_binary_sign_flip_detected;
          Alcotest.test_case "every single-bit flip" `Quick
            test_binary_bitflips_exhaustive;
          Alcotest.test_case "decode errors pinned" `Quick
            test_binary_error_pin;
          Alcotest.test_case "header count lies" `Quick
            test_binary_header_lies;
          Alcotest.test_case "unknown count" `Quick test_binary_unknown_count;
          Alcotest.test_case "dense lzss" `Quick test_binary_dense_lzss;
        ] );
      ( "io-strict",
        [
          Alcotest.test_case "auto format" `Quick test_io_auto_format;
          Alcotest.test_case "strict parsing" `Quick test_io_strict_parsing;
        ] );
      ( "event-log",
        [ Alcotest.test_case "roundtrip" `Quick test_event_log_roundtrip ] );
    ]
