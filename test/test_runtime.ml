(* End-to-end tests of the executable §5 runtime: real programs run
   from an all-compressed image, with real decompression, relocation,
   branch patching and k-edge deletion — and must still compute the
   right answers. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let run_ok ?k ?codec ?line_size w =
  match
    Runtime.run ?k ?codec ?line_size
      (Eris.Asm.assemble_exn w.Workloads.Common.source)
  with
  | Ok (machine, stats) -> (machine, stats)
  | Error (Runtime.Out_of_fuel _) ->
    Alcotest.failf "%s: out of fuel" w.Workloads.Common.name
  | Error (Runtime.Machine_fault { pc; message; _ }) ->
    Alcotest.failf "%s: fault at %d: %s" w.Workloads.Common.name pc message

(* Every workload must produce its reference checksum when executed
   from compressed memory, for an aggressive and a relaxed k. *)
let correctness_tests =
  List.concat_map
    (fun w ->
      List.map
        (fun k ->
          Alcotest.test_case
            (Printf.sprintf "%s computes correctly (k=%d)"
               w.Workloads.Common.name k)
            `Quick
            (fun () ->
              let machine, stats = run_ok ~k w in
              checki "checksum"
                w.Workloads.Common.expected
                (Eris.Machine.read_word machine w.Workloads.Common.result_addr);
              checkb "really decompressed" true (stats.Runtime.decompressions > 0);
              checkb "really trapped" true (stats.Runtime.traps > 0)))
        [ 1; 8 ])
    Workloads.Suite.all

let test_k_reduces_traps () =
  let w = Workloads.Suite.find_exn "crc32" in
  let _, aggressive = run_ok ~k:1 w in
  let _, relaxed = run_ok ~k:32 w in
  checkb "larger k traps less" true
    (relaxed.Runtime.traps < aggressive.Runtime.traps);
  checkb "larger k deletes less" true
    (relaxed.Runtime.deletions < aggressive.Runtime.deletions);
  checkb "larger k holds more memory" true
    (relaxed.Runtime.peak_copy_bytes >= aggressive.Runtime.peak_copy_bytes)

let test_patching_pays_off () =
  (* A hot loop: after warmup the patched branches bypass the handler,
     so traps must be far rarer than loop iterations. *)
  let result =
    Runtime.run_source ~k:64
      "li r1, 500\nloop: subi r1, r1, 1\nbne r1, r0, loop\nli r2, 0x0FF0\nsw r1, 0(r2)\nhalt"
  in
  match result with
  | Ok (machine, stats) ->
    checki "result" 0 (Eris.Machine.read_word machine 0x0FF0);
    checkb "500 iterations, a handful of traps" true (stats.Runtime.traps < 10);
    checkb "patches recorded" true (stats.Runtime.patches > 0)
  | Error _ -> Alcotest.fail "runtime failed"

let test_dangling_return_reload () =
  (* dct calls a subroutine that runs for many edges; with k=1 the
     caller's copy is deleted while the callee runs, so the return
     address dangles into a retired copy and must be re-routed through
     a reload. Correctness (checked above for k=1) plus: reloads mean
     strictly more decompressions than blocks. *)
  let w = Workloads.Suite.find_exn "dct" in
  let _, stats = run_ok ~k:1 w in
  let blocks =
    Cfg.Graph.num_blocks
      (Cfg.Build.of_program (Eris.Asm.assemble_exn w.Workloads.Common.source))
  in
  checkb "blocks reloaded after deletion" true
    (stats.Runtime.decompressions > blocks)

let test_stats_sanity () =
  let w = Workloads.Suite.find_exn "fir" in
  let machine, stats = run_ok ~k:8 w in
  checkb "instructions counted" true
    (stats.Runtime.instructions = Eris.Machine.instr_count machine);
  checkb "compressed image smaller" true
    (stats.Runtime.compressed_image_bytes < stats.Runtime.original_image_bytes);
  checkb "live <= peak" true
    (stats.Runtime.live_copy_bytes <= stats.Runtime.peak_copy_bytes);
  checkb "every trap at most one decompression" true
    (stats.Runtime.decompressions <= stats.Runtime.traps);
  checkb "deletions leave some copies" true
    (stats.Runtime.live_copy_bytes > 0)

let test_out_of_fuel () =
  match Runtime.run_source ~fuel:50 "loop: j loop" with
  | Error (Runtime.Out_of_fuel stats) ->
    checkb "made progress" true (stats.Runtime.instructions > 0)
  | Ok _ | Error (Runtime.Machine_fault _) ->
    Alcotest.fail "expected out-of-fuel"

let test_wild_jump_faults () =
  match Runtime.run_source "li r1, 0x40000\njalr r0, r1, 0\nhalt" with
  | Error (Runtime.Machine_fault { message; _ }) ->
    checkb "wild pc reported" true (String.length message > 0)
  | Ok _ | Error (Runtime.Out_of_fuel _) -> Alcotest.fail "expected fault"

(* Only a patched jump or a trap enters a copy: any other transfer to a
   copy address, even to the running copy's own first slot, is a fault.
   Both images are below 4096 bytes, so 4096 is the first copy's base:
   a computed jump there, and a jump whose static target (1023 words
   on from pc 4) lies past the image. *)
let test_computed_jump_into_copy_faults () =
  List.iter
    (fun source ->
      match Runtime.run_source ~fuel:10_000 source with
      | Error (Runtime.Machine_fault { message; _ }) ->
        Alcotest.check Alcotest.string source "transfer to unknown address"
          message
      | Ok _ -> Alcotest.failf "%S ran to completion" source
      | Error (Runtime.Out_of_fuel _) ->
        Alcotest.failf "%S: expected a fault, got out of fuel" source)
    [ "li r1, 4096\njalr r0, r1, 0\nhalt"; "j 1023\nhalt" ]

let test_codec_choice () =
  (* The runtime works with any registered codec, including ones that
     expand blocks (null) — correctness must not depend on ratios. *)
  let w = Workloads.Suite.find_exn "fsm" in
  List.iter
    (fun codec_name ->
      let codec = Compress.Registry.find_exn codec_name in
      let machine, _ = run_ok ~k:4 ~codec w in
      checki
        (Printf.sprintf "checksum under %s" codec_name)
        w.Workloads.Common.expected
        (Eris.Machine.read_word machine w.Workloads.Common.result_addr))
    [ "null"; "rle"; "lzss" ]

(* Compressed-I-cache mode: per-line decompression must not change
   what the program computes, only how decompression work is counted. *)
let test_line_mode_checksums () =
  List.iter
    (fun w ->
      List.iter
        (fun line_size ->
          let machine, stats = run_ok ~k:8 ~line_size w in
          checki
            (Printf.sprintf "%s checksum at %dB lines" w.Workloads.Common.name
               line_size)
            w.Workloads.Common.expected
            (Eris.Machine.read_word machine w.Workloads.Common.result_addr);
          checkb "really decompressed lines" true
            (stats.Runtime.decompressions > 0))
        [ 16; 64 ])
    [ Workloads.Suite.find_exn "fir"; Workloads.Suite.find_exn "fsm" ]

let test_line_mode_counts_lines () =
  (* a block spans several 16-byte lines, so a line-granular run must
     decompress strictly more units than the block-granular one — and
     the executed instruction stream must be identical *)
  let w = Workloads.Suite.find_exn "crc32" in
  let machine_block, block = run_ok ~k:8 w in
  let machine_line, line = run_ok ~k:8 ~line_size:16 w in
  checkb "lines outnumber blocks" true
    (line.Runtime.decompressions > block.Runtime.decompressions);
  checki "same instruction stream"
    (Eris.Machine.instr_count machine_block)
    (Eris.Machine.instr_count machine_line)

let test_line_mode_line_codec () =
  (* the line codec family plugs into the runtime like any other *)
  let w = Workloads.Suite.find_exn "fir" in
  let machine, _ =
    run_ok ~k:8 ~codec:(Compress.Registry.find_exn "cpack-32") ~line_size:32 w
  in
  checki "checksum under cpack-32" w.Workloads.Common.expected
    (Eris.Machine.read_word machine w.Workloads.Common.result_addr)

let test_line_mode_validation () =
  let w = Workloads.Suite.find_exn "fir" in
  Alcotest.check_raises "line_size below 4"
    (Invalid_argument "Residency.Linemap.build: line_size < 4") (fun () ->
      ignore
        (Runtime.run ~line_size:2
           (Eris.Asm.assemble_exn w.Workloads.Common.source)))

(* A decompression that is off by one bit must stop the run, not
   execute: the handler compares every decompressed block (or line)
   byte for byte against the image. The corrupting codec flips bit 0
   of byte [pick len] of each [len]-byte decompression and records the
   length of the first. *)
let corrupting_codec pick =
  let base = Compress.Registry.find_exn "lzss" in
  let first_len = ref (-1) in
  ( {
      base with
      Compress.Codec.name = "lzss-bitflip";
      decompress =
        (fun z ->
          let b = Bytes.copy (base.Compress.Codec.decompress z) in
          let n = Bytes.length b in
          if !first_len < 0 then first_len := n;
          if n > 0 then begin
            let i = pick n in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1))
          end;
          b);
    },
    first_len )

(* The first decompression is of the entry block (or its first line),
   so the reported address is that unit's start plus the flipped
   offset. *)
let expect_mismatch ?line_size pick () =
  let w = Workloads.Suite.find_exn "crc32" in
  let prog = Eris.Asm.assemble_exn w.Workloads.Common.source in
  let graph = Cfg.Build.of_program prog in
  let entry = Cfg.Graph.entry graph in
  let unit_addr =
    match line_size with
    | None -> (Cfg.Graph.block graph entry).Cfg.Graph.addr
    | Some line_size ->
      let lmap = Residency.Linemap.build ~line_size graph in
      lmap.Residency.Linemap.addr.(lmap.Residency.Linemap.of_block.(entry).(0))
  in
  let codec, first_len = corrupting_codec pick in
  match Runtime.run ~k:8 ~codec ?line_size prog with
  | Error (Runtime.Machine_fault { message; stats; _ }) ->
    Alcotest.check Alcotest.string "mismatch reported at the flipped byte"
      (Printf.sprintf "decompressed bytes differ from the image at %d"
         (unit_addr + pick !first_len))
      message;
    checki "nothing executed" 0 stats.Runtime.instructions
  | Ok _ -> Alcotest.fail "corrupted decompression ran to completion"
  | Error (Runtime.Out_of_fuel _) ->
    Alcotest.fail "expected a fault, got out of fuel"

(* The first byte, a middle one and the last: the image check compares
   whole words and then a tail, and must name the same first differing
   byte wherever it falls. crc32's entry block is 12 bytes, one word and
   a 4-byte tail; its first 32-byte line is four whole words. *)
let first_byte _ = 0
let middle_byte n = n / 2
let last_byte n = n - 1

(* The runtime and the model (Core.Engine) must agree on the shape:
   runtime trap counts move with k the same way the engine's demand
   decompressions do. *)
let test_runtime_engine_agreement () =
  let w = Workloads.Suite.find_exn "dijkstra" in
  let sc = Workloads.Common.scenario w in
  let engine_demand k =
    (Core.Scenario.run sc (Core.Policy.on_demand ~k)).Core.Metrics
      .demand_decompressions
  in
  let runtime_decs k = (snd (run_ok ~k w)).Runtime.decompressions in
  let e1 = engine_demand 1 and e16 = engine_demand 16 in
  let r1 = runtime_decs 1 and r16 = runtime_decs 16 in
  checkb "both decrease with k" true (e16 < e1 && r16 < r1);
  (* within a factor of two of each other at both ends: the runtime
     counts per-block reloads slightly differently (synthetic jumps,
     mid-block reloads) but the magnitudes must match *)
  let close a b = a * 2 >= b && b * 2 >= a in
  checkb "magnitudes agree at k=1" true (close e1 r1);
  checkb "magnitudes agree at k=16" true (close e16 r16)

(* ------------------------------------------------------------------ *)
(* Runtime fixture: the MD5 of every run's stats, final data memory and
   full event stream, over the suite kernels plus one generated program
   from each of the four design-space shape families (fixed seeds),
   under k in {2, 8} x {k-edge, clock} retention x {block, 32-byte
   line} granularity, and k = 4 x {loop-aware, pin-hot} x the same two
   granularities. Any change to what the runtime executes, counts
   or reports, or to the order it reports it in, moves a digest. *)

let fixture_specs =
  [
    "gen:seed=2,depth=4,fanout=2,blocks=geo:14,calls=0,skew=0.95,cold=8,rounds=25";
    "gen:seed=2,depth=1,fanout=6,blocks=bim:4-40,calls=0,skew=0.7,cold=12,rounds=100";
    "gen:seed=2,depth=2,fanout=2,blocks=geo:10,calls=4,skew=0.85,cold=6,rounds=65";
    "gen:seed=2,depth=1,fanout=1,blocks=uni:8-24,calls=1,skew=0.55,cold=24,rounds=79";
  ]

let fixture_programs =
  lazy
    (List.map
       (fun w ->
         ( w.Workloads.Common.name,
           Eris.Asm.assemble_exn w.Workloads.Common.source ))
       Workloads.Suite.all
    @ List.map
        (fun s -> (s, Corpus.Gen.program (Corpus.Spec.of_string_exn s)))
        fixture_specs)

let configs ~ks ~retentions =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun retention ->
          List.map
            (fun line_size -> (k, retention, line_size))
            [ None; Some 32 ])
        retentions)
    ks

let fixture_configs =
  configs ~ks:[ 2; 8 ] ~retentions:[ Residency.Policy.Kedge; Clock ]

(* The two adaptive retentions, at one k: loop-scaled k-edge and a
   pinned set, so the runtime's per-block k and never-due pins are
   pinned too. *)
let adaptive_configs =
  configs ~ks:[ 4 ]
    ~retentions:
      [
        Residency.Policy.Loop_aware { weight = 2 };
        Pin_hot { pinned = [ 0; 2 ] };
      ]

(* A run's stats and the digest of its final data memory (or how it
   failed), as one string. *)
let outcome = function
  | Ok (m, stats) ->
    let mem = Buffer.create 65536 in
    for w = 0 to (65536 / 4) - 1 do
      Buffer.add_int32_le mem (Int32.of_int (Eris.Machine.read_word m (4 * w)))
    done;
    Marshal.to_string stats [] ^ Digest.string (Buffer.contents mem)
  | Error (Runtime.Out_of_fuel stats) -> "fuel" ^ Marshal.to_string stats []
  | Error (Runtime.Machine_fault { pc; message; stats }) ->
    Printf.sprintf "fault %d %s" pc message ^ Marshal.to_string stats []

(* The event stream is hashed in 64 KiB pieces, each folded into the
   running digest, so a long run never holds its whole JSON text. *)
let fixture_run (k, retention, line_size) prog =
  let d = ref (Digest.string "") and buf = Buffer.create 65536 in
  let fold () =
    d := Digest.string (!d ^ Buffer.contents buf);
    Buffer.clear buf
  in
  let sink =
    Sim.Events.callback (fun e ->
        Buffer.add_string buf (Sim.Events.to_json e);
        Buffer.add_char buf '\n';
        if Buffer.length buf >= 65536 then fold ())
  in
  let result = Runtime.run ~k ~retention ?line_size ~sink prog in
  fold ();
  Digest.to_hex (Digest.string (outcome result ^ !d))

let fixture_expected =
  [|
    "a37d04a645aeaa40bc47e32d178f8649"; "733a140721f1c6b16514f28b5fdf3596";
    "ee97c64ee70fad396988acf1897a8a7f"; "ab2b0e59757bac859a1355b234e8df47";
    "6db4d6f1b836e4d65bb3bce4220dcf1b"; "c953c3751ff4d77be31a99391058190d";
    "8fae16140c94ad1bc0767cc767462a1b"; "541b1aee6d865b833e0d794377935ed5";
    "8653652feb872f050e060215e8f2d0c3"; "acbe91b85a18338ad6c033813daffa1d";
    "ad330ab1b6fbacd4d98f5fd010e318b2"; "7572e6d2b29eac4414c05a51cf4916aa";
    "9e409c7cc21becabaaa2b2ff39ded63b"; "cad6b4561c6e4af9c272f956bc66ccb7";
    "06da3ece722e30340ca44debaae13e34"; "4a8e66fd1d806be9c8af6f9e26a1c669";
    "b7655252186c05b40703813a6b826ff9"; "d84b6121ba6e6f722ad5593eb295dcdc";
    "9a269bd37ec9bcd6e413ead136beb749"; "3221fd6d625146084dd24b97fd6a70cd";
    "5ab1d25710cb5aab166dde867b9aefed"; "4863ada25a7513033a39fc228ee4b241";
    "f79a21c3f828a3e1db288124de1cf910"; "58059341f6b38f8991d36fed99f40291";
    "f54e25242a5dd52c477d4e6bf5f30f0c"; "6235418c861a7fb411952e3c95dfe980";
    "68f9d3725692b1f9a50b540cdbab766b"; "07971ce191cc838a9263364fd0722b9f";
    "486822f758a8dccc93605f742f630426"; "a7974b639d92247ca5c9336fa44b31c9";
    "500813ce970f345675d8078eef43b731"; "ee13995108477de69ec02e096406456b";
    "6aec9dc1f4f0b07aba7b879dc4ec0524"; "cf48ded5d18685e84ff651d4e31f643c";
    "6bb7aa4ac497d3824d5166c4c4891629"; "a27f0bfb2a123ee785b8247c21e66b83";
    "71f1f7c2cf2dbcdd35e7f4317e03094a"; "d928801869d4ca77f88dc145b98628de";
    "e10b26bed6d5d93afb0fed34e29d522f"; "cf3a477796ec3a646e72460d13ee8b11";
    "5e1eb2b04005ff7c27e1c2feb1d38204"; "165c81c67c5134cbe2d6d1291b6380ee";
    "a00367decfc644518baa305b81c77c84"; "dbc45e08bcf23b05b6280b45df5cb71e";
    "105c89f9e4eeefe41d19ad8df0ee0e6f"; "003968bae735f3fddc92239f36eebb71";
    "58fabc6b32d84aad5babd906c0a86fd8"; "7e8659382f2c0fed191d802280e30a30";
    "64bba9cb4a117c9b02f3df3ecee7ca75"; "a1f30fbdd92bf33f57dc635fc10c31a8";
    "e558e8fac00da20ec634d05e76c7c0bb"; "d298fafa8116c503f6f3783302cf31d2";
    "23096133a0f4c4ce5abb67d2177ee5b6"; "24743ae752ee9e6293b19827ac965a7c";
    "146549e97b8b5e88715c163467ba8024"; "dc9072ad3fc7dbe3558811a1f76458a7";
    "452baffe89f1f2692a3ca016aa93d2ac"; "b57b6b9883764e4d50e1ddb10f02a327";
    "3181e062944a567c0cd39b5436ab56d3"; "16427bc15b464968aea1ccc7a6da766a";
    "ddb3f6a38e5f165c81454e084b29b07e"; "c45a19664c0b4befc5feb2b1263e1fe6";
    "4c8a657d66041a4e08716ae5ea8b52cd"; "21d6360c493fdd7975c8294aaed17b4c";
    "bd3b2034d95be9b0a9eb6b995ab7a7ad"; "1630d0edd928fbc270b80069e69a4863";
    "0ec39986d84960f73e2ccc0c979c76d1"; "c97aad2dfe5f580cd8ac19a40a0b9546";
    "27e0883fa951187c978e6fa3eca7694c"; "efc0d3dbf23c6975dd8275f715e135a1";
    "3f042ef978f5f3eee9cf468643533245"; "ef02e65661f389df71bcf84584964dc4";
    "4fd0892d040e0a89f7f911cb1efa5083"; "5963e14b9aaa2d2709bb8eb8ed4ca229";
    "cbaa336966c8245b2a3a54451c4d2d72"; "51302b1f48cbf331da5d7466add4db3a";
    "bc3f8bb299849da594cbc2e3e20ebc1d"; "72151e75a8e0b22c6ebc8b6340ec9e9b";
    "69c4a5e84738b9009c1b4466d05d05e1"; "dcba10063b14be27ba69791dbf7c77c1";
    "9b64cfe3f487a0e717f3fac321c98bd0"; "88b3ec8f9a7ae136e3932dc5e117e5b0";
    "12a4ae948f7383c783e622ff1a93a459"; "0166c66381ad9e3669f107d390b044a6";
    "0fbf0415e7353e0b7261bd037ed59083"; "fc58547fcf322caa4ff829915c81e622";
    "5bf27f60ef383db1a30db27cf268a8bb"; "c0abea88e58df66a287552966a034c5f";
    "82802d18488a2c6125b8237b8d12e89a"; "c439f9de9d8ffea354107236ef9ca991";
    "e427465bb0f1ee8e09e5e98c5eb7146b"; "a9ea8be85a9321063b579111d6f50eee";
    "a762ec8424045bfcaaabb020b8ec7cd2"; "7ecbdb35a521a76ea777bb1eef7d06aa";
    "dffde1674b257316a89b0438f6f56d30"; "f021f5e2d5abb759bc326cbe6910dabf";
    "8787f369155abc993ab8ccb26abe0dcf"; "a876a18d36773e144853292c67914a21";
    "2ca88f272ed16a1ea4e79bc33aca00c2"; "044cf8ca34d34b2728322e6f9dc32dd9";
    "2a8ba315fe72f27733c73c43a9b1801b"; "794dcf59f1932917ba93884a9d4afde6";
    "7b038706706395697eeef3e7a7a37980"; "10c914a77235af610cacf74f9bbf857f";
    "d42ebd6432e0b06c9a11d70c0b7b1796"; "ebe088d80a8287b3592eefb583643f0e";
    "3b8c035d1fee5ecdfb0976e007480f8c"; "b006e53054b937fc8a902366e76b490f";
    "bf72c4e22e93264c13bba7294cd4509f"; "09e59b157d225d113d1b74fbfa1d1a30";
    "4f256af73b3e73572502acb7d9460e6e"; "69ee34012ebf702aa7eccd343a1bfe9f";
    "c96a7338ff91074a052bf6f74f2be43c"; "c15ed886597af767e929dab987fb7801";
    "eaf9e097b150d871780d0654ca2a1b1a"; "25999b5a54f9b5e530e4ddc2d837b2b1";
    "1936918e0bd9ba06a2f2a0b4821e8201"; "5009b2d696eea08b138a3230c84cee3c";
    "96484e8a75681b54742b850af1b84c80"; "15541fecc4f266e8ec7e9d3751783fd5";
    "2a0c0489d05f4f9272854f501a795b73"; "27569267164abecd5970cde5e22ce84a";
    "b4f45d3183646d317f4853eb385f7b56"; "c72c3e4368b2465f014bc78a1fa3eea4";
    "31be31abdd13d7a47d862a1f358e0522"; "b0918c85d8938225ff450da309a9fdfa";
    "2fbbeef97a9692f1f2f6efc63efb42c2"; "449b38906bbdaaa694ce5261eca5ddf0";
    "be031a306e11580e67a4bbd6fc8d7d94"; "0d919f4a979ad54f2a55377b9b2e2d50";
    "47a0a07ebee5e655270fa301c3ae22ba"; "473e8f9fb1b663a07012a349d9bab3cd";
    "695f7021276c68b02177ecf380799ca0"; "ea61cf902c7f52bdc3ffd01970368745";
    "2d0582b213601346b903e04ece056ac2"; "9076377c81e79216abb9b583ae79fed4";
    "5d9163a3b13465a37e7270a5a368654e"; "8466b7b6c06ff493459f6ea67facdbc4";
    "142bb7ea9f85d87daf6aa6af76414f5d"; "b627136789149f1b4abb1c45630d7957";
    "a4538b3f450a016109adcc6aaef3fb8e"; "006d1dcaeeeb7fd0ed67840eb6cd2f43";
    "b69433adcf4b860493b3a592ebb9ed14"; "ff63863cc578be714113fd6df45e52ed";
    "d07cf6256ee48a04ebdf96cbd189cf08"; "24423473205c293b3dc2b399f149836a";
    "2175e5d6b0e39a23482fa2d75e69c5b2"; "960bbb7b4aead43090f42950f966c06f";
    "277b6a3646a1b93fa7fe2e56bed4a2fd"; "d20b8c4649901c6649c574af75728b89";
    "45d70d92ed9e1a117e742d43eaa6e666"; "45c2ea05d0c84665d949b7036e4fa3e6";
    "52f9ed0dd824d5af3c2c38926e1d639c"; "20ee88366d4dcb1354b3335694f0e768";
    "450d673048178f69540038b2c971e0d9"; "1f330da79a831e16909ffc45a7bd3efb";
    "bed27a03b1d821a33451d0884bc143ac"; "8dd0f03f99aff05084f922aaa29a1e62";
    "7a659219dc79f6f16809191b08240432"; "bda308660010024e3198cd036491cda8";
  |]

let adaptive_expected =
  [|
    "c6415493aea786416fce6decc2d5c5ba"; "a08072c3bbf0ec27d96394d02e89e99e";
    "1fec0e3de70d400ab1efa2f24e929609"; "97654ac6587ac2b6db3b3ad10427ec2f";
    "e254bf2c2c89d6791705e66275d37f80"; "6a53d5718a06c7343b2e9ed7dc87bedf";
    "5884b6abe687d4a585076c7cf86ba91b"; "e7566758a3720108d187852811dabe85";
    "5bbe4f2017dd002d1aef43fcabf9ed48"; "1ac3a583d78c0af122147d2cec1094cc";
    "5891f68a5c13018a5928350893a1660b"; "75943892619dbb218cee9a903e720df9";
    "851cb4b652e4fbd14047361440e497b2"; "cca0e8e80a7849a59377a7b60321b698";
    "a09964b3b5d38f02a2e65d54d73c5e9f"; "570d6d70c12aca6b342cd946ff71dbb7";
    "29e019a6c5790540f74b5a904b8e78ac"; "c4809f04bec86e15df64b5aeb361c04f";
    "9863f27912890506c9def77b66c6f0e5"; "20ee9d377c73c5ae898cb21ec06e60f0";
    "9226514bf154d59c48e0a16045f71ad6"; "2218db9c267e9e1ffcfd285cc1951163";
    "1fa5a4d7bca3ba2739f59abf2a193a41"; "76a6ea2d9f2534b8dd5a92c50dc18875";
    "2e0c44136237a28e1a6e1685f537f8ce"; "0a50df080bb5638541b114e5867a5014";
    "30689438b4c88de6730bb5ef75acab55"; "e68af7f4699d9ea5aff4fcf005e67e83";
    "231192e7891857746af800356dbd724f"; "2ca017a009fbe2b22ddfb881b011d3ee";
    "3463fc3b11a3f5e23933bd2a7fe50187"; "6f543413f88fe9af7ee01593c00a1a0b";
    "865ed1acb2750fa5ef79e5c44cbf04bb"; "15c683a676f98ff211db43e94d57eafd";
    "c0efa2b7156b7d35914caee70646d002"; "ceb8079f2b0910bcf47810f2aaec2b58";
    "7ebc2f6058677d7cf8cff6a8d9046e76"; "9c6d8761b75beb333fa15d3c333d58d9";
    "3f60ff85c9a1a4f2b0f5e0dedde3ad7f"; "facd868864b42a6f5ba681b5caa8d872";
    "e93f52f92b0f89756eab04a9442e1ad8"; "353634bc294a6f0d6c68bbbde4eb467f";
    "0fd3c809d8881517e5cbceee0ea7ab9b"; "29a951be40c2ae0a804bcdb805d38e72";
    "cc3c120a628287a4f213080f69f0d8a7"; "89edfc97dc9f465b932bf1a67694dbc6";
    "2dd2b4642da4d7996b7ac84d48784735"; "0437f9a6880d6899a040123ef3e97425";
    "c168649900a260ff941371358f121a0e"; "786342e330056b92c7ed00f4a51eef7e";
    "33866a7be160cb467c149a97337afe48"; "6ffafce76b79d76226c486feb89aafda";
    "8d7c55b1f17c87931dea2180fcb383cf"; "e2b60c4d65c7fde97fcced13f8448ff4";
    "ea4818dba2d73d04875b8422c29cf3c2"; "cb999cd84af548efef01508aaf333a33";
    "87814d248c2dd65cd2fe9aaf0664e4c9"; "312b2272ed279b3a775acf450448b04e";
    "9ee00bb9407267a3376fd49999eea8dd"; "d4a717dcd14651db997ce3155a880e20";
    "8c8f603f36967ccde719fbdd0c96ce52"; "da8883c0f619a43b0c6f77318bbc6744";
    "d2ebd6b5f26fba9dc225f525f19f46e3"; "a640df52159162c91d61f507112ad071";
    "05a31de1c10a24a4507cefc72a42b61e"; "4154765cbd802a3e1c1c1e272adf3946";
    "ca721fd746dcb80bdcff4bf4c8a42279"; "68db4e8664e0678e0b970e1e7f476e1d";
    "31f46569c7e76fab7f0aec6a479d7a2a"; "4760ff918758bcad7a41baecd97f0618";
    "895a08d1f1acc11b60d452a17184d875"; "b7e9249f7234ae3eaf424663be2896a2";
    "4159749b48a0d3c3fdeb377f78dc5aef"; "d3e763b3bee1db4cd544989b245b714e";
    "4340b0430eccc87fbc4aac7d81dd7a0d"; "9360cd33279f6300800f0f6e494e4298";
    "dfec39d9f65f5d64a73cd22a009305cb"; "8356e95a8579ebf844015b40c622239e";
    "61b5e041f5609aa75955ac6f0ef76eb1"; "c50a3587e71ecf6dd737700a4568a890";
  |]

let check_fixture configs expected () =
  let got =
    List.concat_map
      (fun config ->
        List.map
          (fun (name, prog) -> (config, name, fixture_run config prog))
          (Lazy.force fixture_programs))
      configs
  in
  checki "cases" (Array.length expected) (List.length got);
  List.iteri
    (fun i ((k, retention, line_size), name, d) ->
      Alcotest.check Alcotest.string
        (Printf.sprintf "case %d: %s k=%d %s %s" i name k
           (Residency.Policy.spec_name retention)
           (match line_size with None -> "block" | Some l -> Printf.sprintf "line%d" l))
        expected.(i) d)
    got

(* Events are built only for a sink, so a run without one must end
   with the same stats and final memory as a run with one, over every
   configuration the fixture pins. *)
let test_sink_independence () =
  List.iter
    (fun (k, retention, line_size) ->
      List.iter
        (fun (name, prog) ->
          let quiet = Runtime.run ~k ~retention ?line_size prog in
          let counted =
            Runtime.run ~k ~retention ?line_size
              ~sink:(Sim.Events.counting (Sim.Events.counters ()))
              prog
          in
          checkb
            (Printf.sprintf "%s k=%d %s %s" name k
               (Residency.Policy.spec_name retention)
               (match line_size with
               | None -> "block"
               | Some l -> Printf.sprintf "line%d" l))
            true
            (outcome quiet = outcome counted))
        (Lazy.force fixture_programs))
    (fixture_configs @ adaptive_configs)

let () =
  Alcotest.run "runtime"
    [
      ("correctness", correctness_tests);
      ( "behavior",
        [
          Alcotest.test_case "k reduces traps" `Quick test_k_reduces_traps;
          Alcotest.test_case "patching pays off" `Quick test_patching_pays_off;
          Alcotest.test_case "dangling return reload" `Quick
            test_dangling_return_reload;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
          Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
          Alcotest.test_case "wild jump faults" `Quick test_wild_jump_faults;
          Alcotest.test_case "computed jump into a copy faults" `Quick
            test_computed_jump_into_copy_faults;
          Alcotest.test_case "codec independence" `Quick test_codec_choice;
          Alcotest.test_case "agrees with the model" `Quick
            test_runtime_engine_agreement;
          Alcotest.test_case "corrupt decompression faults" `Quick
            (expect_mismatch first_byte);
          Alcotest.test_case "corrupt middle byte faults" `Quick
            (expect_mismatch middle_byte);
          Alcotest.test_case "corrupt last byte faults" `Quick
            (expect_mismatch last_byte);
        ] );
      ( "line-mode",
        [
          Alcotest.test_case "checksums unchanged" `Quick
            test_line_mode_checksums;
          Alcotest.test_case "decompressions count lines" `Quick
            test_line_mode_counts_lines;
          Alcotest.test_case "line codec" `Quick test_line_mode_line_codec;
          Alcotest.test_case "validation" `Quick test_line_mode_validation;
          Alcotest.test_case "corrupt line decompression faults" `Quick
            (expect_mismatch ~line_size:32 first_byte);
          Alcotest.test_case "corrupt middle line byte faults" `Quick
            (expect_mismatch ~line_size:32 middle_byte);
          Alcotest.test_case "corrupt last line byte faults" `Quick
            (expect_mismatch ~line_size:32 last_byte);
        ] );
      ( "fixture",
        [
          Alcotest.test_case "160 runs" `Quick
            (check_fixture fixture_configs fixture_expected);
          Alcotest.test_case "80 loop-aware and pin-hot runs" `Quick
            (check_fixture adaptive_configs adaptive_expected);
          Alcotest.test_case "results do not depend on a sink" `Quick
            test_sink_independence;
        ] );
    ]
