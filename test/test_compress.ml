(* Tests for the compression substrate: bit IO, every codec's
   roundtrip and corruption behavior, the Huffman model internals and
   the corpus statistics. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let bytes_eq = Alcotest.testable
    (fun ppf b -> Format.fprintf ppf "%S" (Bytes.to_string b))
    Bytes.equal

(* ------------------------------------------------------------------ *)
(* Bit IO                                                              *)

let test_bitio_roundtrip () =
  let w = Compress.Bitio.Writer.create () in
  Compress.Bitio.Writer.add_bits w ~value:0b101 ~bits:3;
  Compress.Bitio.Writer.add_bits w ~value:0xFF ~bits:8;
  Compress.Bitio.Writer.add_bit w false;
  Compress.Bitio.Writer.add_bits w ~value:0 ~bits:0;
  checki "bit length" 12 (Compress.Bitio.Writer.bit_length w);
  let r = Compress.Bitio.Reader.create (Compress.Bitio.Writer.contents w) in
  checki "read 3" 0b101 (Compress.Bitio.Reader.read_bits r 3);
  checki "read 8" 0xFF (Compress.Bitio.Reader.read_bits r 8);
  checkb "read bit" false (Compress.Bitio.Reader.read_bit r)

let test_bitio_msb_first () =
  let w = Compress.Bitio.Writer.create () in
  Compress.Bitio.Writer.add_bits w ~value:0b10000000 ~bits:8;
  checks "msb first byte" "\x80"
    (Bytes.to_string (Compress.Bitio.Writer.contents w))

let test_bitio_padding () =
  let w = Compress.Bitio.Writer.create () in
  Compress.Bitio.Writer.add_bit w true;
  checks "padded with zeros" "\x80"
    (Bytes.to_string (Compress.Bitio.Writer.contents w))

let test_bitio_out_of_bits () =
  let r = Compress.Bitio.Reader.create (Bytes.create 1) in
  ignore (Compress.Bitio.Reader.read_bits r 8);
  checkb "exhausted" true
    (match Compress.Bitio.Reader.read_bit r with
    | _ -> false
    | exception Compress.Codec.Corrupt _ -> true)

let test_bitio_rejects_wide_writes () =
  let w = Compress.Bitio.Writer.create () in
  Alcotest.check_raises "31 bits rejected"
    (Invalid_argument "Bitio.Writer.add_bits") (fun () ->
      Compress.Bitio.Writer.add_bits w ~value:0 ~bits:31)

let test_bitio_bulk_bytes () =
  (* out-of-range slices are caller errors, not Corrupt *)
  let w = Compress.Bitio.Writer.create () in
  Alcotest.check_raises "bad slice"
    (Invalid_argument "Bitio.Writer.write_bytes") (fun () ->
      Compress.Bitio.Writer.write_bytes w (Bytes.of_string "ab") ~pos:1 ~len:2);
  (* an exhausted reader raises Corrupt, not a silent short read *)
  let r = Compress.Bitio.Reader.create (Bytes.of_string "ab") in
  checkb "short read_bytes" true
    (match Compress.Bitio.Reader.read_bytes r 3 with
    | (_ : bytes) -> false
    | exception Compress.Codec.Corrupt _ -> true);
  (* bulk read resumes correctly after it drains the bit accumulator *)
  let w = Compress.Bitio.Writer.create () in
  Compress.Bitio.Writer.write_bytes w (Bytes.of_string "hello world") ~pos:6
    ~len:5;
  let r = Compress.Bitio.Reader.create (Compress.Bitio.Writer.contents w) in
  ignore (Compress.Bitio.Reader.read_bits r 16);
  checks "tail" "rld"
    (Bytes.to_string (Compress.Bitio.Reader.read_bytes r 3))

(* The bulk path must produce the same stream and the same reads as
   the bit-at-a-time path, from aligned and misaligned bit offsets
   alike. *)
let prop_bitio_bulk_equiv =
  QCheck.Test.make ~count:300 ~name:"write_bytes/read_bytes = per-byte bits"
    QCheck.(
      pair (int_range 0 13) (string_of_size Gen.(int_range 0 64)))
    (fun (prefix_bits, body) ->
      let bulk = Compress.Bitio.Writer.create () in
      let slow = Compress.Bitio.Writer.create () in
      for i = 1 to prefix_bits do
        Compress.Bitio.Writer.add_bit bulk (i land 1 = 1);
        Compress.Bitio.Writer.add_bit slow (i land 1 = 1)
      done;
      Compress.Bitio.Writer.write_bytes bulk (Bytes.of_string body) ~pos:0
        ~len:(String.length body);
      String.iter
        (fun c -> Compress.Bitio.Writer.add_bits slow ~value:(Char.code c) ~bits:8)
        body;
      let b = Compress.Bitio.Writer.contents bulk in
      if not (Bytes.equal b (Compress.Bitio.Writer.contents slow)) then false
      else begin
        let r_bulk = Compress.Bitio.Reader.create b in
        let r_slow = Compress.Bitio.Reader.create b in
        for _ = 1 to prefix_bits do
          ignore (Compress.Bitio.Reader.read_bit r_bulk);
          ignore (Compress.Bitio.Reader.read_bit r_slow)
        done;
        let got = Compress.Bitio.Reader.read_bytes r_bulk (String.length body) in
        let slow_bytes =
          Bytes.init (String.length body) (fun _ ->
              Char.chr (Compress.Bitio.Reader.read_bits r_slow 8))
        in
        Bytes.equal got (Bytes.of_string body) && Bytes.equal got slow_bytes
      end)

(* ------------------------------------------------------------------ *)
(* Codec roundtrips                                                    *)

let corpus_cases =
  [
    ("empty", Bytes.create 0);
    ("single", Bytes.of_string "x");
    ("two", Bytes.of_string "ab");
    ("run", Bytes.of_string (String.make 300 'z'));
    ("alternating", Bytes.init 256 (fun i -> if i mod 2 = 0 then 'a' else 'b'));
    ("all-bytes", Bytes.init 256 Char.chr);
    ("code-like", Core.Scenario.synthetic_block_bytes ~id:3 ~size:512);
    ("periodic", Bytes.init 1024 (fun i -> Char.chr (i mod 7 + 65)));
    ( "random",
      let st = Random.State.make [| 17 |] in
      Bytes.init 4096 (fun _ -> Char.chr (Random.State.int st 256)) );
    ( "lzw-reset",
      let st = Random.State.make [| 23 |] in
      Bytes.init 60000 (fun _ -> Char.chr (Random.State.int st 16)) );
  ]

let roundtrip_tests codec =
  List.map
    (fun (case, payload) ->
      Alcotest.test_case
        (Printf.sprintf "%s roundtrip %s" codec.Compress.Codec.name case)
        `Quick
        (fun () ->
          Alcotest.check bytes_eq "roundtrip" payload
            (codec.Compress.Codec.decompress
               (codec.Compress.Codec.compress payload))))
    corpus_cases

let all_roundtrips =
  List.concat_map roundtrip_tests
    (Compress.Registry.all ()
    @ [
        Compress.Registry.shared_huffman
          ~corpus:(Core.Scenario.synthetic_block_bytes ~id:1 ~size:2048);
        Compress.Registry.code_codec
          ~corpus:(Core.Scenario.synthetic_block_bytes ~id:1 ~size:2048);
      ])

let prop_roundtrip codec =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "%s random roundtrip" codec.Compress.Codec.name)
    QCheck.(map Bytes.of_string (string_of_size Gen.(int_range 0 2000)))
    (fun payload -> Compress.Codec.roundtrip_ok codec payload)

let prop_never_expanding =
  QCheck.Test.make ~count:300 ~name:"never_expanding bound"
    QCheck.(map Bytes.of_string (string_of_size Gen.(int_range 0 1000)))
    (fun payload ->
      List.for_all
        (fun codec ->
          Bytes.length (codec.Compress.Codec.compress payload)
          <= Bytes.length payload + 1)
        (Compress.Registry.all ()))

(* ------------------------------------------------------------------ *)
(* Known vectors and corruption                                        *)

let test_rle_known () =
  let c = Compress.Rle.codec in
  (* 5 repeated bytes: control 0x80 + (5-2) then the byte. *)
  checks "run encoding" "\x83a"
    (Bytes.to_string (c.Compress.Codec.compress (Bytes.of_string "aaaaa")));
  (* 3 literals: control 2 then the bytes. *)
  checks "literal encoding" "\x02abc"
    (Bytes.to_string (c.Compress.Codec.compress (Bytes.of_string "abc")))

let expect_corrupt codec payload =
  match codec.Compress.Codec.decompress payload with
  | _ -> false
  | exception Compress.Codec.Corrupt _ -> true

let test_corrupt_inputs () =
  checkb "rle truncated literal" true
    (expect_corrupt Compress.Rle.codec (Bytes.of_string "\x05ab"));
  checkb "rle truncated run" true
    (expect_corrupt Compress.Rle.codec (Bytes.of_string "\x83"));
  checkb "lzss bad back-reference" true
    (expect_corrupt Compress.Lzss.codec (Bytes.of_string "\x00\xFF\xF0"));
  checkb "lzw truncated header" true
    (expect_corrupt Compress.Lzw.codec (Bytes.of_string "ab"));
  checkb "huffman truncated header" true
    (expect_corrupt Compress.Huffman.codec (Bytes.of_string "ab"));
  checkb "huffman truncated table" true
    (expect_corrupt Compress.Huffman.codec (Bytes.of_string "\x10\x00\x00\x00\x05"));
  checkb "never_expanding empty" true
    (expect_corrupt (Compress.Codec.never_expanding Compress.Null.codec)
       (Bytes.create 0));
  checkb "never_expanding bad tag" true
    (expect_corrupt (Compress.Codec.never_expanding Compress.Null.codec)
       (Bytes.of_string "\x07abc"))

let test_lzw_bad_code () =
  (* header says 4 bytes, payload starts with an out-of-range code *)
  let b = Bytes.of_string "\x04\x00\x00\x00\xFF\xF0" in
  checkb "lzw bad first code" true (expect_corrupt Compress.Lzw.codec b)

(* ------------------------------------------------------------------ *)
(* Huffman internals                                                   *)

let test_huffman_code_lengths () =
  let freqs = Array.make 256 0 in
  freqs.(0) <- 100;
  freqs.(1) <- 50;
  freqs.(2) <- 10;
  freqs.(3) <- 10;
  let lengths = Compress.Huffman.code_lengths freqs in
  checki "most frequent shortest" 1 lengths.(0);
  checkb "lengths ordered by frequency" true (lengths.(1) <= lengths.(2));
  checki "absent symbol" 0 lengths.(4);
  (* Kraft equality: sum 2^-l = 1 for a complete Huffman code. *)
  let kraft =
    Array.fold_left
      (fun acc l -> if l > 0 then acc +. (1.0 /. Float.of_int (1 lsl l)) else acc)
      0.0 lengths
  in
  Alcotest.check (Alcotest.float 1e-9) "kraft equality" 1.0 kraft

let test_huffman_single_symbol () =
  let freqs = Array.make 256 0 in
  freqs.(65) <- 42;
  let lengths = Compress.Huffman.code_lengths freqs in
  checki "single symbol gets length 1" 1 lengths.(65);
  let payload = Bytes.of_string (String.make 20 'A') in
  checkb "single-symbol roundtrip" true
    (Compress.Codec.roundtrip_ok Compress.Huffman.codec payload)

let test_huffman_canonical_codes () =
  let lengths = Array.make 256 0 in
  lengths.(10) <- 2;
  lengths.(20) <- 2;
  lengths.(30) <- 2;
  lengths.(40) <- 3;
  lengths.(50) <- 3;
  let codes = Compress.Huffman.canonical_codes lengths in
  checkb "codes increase within length" true (fst codes.(10) < fst codes.(20));
  checkb "length-2 codes are 2 bits" true (snd codes.(10) = 2);
  (* canonical: first length-3 code = (last length-2 code + 1) << 1 *)
  checki "canonical step" ((fst codes.(30) + 1) lsl 1) (fst codes.(40))

let prop_huffman_kraft =
  QCheck.Test.make ~count:300 ~name:"huffman kraft equality on random freqs"
    QCheck.(array_of_size (QCheck.Gen.return 256) (int_range 0 1000))
    (fun freqs ->
      let present = Array.exists (fun f -> f > 0) freqs in
      QCheck.assume present;
      let lengths = Compress.Huffman.code_lengths freqs in
      let nsyms = Array.fold_left (fun a f -> if f > 0 then a + 1 else a) 0 freqs in
      if nsyms = 1 then Array.fold_left max 0 lengths = 1
      else
        let kraft =
          Array.fold_left
            (fun acc l ->
              if l > 0 then acc +. (1.0 /. Float.of_int (1 lsl l)) else acc)
            0.0 lengths
        in
        Float.abs (kraft -. 1.0) < 1e-9)

let test_shared_decodes_only_same_model () =
  let c1 = Compress.Huffman.shared ~corpus:(Bytes.of_string "aaaabbbbcccc") in
  let payload = Bytes.of_string "abcabc" in
  let compressed = c1.Compress.Codec.compress payload in
  checkb "same model ok" true
    (Bytes.equal payload (c1.Compress.Codec.decompress compressed))

let test_positional_beats_global_on_code () =
  (* Word-structured data: positional models should win. *)
  let corpus = Core.Scenario.synthetic_block_bytes ~id:9 ~size:4096 in
  let global = Compress.Huffman.shared ~corpus in
  let positional = Compress.Huffman.shared_positional ~corpus in
  let payload = Core.Scenario.synthetic_block_bytes ~id:9 ~size:512 in
  checkb "positional smaller" true
    (Bytes.length (positional.Compress.Codec.compress payload)
    <= Bytes.length (global.Compress.Codec.compress payload))

let test_shared_rejects_large_blocks () =
  let c = Compress.Huffman.shared ~corpus:(Bytes.of_string "abc") in
  Alcotest.check_raises "64KiB limit"
    (Invalid_argument "Huffman shared codecs handle blocks under 64 KiB")
    (fun () -> ignore (c.Compress.Codec.compress (Bytes.create 70000)))

(* ------------------------------------------------------------------ *)
(* MTF                                                                 *)

let test_mtf_transform () =
  let payload = Bytes.of_string "aaabbbaaa" in
  let t = Compress.Mtf.transform payload in
  checkb "self-inverse" true
    (Bytes.equal payload (Compress.Mtf.untransform t));
  (* after the first 'a', repeats become rank 0 *)
  checki "repeat rank" 0 (Char.code (Bytes.get t 1))

(* ------------------------------------------------------------------ *)
(* Registry & stats                                                    *)

let test_registry () =
  (* six stream codecs + the BDI/CPack line family at 16/32/64 *)
  checki "twelve built-ins" 12 (List.length (Compress.Registry.all ()));
  checkb "find lzss" true (Compress.Registry.find "lzss" <> None);
  checkb "find bdi-32" true (Compress.Registry.find "bdi-32" <> None);
  checkb "find cpack-64" true (Compress.Registry.find "cpack-64" <> None);
  checkb "find unknown" true (Compress.Registry.find "gzip" = None);
  checks "default is lzss" "lzss" Compress.Registry.default.Compress.Codec.name;
  Alcotest.check_raises "find_exn unknown"
    (Invalid_argument "Compress.Registry.find_exn: \"gzip\"") (fun () ->
      ignore (Compress.Registry.find_exn "gzip"))

let test_stats () =
  let blocks =
    [ Bytes.of_string (String.make 100 'a'); Bytes.of_string "xyz"; Bytes.create 0 ]
  in
  let s = Compress.Stats.measure (Compress.Registry.find_exn "rle") blocks in
  checki "nonempty blocks counted" 2 s.Compress.Stats.blocks;
  checki "original bytes" 103 s.Compress.Stats.original_bytes;
  checkb "ratio sane" true (s.Compress.Stats.ratio > 0.0);
  checkb "best <= worst" true
    (s.Compress.Stats.best_block_ratio <= s.Compress.Stats.worst_block_ratio)

let test_throughput_zero_min_time () =
  (* a run too fast for the clock must still report finite rates *)
  let tp =
    Compress.Stats.throughput ~min_time_s:0.0
      (Compress.Registry.find_exn "null")
      [ Bytes.create 16 ]
  in
  checkb "comp finite" true (Float.is_finite tp.Compress.Stats.comp_mbps);
  checkb "dec finite" true (Float.is_finite tp.Compress.Stats.dec_mbps);
  checkb "comp positive" true (tp.Compress.Stats.comp_mbps > 0.0);
  checkb "dec positive" true (tp.Compress.Stats.dec_mbps > 0.0)

let test_codec_helpers () =
  let c = Compress.Registry.find_exn "rle" in
  let payload = Bytes.of_string (String.make 64 'q') in
  checkb "ratio below 1 on runs" true (Compress.Codec.ratio c payload < 1.0);
  checki "compressed_size consistent"
    (Bytes.length (c.Compress.Codec.compress payload))
    (Compress.Codec.compressed_size c payload);
  checkb "roundtrip_ok" true (Compress.Codec.roundtrip_ok c payload)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run ~and_exit:false "compress"
    [
      ( "bitio",
        [
          Alcotest.test_case "roundtrip" `Quick test_bitio_roundtrip;
          Alcotest.test_case "msb first" `Quick test_bitio_msb_first;
          Alcotest.test_case "padding" `Quick test_bitio_padding;
          Alcotest.test_case "out of bits" `Quick test_bitio_out_of_bits;
          Alcotest.test_case "wide writes rejected" `Quick
            test_bitio_rejects_wide_writes;
          Alcotest.test_case "bulk bytes" `Quick test_bitio_bulk_bytes;
          qcheck prop_bitio_bulk_equiv;
        ] );
      ("roundtrips", all_roundtrips);
      ( "random-roundtrips",
        List.map (fun c -> qcheck (prop_roundtrip c)) (Compress.Registry.all ())
        @ [ qcheck prop_never_expanding ] );
      ( "corruption",
        [
          Alcotest.test_case "rle known vectors" `Quick test_rle_known;
          Alcotest.test_case "corrupt inputs" `Quick test_corrupt_inputs;
          Alcotest.test_case "lzw bad code" `Quick test_lzw_bad_code;
        ] );
      ( "huffman",
        [
          Alcotest.test_case "code lengths" `Quick test_huffman_code_lengths;
          Alcotest.test_case "single symbol" `Quick test_huffman_single_symbol;
          Alcotest.test_case "canonical codes" `Quick
            test_huffman_canonical_codes;
          Alcotest.test_case "shared model" `Quick
            test_shared_decodes_only_same_model;
          Alcotest.test_case "positional beats global on code" `Quick
            test_positional_beats_global_on_code;
          Alcotest.test_case "shared block size limit" `Quick
            test_shared_rejects_large_blocks;
          qcheck prop_huffman_kraft;
        ] );
      ("mtf", [ Alcotest.test_case "transform" `Quick test_mtf_transform ]);
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "throughput zero min-time" `Quick
            test_throughput_zero_min_time;
          Alcotest.test_case "codec helpers" `Quick test_codec_helpers;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Instruction dictionary (appended suite)                             *)

let code_corpus = Core.Scenario.synthetic_block_bytes ~id:11 ~size:2048

let test_dict_roundtrip () =
  let c = Compress.Dict.shared ~corpus:code_corpus in
  List.iter
    (fun size ->
      let payload = Core.Scenario.synthetic_block_bytes ~id:11 ~size in
      checkb
        (Printf.sprintf "dict roundtrip %dB" size)
        true
        (Compress.Codec.roundtrip_ok c payload))
    [ 0; 4; 64; 512; 2048 ];
  (* non-word-aligned tail *)
  let odd = Bytes.of_string "abcdefg" in
  checkb "dict odd length" true (Compress.Codec.roundtrip_ok c odd)

let test_dict_compresses_repeats () =
  let c = Compress.Dict.shared ~corpus:code_corpus in
  let payload = Core.Scenario.synthetic_block_bytes ~id:11 ~size:512 in
  checkb "dict compresses its corpus" true
    (Compress.Codec.ratio c payload < 0.8)

let test_dict_dictionary () =
  let words = Compress.Dict.dictionary_words ~corpus:code_corpus in
  checkb "dictionary nonempty" true (words <> []);
  checkb "bounded" true (List.length words <= 254);
  checkb "unique" true
    (List.length (List.sort_uniq compare words) = List.length words)

let test_dict_corrupt () =
  let c = Compress.Dict.shared ~corpus:code_corpus in
  checkb "truncated header" true
    (expect_corrupt c (Bytes.of_string "a"));
  checkb "truncated body" true
    (expect_corrupt c (Bytes.of_string "\x08\x00\xFF"));
  (* index beyond table: dictionary of this corpus has < 250 entries *)
  let words = List.length (Compress.Dict.dictionary_words ~corpus:code_corpus) in
  if words < 250 then
    checkb "bad index" true (expect_corrupt c (Bytes.of_string "\x04\x00\xFA"))

let test_registry_shared_all () =
  checki "three shared codecs" 3
    (List.length (Compress.Registry.shared_all ~corpus:code_corpus));
  let d = Compress.Registry.dict_codec ~corpus:code_corpus in
  checks "dict name" "dict" d.Compress.Codec.name

let () =
  Alcotest.run ~and_exit:false "compress-dict"
    [
      ( "dict",
        [
          Alcotest.test_case "roundtrip" `Quick test_dict_roundtrip;
          Alcotest.test_case "compresses repeats" `Quick
            test_dict_compresses_repeats;
          Alcotest.test_case "dictionary contents" `Quick test_dict_dictionary;
          Alcotest.test_case "corruption" `Quick test_dict_corrupt;
          Alcotest.test_case "registry" `Quick test_registry_shared_all;
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Golden vectors (appended suite)                                     *)

(* Exact compressed bytes for every codec over a fixed input set,
   pinned when the kernels were rewritten for speed: any wire-format
   drift — a different match emitted by LZSS, a reordered canonical
   code — fails here even though the roundtrip tests still pass.
   Outputs up to 64 bytes are pinned as hex; larger ones by length and
   MD5. Regenerate only for a deliberate, versioned format change. *)

let golden_inputs =
  [
    ("abc", Bytes.of_string "abc");
    ("run", Bytes.of_string (String.make 300 'z'));
    ("alternating", Bytes.init 256 (fun i -> if i mod 2 = 0 then 'a' else 'b'));
    ("all-bytes", Bytes.init 256 Char.chr);
    ("code-512", Core.Scenario.synthetic_block_bytes ~id:3 ~size:512);
    ("code-4096", Core.Scenario.synthetic_block_bytes ~id:7 ~size:4096);
  ]

let golden_corpus = Core.Scenario.synthetic_block_bytes ~id:11 ~size:2048

let golden_codecs =
  [
    Compress.Null.codec;
    Compress.Rle.codec;
    Compress.Huffman.codec;
    Compress.Lzss.codec;
    Compress.Lzw.codec;
    Compress.Mtf.codec;
    Compress.Huffman.shared ~corpus:golden_corpus;
    Compress.Huffman.shared_positional ~corpus:golden_corpus;
    Compress.Dict.shared ~corpus:golden_corpus;
  ]

(* codec|input|length|md5|hex (hex is "-" above 64 bytes) *)
let golden_table =
  {golden|
null|abc|3|900150983cd24fb0d6963f7d28e17f72|616263
null|run|300|62a457719101124d52a9c4fe5211f52a|-
null|alternating|256|c4de8dae8de92d7257bb29eb1f1b10ec|-
null|all-bytes|256|e2c865db4162bed963bfaa9ef6ac18f0|-
null|code-512|512|ff7e50ace566fff51d862aeffaa6e943|-
null|code-4096|4096|5d9896dcec5557148124753e287f3f87|-
rle|abc|4|9887647ac98ea75eddd5f7e5ddf3f316|02616263
rle|run|6|37057e8d99075df58b4d15fdeb6b5645|ff7aff7aa87a
rle|alternating|258|867f5c89e9f129b00adf73a625461eeb|-
rle|all-bytes|258|7be0620184cc49040955e0965d9478e5|-
rle|code-512|516|18d3584429071fc3a898bb53d65b77cf|-
rle|code-4096|4128|1e3252efed17f9cf39542fc5e28b4fa7|-
huffman|abc|12|6f1330bdc2e632c47f56cb0b48dec659|0300000002610262026301b0
huffman|run|45|fff7020f49ce06dd9db6d6f99200c5ae|2c010000007a010000000000000000000000000000000000000000000000000000000000000000000000000000
huffman|alternating|41|f3300491c68f93eff649872361869195|0001000001610162015555555555555555555555555555555555555555555555555555555555555555
huffman|all-bytes|773|8343f0fefc22c2f42aac66407dfe90c9|-
huffman|code-512|339|1fc6eb439e4f361372318ef27078fd1a|-
huffman|code-4096|2294|38a0aca53f4b5cc61723f46c6e2eae6b|-
lzss|abc|4|3a618a48bf04b0de5aa9692dba23c7c2|e0616263
lzss|run|38|d1ac0f0a42325d66cffd362736e03070|807a000f000f000f000f000f000f000f00000f000f000f000f000f000f000f000f00000f0008
lzss|alternating|35|93709c6dfc73ac3aed345d3cf2bff5ef|c06162001f001f001f001f001f001f00001f001f001f001f001f001f001f001fc06162
lzss|all-bytes|288|18575ab282babf3ade33df9eb5bffec1|-
lzss|code-512|223|59570d38a320137dedaae8243e0b3fd1|-
lzss|code-4096|1274|6baf663bb3be520a814844deff2aa298|-
lzw|abc|9|5a1dc13a635659b523e9b46e428e6dfd|030000000610620630
lzw|run|40|83599d0060e6768b7b2fea1790f273ae|2c01000007a10010110210310410510610710810910a10b10c10d10e10f110111112113114115116
lzw|alternating|51|3338cd813c21753503b12aa3650e1014|0001000006106210010210110410310610510810710a10910c10b10e10d11010f11211111411311611511811711a11911c11b0
lzw|all-bytes|388|30fe2f0b44121b446a0f0eeda98cef58|-
lzw|code-512|292|931d1630783df0d6883b2d94e5a010d0|-
lzw|code-4096|1512|369f836518e063505e34a3ab06977be8|-
mtf-rle|abc|4|9887647ac98ea75eddd5f7e5ddf3f316|02616263
mtf-rle|run|8|8aae5bf71b9e5402e0445849b28b4a52|007aff00ff00a700
mtf-rle|alternating|7|cd960e6e0b03ce0c80286b0e4c332f00|016162ff01fb01
mtf-rle|all-bytes|258|7be0620184cc49040955e0965d9478e5|-
mtf-rle|code-512|449|ae75936b3fbb8b50b07ffa038ae23323|-
mtf-rle|code-4096|3690|23ab91e2553b29c0eb6c736dbd5ab702|-
huffman-shared|abc|10|a877d7f7ad9a6a0c31b79d4f9e0ffa8e|0300fff83fff0bffe180
huffman-shared|run|715|362468f5e01ed58170a027c64b0ea221|-
huffman-shared|alternating|610|e5f3753d56444c06013e2e75e9b08b45|-
huffman-shared|all-bytes|516|4856d1f23eb8b0d91c36fb3fd3c7e853|-
huffman-shared|code-512|820|cd2ebf715017c015e5141edf2ac865db|-
huffman-shared|code-4096|6641|40300ad253ac7784ba773dcf6c14c580|-
huffman-positional|abc|8|73058395d7d3624105ec76dd609306e0|0300f69f6bffed00
huffman-positional|run|481|bf7c44632a75639082bb5c12927f3af2|-
huffman-positional|alternating|410|8e18dcdb9a7f42d25d8a82313f91dd26|-
huffman-positional|all-bytes|402|10d75d26c3bb8b7994e6c33b8f73950a|-
huffman-positional|code-512|643|291ae6623c57bf86a8d19a7a7496ad24|-
huffman-positional|code-4096|5138|3f71fa6dd6229432ea88536692f3f1e8|-
dict|abc|5|cf5c380e975feeadfe315a050cd8234e|0300616263
dict|run|377|4e3a2512c789c447366bfff49877e34e|-
dict|alternating|322|b42f7dbd6e73d0cded89525ef36e6d87|-
dict|all-bytes|322|32e15b9b303104ecbc06bb82bff0b59a|-
dict|code-512|642|d698ca7928217387806507dd0dedde80|-
dict|code-4096|5122|7794497bb842df63e7c4088414e2a9e8|-
|golden}

let hex_of_bytes b =
  let buf = Buffer.create (Bytes.length b * 2) in
  Bytes.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
    b;
  Buffer.contents buf

let test_golden_vectors () =
  let rows =
    String.split_on_char '\n' golden_table
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           match String.split_on_char '|' (String.trim l) with
           | [ codec; input; len; md5; hex ] ->
             (codec, input, int_of_string len, md5, hex)
           | _ -> Alcotest.failf "bad golden row %S" l)
  in
  checki "full cross product"
    (List.length golden_codecs * List.length golden_inputs)
    (List.length rows);
  List.iter
    (fun (codec_name, input_name, len, md5, hex) ->
      let codec =
        List.find
          (fun c -> c.Compress.Codec.name = codec_name)
          golden_codecs
      in
      let payload = List.assoc input_name golden_inputs in
      let z = codec.Compress.Codec.compress payload in
      let what field =
        Printf.sprintf "%s on %s: %s" codec_name input_name field
      in
      checki (what "length") len (Bytes.length z);
      checks (what "md5") md5 (Digest.to_hex (Digest.bytes z));
      if hex <> "-" then checks (what "bytes") hex (hex_of_bytes z))
    rows

(* ------------------------------------------------------------------ *)
(* Adversarial decompression                                           *)

(* Decompressors must classify every input as valid or Corrupt; any
   other exception (Invalid_argument from a Bytes bound, Not_found,
   Failure) means attacker-controlled lengths or indices reached an
   unchecked operation. Fuzz each codec with bit flips and truncations
   of genuine compressed outputs — mutations that keep most of the
   framing plausible — plus unstructured random bytes. *)

let fuzz_payloads =
  [
    Core.Scenario.synthetic_block_bytes ~id:3 ~size:512;
    Bytes.of_string (String.make 300 'z');
    (let st = Random.State.make [| 91 |] in
     Bytes.init 1024 (fun _ -> Char.chr (Random.State.int st 256)));
  ]

let decompress_total codec b =
  match codec.Compress.Codec.decompress b with
  | (_ : bytes) -> ()
  | exception Compress.Codec.Corrupt _ -> ()
  | exception e ->
    Alcotest.failf "%s leaked %s on %d-byte input %s..."
      codec.Compress.Codec.name (Printexc.to_string e) (Bytes.length b)
      (String.sub (hex_of_bytes b) 0 (min 48 (2 * Bytes.length b)))

let fuzz_codec codec =
  let st = Random.State.make [| 0x5EED; Hashtbl.hash codec.Compress.Codec.name |] in
  List.iter
    (fun payload ->
      let z = codec.Compress.Codec.compress payload in
      let n = Bytes.length z in
      (* bit flips: 1..4 flipped bits per trial *)
      for _ = 1 to 300 do
        let m = Bytes.copy z in
        for _ = 0 to Random.State.int st 4 do
          let i = Random.State.int st n in
          let bit = 1 lsl Random.State.int st 8 in
          Bytes.set m i (Char.chr (Char.code (Bytes.get m i) lxor bit))
        done;
        decompress_total codec m
      done;
      (* truncations, including the empty prefix *)
      for _ = 1 to 100 do
        decompress_total codec (Bytes.sub z 0 (Random.State.int st n))
      done;
      (* truncate and flip *)
      for _ = 1 to 100 do
        let k = 1 + Random.State.int st n in
        let m = Bytes.sub z 0 k in
        let i = Random.State.int st k in
        Bytes.set m i (Char.chr (Char.code (Bytes.get m i) lxor 0xFF));
        decompress_total codec m
      done)
    fuzz_payloads;
  (* unstructured random input *)
  for _ = 1 to 300 do
    let b =
      Bytes.init (Random.State.int st 200) (fun _ ->
          Char.chr (Random.State.int st 256))
    in
    decompress_total codec b
  done

let fuzz_tests =
  List.map
    (fun codec ->
      Alcotest.test_case
        (Printf.sprintf "fuzz %s" codec.Compress.Codec.name)
        `Quick
        (fun () -> fuzz_codec codec))
    (Compress.Registry.all ()
    @ Compress.Registry.shared_all ~corpus:golden_corpus)

(* ------------------------------------------------------------------ *)
(* Huffman against a bit-by-bit reference decoder                      *)

(* The reference decodes one bit at a time from the exported model
   functions alone ([code_lengths], [canonical_codes]): no tables, no
   accumulator, no peek past the end. Each Huffman codec must give the
   reference's bytes on valid input, and on damaged input either the
   reference's bytes or Corrupt exactly when the reference fails. *)

exception Ref_corrupt

(* (length, code) -> symbol, and the longest length. *)
let ref_model lengths =
  let codes = Compress.Huffman.canonical_codes lengths in
  let tbl = Hashtbl.create 256 in
  Array.iteri
    (fun s (code, len) -> if len > 0 then Hashtbl.replace tbl (len, code) s)
    codes;
  (tbl, Array.fold_left max 0 lengths)

(* Symbol [i] is coded with [models.(i mod n)]. *)
let ref_decode models b ~pos orig_len =
  let nbits = 8 * (Bytes.length b - pos) in
  (* every symbol takes at least one bit *)
  if orig_len > nbits then raise Ref_corrupt;
  let bit = ref 0 in
  let next_bit () =
    if !bit >= nbits then raise Ref_corrupt;
    let byte = Char.code (Bytes.get b (pos + (!bit / 8))) in
    let v = (byte lsr (7 - (!bit land 7))) land 1 in
    incr bit;
    v
  in
  let out = Bytes.create orig_len in
  for i = 0 to orig_len - 1 do
    let tbl, max_len = models.(i mod Array.length models) in
    let rec go code len =
      let code = (code lsl 1) lor next_bit () and len = len + 1 in
      match Hashtbl.find_opt tbl (len, code) with
      | Some s -> s
      | None -> if len >= max_len then raise Ref_corrupt else go code len
    in
    Bytes.set out i (Char.chr (go 0 0))
  done;
  out

let ref_u16 b =
  if Bytes.length b < 2 then raise Ref_corrupt;
  Char.code (Bytes.get b 0) lor (Char.code (Bytes.get b 1) lsl 8)

(* The per-block format: u32 length, a (symbol, length) table, the
   payload. A table that is not a prefix code (Kraft sum above one) is
   corrupt. *)
let ref_huffman b =
  if Bytes.length b < 4 then raise Ref_corrupt;
  let orig_len =
    Char.code (Bytes.get b 0)
    lor (Char.code (Bytes.get b 1) lsl 8)
    lor (Char.code (Bytes.get b 2) lsl 16)
    lor (Char.code (Bytes.get b 3) lsl 24)
  in
  if orig_len = 0 then Bytes.empty
  else begin
    if Bytes.length b < 5 then raise Ref_corrupt;
    let nsyms = Char.code (Bytes.get b 4) + 1 in
    let table_end = 5 + (2 * nsyms) in
    if Bytes.length b < table_end then raise Ref_corrupt;
    let lengths = Array.make 256 0 in
    for i = 0 to nsyms - 1 do
      let s = Char.code (Bytes.get b (5 + (2 * i))) in
      let l = Char.code (Bytes.get b (6 + (2 * i))) in
      if l = 0 || l > 30 || lengths.(s) <> 0 then raise Ref_corrupt;
      lengths.(s) <- l
    done;
    let kraft =
      Array.fold_left (fun a l -> if l > 0 then a + (1 lsl (30 - l)) else a) 0
        lengths
    in
    if kraft > 1 lsl 30 then raise Ref_corrupt;
    ref_decode [| ref_model lengths |] b ~pos:table_end orig_len
  end

(* The shared codecs' training, redone from the exported functions. *)
let ref_shared ~corpus =
  let freqs = Array.make 256 0 in
  Bytes.iter (fun c -> freqs.(Char.code c) <- freqs.(Char.code c) + 1) corpus;
  let model =
    ref_model
      (Compress.Huffman.code_lengths (Array.map (fun f -> (f * 256) + 1) freqs))
  in
  fun b -> ref_decode [| model |] b ~pos:2 (ref_u16 b)

let ref_positional ~corpus =
  let freqs = Array.init 4 (fun _ -> Array.make 256 1) in
  Bytes.iteri
    (fun i c ->
      let f = freqs.(i mod 4) in
      f.(Char.code c) <- f.(Char.code c) + 256)
    corpus;
  let models =
    Array.map (fun f -> ref_model (Compress.Huffman.code_lengths f)) freqs
  in
  fun b -> ref_decode models b ~pos:2 (ref_u16 b)

let ref_corpus =
  Eris.Program.(
    (Eris.Asm.assemble_exn
       (Workloads.Suite.find_exn "dijkstra").Workloads.Common.source)
      .image)

(* Word-aligned slices of a real image, synthetic code blocks of the
   kind the engine prices, and a few uniform-random blocks whose rare
   bytes take the codes longer than the root table. The last block
   holds byte k 2^k times (k < 14), shuffled: its own Huffman code has
   every length from 1 to 13, so the codes past the 9-bit root table
   come in every length. *)
let ref_blocks =
  let st = Random.State.make [| 0x4EF |] in
  let image = ref_corpus in
  let dyadic =
    let b = Bytes.create ((1 lsl 14) - 1) in
    let pos = ref 0 in
    for k = 0 to 13 do
      Bytes.fill b !pos (1 lsl k) (Char.chr k);
      pos := !pos + (1 lsl k)
    done;
    for i = Bytes.length b - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let c = Bytes.get b i in
      Bytes.set b i (Bytes.get b j);
      Bytes.set b j c
    done;
    b
  in
  dyadic
  :: List.init 120 (fun i ->
      match i mod 4 with
      | 0 | 1 ->
        let words = 1 + Random.State.int st 24 in
        let lo = 4 * Random.State.int st ((Bytes.length image / 4) - words) in
        Bytes.sub image lo (4 * words)
      | 2 ->
        Core.Scenario.synthetic_block_bytes ~id:(100 + i)
          ~size:(4 * (1 + Random.State.int st 64))
      | _ ->
        Bytes.init (1 + Random.State.int st 200) (fun _ ->
            Char.chr (Random.State.int st 256)))

let test_huffman_reference (codec, reference) () =
  let st = Random.State.make [| 0xD1F; Hashtbl.hash codec.Compress.Codec.name |] in
  let outcome f b =
    match f b with
    | out -> Some (Bytes.to_string out)
    | exception (Ref_corrupt | Compress.Codec.Corrupt _) -> None
  in
  let agree what b =
    let want = outcome reference b
    and got = outcome codec.Compress.Codec.decompress b in
    if want <> got then
      Alcotest.failf "%s, %s (%d bytes %s): %s, reference %s"
        codec.Compress.Codec.name what (Bytes.length b)
        (hex_of_bytes b)
        (match got with Some s -> Printf.sprintf "%d bytes" (String.length s) | None -> "Corrupt")
        (match want with Some s -> Printf.sprintf "%d bytes" (String.length s) | None -> "Corrupt")
  in
  List.iter
    (fun block ->
      let z = codec.Compress.Codec.compress block in
      let n = Bytes.length z in
      checkb "reference decodes the block" true
        (outcome reference z = Some (Bytes.to_string block));
      agree "intact" z;
      for _ = 1 to 8 do
        agree "truncated" (Bytes.sub z 0 (Random.State.int st n))
      done;
      for _ = 1 to 16 do
        let m = Bytes.copy z in
        for _ = 0 to Random.State.int st 3 do
          let i = Random.State.int st n in
          let bit = 1 lsl Random.State.int st 8 in
          Bytes.set m i (Char.chr (Char.code (Bytes.get m i) lxor bit))
        done;
        agree "bit-flipped" m
      done)
    ref_blocks

let reference_tests =
  List.map
    (fun ((codec, _) as pair) ->
      Alcotest.test_case codec.Compress.Codec.name `Quick
        (test_huffman_reference pair))
    [
      (Compress.Huffman.codec, ref_huffman);
      ( Compress.Huffman.shared ~corpus:ref_corpus,
        ref_shared ~corpus:ref_corpus );
      ( Compress.Huffman.shared_positional ~corpus:ref_corpus,
        ref_positional ~corpus:ref_corpus );
    ]

(* ------------------------------------------------------------------ *)
(* Bitio reader API (appended suite)                                   *)

let test_bitio_rejects_wide_reads () =
  let r = Compress.Bitio.Reader.create (Bytes.create 8) in
  Alcotest.check_raises "31 bits rejected"
    (Invalid_argument "Bitio.Reader.read_bits") (fun () ->
      ignore (Compress.Bitio.Reader.read_bits r 31));
  Alcotest.check_raises "negative width rejected"
    (Invalid_argument "Bitio.Reader.read_bits") (fun () ->
      ignore (Compress.Bitio.Reader.read_bits r (-1)))

let test_bitio_peek_consume () =
  let open Compress.Bitio in
  let w = Writer.create () in
  Writer.add_bits w ~value:0xA5 ~bits:8;
  Writer.add_bits w ~value:0x3 ~bits:2;
  let r = Reader.create (Writer.contents w) in
  checki "peek does not consume" 0xA5 (Reader.peek r 8);
  checki "peek again" 0xA5 (Reader.peek r 8);
  Reader.consume r 4;
  checki "peek after consume" 0x5 (Reader.peek r 4);
  checki "read_bits" 0x5 (Reader.read_bits r 4);
  (* 8 of 16 real bits consumed; the tail byte is 11000000 *)
  checki "peek tail" 0xC0 (Reader.peek r 8);
  Reader.consume r 8;
  checki "exhausted peek zero-pads" 0 (Reader.peek r 4);
  checkb "consume past end" true
    (match Reader.consume r 1 with
    | () -> false
    | exception Compress.Codec.Corrupt _ -> true)

let test_bitio_reader_offset () =
  let open Compress.Bitio in
  let r = Reader.create ~pos:1 (Bytes.of_string "\xFF\x80") in
  checki "starts at offset" 0x80 (Reader.read_bits r 8);
  checki "only the suffix" 0 (Reader.bits_left r);
  Alcotest.check_raises "pos beyond end rejected"
    (Invalid_argument "Bitio.Reader.create") (fun () ->
      ignore (Reader.create ~pos:3 (Bytes.of_string "ab")))

let () =
  Alcotest.run ~and_exit:false "compress-kernels"
    [
      ( "golden",
        [ Alcotest.test_case "pinned vectors" `Quick test_golden_vectors ] );
      ("adversarial", fuzz_tests);
      ("huffman-reference", reference_tests);
      ( "bitio-reader",
        [
          Alcotest.test_case "wide reads rejected" `Quick
            test_bitio_rejects_wide_reads;
          Alcotest.test_case "peek/consume" `Quick test_bitio_peek_consume;
          Alcotest.test_case "reader offset" `Quick test_bitio_reader_offset;
        ] );
    ]
