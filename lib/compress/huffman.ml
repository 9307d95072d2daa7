let num_symbols = 256
let max_code_len = 30

(* ------------------------------------------------------------------ *)
(* Model construction                                                  *)

(* Two-queue Huffman construction over the present symbols; returns
   per-symbol code lengths. *)
let code_lengths freqs =
  if Array.length freqs <> num_symbols then
    invalid_arg "Huffman.code_lengths: need 256 frequencies";
  let present =
    Array.to_list (Array.mapi (fun s f -> (s, f)) freqs)
    |> List.filter (fun (_, f) -> f > 0)
  in
  let lengths = Array.make num_symbols 0 in
  match present with
  | [] -> lengths
  | [ (s, _) ] ->
    lengths.(s) <- 1;
    lengths
  | _ ->
    (* Nodes: leaf (symbol) or internal (children indices). *)
    let leaves =
      List.sort (fun (_, a) (_, b) -> compare a b) present |> Array.of_list
    in
    let n = Array.length leaves in
    (* parent.(i) for node ids: 0..n-1 leaves, n.. internal. *)
    let parent = Array.make ((2 * n) - 1) (-1) in
    let weight = Array.make ((2 * n) - 1) 0 in
    Array.iteri (fun i (_, f) -> weight.(i) <- f) leaves;
    let q1 = Queue.create () and q2 = Queue.create () in
    for i = 0 to n - 1 do
      Queue.add i q1
    done;
    let next = ref n in
    let peek_weight q = weight.(Queue.peek q) in
    let take_min () =
      match (Queue.is_empty q1, Queue.is_empty q2) with
      | true, true -> assert false
      | true, false -> Queue.pop q2
      | false, true -> Queue.pop q1
      | false, false ->
        if peek_weight q1 <= peek_weight q2 then Queue.pop q1 else Queue.pop q2
    in
    while
      Queue.length q1 + Queue.length q2 > 1
    do
      let a = take_min () in
      let b = take_min () in
      let id = !next in
      incr next;
      weight.(id) <- weight.(a) + weight.(b);
      parent.(a) <- id;
      parent.(b) <- id;
      Queue.add id q2
    done;
    let depth_of i =
      let rec up d i = if parent.(i) = -1 then d else up (d + 1) parent.(i) in
      up 0 i
    in
    Array.iteri (fun i (s, _) -> lengths.(s) <- depth_of i) leaves;
    lengths

let canonical_codes lengths =
  let max_len = Array.fold_left max 0 lengths in
  if max_len > max_code_len then
    raise (Codec.Corrupt "huffman: code length too large");
  let count = Array.make (max_len + 1) 0 in
  Array.iter (fun l -> if l > 0 then count.(l) <- count.(l) + 1) lengths;
  let first_code = Array.make (max_len + 2) 0 in
  let code = ref 0 in
  for l = 1 to max_len do
    first_code.(l) <- !code;
    code := (!code + count.(l)) lsl 1
  done;
  let next = Array.copy first_code in
  let codes = Array.make num_symbols (0, 0) in
  for s = 0 to num_symbols - 1 do
    let l = lengths.(s) in
    if l > 0 then begin
      codes.(s) <- (next.(l), l);
      next.(l) <- next.(l) + 1
    end
  done;
  codes

(* Decoding tables for canonical codes: a zlib-style root lookup
   table resolves codes of up to [root_bits] bits with one peek — a
   single array index yields symbol and length together — while the
   rare longer codes fall back to a canonical first-code scan over
   one [max_len]-bit peek. No per-bit reads anywhere. *)

let root_bits_limit = 9

type decoder = {
  max_len : int;
  root_bits : int;
  table : int array;
      (* indexed by the next [root_bits] bits: [(sym lsl 5) lor len].
         len = 0 marks a prefix no code owns (corrupt stream); len =
         31 marks a code longer than [root_bits] (slow path). *)
  count : int array;  (* codes per length *)
  first_code : int array;
  first_rank : int array;  (* rank of first code of each length *)
  sym_by_rank : int array;  (* symbols sorted by (length, symbol) *)
}

let decoder_of_lengths lengths =
  let max_len = ref 0 in
  Array.iter (fun l -> if l > !max_len then max_len := l) lengths;
  let max_len = !max_len in
  if max_len = 0 then raise (Codec.Corrupt "huffman: empty code");
  if max_len > max_code_len then raise (Codec.Corrupt "huffman: length too large");
  let count = Array.make (max_len + 1) 0 in
  Array.iter (fun l -> if l > 0 then count.(l) <- count.(l) + 1) lengths;
  (* Kraft check: a canonical prefix code must not overflow. *)
  let kraft = ref 0 in
  for l = 1 to max_len do
    kraft := (!kraft lsl 1) + count.(l)
  done;
  if !kraft > 1 lsl max_len then raise (Codec.Corrupt "huffman: invalid code");
  let first_code = Array.make (max_len + 1) 0 in
  let first_rank = Array.make (max_len + 1) 0 in
  let code = ref 0 and rank = ref 0 in
  for l = 1 to max_len do
    first_code.(l) <- !code;
    first_rank.(l) <- !rank;
    code := (!code + count.(l)) lsl 1;
    rank := !rank + count.(l)
  done;
  (* Counting sort into canonical (length, symbol) rank order: the
     ascending symbol scan appends each symbol to its length bucket,
     and the buckets start at [first_rank]. *)
  let sym_by_rank = Array.make (max !rank 1) 0 in
  let next_rank = Array.copy first_rank in
  for s = 0 to num_symbols - 1 do
    let l = lengths.(s) in
    if l > 0 then begin
      sym_by_rank.(next_rank.(l)) <- s;
      next_rank.(l) <- next_rank.(l) + 1
    end
  done;
  let root_bits = min max_len root_bits_limit in
  let table = Array.make (1 lsl root_bits) 0 in
  for l = 1 to max_len do
    for r = 0 to count.(l) - 1 do
      let code = first_code.(l) + r in
      if l <= root_bits then begin
        let entry = (sym_by_rank.(first_rank.(l) + r) lsl 5) lor l in
        let base = code lsl (root_bits - l) in
        for p = base to base + (1 lsl (root_bits - l)) - 1 do
          table.(p) <- entry
        done
      end
      else table.(code lsr (l - root_bits)) <- 31
    done
  done;
  { max_len; root_bits; table; count; first_code; first_rank; sym_by_rank }

(* ------------------------------------------------------------------ *)
(* Wire format helpers                                                 *)

let write_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

let read_u32 b off =
  if Bytes.length b < off + 4 then
    raise (Codec.Corrupt "huffman: truncated header");
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let frequencies b =
  let freqs = Array.make num_symbols 0 in
  Bytes.iter (fun c -> freqs.(Char.code c) <- freqs.(Char.code c) + 1) b;
  freqs

let encode_payload codes b =
  let w = Bitio.Writer.create () in
  Bytes.iter
    (fun c ->
      let code, len = codes.(Char.code c) in
      if len = 0 then raise (Codec.Corrupt "huffman: unencodable symbol");
      Bitio.Writer.add_bits w ~value:code ~bits:len)
    b;
  Bitio.Writer.contents w

(* The root table's miss: a code longer than [root_bits] (entry
   length 31), or a prefix no code owns (0). One [max_len]-bit peek at
   the accumulator's next bits (zero-padded past its end), then the
   canonical scan over the longer lengths. Returns the entry the table
   would hold, [(sym lsl 5) lor len]. Out of the loop, so the loop
   stays small. *)
let long_entry d acc nbits l =
  if l = 0 then raise (Codec.Corrupt "huffman: bad bitstream");
  let bits =
    if nbits >= d.max_len then acc lsr (nbits - d.max_len)
    else acc lsl (d.max_len - nbits)
  in
  let rec scan l =
    if l > d.max_len then raise (Codec.Corrupt "huffman: bad bitstream")
    else
      let idx = (bits lsr (d.max_len - l)) - d.first_code.(l) in
      if idx >= 0 && idx < d.count.(l) then
        (d.sym_by_rank.(d.first_rank.(l) + idx) lsl 5) lor l
      else scan (l + 1)
  in
  scan (d.root_bits + 1)

(* The one decode loop of all three codecs: symbol [i] is coded with
   [ds.(i mod Array.length ds)], where the length is a power of two
   (one shared or per-block model, or one per byte position). *)
let decode_payload ds b ~pos orig_len =
  (* Every symbol takes at least one bit, so a length prefix claiming
     more symbols than the payload has bits is corrupt — reject it
     before allocating the output. *)
  if orig_len > 8 * (Bytes.length b - pos) then
    raise (Codec.Corrupt "huffman: truncated payload");
  let out = Bytes.create orig_len in
  let mask = Array.length ds - 1 in
  let n = Bytes.length b in
  (* The bit accumulator is kept in locals rather than behind
     [Bitio.Reader] calls: without flambda the per-symbol peek/consume
     call overhead alone costs ~30% of the decode loop. Invariants
     match the Reader exactly — low [nbits] bits of [acc] are the next
     unread bits, MSB first — and refilling up front means any
     under-run left after it is a genuine end of stream. *)
  let acc = ref 0 and nbits = ref 0 and bp = ref pos in
  for i = 0 to orig_len - 1 do
    while !nbits <= 54 && !bp < n do
      acc := (!acc lsl 8) lor Char.code (Bytes.unsafe_get b !bp);
      incr bp;
      nbits := !nbits + 8
    done;
    let d = Array.unsafe_get ds (i land mask) in
    let root_bits = d.root_bits in
    let p =
      if !nbits >= root_bits then !acc lsr (!nbits - root_bits)
      else !acc lsl (root_bits - !nbits)
    in
    let e = Array.unsafe_get d.table p in
    let e =
      if e land 31 <> 0 && e land 31 <= root_bits then e
      else long_entry d !acc !nbits (e land 31)
    in
    let l = e land 31 in
    if l > !nbits then raise (Codec.Corrupt "Bitio: out of bits");
    nbits := !nbits - l;
    acc := !acc land ((1 lsl !nbits) - 1);
    Bytes.unsafe_set out i (Char.unsafe_chr (e lsr 5))
  done;
  out

(* ------------------------------------------------------------------ *)
(* Per-block codec                                                     *)

let compress b =
  let n = Bytes.length b in
  let buf = Buffer.create (n + 8) in
  write_u32 buf n;
  if n > 0 then begin
    let lengths = code_lengths (frequencies b) in
    let codes = canonical_codes lengths in
    let syms =
      Array.to_list (Array.mapi (fun s l -> (s, l)) lengths)
      |> List.filter (fun (_, l) -> l > 0)
    in
    Buffer.add_char buf (Char.chr (List.length syms - 1));
    List.iter
      (fun (s, l) ->
        Buffer.add_char buf (Char.chr s);
        Buffer.add_char buf (Char.chr l))
      syms;
    Buffer.add_bytes buf (encode_payload codes b)
  end;
  Bytes.of_string (Buffer.contents buf)

let decompress b =
  let orig_len = read_u32 b 0 in
  if orig_len = 0 then Bytes.create 0
  else begin
    if Bytes.length b < 5 then raise (Codec.Corrupt "huffman: truncated table");
    let nsyms = Char.code (Bytes.get b 4) + 1 in
    let table_end = 5 + (2 * nsyms) in
    if Bytes.length b < table_end then
      raise (Codec.Corrupt "huffman: truncated table");
    let lengths = Array.make num_symbols 0 in
    for i = 0 to nsyms - 1 do
      let s = Char.code (Bytes.get b (5 + (2 * i))) in
      let l = Char.code (Bytes.get b (5 + (2 * i) + 1)) in
      if l = 0 || l > max_code_len then
        raise (Codec.Corrupt "huffman: bad code length");
      if lengths.(s) <> 0 then raise (Codec.Corrupt "huffman: duplicate symbol");
      lengths.(s) <- l
    done;
    decode_payload [| decoder_of_lengths lengths |] b ~pos:table_end orig_len
  end

let codec =
  Codec.make ~name:"huffman" ~dec_cycles_per_byte:6 ~comp_cycles_per_byte:9
    ~compress ~decompress ()

(* ------------------------------------------------------------------ *)
(* Shared-model codecs                                                 *)

let write_u16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))

let read_u16 b off =
  if Bytes.length b < off + 2 then
    raise (Codec.Corrupt "huffman: truncated header");
  Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let check_block_len b =
  if Bytes.length b >= 0x10000 then
    invalid_arg "Huffman shared codecs handle blocks under 64 KiB"

let shared ~corpus =
  let freqs = frequencies corpus in
  (* Scaled add-one smoothing: every byte stays encodable, but rare
     unseen symbols cannot dilute a small training corpus. *)
  let freqs = Array.map (fun f -> (f * 256) + 1) freqs in
  let lengths = code_lengths freqs in
  let codes = canonical_codes lengths in
  let ds = [| decoder_of_lengths lengths |] in
  let compress b =
    check_block_len b;
    let buf = Buffer.create (Bytes.length b + 2) in
    write_u16 buf (Bytes.length b);
    Buffer.add_bytes buf (encode_payload codes b);
    Bytes.of_string (Buffer.contents buf)
  in
  let decompress b = decode_payload ds b ~pos:2 (read_u16 b 0) in
  Codec.make ~name:"huffman-shared" ~dec_cycles_per_byte:6
    ~comp_cycles_per_byte:7 ~compress ~decompress ()

(* Positional models: instruction streams are word-structured, so byte
   position mod 4 (immediate low bytes vs. opcode bytes) has far more
   predictive power than a single global distribution. One shared
   canonical model per position — the CodePack-style approach. *)
let shared_positional ~corpus =
  let num_positions = 4 in
  let freqs = Array.init num_positions (fun _ -> Array.make num_symbols 1) in
  Bytes.iteri
    (fun i c ->
      let pos = i mod num_positions in
      let s = Char.code c in
      freqs.(pos).(s) <- freqs.(pos).(s) + 256)
    corpus;
  let lengths = Array.map code_lengths freqs in
  let codes = Array.map canonical_codes lengths in
  let ds = Array.map decoder_of_lengths lengths in
  let compress b =
    check_block_len b;
    let buf = Buffer.create (Bytes.length b + 2) in
    write_u16 buf (Bytes.length b);
    let w = Bitio.Writer.create () in
    Bytes.iteri
      (fun i c ->
        let code, len = codes.(i mod num_positions).(Char.code c) in
        Bitio.Writer.add_bits w ~value:code ~bits:len)
      b;
    Buffer.add_bytes buf (Bitio.Writer.contents w);
    Bytes.of_string (Buffer.contents buf)
  in
  let decompress b = decode_payload ds b ~pos:2 (read_u16 b 0) in
  Codec.make ~name:"huffman-positional" ~dec_cycles_per_byte:6
    ~comp_cycles_per_byte:7 ~compress ~decompress ()
