(* Binary trace format v1. See the .mli for the grammar.

   Ids are delta-coded (hot traces revisit neighbouring blocks, so
   deltas are small), zigzag-mapped onto unsigned varints and written
   through Bitio's buffered writer in whole bytes; a frame of them is
   optionally LZSS-compressed as one unit. Every frame carries a
   checksum of its ids: a flipped bit that still parses as valid
   varints would otherwise decode to a silently different trace. *)

let magic = "ccbt"
let version = 1
let default_frame = 65536

(* caps that bound allocation before any buffer is created *)
let max_frame_ids = 1 lsl 24
let max_varint_bytes = 9 (* 9 * 7 = 63 bits: a full OCaml int *)

let is_binary s =
  String.length s >= 4 && String.sub s 0 4 = magic

let zigzag d = (d lsl 1) lxor (d asr 62)
let unzigzag z = (z lsr 1) lxor (- (z land 1))

(* 32-bit mixing checksum over a frame's ids (order-sensitive). An id
   folds to its low 32 bits xor its bits from 31 up times an odd
   constant: ids in [0, 2^31) fold to themselves, and x never folds
   like [lnot x] — a zigzag low-bit flip turns a delta d into lnot d,
   which a plain xor of the two halves could not see. *)
let mix h x =
  let high = ((x lsr 31) * 0x9E3779B1) land 0xFFFFFFFF in
  let h = h lxor ((x land 0xFFFFFFFF) lxor high) in
  let h = (h * 0x85EBCA6B) land 0xFFFFFFFF in
  h lxor (h lsr 13)

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let add_varint buf v =
  let w = ref v in
  let continue = ref true in
  while !continue do
    let b = !w land 0x7F in
    w := !w lsr 7;
    if !w = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* One frame's payload: ids.(lo .. lo+n-1) delta-coded from [prev]. *)
let encode_payload ids lo n prev =
  let w = Compress.Bitio.Writer.create () in
  let p = ref prev in
  for i = lo to lo + n - 1 do
    let z = ref (zigzag (ids.(i) - !p)) in
    p := ids.(i);
    let continue = ref true in
    while !continue do
      let b = !z land 0x7F in
      z := !z lsr 7;
      if !z = 0 then begin
        Compress.Bitio.Writer.add_bits w ~value:b ~bits:8;
        continue := false
      end
      else Compress.Bitio.Writer.add_bits w ~value:(b lor 0x80) ~bits:8
    done
  done;
  Compress.Bitio.Writer.contents w

let frame_check ids lo n =
  let h = ref 0x811C9DC5 in
  for i = lo to lo + n - 1 do
    h := mix !h ids.(i)
  done;
  !h

let add_frame buf ~lzss ids lo n prev =
  let raw = encode_payload ids lo n prev in
  let stored =
    if lzss then Compress.Lzss.codec.Compress.Codec.compress raw else raw
  in
  add_varint buf n;
  add_varint buf (Bytes.length raw);
  add_varint buf (Bytes.length stored);
  Buffer.add_bytes buf stored;
  add_varint buf (frame_check ids lo n)

let add_header buf ~lzss ~count =
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (if lzss then '\001' else '\000');
  let c = Int64.of_int count in
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical c (8 * i)) land 0xFF))
  done

let encode ?(lzss = false) ?(frame = default_frame) ids =
  if frame <= 0 then invalid_arg "Trace.Binary.encode";
  let n = Array.length ids in
  let buf = Buffer.create (16 + (2 * n) + 16) in
  add_header buf ~lzss ~count:n;
  let prev = ref 0 in
  let lo = ref 0 in
  while !lo < n do
    let m = min frame (n - !lo) in
    add_frame buf ~lzss ids !lo m !prev;
    prev := ids.(!lo + m - 1);
    lo := !lo + m
  done;
  add_varint buf 0;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

(* One byte source abstracts the string and channel readers: [byte]
   yields -1 at end of input, [blob n] reads exactly [n] bytes. *)
type src = { byte : unit -> int; blob : int -> bytes option }

let src_of_string s =
  let pos = ref 0 in
  let n = String.length s in
  {
    byte =
      (fun () ->
        if !pos >= n then -1
        else begin
          let c = Char.code (String.unsafe_get s !pos) in
          incr pos;
          c
        end);
    blob =
      (fun k ->
        if k < 0 || !pos + k > n then None
        else begin
          let b = Bytes.of_string (String.sub s !pos k) in
          pos := !pos + k;
          Some b
        end);
  }

let src_of_channel ic =
  {
    byte = (fun () -> match input_byte ic with b -> b | exception End_of_file -> -1);
    blob =
      (fun k ->
        if k < 0 then None
        else
          let b = Bytes.create k in
          match really_input ic b 0 k with
          | () -> Some b
          | exception End_of_file -> None);
  }

let read_varint src =
  let z = ref 0 and shift = ref 0 and continue = ref true in
  let err = ref None in
  while !continue do
    if !shift >= 7 * max_varint_bytes then begin
      err := Some "varint too long";
      continue := false
    end
    else begin
      match src.byte () with
      | -1 ->
        err := Some "truncated varint";
        continue := false
      | b ->
        z := !z lor ((b land 0x7F) lsl !shift);
        shift := !shift + 7;
        if b land 0x80 = 0 then continue := false
    end
  done;
  match !err with Some e -> Error e | None -> Ok !z

let read_header src =
  let m = Bytes.create 4 in
  let rec fill i =
    if i = 4 then true
    else
      match src.byte () with
      | -1 -> false
      | b ->
        Bytes.set m i (Char.chr b);
        fill (i + 1)
  in
  if not (fill 0) then Error "not a binary trace (truncated magic)"
  else if Bytes.to_string m <> magic then Error "not a binary trace (bad magic)"
  else
    match src.byte () with
    | -1 -> Error "truncated header"
    | v when v <> version ->
      Error (Printf.sprintf "unsupported binary trace version %d" v)
    | _ -> (
      match src.byte () with
      | -1 -> Error "truncated header"
      | flags when flags land (lnot 1) <> 0 ->
        Error (Printf.sprintf "unknown header flags 0x%02x" flags)
      | flags -> (
        let lzss = flags land 1 = 1 in
        let rec count i acc =
          if i = 8 then Some acc
          else
            match src.byte () with
            | -1 -> None
            | b -> count (i + 1) (acc lor (b lsl (8 * i)))
        in
        match count 0 0 with
        | None -> Error "truncated header"
        | Some raw64 ->
          (* stored as i64; OCaml ints are 63-bit, so map the sign
             bit down and treat any negative as "unknown" *)
          let c = (raw64 lsl 1) asr 1 in
          if c < 0 then Ok (lzss, None) else Ok (lzss, Some c)))

(* Decode a frame payload into [out] (length n), returning the last id. *)
let decode_payload payload n prev out =
  let r = Compress.Bitio.Reader.create payload in
  let p = ref prev in
  let err = ref None in
  (try
     for i = 0 to n - 1 do
       let z = ref 0 and shift = ref 0 and continue = ref true in
       while !continue do
         if !shift >= 7 * max_varint_bytes then begin
           err := Some "varint too long in frame payload";
           raise Exit
         end;
         let b = Compress.Bitio.Reader.read_bits r 8 in
         z := !z lor ((b land 0x7F) lsl !shift);
         shift := !shift + 7;
         if b land 0x80 = 0 then continue := false
       done;
       p := !p + unzigzag !z;
       Array.unsafe_set out i !p
     done;
     if Compress.Bitio.Reader.bits_left r <> 0 then
       err := Some "trailing bytes in frame payload"
   with
  | Exit -> ()
  | Compress.Codec.Corrupt _ -> err := Some "truncated frame payload");
  match !err with Some e -> Error e | None -> Ok !p

(* Parse the next frame. [Ok None] = end marker reached. *)
let read_frame src ~lzss ~prev =
  match read_varint src with
  | Error e -> Error e
  | Ok 0 -> Ok None
  | Ok n when n > max_frame_ids ->
    Error (Printf.sprintf "frame claims %d ids (cap %d)" n max_frame_ids)
  | Ok n -> (
    match read_varint src with
    | Error e -> Error e
    | Ok raw_len when raw_len < n || raw_len > max_varint_bytes * n ->
      Error (Printf.sprintf "frame raw length %d inconsistent with %d ids"
               raw_len n)
    | Ok raw_len -> (
      match read_varint src with
      | Error e -> Error e
      | Ok stored_len when stored_len > raw_len + (raw_len lsr 3) + 16 ->
        Error (Printf.sprintf "frame stored length %d inconsistent with raw %d"
                 stored_len raw_len)
      | Ok stored_len -> (
        match src.blob stored_len with
        | None -> Error "truncated frame payload"
        | Some stored -> (
          let raw =
            if not lzss then Ok stored
            else
              match Compress.Lzss.codec.Compress.Codec.decompress stored with
              | raw -> Ok raw
              | exception Compress.Codec.Corrupt m ->
                Error ("corrupt LZSS frame: " ^ m)
          in
          match raw with
          | Error e -> Error e
          | Ok raw when Bytes.length raw <> raw_len ->
            Error
              (Printf.sprintf "frame decompressed to %d bytes, header says %d"
                 (Bytes.length raw) raw_len)
          | Ok raw -> (
            let out = Array.make n 0 in
            match decode_payload raw n prev out with
            | Error e -> Error e
            | Ok last -> (
              match read_varint src with
              | Error e -> Error e
              | Ok check when check <> frame_check out 0 n ->
                Error "frame checksum mismatch"
              | Ok _ -> Ok (Some (out, last, raw_len, stored_len))))))))

let decode s =
  let src = src_of_string s in
  match read_header src with
  | Error e -> Error e
  | Ok (lzss, count) ->
    let rec frames acc total prev =
      match read_frame src ~lzss ~prev with
      | Error e -> Error e
      | Ok (Some (ids, last, _, _)) ->
        frames (ids :: acc) (total + Array.length ids) last
      | Ok None -> (
        match count with
        | Some c when c <> total ->
          Error
            (Printf.sprintf "header promises %d ids, stream holds %d" c total)
        | _ ->
          if src.byte () <> -1 then Error "trailing garbage after end marker"
          else begin
            let out = Array.make total 0 in
            let pos = ref total in
            List.iter
              (fun ids ->
                pos := !pos - Array.length ids;
                Array.blit ids 0 out !pos (Array.length ids))
              acc;
            Ok out
          end)
    in
    frames [] 0 0

(* ------------------------------------------------------------------ *)
(* Streaming                                                           *)

module Writer = struct
  type t = {
    oc : out_channel;
    lzss : bool;
    buf : int array;
    mutable len : int;
    mutable prev : int;
    mutable total : int;
    mutable closed : bool;
  }

  let create ?(lzss = false) ?(frame = default_frame) oc =
    if frame <= 0 then invalid_arg "Trace.Binary.Writer.create";
    let hdr = Buffer.create 16 in
    add_header hdr ~lzss ~count:(-1);
    Buffer.output_buffer oc hdr;
    {
      oc;
      lzss;
      buf = Array.make frame 0;
      len = 0;
      prev = 0;
      total = 0;
      closed = false;
    }

  let flush_frame t =
    if t.len > 0 then begin
      let buf = Buffer.create (2 * t.len) in
      add_frame buf ~lzss:t.lzss t.buf 0 t.len t.prev;
      Buffer.output_buffer t.oc buf;
      t.prev <- t.buf.(t.len - 1);
      t.total <- t.total + t.len;
      t.len <- 0
    end

  let push t id =
    if t.closed then invalid_arg "Trace.Binary.Writer.push: closed";
    t.buf.(t.len) <- id;
    t.len <- t.len + 1;
    if t.len = Array.length t.buf then flush_frame t

  let close t =
    if not t.closed then begin
      t.closed <- true;
      flush_frame t;
      output_char t.oc '\000' (* the end marker: varint 0 *);
      (* backpatch the count; leave -1 if the channel cannot seek *)
      (try
         let endpos = pos_out t.oc in
         seek_out t.oc 6;
         let c = Int64.of_int t.total in
         for i = 0 to 7 do
           output_char t.oc
             (Char.chr
                (Int64.to_int (Int64.shift_right_logical c (8 * i)) land 0xFF))
         done;
         seek_out t.oc endpos
       with Sys_error _ -> ());
      flush t.oc
    end
end

module Reader = struct
  type t = {
    src : src;
    lzss : bool;
    count : int option;
    mutable prev : int;
    mutable seen : int;
    mutable ended : bool;
  }

  let create ic =
    let src = src_of_channel ic in
    match read_header src with
    | Error e -> Error e
    | Ok (lzss, count) ->
      Ok { src; lzss; count; prev = 0; seen = 0; ended = false }

  let lzss t = t.lzss
  let count t = t.count

  let next t =
    if t.ended then Ok None
    else
      match read_frame t.src ~lzss:t.lzss ~prev:t.prev with
      | Error e -> Error e
      | Ok (Some (ids, last, _, _)) ->
        t.prev <- last;
        t.seen <- t.seen + Array.length ids;
        Ok (Some ids)
      | Ok None -> (
        t.ended <- true;
        match t.count with
        | Some c when c <> t.seen ->
          Error
            (Printf.sprintf "header promises %d ids, stream holds %d" c t.seen)
        | _ -> Ok None)
end

let write_file ?lzss ?frame path ids =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let w = Writer.create ?lzss ?frame oc in
      Array.iter (fun id -> Writer.push w id) ids;
      Writer.close w)

let fold_file path ~init ~f =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match Reader.create ic with
        | Error e -> Error e
        | Ok r ->
          let rec go acc =
            match Reader.next r with
            | Error e -> Error e
            | Ok None -> Ok acc
            | Ok (Some ids) -> go (f acc ids)
          in
          go init)

let read_file path =
  match
    fold_file path ~init:[] ~f:(fun acc ids -> (ids, Array.length ids) :: acc)
  with
  | Error e -> Error e
  | Ok chunks ->
    let total = List.fold_left (fun a (_, n) -> a + n) 0 chunks in
    let out = Array.make total 0 in
    let pos = ref total in
    List.iter
      (fun (ids, n) ->
        pos := !pos - n;
        Array.blit ids 0 out !pos n)
      chunks;
    Ok out

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)

type info = {
  version : int;
  lzss : bool;
  header_count : int option;
  ids : int;
  frames : int;
  stored_bytes : int;
  raw_bytes : int;
}

let info s =
  let src = src_of_string s in
  match read_header src with
  | Error e -> Error e
  | Ok (lzss, header_count) ->
    (* structural walk: same frame validation as [decode], but only
       per-frame buffers are ever live *)
    let rec go ids frames stored raw prev =
      match read_frame src ~lzss ~prev with
      | Error e -> Error e
      | Ok (Some (frame_ids, last, raw_len, stored_len)) ->
        let n = Array.length frame_ids in
        go (ids + n) (frames + 1) (stored + stored_len) (raw + raw_len) last
      | Ok None -> (
        match header_count with
        | Some c when c <> ids ->
          Error (Printf.sprintf "header promises %d ids, stream holds %d" c ids)
        | _ ->
          if src.byte () <> -1 then Error "trailing garbage after end marker"
          else
            Ok
              { version; lzss; header_count; ids; frames; stored_bytes = stored;
                raw_bytes = raw })
    in
    go 0 0 0 0 0
