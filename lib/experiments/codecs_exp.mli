(** E12 — codec comparison on real basic-block bytes: per-block
    compression ratio and nominal decompression latency for every
    built-in codec plus the shared-model Huffman variants. *)

val run : unit -> Report.Table.t
