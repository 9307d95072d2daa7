(** Corpus-level compression statistics, used by the codec-comparison
    experiment (E12). *)

type t = {
  codec_name : string;
  blocks : int;
  original_bytes : int;
  compressed_bytes : int;
  ratio : float;  (** compressed / original *)
  worst_block_ratio : float;
  best_block_ratio : float;
}

val measure : Codec.t -> bytes list -> t
(** Compresses every block independently and aggregates. *)

val pp : Format.formatter -> t -> unit

type throughput = {
  tp_codec_name : string;
  comp_mbps : float;  (** compression, MiB of input consumed per second *)
  dec_mbps : float;  (** decompression, MiB of output produced per second *)
  tp_ratio : float;  (** compressed / original over the block set *)
}

val throughput : ?min_time_s:float -> Codec.t -> bytes list -> throughput
(** [throughput codec blocks] measures wall-clock compress and
    decompress throughput by repeating whole passes over [blocks]
    (empty blocks are skipped) until at least [min_time_s] seconds
    (default 0.05) have elapsed per direction. Both rates are in MiB/s
    of {e uncompressed} bytes — the unit that matters for a
    decompress-on-fetch execution path. Used by [ccomp compress].
    Always runs at least one pass and clamps the elapsed time away
    from zero, so the rates are finite even with [min_time_s = 0.] on
    a clock too coarse to see the run. *)
