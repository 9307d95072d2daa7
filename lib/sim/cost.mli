(** The one cost vocabulary every simulation layer shares.

    A cost model prices events in a small vector of named
    {!dimension}s — wall-clock [Cycles] on the execution thread and
    [Energy_nj] drawn from the battery — and a named device
    {!profile} selects the coefficients. Decompression cost scales
    with the {e compressed} size (that is what the decompressor
    reads); compression cost scales with the {e uncompressed} size.
    {!Core.Config} wraps a value of this type, so the timing engine,
    the baselines and the experiment harness all price the same
    operation identically.

    Under the default [paper-2005] profile every energy coefficient
    is zero and the cycle coefficients are the historical defaults,
    so cycle arithmetic is bit-for-bit what it was before energy
    existed. *)

(** Energy coefficients, all in integer nanojoules. Flash is read per
    compressed byte; RAM is written per decompressed byte produced
    and read back per byte recompressed; [ram_static_nj_per_kb_cycle]
    prices holding decompressed copies resident (leakage), per 1024
    byte-cycles of occupancy. *)
type energy_model = {
  flash_read_nj_per_byte : int;
  ram_read_nj_per_byte : int;
  ram_write_nj_per_byte : int;
  dec_compute_nj_per_byte : int;
  comp_compute_nj_per_byte : int;
  exception_nj : int;
  patch_nj : int;
  exec_nj_per_cycle : int;
  ram_static_nj_per_kb_cycle : int;
}

type t = {
  exception_cycles : int;
      (** taking the memory-protection exception that §5 uses to
          trigger the handler *)
  patch_cycles : int;  (** updating one branch target *)
  dec_setup_cycles : int;
  dec_cycles_per_byte : int;
  comp_setup_cycles : int;
  comp_cycles_per_byte : int;
  energy : energy_model;
  profile : string;  (** the device profile these coefficients came from *)
}

(** {1 Dimensions and charge vectors} *)

type dimension =
  | Cycles
  | Energy_nj

val dimensions : dimension list
val dimension_name : dimension -> string

(** One priced event: how much of each dimension it consumed. *)
type vector = { cycles : int; energy_nj : int }

val zero : vector
val add : vector -> vector -> vector
val get : vector -> dimension -> int

(** {1 Profiles} *)

val default : t
(** The [paper-2005] profile: exception 40, patch 4, decompression
    30 + 4/byte, compression 30 + 8/byte, all energy coefficients 0. *)

val profile : string -> t
(** Look up a named device profile ([paper-2005], [cortex-m-flash],
    [sram-heavy]).
    @raise Invalid_argument on an unknown name, listing the known
    profiles. *)

val profile_names : string list
(** In registration order; head is the default. *)

val validate : t -> t
(** Returns [t] unchanged after checking every coefficient: fixed
    costs and energy coefficients must be >= 0, per-byte cycle rates
    must be >= 1.
    @raise Invalid_argument in the style
    ["dec_cycles_per_byte must be >= 1 (got 0)"]. *)

val with_rates : dec_cycles_per_byte:int -> comp_cycles_per_byte:int -> t -> t
(** Same fixed costs, different per-byte rates (typically a codec's
    advertised speeds).
    @raise Invalid_argument if either rate is < 1. *)

val dec_cycles : t -> compressed_bytes:int -> int
(** [dec_setup_cycles + dec_cycles_per_byte * compressed_bytes]. *)

val comp_cycles : t -> uncompressed_bytes:int -> int
(** [comp_setup_cycles + comp_cycles_per_byte * uncompressed_bytes]. *)

(** {1 Charge constructors}

    Each returns the full vector for one event. Charges on the
    helper threads (prefetch decompression, recompression,
    patch-back on discard) cost no wall-clock cycles — only the
    execution thread advances the clock — but their energy is real. *)

val exec_charge : t -> cycles:int -> vector
val exception_charge : t -> vector
val patch_charge : t -> vector
val demand_dec_charge : t -> compressed_bytes:int -> uncompressed_bytes:int -> vector
val prefetch_dec_charge : t -> compressed_bytes:int -> uncompressed_bytes:int -> vector
val recompress_charge : t -> uncompressed_bytes:int -> vector
val patch_back_charge : t -> sites:int -> vector
val stall_charge : t -> cycles:int -> vector

val ram_static_charge : t -> byte_cycles:int -> vector
(** Leakage of the decompressed copy area over the whole run:
    [byte_cycles] is the area's time-weighted occupancy integral.
    Charged once at end of run.
    @raise Invalid_argument if [byte_cycles] < 0. *)

(** {1 Accumulator} *)

(** Where a charge came from, for per-source breakdowns. *)
type source =
  | Exec
  | Exception
  | Patch
  | Demand_dec
  | Prefetch_dec
  | Recompress
  | Patch_back
  | Stall
  | Ram_static

(** Per-dimension, per-source accumulation of charge vectors: the
    per-dimension totals are the sum of the charges by construction.
    The runtime and the cold-code baseline charge through one; the
    timing engine counts events per source in its loop and prices the
    counts at the end. *)
module Acc : sig
  type acc

  val create : unit -> acc
  val charge : acc -> source -> vector -> unit

  val total : acc -> vector
  val total_of : acc -> source -> vector

  val dimension_totals : acc -> (string * int) list
  (** [(dimension_name, total)] for every dimension, in
      {!dimensions} order. *)
end
