(** Remember sets (paper, §5): for each decompressed block, the branch
    sites that currently point at its decompressed copy. When the copy
    is discarded, every recorded site must be patched back to the
    exception-raising compressed address — the host charges
    [patch_cost] per site. *)

type t

val create : blocks:int -> t

val record : t -> target:int -> site:int -> bool
(** Records that the branch at [site] now targets the decompressed
    copy of [target]. Returns [true] if the site was new (a patch was
    performed). *)

val cardinal : t -> target:int -> int

val flush : t -> target:int -> int
(** Empties the remember set of [target], returning how many sites had
    to be patched back. *)

val total_sites : t -> int
