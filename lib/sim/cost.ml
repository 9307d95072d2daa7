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
  patch_cycles : int;
  dec_setup_cycles : int;
  dec_cycles_per_byte : int;
  comp_setup_cycles : int;
  comp_cycles_per_byte : int;
  energy : energy_model;
  profile : string;
}

(* ------------------------------------------------------------------ *)
(* Dimensions and charge vectors                                       *)

type dimension =
  | Cycles
  | Energy_nj

let dimensions = [ Cycles; Energy_nj ]

let dimension_name = function
  | Cycles -> "cycles"
  | Energy_nj -> "energy_nj"

type vector = { cycles : int; energy_nj : int }

let zero = { cycles = 0; energy_nj = 0 }

let add a b =
  { cycles = a.cycles + b.cycles; energy_nj = a.energy_nj + b.energy_nj }

let get v = function
  | Cycles -> v.cycles
  | Energy_nj -> v.energy_nj

(* ------------------------------------------------------------------ *)
(* Validation (same guard style as ccomp's [bounded_int] flag parser)  *)

let bounded ~min what v =
  if v < min then
    invalid_arg (Printf.sprintf "%s must be >= %d (got %d)" what min v)

let validate t =
  bounded ~min:0 "exception_cycles" t.exception_cycles;
  bounded ~min:0 "patch_cycles" t.patch_cycles;
  bounded ~min:0 "dec_setup_cycles" t.dec_setup_cycles;
  bounded ~min:1 "dec_cycles_per_byte" t.dec_cycles_per_byte;
  bounded ~min:0 "comp_setup_cycles" t.comp_setup_cycles;
  bounded ~min:1 "comp_cycles_per_byte" t.comp_cycles_per_byte;
  let e = t.energy in
  bounded ~min:0 "flash_read_nj_per_byte" e.flash_read_nj_per_byte;
  bounded ~min:0 "ram_read_nj_per_byte" e.ram_read_nj_per_byte;
  bounded ~min:0 "ram_write_nj_per_byte" e.ram_write_nj_per_byte;
  bounded ~min:0 "dec_compute_nj_per_byte" e.dec_compute_nj_per_byte;
  bounded ~min:0 "comp_compute_nj_per_byte" e.comp_compute_nj_per_byte;
  bounded ~min:0 "exception_nj" e.exception_nj;
  bounded ~min:0 "patch_nj" e.patch_nj;
  bounded ~min:0 "exec_nj_per_cycle" e.exec_nj_per_cycle;
  bounded ~min:0 "ram_static_nj_per_kb_cycle" e.ram_static_nj_per_kb_cycle;
  t

(* ------------------------------------------------------------------ *)
(* Device profiles                                                     *)

let no_energy =
  {
    flash_read_nj_per_byte = 0;
    ram_read_nj_per_byte = 0;
    ram_write_nj_per_byte = 0;
    dec_compute_nj_per_byte = 0;
    comp_compute_nj_per_byte = 0;
    exception_nj = 0;
    patch_nj = 0;
    exec_nj_per_cycle = 0;
    ram_static_nj_per_kb_cycle = 0;
  }

let default =
  {
    exception_cycles = 40;
    patch_cycles = 4;
    dec_setup_cycles = 30;
    dec_cycles_per_byte = 4;
    comp_setup_cycles = 30;
    comp_cycles_per_byte = 8;
    energy = no_energy;
    profile = "paper-2005";
  }

(* NOR flash reads dominate; RAM is cheap to hold. The leakage rate is
   deliberately small so dynamic energy decides placement, as it does
   on flash-execute parts. *)
let cortex_m_flash_energy =
  {
    flash_read_nj_per_byte = 30;
    ram_read_nj_per_byte = 5;
    ram_write_nj_per_byte = 6;
    dec_compute_nj_per_byte = 2;
    comp_compute_nj_per_byte = 3;
    exception_nj = 800;
    patch_nj = 40;
    exec_nj_per_cycle = 1;
    ram_static_nj_per_kb_cycle = 1;
  }

(* Retained SRAM is the expensive resource: holding decompressed
   copies leaks energy in proportion to bytes x cycles, so large
   working sets are penalised even when they save decompressions. *)
let sram_heavy_energy =
  {
    flash_read_nj_per_byte = 8;
    ram_read_nj_per_byte = 4;
    ram_write_nj_per_byte = 5;
    dec_compute_nj_per_byte = 2;
    comp_compute_nj_per_byte = 3;
    exception_nj = 600;
    patch_nj = 30;
    exec_nj_per_cycle = 1;
    ram_static_nj_per_kb_cycle = 40;
  }

let profile_list =
  [
    ("paper-2005", default);
    ( "cortex-m-flash",
      { default with energy = cortex_m_flash_energy; profile = "cortex-m-flash" }
    );
    ( "sram-heavy",
      { default with energy = sram_heavy_energy; profile = "sram-heavy" } );
  ]

let profile_names = List.map fst profile_list

let profile name =
  match List.assoc_opt name profile_list with
  | Some t -> t
  | None ->
    invalid_arg
      (Printf.sprintf "unknown device profile %S (known: %s)" name
         (String.concat ", " profile_names))

let with_rates ~dec_cycles_per_byte ~comp_cycles_per_byte t =
  bounded ~min:1 "dec_cycles_per_byte" dec_cycles_per_byte;
  bounded ~min:1 "comp_cycles_per_byte" comp_cycles_per_byte;
  { t with dec_cycles_per_byte; comp_cycles_per_byte }

let dec_cycles t ~compressed_bytes =
  t.dec_setup_cycles + (t.dec_cycles_per_byte * compressed_bytes)

let comp_cycles t ~uncompressed_bytes =
  t.comp_setup_cycles + (t.comp_cycles_per_byte * uncompressed_bytes)

(* ------------------------------------------------------------------ *)
(* Charge constructors: every priced event becomes one vector.         *)

let exec_charge t ~cycles =
  { cycles; energy_nj = t.energy.exec_nj_per_cycle * cycles }

let exception_charge t =
  { cycles = t.exception_cycles; energy_nj = t.energy.exception_nj }

let patch_charge t = { cycles = t.patch_cycles; energy_nj = t.energy.patch_nj }

(* A decompression reads the compressed image (flash), runs the
   decoder over the output bytes and writes the copy into RAM. The
   demand variant is on the execution thread's critical path; the
   prefetch variant runs on the decompression thread, so it costs no
   wall-clock cycles but the same energy. *)
let dec_energy t ~compressed_bytes ~uncompressed_bytes =
  (t.energy.flash_read_nj_per_byte * compressed_bytes)
  + (t.energy.dec_compute_nj_per_byte * uncompressed_bytes)
  + (t.energy.ram_write_nj_per_byte * uncompressed_bytes)

let demand_dec_charge t ~compressed_bytes ~uncompressed_bytes =
  {
    cycles = dec_cycles t ~compressed_bytes;
    energy_nj = dec_energy t ~compressed_bytes ~uncompressed_bytes;
  }

let prefetch_dec_charge t ~compressed_bytes ~uncompressed_bytes =
  { cycles = 0; energy_nj = dec_energy t ~compressed_bytes ~uncompressed_bytes }

(* Recompression reads the copy back from RAM and runs the encoder;
   it lives on the compression thread (no wall-clock cycles). *)
let recompress_charge t ~uncompressed_bytes =
  {
    cycles = 0;
    energy_nj =
      (t.energy.ram_read_nj_per_byte * uncompressed_bytes)
      + (t.energy.comp_compute_nj_per_byte * uncompressed_bytes);
  }

(* Patch-backs on discard also run on the compression thread. *)
let patch_back_charge t ~sites =
  { cycles = 0; energy_nj = sites * t.energy.patch_nj }

let stall_charge _t ~cycles = { cycles; energy_nj = 0 }

(* Leakage of the decompressed copy area: [byte_cycles] is the
   time-weighted occupancy integral of the area,
   scaled down to kB-cycles before pricing to keep the numbers in a
   sane range. Integer division truncates deterministically. *)
let ram_static_charge t ~byte_cycles =
  if byte_cycles < 0 then
    invalid_arg
      (Printf.sprintf "byte_cycles must be >= 0 (got %d)" byte_cycles);
  {
    cycles = 0;
    energy_nj = t.energy.ram_static_nj_per_kb_cycle * byte_cycles / 1024;
  }

(* ------------------------------------------------------------------ *)
(* Accumulator                                                         *)

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

let source_index = function
  | Exec -> 0
  | Exception -> 1
  | Patch -> 2
  | Demand_dec -> 3
  | Prefetch_dec -> 4
  | Recompress -> 5
  | Patch_back -> 6
  | Stall -> 7
  | Ram_static -> 8

let source_names =
  [|
    "exec";
    "exception";
    "patch";
    "demand_dec";
    "prefetch_dec";
    "recompress";
    "patch_back";
    "stall";
    "ram_static";
  |]

let num_sources = Array.length source_names
let source_name s = source_names.(source_index s)

module Acc = struct
  (* Flat int arrays, one cell per (dimension, source): charging is a
     handful of integer adds; vectors are only materialized on read. *)
  type acc = {
    cycles_by : int array;
    energy_by : int array;
    mutable total_cycles : int;
    mutable total_energy : int;
  }

  let create () =
    {
      cycles_by = Array.make num_sources 0;
      energy_by = Array.make num_sources 0;
      total_cycles = 0;
      total_energy = 0;
    }

  let charge acc src v =
    let i = source_index src in
    acc.cycles_by.(i) <- acc.cycles_by.(i) + v.cycles;
    acc.energy_by.(i) <- acc.energy_by.(i) + v.energy_nj;
    acc.total_cycles <- acc.total_cycles + v.cycles;
    acc.total_energy <- acc.total_energy + v.energy_nj

  let total acc = { cycles = acc.total_cycles; energy_nj = acc.total_energy }

  let total_of acc src =
    let i = source_index src in
    { cycles = acc.cycles_by.(i); energy_nj = acc.energy_by.(i) }

  let dimension_totals acc =
    let t = total acc in
    List.map (fun d -> (dimension_name d, get t d)) dimensions
end
