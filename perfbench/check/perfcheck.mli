(** Output checks for the benchmark.

    Everything here is computed from the raw design and placement records
    ({!Mclh_circuit.Design.t}, {!Mclh_circuit.Placement.t}) and never calls
    the program's own checkers ([Legality], [Hpwl], [Metrics]). A fault in
    those cannot then hide a fault in the legalizers, and the two
    implementations check each other where the benchmark compares them. *)

open Mclh_circuit

type violation =
  | Unplaced of int  (** no finite position (or the placement is short) *)
  | Off_site of int  (** x is not a whole site *)
  | Off_row of int  (** y is not a whole row *)
  | Out_of_chip of int  (** the cell leaves the chip rectangle *)
  | Rail of int  (** even-height cell on a row whose bottom rail differs *)
  | Cell_overlap of int * int  (** [(a, b)], [a < b]: positive-area overlap *)
  | Blockage_overlap of int * int  (** [(cell, blockage index)] *)

val kind : violation -> string
(** A short name of the violation's kind, e.g. ["cell_overlap"]. *)

val to_string : violation -> string

val violations : Design.t -> Placement.t -> violation list
(** Every violation of a legal placement: site and row alignment, chip
    bounds, power-rail parity of even-height cells, cell–cell overlap and
    cell–blockage overlap. Each overlapping pair is reported once, however
    many rows it shares. Fence regions are not checked (the benchmark's
    designs have none). *)

val overlapping_cells : Design.t -> Placement.t -> int
(** Cells whose rectangle [[x, x + w) x [y, y + h)] overlaps another
    cell's with positive area. Works on fractional (global) placements,
    which is what the benchmark uses it for: a global placement handed to
    the legalizer should overlap. *)

val hpwl : Design.t -> Placement.t -> float
(** Half-perimeter wirelength in site widths: per net, the x extent of its
    pins plus [row_height] times their y extent. *)

type displacement = { total : float; max : float }

val displacement : Design.t -> before:Placement.t -> Placement.t -> displacement
(** Manhattan displacement per cell, [|dx| + row_height |dy|], in sites. *)

val rel_close : float -> float -> bool
(** [|a - b| <= 1e-9 * max 1 (max |a| |b|)]. *)
