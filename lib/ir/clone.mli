(** Deep cloning of functions and modules, with instruction maps.

    Odin's scheduler builds its *temporary IR* by cloning the changed
    symbols out of the pristine program (paper Section 3.3/4); the
    returned {!map} lets patch logic translate pristine instructions to
    their clones (the paper's [Sched.map]). *)

(** Hash table keyed by physical identity of instructions. *)
module Ins_tbl : Hashtbl.S with type key = Ins.ins

type map = {
  ins_map : Ins.ins Ins_tbl.t;  (** pristine -> clone, by physical identity *)
  funcs : (string, Func.t) Hashtbl.t;
}

val empty_map : unit -> map

(** Clone of a pristine instruction (physical identity lookup). *)
val map_ins : map -> Ins.ins -> Ins.ins option

val clone_func : ?map:map -> Func.t -> Func.t
val clone_gvar : Modul.gvar -> Modul.gvar
val clone_alias : Modul.alias -> Modul.alias
val clone_gvalue : ?map:map -> Modul.gvalue -> Modul.gvalue
val clone_module : ?map:map -> Modul.t -> Modul.t

(** Clone the named symbols into a fresh, well-formed module (referenced
    absentees become declarations); returns the module and the map. *)
val extract : Modul.t -> string list -> Modul.t * map
