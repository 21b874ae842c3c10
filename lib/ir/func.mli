(** Basic blocks and functions. Blocks and functions are mutable — passes
    transform them in place; cloning (see {!Clone}) produces independent
    copies. *)

type block = {
  mutable label : string;
  mutable insns : Ins.ins list;
  mutable term : Ins.term;
}

type linkage =
  | External  (** exported; visible to other fragments/objects *)
  | Internal  (** local to its module/fragment *)

type t = {
  name : string;
  mutable linkage : linkage;
  mutable params : (Types.ty * string) list;
  mutable ret : Types.ty;
  mutable blocks : block list;  (** empty means declaration *)
  mutable comdat : string option;  (** COMDAT group key (innate constraint) *)
  mutable attrs : string list;
}

val mk :
  ?linkage:linkage ->
  ?comdat:string ->
  ?attrs:string list ->
  name:string ->
  params:(Types.ty * string) list ->
  ret:Types.ty ->
  block list ->
  t

val is_declaration : t -> bool

(** @raise Invalid_argument on declarations. *)
val entry : t -> block

val find_block : t -> string -> block option

(** @raise Invalid_argument when absent. *)
val find_block_exn : t -> string -> block

val iter_blocks : (block -> unit) -> t -> unit
val iter_insns : (Ins.ins -> unit) -> t -> unit
val fold_insns : ('a -> Ins.ins -> 'a) -> 'a -> t -> 'a
val block_count : t -> int
val insn_count : t -> int

(** [List.filter keep l], calling [keep] once per element in order, that
    returns [l] itself when every element is kept. *)
val filter_shared : ('a -> bool) -> 'a list -> 'a list

(** Apply [f] to every operand of every instruction and terminator. *)
val map_values : (Ins.value -> Ins.value) -> t -> unit

(** {2 Batched substitution}

    A pass collects its replacements in a table (SSA name -> value) and
    applies them with one {!substitute} at the end of the pass. Until
    then the IR still names the replaced registers: a pass resolves the
    operands it reads through the table first. *)

(** Follow a chain of replacements (a -> b -> c) to its end. Chains are
    compressed as they are followed. *)
val resolve : (string, Ins.value) Hashtbl.t -> Ins.value -> Ins.value

(** [record tbl name v]: every use of [name] becomes [v], itself resolved
    through [tbl] first. Replacing a name by itself is ignored. *)
val record : (string, Ins.value) Hashtbl.t -> string -> Ins.value -> unit

(** [resolve_operands tbl i] rewrites [i]'s operands through [tbl] in
    place; [resolve_term] returns a terminator with its operands
    resolved. Both leave their argument alone when [tbl] is empty. *)
val resolve_operands : (string, Ins.value) Hashtbl.t -> Ins.ins -> unit

val resolve_term : (string, Ins.value) Hashtbl.t -> Ins.term -> Ins.term

(** Rewrite every operand of [fn] through the table in one pass, then
    empty the table (freed names may be handed out again). *)
val substitute : t -> (string, Ins.value) Hashtbl.t -> unit

(** {2 Fresh names} *)

(** The names in use in a function, collected once. A pass that needs
    many fresh names builds one supply and draws from it; the function
    itself stores nothing. *)
type supply

(** SSA names: parameters and instruction results. With [containing],
    only the names that contain it: enough for a pass whose every hint
    contains it (a fresh name [hint] or [hint.N] can only collide with
    such a name). *)
val name_supply : ?containing:string -> t -> supply

(** [hint] if unused, else the first unused [hint.N] (N = 1, 2, ...). The
    name returned is added to the supply. *)
val fresh : supply -> string -> string

(** Fresh SSA name / block label unique within this function (one
    whole-function scan per call). *)
val fresh_name : t -> string -> string

val fresh_label : t -> string -> string

(** Label -> block table of the function as it is now. *)
val block_index : t -> (string, block) Hashtbl.t

(** Use counts of SSA names within the function, counted once: the
    result answers any name (0 when unused). *)
val use_counts : t -> string -> int
