(** Workload profiles: one synthetic stand-in per benchmark target (the
    FuzzBench ∩ fuzzer-test-suite programs of paper Section 5), each
    parameterizing the generator to match the shape that drives the
    figures — function size distribution, interprocedural coupling,
    comparison density, and (for sqlite) the one enormous interpreter
    function. *)

type t = {
  name : string;
  seed : int;
  n_helpers : int;  (** mid-size arithmetic helper functions *)
  helper_stmts : int;
  n_tiny : int;  (** tiny inline-friendly functions *)
  n_parsers : int;  (** byte-consuming parser functions *)
  parser_cases : int;
  opcode_switch : int option;  (** giant interpreter: number of opcodes *)
  coupling : int;  (** 0 = independent functions .. 3 = dense call graph *)
  const_tables : int;
  magic_checks : int;  (** comparison roadblocks in the header check *)
  hot_skew : int;
      (** skewed hot/cold cycle distribution: every 16th helper's mixing
          loop runs [hot_skew]x as many trips, concentrating cycles in a
          small hot set. 0 = uniform (byte-identical source and RNG
          draws to the pre-knob generator). *)
}

(** The 13 benchmark profiles, in the paper's order. *)
val all : t list

(** sqlite scaled ~20x in helper count (~640 fragments under Max
    partitioning): the scaling workload of the relink, tier and mutate
    bench sections. Not part of {!all}; {!find} resolves ["sqlite-xl"]. *)
val sqlite_xl : t

(** ~10k-function (and, under Max partitioning, ~10k-fragment) stress
    shape for the O(changed)-refresh benchmarks. Not part of {!all}:
    whole-suite drivers would take minutes on it; {!find} resolves
    ["sqlite-xxl"] anyway. *)
val sqlite_xxl : t

(** Resolves any profile by name: {!all}, {!sqlite_xl}, {!sqlite_xxl}
    and {!tiny}. *)
val find : string -> t option

(** Every name {!find} resolves, in the order above. *)
val names : string list

(** @raise Invalid_argument for unknown names. *)
val find_exn : string -> t

(** A smaller profile for unit tests and the quickstart example. *)
val tiny : t
