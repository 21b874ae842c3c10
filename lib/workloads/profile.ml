(** Workload profiles: one per benchmark target (the FuzzBench ∩
    fuzzer-test-suite programs of paper Section 5). Real traces and
    sources are not available in this environment, so each profile
    parameterizes a synthetic mini-C generator to match the *shape* that
    drives the figures: function size distribution, interprocedural
    coupling, comparison density, table-driven data flow, and — for
    sqlite — the one enormous interpreter function
    (sqlite3VdbeExec: thousands of blocks, a giant opcode switch). *)

type t = {
  name : string;
  seed : int;
  n_helpers : int;  (** mid-size arithmetic helper functions *)
  helper_stmts : int;  (** straight-line statements per helper *)
  n_tiny : int;  (** tiny inline-friendly functions (templates in json) *)
  n_parsers : int;  (** byte-consuming parser functions *)
  parser_cases : int;  (** switch arms per parser *)
  opcode_switch : int option;  (** giant interpreter: number of opcodes *)
  coupling : int;  (** 0 = independent functions .. 3 = dense call graph *)
  const_tables : int;  (** number of constant lookup tables *)
  magic_checks : int;  (** comparison roadblocks in the header check *)
  hot_skew : int;
      (** skewed hot/cold cycle distribution: every 16th helper's mixing
          loop runs [hot_skew]x as many trips, concentrating execution
          cycles in a small hot set (realistic promotion targets for the
          tiered pipeline). 0 = uniform — byte-identical source to the
          pre-knob generator, with identical RNG draws. *)
}

(* Parameters are scaled to keep whole-suite bench runtimes sane while
   preserving the relative sizes the paper discusses (sqlite/ freetype2
   large; json tiny functions; libjpeg decoupled; harfbuzz coupled). *)
let all : t list =
  [
    { name = "freetype2"; seed = 101; n_helpers = 26; helper_stmts = 10; n_tiny = 8;
      n_parsers = 7; parser_cases = 6; opcode_switch = None; coupling = 2;
      const_tables = 6; magic_checks = 3; hot_skew = 0 };
    { name = "libjpeg"; seed = 102; n_helpers = 20; helper_stmts = 12; n_tiny = 4;
      n_parsers = 5; parser_cases = 5; opcode_switch = None; coupling = 0;
      const_tables = 5; magic_checks = 2; hot_skew = 0 };
    { name = "proj4"; seed = 103; n_helpers = 14; helper_stmts = 14; n_tiny = 3;
      n_parsers = 3; parser_cases = 4; opcode_switch = None; coupling = 1;
      const_tables = 3; magic_checks = 1; hot_skew = 0 };
    { name = "libpng"; seed = 104; n_helpers = 16; helper_stmts = 10; n_tiny = 5;
      n_parsers = 6; parser_cases = 5; opcode_switch = None; coupling = 1;
      const_tables = 4; magic_checks = 3; hot_skew = 0 };
    { name = "re2"; seed = 105; n_helpers = 12; helper_stmts = 8; n_tiny = 10;
      n_parsers = 4; parser_cases = 8; opcode_switch = Some 24; coupling = 2;
      const_tables = 3; magic_checks = 1; hot_skew = 0 };
    { name = "harfbuzz"; seed = 106; n_helpers = 22; helper_stmts = 9; n_tiny = 8;
      n_parsers = 6; parser_cases = 6; opcode_switch = None; coupling = 3;
      const_tables = 5; magic_checks = 2; hot_skew = 0 };
    { name = "sqlite"; seed = 107; n_helpers = 18; helper_stmts = 10; n_tiny = 6;
      n_parsers = 4; parser_cases = 5; opcode_switch = Some 96; coupling = 2;
      const_tables = 6; magic_checks = 2; hot_skew = 0 };
    { name = "json"; seed = 108; n_helpers = 4; helper_stmts = 6; n_tiny = 48;
      n_parsers = 4; parser_cases = 6; opcode_switch = None; coupling = 2;
      const_tables = 2; magic_checks = 1; hot_skew = 0 };
    { name = "libxml2"; seed = 109; n_helpers = 20; helper_stmts = 10; n_tiny = 8;
      n_parsers = 8; parser_cases = 7; opcode_switch = None; coupling = 2;
      const_tables = 5; magic_checks = 3; hot_skew = 0 };
    { name = "vorbis"; seed = 110; n_helpers = 18; helper_stmts = 14; n_tiny = 4;
      n_parsers = 4; parser_cases = 4; opcode_switch = None; coupling = 1;
      const_tables = 5; magic_checks = 2; hot_skew = 0 };
    { name = "lcms"; seed = 111; n_helpers = 13; helper_stmts = 12; n_tiny = 4;
      n_parsers = 3; parser_cases = 4; opcode_switch = None; coupling = 1;
      const_tables = 6; magic_checks = 1; hot_skew = 0 };
    { name = "woff2"; seed = 112; n_helpers = 10; helper_stmts = 10; n_tiny = 4;
      n_parsers = 4; parser_cases = 5; opcode_switch = None; coupling = 1;
      const_tables = 3; magic_checks = 2; hot_skew = 0 };
    { name = "x509"; seed = 113; n_helpers = 11; helper_stmts = 9; n_tiny = 5;
      n_parsers = 6; parser_cases = 5; opcode_switch = None; coupling = 2;
      const_tables = 3; magic_checks = 2; hot_skew = 0 };
  ]

(** sqlite scaled ~20x in helper count (~640 fragments under the Max
    partition mode): big enough that the full link dominates refresh
    time, as it would for a real target with thousands of symbols, yet
    small enough to build in seconds. The relink, tier and mutate bench
    sections run on it. *)
let sqlite_xl =
  { name = "sqlite-xl"; seed = 107; n_helpers = 400; helper_stmts = 10;
    n_tiny = 200; n_parsers = 24; parser_cases = 5; opcode_switch = Some 96;
    coupling = 2; const_tables = 6; magic_checks = 2; hot_skew = 0 }

(** ~10k-function stress shape for the O(changed)-refresh benchmarks:
    sqlite's profile scaled two orders of magnitude up (under the Max
    partition mode every function is its own fragment, so this is a
    ~10k-fragment program). Statement counts are kept small so a full
    build stays benchable; it is the *fragment count* that matters to
    the scheduler under test. Deliberately not part of {!all} — suite
    drivers that iterate every profile would take minutes on it. *)
let sqlite_xxl =
  { name = "sqlite-xxl"; seed = 114; n_helpers = 7800; helper_stmts = 3;
    n_tiny = 2000; n_parsers = 200; parser_cases = 3; opcode_switch = Some 24;
    coupling = 0; const_tables = 4; magic_checks = 2; hot_skew = 0 }

(** A smaller profile for unit tests and the quickstart example. *)
let tiny =
  { name = "tinytarget"; seed = 999; n_helpers = 4; helper_stmts = 6; n_tiny = 3;
    n_parsers = 2; parser_cases = 3; opcode_switch = None; coupling = 1;
    const_tables = 2; magic_checks = 1; hot_skew = 0 }

let named = all @ [ sqlite_xl; sqlite_xxl; tiny ]

let names = List.map (fun p -> p.name) named

let find name = List.find_opt (fun p -> String.equal p.name name) named

let find_exn name =
  match find name with
  | Some p -> p
  | None -> invalid_arg ("Profile.find_exn: unknown workload " ^ name)
