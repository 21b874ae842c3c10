(** Deep cloning of functions and modules.

    Odin's scheduler builds a *temporary IR* by duplicating the changed
    symbols out of the pristine whole-program IR (paper Section 3.3 and 4);
    the returned [map] lets patch logic translate pristine instructions to
    their clones ([Sched.map] in the paper's API). *)

(* Instructions by physical identity: two structurally equal
   instructions (the same store in two functions, say) are distinct
   keys. The structural hash is consistent with [==] because a pristine
   instruction is never mutated while it is a key. *)
module Ins_tbl = Hashtbl.Make (struct
  type t = Ins.ins

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type map = {
  ins_map : Ins.ins Ins_tbl.t;
      (** pristine instruction -> cloned instruction (physical identity) *)
  funcs : (string, Func.t) Hashtbl.t;  (** function name -> cloned function *)
}

let empty_map () = { ins_map = Ins_tbl.create 256; funcs = Hashtbl.create 16 }

(** Find the clone of a pristine instruction. *)
let map_ins map ins = Ins_tbl.find_opt map.ins_map ins

let clone_func ?map (f : Func.t) =
  let record_in = map in
  let clone_ins (i : Ins.ins) =
    let copy = { i with Ins.kind = i.Ins.kind } in
    (match record_in with
    | Some m -> Ins_tbl.replace m.ins_map i copy
    | None -> ());
    copy
  in
  let clone_block (b : Func.block) =
    {
      Func.label = b.Func.label;
      insns = List.map clone_ins b.Func.insns;
      term = b.Func.term;
    }
  in
  let copy =
    {
      Func.name = f.Func.name;
      linkage = f.Func.linkage;
      params = f.Func.params;
      ret = f.Func.ret;
      blocks = List.map clone_block f.Func.blocks;
      comdat = f.Func.comdat;
      attrs = f.Func.attrs;
    }
  in
  (match record_in with
  | Some m -> Hashtbl.replace m.funcs f.Func.name copy
  | None -> ());
  copy

let clone_gvar (v : Modul.gvar) = { v with Modul.gname = v.Modul.gname }
let clone_alias (a : Modul.alias) = { a with Modul.aname = a.Modul.aname }

let clone_gvalue ?map = function
  | Modul.Fun f -> Modul.Fun (clone_func ?map f)
  | Modul.Var v -> Modul.Var (clone_gvar v)
  | Modul.Alias a -> Modul.Alias (clone_alias a)

(** Clone a whole module. *)
let clone_module ?map (m : Modul.t) =
  let copy = Modul.create ~name:m.Modul.mname () in
  List.iter (fun gv -> Modul.add copy (clone_gvalue ?map gv)) (Modul.globals m);
  copy

(** Clone the named symbols of [m] into a fresh module, together with
    declarations for everything they reference (so the result is
    well-formed). Returns the new module and the instruction map. *)
let extract (m : Modul.t) names =
  let map = empty_map () in
  let out = Modul.create ~name:(m.Modul.mname ^ ".tmp") () in
  let wanted = List.filter (Modul.mem m) names in
  List.iter (fun n -> Modul.add out (clone_gvalue ~map (Modul.find_exn m n))) wanted;
  (* Add declarations for referenced-but-absent symbols. *)
  let missing = ref [] in
  List.iter
    (fun gv ->
      Uses.SSet.iter
        (fun s -> if not (Modul.mem out s) then missing := s :: !missing)
        (Uses.of_gvalue gv))
    (Modul.globals out);
  List.iter
    (fun s ->
      if not (Modul.mem out s) then
        match Modul.find m s with
        | Some (Modul.Fun f) ->
          ignore
            (Modul.add_function out ~linkage:Func.External ~name:f.Func.name
               ~params:f.Func.params ~ret:f.Func.ret [])
        | Some (Modul.Var v) ->
          ignore
            (Modul.add_var out ~linkage:Func.External ~name:v.Modul.gname Modul.Extern)
        | Some (Modul.Alias a) ->
          (* Cannot declare an alias: import its resolved target instead. *)
          ignore
            (Modul.add_var out ~linkage:Func.External ~name:a.Modul.aname Modul.Extern)
        | None ->
          (* Runtime symbols (e.g. probe callbacks) are extern by fiat. *)
          ignore (Modul.add_var out ~linkage:Func.External ~name:s Modul.Extern))
    (List.rev !missing);
  (out, map)
