(** Symbol reference analysis: which global symbols does a global value
    mention? This drives Odin's partitioning (imports, copy-on-use cloning)
    and the linker's reachability. *)

module SSet = Set.Make (String)

let of_value acc = function
  | Ins.Global g -> SSet.add g acc
  | Ins.Blockaddr (f, _) -> SSet.add f acc
  | Ins.Const _ | Ins.Reg _ | Ins.Undef _ -> acc

let of_ins acc (i : Ins.ins) =
  let acc =
    match i.kind with
    | Ins.Call (Ins.Direct f, _) -> SSet.add f acc
    | _ -> acc
  in
  List.fold_left of_value acc (Ins.operands i)

let of_func (f : Func.t) =
  let acc = ref SSet.empty in
  Func.iter_blocks
    (fun b ->
      List.iter (fun i -> acc := of_ins !acc i) b.Func.insns;
      acc := List.fold_left of_value !acc (Ins.term_operands b.Func.term))
    f;
  !acc

let of_gvar (v : Modul.gvar) =
  match v.Modul.ginit with
  | Modul.Symbols ss -> SSet.of_list ss
  | Modul.Bytes _ | Modul.Words _ | Modul.Zero _ | Modul.Extern -> SSet.empty

let of_gvalue = function
  | Modul.Fun f -> of_func f
  | Modul.Var v -> of_gvar v
  | Modul.Alias a -> SSet.singleton a.Modul.atarget

(** Map symbol -> set of symbols that reference it (reverse references). *)
let referencers (m : Modul.t) =
  let table = Hashtbl.create 64 in
  let record user target =
    let old = Option.value ~default:SSet.empty (Hashtbl.find_opt table target) in
    Hashtbl.replace table target (SSet.add user old)
  in
  List.iter
    (fun gv ->
      let user = Modul.gvalue_name gv in
      SSet.iter (record user) (of_gvalue gv))
    (Modul.globals m);
  table

let referencers_of table name =
  Option.value ~default:SSet.empty (Hashtbl.find_opt table name)

(** Call sites of every function across the module, by callee name:
    (caller, ins) lists in module order. One scan answers all callees. *)
let call_sites (m : Modul.t) =
  let sites = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_insns
        (fun i ->
          match i.Ins.kind with
          | Ins.Call (Ins.Direct callee, _) ->
            let old = Option.value ~default:[] (Hashtbl.find_opt sites callee) in
            Hashtbl.replace sites callee ((f, i) :: old)
          | _ -> ())
        f)
    (Modul.defined_functions m);
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) sites;
  sites

(** Symbols whose address is taken other than via direct calls.
    Functions whose address escapes cannot have their signature
    rewritten by dead-argument elimination. One scan answers all
    symbols. *)
let address_taken (m : Modul.t) =
  let taken = ref SSet.empty in
  let check_value = function
    | Ins.Global g -> taken := SSet.add g !taken
    | _ -> ()
  in
  List.iter
    (fun gv ->
      match gv with
      | Modul.Fun f ->
        Func.iter_blocks
          (fun b ->
            List.iter
              (fun (i : Ins.ins) ->
                match i.kind with
                | Ins.Call (Ins.Direct _, args) -> List.iter check_value args
                | _ -> List.iter check_value (Ins.operands i))
              b.Func.insns;
            List.iter check_value (Ins.term_operands b.Func.term))
          f
      | Modul.Var v -> (
        match v.Modul.ginit with
        | Modul.Symbols ss -> List.iter (fun s -> taken := SSet.add s !taken) ss
        | _ -> ())
      | Modul.Alias a -> taken := SSet.add a.Modul.atarget !taken)
    (Modul.globals m);
  !taken
