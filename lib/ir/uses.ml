(** Symbol reference analysis: which global symbols does a global value
    mention? This drives Odin's partitioning (imports, copy-on-use cloning)
    and the linker's reachability. *)

module SSet = Set.Make (String)

(** [f] on every symbol a function mentions, duplicates included:
    direct callees and [Global]/[Blockaddr] operands. *)
let iter_func_refs f (fn : Func.t) =
  let of_value = function
    | Ins.Global g -> f g
    | Ins.Blockaddr (g, _) -> f g
    | Ins.Const _ | Ins.Reg _ | Ins.Undef _ -> ()
  in
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun (i : Ins.ins) ->
          (match i.kind with Ins.Call (Ins.Direct g, _) -> f g | _ -> ());
          Ins.iter_operands of_value i)
        b.Func.insns;
      Ins.iter_term_operands of_value b.Func.term)
    fn

let of_func (f : Func.t) =
  let acc = ref SSet.empty in
  iter_func_refs (fun s -> acc := SSet.add s !acc) f;
  !acc

let of_gvar (v : Modul.gvar) =
  match v.Modul.ginit with
  | Modul.Symbols ss -> SSet.of_list ss
  | Modul.Bytes _ | Modul.Words _ | Modul.Zero _ | Modul.Extern -> SSet.empty

let of_gvalue = function
  | Modul.Fun f -> of_func f
  | Modul.Var v -> of_gvar v
  | Modul.Alias a -> SSet.singleton a.Modul.atarget

(** [f] on every symbol a global value mentions, duplicates included,
    without building a set. *)
let iter_refs f = function
  | Modul.Fun fn -> iter_func_refs f fn
  | Modul.Var v -> (match v.Modul.ginit with Modul.Symbols ss -> List.iter f ss | _ -> ())
  | Modul.Alias a -> f a.Modul.atarget

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
                | _ -> Ins.iter_operands check_value i)
              b.Func.insns;
            Ins.iter_term_operands check_value b.Func.term)
          f
      | Modul.Var v -> (
        match v.Modul.ginit with
        | Modul.Symbols ss -> List.iter (fun s -> taken := SSet.add s !taken) ss
        | _ -> ())
      | Modul.Alias a -> taken := SSet.add a.Modul.atarget !taken)
    (Modul.globals m);
  !taken
