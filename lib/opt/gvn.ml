(** Value numbering: common-subexpression elimination over pure
    instructions, scoped by the dominator tree (an expression available in
    a dominator is available here). Loads are only CSE'd within a block,
    with volatile probes, stores and calls acting as barriers (any of them
    may alias or reorder against memory). *)

open Ir

(* A structural key for a pure instruction. *)
let key_of_value = function
  | Ins.Const (ty, v) -> String.concat "" [ "c"; Types.to_string ty; ":"; Int64.to_string v ]
  | Ins.Reg (_, n) -> "r" ^ n
  | Ins.Global g -> "g" ^ g
  | Ins.Blockaddr (f, l) -> String.concat "" [ "b"; f; ":"; l ]
  | Ins.Undef _ -> "u"

let key_of_ins (i : Ins.ins) =
  let key parts = Some (String.concat ":" parts) in
  let ty = Types.to_string i.Ins.ty in
  match i.Ins.kind with
  | Ins.Binop (op, a, b) ->
    (* normalize commutative operand order *)
    let ka = key_of_value a and kb = key_of_value b in
    let ka, kb =
      match op with
      | Ins.Add | Ins.Mul | Ins.And | Ins.Or | Ins.Xor ->
        if String.compare ka kb <= 0 then (ka, kb) else (kb, ka)
      | _ -> (ka, kb)
    in
    key [ "bin"; Ins.binop_to_string op; ty; ka; kb ]
  | Ins.Icmp (p, a, b) ->
    key [ "icmp"; Ins.icmp_to_string p; key_of_value a; key_of_value b ]
  | Ins.Select (c, a, b) ->
    Some ("sel:" ^ String.concat "," (List.map key_of_value [ c; a; b ]))
  | Ins.Cast (c, a) -> key [ "cast"; Ins.cast_to_string c; ty; key_of_value a ]
  | Ins.Gep (a, b, sz) ->
    key [ "gep"; key_of_value a ^ "," ^ key_of_value b; string_of_int sz ]
  | Ins.Load _ | Ins.Store _ | Ins.Call _ | Ins.Phi _ | Ins.Alloca _ -> None

(* loads get separate, block-local numbering *)
let load_key (i : Ins.ins) =
  match i.Ins.kind with
  | Ins.Load p ->
    Some (String.concat ":" [ "load"; Types.to_string i.Ins.ty; key_of_value p ])
  | _ -> None

let is_memory_barrier (i : Ins.ins) =
  i.Ins.volatile
  || match i.Ins.kind with Ins.Store _ | Ins.Call _ -> true | _ -> false

module SMap = Map.Make (String)

let run_function _ctx (fn : Func.t) =
  if fn.Func.blocks = [] then false
  else begin
    let changed = ref false in
    let dom = Dom.compute fn in
    let children = Dom.children dom in
    let block_of = Func.block_index fn in
    (* replaced result -> its leader; applied once at the end *)
    let subst = Hashtbl.create 16 in
    (* expressions available in the dominators of the block being
       walked: a block's additions are removed when its subtree is done *)
    let avail = Hashtbl.create 64 in
    let rec walk label =
      match Hashtbl.find_opt block_of label with
      | None -> ()
      | Some b ->
        let added = ref [] in
        let loads = ref SMap.empty in
        let kept = ref [] in
        List.iter
          (fun (i : Ins.ins) ->
            Func.resolve_operands subst i;
            if is_memory_barrier i then begin
              loads := SMap.empty;
              kept := i :: !kept
            end
            else
              match key_of_ins i with
              | Some key -> (
                match Hashtbl.find_opt avail key with
                | Some v when i.Ins.id <> "" ->
                  Func.record subst i.Ins.id v;
                  changed := true
                | _ ->
                  if i.Ins.id <> "" then begin
                    Hashtbl.add avail key (Ins.Reg (i.Ins.ty, i.Ins.id));
                    added := key :: !added
                  end;
                  kept := i :: !kept)
              | None -> (
                match load_key i with
                | Some key -> (
                  match SMap.find_opt key !loads with
                  | Some v when i.Ins.id <> "" ->
                    Func.record subst i.Ins.id v;
                    changed := true
                  | _ ->
                    if i.Ins.id <> "" then
                      loads := SMap.add key (Ins.Reg (i.Ins.ty, i.Ins.id)) !loads;
                    kept := i :: !kept)
                | None -> kept := i :: !kept))
          b.Func.insns;
        b.Func.insns <- List.rev !kept;
        List.iter walk (Option.value ~default:[] (Hashtbl.find_opt children label));
        List.iter (Hashtbl.remove avail) !added
    in
    walk (List.hd fn.Func.blocks).Func.label;
    Func.substitute fn subst;
    !changed
  end

let pass = Pass.function_pass "gvn" run_function
