(** Value numbering: common-subexpression elimination over pure
    instructions, scoped by the dominator tree (an expression available in
    a dominator is available here). Loads are only CSE'd within a block,
    with volatile probes, stores and calls acting as barriers (any of them
    may alias or reorder against memory). *)

open Ir

(* A structural key for a pure instruction or a load: the instruction's
   kind with the parts that decide equality. Registers are equal by name
   and undefs regardless of type; the operands of a commutative binop are
   equal in either order. *)
type key =
  | Kbin of Ins.binop * Types.ty * Ins.value * Ins.value
  | Kicmp of Ins.icmp * Ins.value * Ins.value
  | Ksel of Ins.value * Ins.value * Ins.value
  | Kcast of Ins.cast * Types.ty * Ins.value
  | Kgep of Ins.value * Ins.value * int
  | Kload of Types.ty * Ins.value

let equal_value a b =
  match (a, b) with
  | Ins.Const (t1, v1), Ins.Const (t2, v2) -> t1 = t2 && Int64.equal v1 v2
  | Ins.Reg (_, n1), Ins.Reg (_, n2) -> String.equal n1 n2
  | Ins.Global g1, Ins.Global g2 -> String.equal g1 g2
  | Ins.Blockaddr (f1, l1), Ins.Blockaddr (f2, l2) -> String.equal f1 f2 && String.equal l1 l2
  | Ins.Undef _, Ins.Undef _ -> true
  | _ -> false

let hash_value = function
  | Ins.Reg (_, n) -> Hashtbl.hash n
  | Ins.Undef _ -> 1
  | (Ins.Const _ | Ins.Global _ | Ins.Blockaddr _) as v -> Hashtbl.hash v

let commutative = function
  | Ins.Add | Ins.Mul | Ins.And | Ins.Or | Ins.Xor -> true
  | _ -> false

let equal_key k1 k2 =
    match (k1, k2) with
    | Kbin (o1, t1, a1, b1), Kbin (o2, t2, a2, b2) ->
      o1 = o2 && t1 = t2
      && ((equal_value a1 a2 && equal_value b1 b2)
         || (commutative o1 && equal_value a1 b2 && equal_value b1 a2))
    | Kicmp (p1, a1, b1), Kicmp (p2, a2, b2) ->
      p1 = p2 && equal_value a1 a2 && equal_value b1 b2
    | Ksel (c1, a1, b1), Ksel (c2, a2, b2) ->
      equal_value c1 c2 && equal_value a1 a2 && equal_value b1 b2
    | Kcast (c1, t1, a1), Kcast (c2, t2, a2) -> c1 = c2 && t1 = t2 && equal_value a1 a2
    | Kgep (a1, b1, s1), Kgep (a2, b2, s2) ->
      s1 = s2 && equal_value a1 a2 && equal_value b1 b2
    | Kload (t1, p1), Kload (t2, p2) -> t1 = t2 && equal_value p1 p2
    | _ -> false

let hash_key = function
    | Kbin (op, ty, a, b) ->
      let ha = hash_value a and hb = hash_value b in
      (* symmetric in the operands, as equality is for commutative ops *)
      Hashtbl.hash op + (31 * Hashtbl.hash ty)
      + if commutative op then ha + hb else (7 * ha) + hb
    | Kicmp (p, a, b) -> Hashtbl.hash p + (7 * hash_value a) + (13 * hash_value b)
    | Ksel (c, a, b) -> (3 * hash_value c) + (7 * hash_value a) + (13 * hash_value b)
    | Kcast (c, ty, a) -> Hashtbl.hash c + (31 * Hashtbl.hash ty) + (7 * hash_value a)
    | Kgep (a, b, sz) -> (7 * hash_value a) + (13 * hash_value b) + sz
    | Kload (ty, p) -> Hashtbl.hash ty + (7 * hash_value p)

(* A key with its hash, computed once for the lookup and the insertion. *)
type hashed = { hash : int; key : key }

let hashed key = { hash = hash_key key; key }

module KT = Hashtbl.Make (struct
  type t = hashed

  let equal a b = a.hash = b.hash && equal_key a.key b.key
  let hash k = k.hash
end)

let key_of_ins (i : Ins.ins) =
  match i.Ins.kind with
  | Ins.Binop (op, a, b) -> Some (hashed (Kbin (op, i.Ins.ty, a, b)))
  | Ins.Icmp (p, a, b) -> Some (hashed (Kicmp (p, a, b)))
  | Ins.Select (c, a, b) -> Some (hashed (Ksel (c, a, b)))
  | Ins.Cast (c, a) -> Some (hashed (Kcast (c, i.Ins.ty, a)))
  | Ins.Gep (a, b, sz) -> Some (hashed (Kgep (a, b, sz)))
  | Ins.Load _ | Ins.Store _ | Ins.Call _ | Ins.Phi _ | Ins.Alloca _ -> None

let is_memory_barrier (i : Ins.ins) =
  i.Ins.volatile
  || match i.Ins.kind with Ins.Store _ | Ins.Call _ -> true | _ -> false

let run_function _ctx (fn : Func.t) =
  if fn.Func.blocks = [] then false
  else begin
    let changed = ref false in
    let dom = Dom.compute fn in
    let children = Dom.children dom in
    (* replaced result -> its leader; applied once at the end *)
    let subst = Hashtbl.create 16 in
    (* expressions available in the dominators of the block being
       walked: a block's additions are removed when its subtree is done *)
    let avail = KT.create 64 in
    (* loads available since the last memory barrier of this block *)
    let loads = KT.create 16 in
    let rec walk pos =
      let b = dom.Dom.order.(pos) in
      let added = ref [] in
      KT.clear loads;
      b.Func.insns <-
        Func.filter_shared
          (fun (i : Ins.ins) ->
            Func.resolve_operands subst i;
            if is_memory_barrier i then begin
              KT.clear loads;
              true
            end
            else
              match key_of_ins i with
              | Some key -> (
                match KT.find_opt avail key with
                | Some v when i.Ins.id <> "" ->
                  Func.record subst i.Ins.id v;
                  changed := true;
                  false
                | _ ->
                  if i.Ins.id <> "" then begin
                    KT.add avail key (Ins.Reg (i.Ins.ty, i.Ins.id));
                    added := key :: !added
                  end;
                  true)
              | None -> (
                match i.Ins.kind with
                | Ins.Load p -> (
                  let key = hashed (Kload (i.Ins.ty, p)) in
                  match KT.find_opt loads key with
                  | Some v when i.Ins.id <> "" ->
                    Func.record subst i.Ins.id v;
                    changed := true;
                    false
                  | _ ->
                    if i.Ins.id <> "" then KT.replace loads key (Ins.Reg (i.Ins.ty, i.Ins.id));
                    true)
                | _ -> true))
          b.Func.insns;
      List.iter walk children.(pos);
      List.iter (KT.remove avail) !added
    in
    if Array.length dom.Dom.order > 0 then walk 0;
    Func.substitute fn subst;
    !changed
  end

let pass = Pass.function_pass "gvn" run_function
