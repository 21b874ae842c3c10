(** Instructions, operands and terminators.

    Representation notes:
    - SSA values are referenced by name ([Reg (ty, name)]); a function's
      instruction results and parameters define names. This keeps passes
      simple (no intrusive use-lists) at the cost of name-keyed lookups,
      which is fine at the program sizes we compile.
    - Globals are referenced by symbol name; their type is always [Ptr].
    - [Blockaddr] exists to model the GNU labels-as-values extension, one of
      the paper's "innate partition constraints" (Section 2.3). *)

type binop =
  | Add
  | Sub
  | Mul
  | Sdiv
  | Udiv
  | Srem
  | Urem
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Ashr

type icmp = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type cast = Zext | Sext | Trunc | Bitcast | Ptrtoint | Inttoptr

type value =
  | Const of Types.ty * int64
  | Reg of Types.ty * string
  | Global of string  (** address of a global symbol; type Ptr *)
  | Blockaddr of string * string  (** function, label; type Ptr *)
  | Undef of Types.ty

type callee = Direct of string | Indirect of value

type kind =
  | Binop of binop * value * value
  | Icmp of icmp * value * value
  | Select of value * value * value
  | Cast of cast * value
  | Load of value  (** pointer; loaded type is [ins.ty] *)
  | Store of value * value  (** stored value, pointer *)
  | Gep of value * value * int  (** base ptr, index, element size in bytes *)
  | Call of callee * value list
  | Phi of (string * value) list  (** (incoming block label, value) *)
  | Alloca of Types.ty * int  (** element type, element count *)

type ins = {
  mutable id : string;  (** SSA result name; "" when the result is void *)
  mutable ty : Types.ty;  (** result type; Void when no result *)
  mutable kind : kind;
  mutable volatile : bool;
      (** set on instrumentation probes so optimization passes must not
          remove or reorder them across each other (paper Section 3.1:
          instrumenting first must not let the optimizer delete probes) *)
}

type term =
  | Ret of value option
  | Br of string
  | Cbr of value * string * string  (** cond, if-true, if-false *)
  | Switch of value * string * (int64 * string) list  (** scrutinee, default, cases *)
  | Unreachable

let value_ty = function
  | Const (ty, _) -> ty
  | Reg (ty, _) -> ty
  | Global _ -> Types.Ptr
  | Blockaddr _ -> Types.Ptr
  | Undef ty -> ty

let mk ?(volatile = false) ~id ~ty kind = { id; ty; kind; volatile }

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Sdiv -> "sdiv"
  | Udiv -> "udiv"
  | Srem -> "srem"
  | Urem -> "urem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Lshr -> "lshr"
  | Ashr -> "ashr"

let binop_of_string = function
  | "add" -> Some Add
  | "sub" -> Some Sub
  | "mul" -> Some Mul
  | "sdiv" -> Some Sdiv
  | "udiv" -> Some Udiv
  | "srem" -> Some Srem
  | "urem" -> Some Urem
  | "and" -> Some And
  | "or" -> Some Or
  | "xor" -> Some Xor
  | "shl" -> Some Shl
  | "lshr" -> Some Lshr
  | "ashr" -> Some Ashr
  | _ -> None

let icmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Slt -> "slt"
  | Sle -> "sle"
  | Sgt -> "sgt"
  | Sge -> "sge"
  | Ult -> "ult"
  | Ule -> "ule"
  | Ugt -> "ugt"
  | Uge -> "uge"

let icmp_of_string = function
  | "eq" -> Some Eq
  | "ne" -> Some Ne
  | "slt" -> Some Slt
  | "sle" -> Some Sle
  | "sgt" -> Some Sgt
  | "sge" -> Some Sge
  | "ult" -> Some Ult
  | "ule" -> Some Ule
  | "ugt" -> Some Ugt
  | "uge" -> Some Uge
  | _ -> None

let cast_to_string = function
  | Zext -> "zext"
  | Sext -> "sext"
  | Trunc -> "trunc"
  | Bitcast -> "bitcast"
  | Ptrtoint -> "ptrtoint"
  | Inttoptr -> "inttoptr"

let cast_of_string = function
  | "zext" -> Some Zext
  | "sext" -> Some Sext
  | "trunc" -> Some Trunc
  | "bitcast" -> Some Bitcast
  | "ptrtoint" -> Some Ptrtoint
  | "inttoptr" -> Some Inttoptr
  | _ -> None

(** Does evaluating this instruction have an observable effect besides its
    result? Stores, calls and volatile-marked probes do. *)
let has_side_effect ins =
  ins.volatile
  ||
  match ins.kind with
  | Store _ | Call _ -> true
  | Alloca _ -> true (* keep allocas; mem2reg removes them explicitly *)
  | Binop _ | Icmp _ | Select _ | Cast _ | Load _ | Gep _ | Phi _ -> false

(** All value operands of an instruction, in evaluation order. *)
let operands ins =
  match ins.kind with
  | Binop (_, a, b) | Icmp (_, a, b) | Store (a, b) -> [ a; b ]
  | Select (c, a, b) -> [ c; a; b ]
  | Cast (_, a) | Load a -> [ a ]
  | Gep (a, b, _) -> [ a; b ]
  | Call (Direct _, args) -> args
  | Call (Indirect f, args) -> f :: args
  | Phi incoming -> List.map snd incoming
  | Alloca _ -> []

(** [f] on every value operand, in the order of {!operands}, without
    building the list. *)
let iter_operands f ins =
  match ins.kind with
  | Binop (_, a, b) | Icmp (_, a, b) | Store (a, b) | Gep (a, b, _) ->
    f a;
    f b
  | Select (c, a, b) ->
    f c;
    f a;
    f b
  | Cast (_, a) | Load a -> f a
  | Call (Direct _, args) -> List.iter f args
  | Call (Indirect fn, args) ->
    f fn;
    List.iter f args
  | Phi incoming -> List.iter (fun (_, v) -> f v) incoming
  | Alloca _ -> ()

(* [List.map f l] that returns [l] itself when [f] returns every element
   unchanged (physically), so an untouched list costs no allocation. *)
let rec map_shared f = function
  | [] -> []
  | x :: tl as l ->
    let x' = f x in
    let tl' = map_shared f tl in
    if x' == x && tl' == tl then l else x' :: tl'

let map_arm f ((l, v) as arm) =
  let v' = f v in
  if v' == v then arm else (l, v')

(** Map the instruction's operands through [f], in place. The kind is
    rebuilt only when [f] changed some operand (physically); an
    instruction [f] leaves alone is neither reallocated nor written. *)
let map_operands f ins =
  match ins.kind with
  | Binop (op, a, b) ->
    let a' = f a and b' = f b in
    if a' != a || b' != b then ins.kind <- Binop (op, a', b')
  | Icmp (p, a, b) ->
    let a' = f a and b' = f b in
    if a' != a || b' != b then ins.kind <- Icmp (p, a', b')
  | Select (c, a, b) ->
    let c' = f c and a' = f a and b' = f b in
    if c' != c || a' != a || b' != b then ins.kind <- Select (c', a', b')
  | Cast (c, a) ->
    let a' = f a in
    if a' != a then ins.kind <- Cast (c, a')
  | Load a ->
    let a' = f a in
    if a' != a then ins.kind <- Load a'
  | Store (a, b) ->
    let a' = f a and b' = f b in
    if a' != a || b' != b then ins.kind <- Store (a', b')
  | Gep (a, b, sz) ->
    let a' = f a and b' = f b in
    if a' != a || b' != b then ins.kind <- Gep (a', b', sz)
  | Call (Direct name, args) ->
    let args' = map_shared f args in
    if args' != args then ins.kind <- Call (Direct name, args')
  | Call (Indirect fn, args) ->
    let fn' = f fn and args' = map_shared f args in
    if fn' != fn || args' != args then ins.kind <- Call (Indirect fn', args')
  | Phi incoming ->
    let incoming' = map_shared (map_arm f) incoming in
    if incoming' != incoming then ins.kind <- Phi incoming'
  | Alloca _ -> ()

let term_operands = function
  | Ret (Some v) -> [ v ]
  | Ret None | Unreachable | Br _ -> []
  | Cbr (c, _, _) -> [ c ]
  | Switch (v, _, _) -> [ v ]

let iter_term_operands f = function
  | Ret (Some v) | Cbr (v, _, _) | Switch (v, _, _) -> f v
  | Ret None | Unreachable | Br _ -> ()

(** The terminator with its operands mapped through [f]; the terminator
    itself when [f] changed nothing. *)
let map_term_operands f t =
  match t with
  | Ret (Some v) ->
    let v' = f v in
    if v' == v then t else Ret (Some v')
  | Ret None | Unreachable | Br _ -> t
  | Cbr (c, a, b) ->
    let c' = f c in
    if c' == c then t else Cbr (c', a, b)
  | Switch (v, d, cases) ->
    let v' = f v in
    if v' == v then t else Switch (v', d, cases)

let successors = function
  | Ret _ | Unreachable -> []
  | Br l -> [ l ]
  | Cbr (_, a, b) -> if String.equal a b then [ a ] else [ a; b ]
  | Switch (_, d, cases) ->
    let targets = d :: List.map snd cases in
    List.sort_uniq String.compare targets
