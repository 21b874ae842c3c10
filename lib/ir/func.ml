(** Basic blocks and functions. *)

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
  mutable comdat : string option;
      (** COMDAT group key; symbols of a group must be emitted together
          (innate partition constraint, paper Section 2.3) *)
  mutable attrs : string list;
}

let mk ?(linkage = External) ?comdat ?(attrs = []) ~name ~params ~ret blocks =
  { name; linkage; params; ret; blocks; comdat; attrs }

let is_declaration fn = fn.blocks = []

let entry fn =
  match fn.blocks with
  | [] -> invalid_arg ("Func.entry: declaration " ^ fn.name)
  | b :: _ -> b

let find_block fn label =
  List.find_opt (fun b -> String.equal b.label label) fn.blocks

let find_block_exn fn label =
  match find_block fn label with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Func.find_block: %s has no %%%s" fn.name label)

let iter_blocks f fn = List.iter f fn.blocks

let iter_insns f fn =
  List.iter (fun b -> List.iter f b.insns) fn.blocks

(** Fold over all instructions, block order then instruction order. *)
let fold_insns f acc fn =
  List.fold_left (fun acc b -> List.fold_left f acc b.insns) acc fn.blocks

let block_count fn = List.length fn.blocks

let insn_count fn =
  List.fold_left (fun n b -> n + List.length b.insns) 0 fn.blocks

(** [List.filter keep l], calling [keep] once per element in order, that
    returns [l] itself when every element is kept: a pass that drops
    nothing from a block allocates nothing for it. *)
let rec filter_shared keep = function
  | [] -> []
  | x :: tl as l ->
    let k = keep x in
    let tl' = filter_shared keep tl in
    if not k then tl' else if tl' == tl then l else x :: tl'

(** Apply [f] to every operand of every instruction and terminator. *)
let map_values f fn =
  let map_block b =
    List.iter (Ins.map_operands f) b.insns;
    b.term <- Ins.map_term_operands f b.term
  in
  List.iter map_block fn.blocks

(* Batched substitution. A pass records replacements in a table as it
   rewrites, resolves the operands of each instruction it visits through
   the table before reading them, and applies the whole batch with one
   [substitute] at the end — one scan per pass run instead of one per
   rewrite. *)

let rec resolve tbl v =
  match v with
  | Ins.Reg (_, n) -> (
    match Hashtbl.find_opt tbl n with
    | None -> v
    | Some next ->
      let final = resolve tbl next in
      if final != next then Hashtbl.replace tbl n final;
      final)
  | _ -> v

let record tbl name v =
  let v = resolve tbl v in
  match v with
  | Ins.Reg (_, n) when String.equal n name -> ()
  | _ -> Hashtbl.replace tbl name v

let resolve_operands tbl i =
  if Hashtbl.length tbl > 0 then Ins.map_operands (resolve tbl) i

let resolve_term tbl term =
  if Hashtbl.length tbl > 0 then Ins.map_term_operands (resolve tbl) term else term

let substitute fn tbl =
  if Hashtbl.length tbl > 0 then begin
    map_values (resolve tbl) fn;
    Hashtbl.reset tbl
  end

(* Fresh names come from a supply: the names in use, collected once.
   Every name handed out joins the supply, so one supply serves any
   number of fresh names while the function is rewritten. *)
type supply = (string, unit) Hashtbl.t

(* Does [s] contain [sub]? *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec matches i j = j >= n || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec at i = i + n <= m && (matches i 0 || at (i + 1)) in
  at 0

let name_supply ?containing fn : supply =
  let used = Hashtbl.create 64 in
  let note name =
    match containing with
    | Some sub when not (contains ~sub name) -> ()
    | _ -> Hashtbl.replace used name ()
  in
  List.iter (fun (_, p) -> note p) fn.params;
  iter_insns (fun i -> if i.Ins.id <> "" then note i.Ins.id) fn;
  used

let fresh (used : supply) hint =
  let name =
    if not (Hashtbl.mem used hint) then hint
    else begin
      let rec try_n n =
        let candidate = Printf.sprintf "%s.%d" hint n in
        if Hashtbl.mem used candidate then try_n (n + 1) else candidate
      in
      try_n 1
    end
  in
  Hashtbl.replace used name ();
  name

let fresh_name fn hint = fresh (name_supply fn) hint

let fresh_label fn hint =
  let used = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace used b.label ()) fn.blocks;
  fresh used hint

(** Label -> block table of the function as it is now. *)
let block_index fn =
  let index = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace index b.label b) fn.blocks;
  index

(** Number of uses of each SSA name within [fn], as a lookup (0 for a
    name never used). *)
let use_counts fn =
  let counts = Hashtbl.create 64 in
  let bump = function
    | Ins.Reg (_, n) -> (
      match Hashtbl.find_opt counts n with
      | Some c -> incr c
      | None -> Hashtbl.add counts n (ref 1))
    | _ -> ()
  in
  iter_blocks
    (fun b ->
      List.iter (Ins.iter_operands bump) b.insns;
      Ins.iter_term_operands bump b.term)
    fn;
  fun n -> match Hashtbl.find_opt counts n with Some c -> !c | None -> 0
