(** Control-flow graph utilities over a function's blocks. The answers
    are hash tables keyed by label, built with one scan of the function
    and owned by the caller. *)

module SSet = Set.Make (String)

let successors (b : Func.block) = Ins.successors b.term

(** Block label -> its predecessors' labels, in block order. Every block
    has an entry (possibly empty); a branch to a label that is not a
    block still gets one. *)
let predecessors (fn : Func.t) =
  let preds : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (b : Func.block) ->
      if not (Hashtbl.mem preds b.Func.label) then Hashtbl.add preds b.Func.label [])
    fn.Func.blocks;
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun succ ->
          match Hashtbl.find_opt preds succ with
          | Some old -> Hashtbl.replace preds succ (b.Func.label :: old)
          | None -> Hashtbl.add preds succ [ b.Func.label ])
        (successors b))
    fn.Func.blocks;
  Hashtbl.filter_map_inplace (fun _ ps -> Some (List.rev ps)) preds;
  preds

(** The predecessors of [label] in a {!predecessors} table ([] when it
    has none). *)
let preds_of preds label =
  match Hashtbl.find_opt preds label with Some ps -> ps | None -> []

(* Depth-first walk from the entry: [visit] sees each reachable block
   after all its successors (post-order). Returns the blocks it did not
   reach, by label. *)
let dfs (fn : Func.t) visit =
  let pending = Func.block_index fn in
  let rec go label =
    match Hashtbl.find_opt pending label with
    | None -> ()
    | Some b ->
      Hashtbl.remove pending label;
      List.iter go (successors b);
      visit b
  in
  (match fn.Func.blocks with [] -> () | entry :: _ -> go entry.Func.label);
  pending

(** Blocks in reverse post-order from the entry. Unreachable blocks are
    appended at the end in source order (so passes still see them). *)
let rpo (fn : Func.t) =
  let post = ref [] in
  let unreached = dfs fn (fun b -> post := b :: !post) in
  if Hashtbl.length unreached = 0 then !post
  else !post @ List.filter (fun b -> Hashtbl.mem unreached b.Func.label) fn.Func.blocks

(** Remove blocks unreachable from entry, fixing up phi nodes whose
    incoming edges disappear. Returns true if anything changed. *)
let remove_unreachable (fn : Func.t) =
  let dead = dfs fn ignore in
  if Hashtbl.length dead = 0 then false
  else begin
    fn.Func.blocks <-
      List.filter (fun b -> not (Hashtbl.mem dead b.Func.label)) fn.Func.blocks;
    let fix_ins (i : Ins.ins) =
      match i.kind with
      | Ins.Phi incoming ->
        let kept = Func.filter_shared (fun (l, _) -> not (Hashtbl.mem dead l)) incoming in
        if kept != incoming then i.kind <- Ins.Phi kept
      | _ -> ()
    in
    List.iter (fun b -> List.iter fix_ins b.Func.insns) fn.Func.blocks;
    true
  end

(** Every [Blockaddr] in the module, grouped by target function: maps a
    function name to the labels of its blocks whose address is taken
    anywhere; such blocks must not be removed or merged away. One module
    scan answers the question for all functions — per-function passes
    must not rescan the module per function (that is quadratic). *)
let address_taken_map (m : Modul.t) =
  let map : (string, SSet.t) Hashtbl.t = Hashtbl.create 16 in
  let scan_value = function
    | Ins.Blockaddr (f, l) ->
      Hashtbl.replace map f
        (SSet.add l (Option.value ~default:SSet.empty (Hashtbl.find_opt map f)))
    | _ -> ()
  in
  let scan_func (g : Func.t) =
    Func.iter_blocks
      (fun b ->
        List.iter (Ins.iter_operands scan_value) b.Func.insns;
        Ins.iter_term_operands scan_value b.Func.term)
      g
  in
  List.iter
    (function
      | Modul.Fun g when not (Func.is_declaration g) -> scan_func g
      | _ -> ())
    (Modul.globals m);
  map

(** Labels of [fn]'s blocks whose address is taken via [Blockaddr]
    anywhere in the module. Scans the whole module — when asking for
    many functions, build {!address_taken_map} once instead. *)
let address_taken_labels (fn : Func.t) (m : Modul.t) =
  Option.value ~default:SSet.empty
    (Hashtbl.find_opt (address_taken_map m) fn.Func.name)
