(** Control-flow graph utilities over a function's blocks. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)

let successors (b : Func.block) = Ins.successors b.term

(** Map from block label to its predecessors' labels. *)
let predecessors (fn : Func.t) =
  let add map label pred =
    let old = Option.value ~default:[] (SMap.find_opt label map) in
    SMap.add label (pred :: old) map
  in
  List.fold_left
    (fun map b ->
      let map = if SMap.mem b.Func.label map then map else SMap.add b.Func.label [] map in
      List.fold_left (fun map succ -> add map succ b.Func.label) map (successors b))
    SMap.empty fn.Func.blocks
  |> SMap.map List.rev

(** Labels reachable from the entry block. *)
let reachable (fn : Func.t) =
  match fn.Func.blocks with
  | [] -> SSet.empty
  | entry :: _ ->
    let index =
      List.fold_left (fun m b -> SMap.add b.Func.label b m) SMap.empty fn.Func.blocks
    in
    let rec walk seen label =
      if SSet.mem label seen then seen
      else begin
        let seen = SSet.add label seen in
        match SMap.find_opt label index with
        | None -> seen
        | Some b -> List.fold_left walk seen (successors b)
      end
    in
    walk SSet.empty entry.Func.label

(** Blocks in reverse post-order from the entry. Unreachable blocks are
    appended at the end in source order (so passes still see them). *)
let rpo (fn : Func.t) =
  match fn.Func.blocks with
  | [] -> []
  | entry :: _ ->
    let index =
      List.fold_left (fun m b -> SMap.add b.Func.label b m) SMap.empty fn.Func.blocks
    in
    let seen = Hashtbl.create 32 in
    let post = ref [] in
    let rec dfs label =
      if not (Hashtbl.mem seen label) then begin
        Hashtbl.replace seen label ();
        (match SMap.find_opt label index with
        | None -> ()
        | Some b ->
          List.iter dfs (successors b);
          post := b :: !post)
      end
    in
    dfs entry.Func.label;
    let ordered = !post in
    let rest =
      List.filter (fun b -> not (Hashtbl.mem seen b.Func.label)) fn.Func.blocks
    in
    ordered @ rest

(** Remove blocks unreachable from entry, fixing up phi nodes whose
    incoming edges disappear. Returns true if anything changed. *)
let remove_unreachable (fn : Func.t) =
  if fn.Func.blocks = [] then false
  else begin
    let live = reachable fn in
    let dead, kept =
      List.partition (fun b -> not (SSet.mem b.Func.label live)) fn.Func.blocks
    in
    if dead = [] then false
    else begin
      fn.Func.blocks <- kept;
      let dead_labels =
        List.fold_left (fun s b -> SSet.add b.Func.label s) SSet.empty dead
      in
      let fix_ins (i : Ins.ins) =
        match i.kind with
        | Ins.Phi incoming ->
          i.kind <-
            Ins.Phi (List.filter (fun (l, _) -> not (SSet.mem l dead_labels)) incoming)
        | _ -> ()
      in
      List.iter (fun b -> List.iter fix_ins b.Func.insns) kept;
      true
    end
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
        List.iter (fun i -> List.iter scan_value (Ins.operands i)) b.Func.insns;
        List.iter scan_value (Ins.term_operands b.Func.term))
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
