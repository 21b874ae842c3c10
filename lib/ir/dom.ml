(** Dominator tree and dominance frontiers (Cooper-Harvey-Kennedy), used by
    mem2reg for phi placement and by GVN for scoping. Operates on the
    reachable subgraph; blocks are numbered by their position in reverse
    post-order, and the tree and frontiers are arrays over positions. *)

type t = {
  order : Func.block array;  (** reverse post-order *)
  index : (string, int) Hashtbl.t;  (** label -> position in [order] *)
  idom : int array;  (** immediate dominator by position; entry points at itself *)
  preds : int list array;  (** predecessors by position, in block order *)
}

let compute (fn : Func.t) =
  let post = ref [] in
  ignore (Cfg.dfs fn (fun b -> post := b :: !post));
  let order = Array.of_list !post in
  let n = Array.length order in
  let index = Hashtbl.create (2 * n + 1) in
  Array.iteri (fun i (b : Func.block) -> Hashtbl.replace index b.Func.label i) order;
  let preds = Array.make n [] in
  List.iter
    (fun (b : Func.block) ->
      match Hashtbl.find_opt index b.Func.label with
      | None -> ()
      | Some p ->
        List.iter
          (fun s ->
            match Hashtbl.find_opt index s with
            | Some i -> preds.(i) <- p :: preds.(i)
            | None -> ())
          (Cfg.successors b))
    fn.Func.blocks;
  Array.iteri (fun i ps -> preds.(i) <- List.rev ps) preds;
  let idom = Array.make (max n 1) (-1) in
  if n > 0 then begin
    idom.(0) <- 0;
    let rec intersect a b =
      if a = b then a
      else if a > b then intersect idom.(a) b
      else intersect a idom.(b)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 1 to n - 1 do
        let new_idom =
          List.fold_left
            (fun acc p ->
              if idom.(p) < 0 then acc else if acc < 0 then p else intersect p acc)
            (-1) preds.(i)
        in
        if new_idom >= 0 && idom.(i) <> new_idom then begin
          idom.(i) <- new_idom;
          changed := true
        end
      done
    done
  end;
  { order; index; idom; preds }

(** Position of a reachable block in [order]. *)
let position t label = Hashtbl.find_opt t.index label

let dominates t ~by ~target =
  match (position t by, position t target) with
  | Some bi, Some ti ->
    let rec climb i = if i = bi then true else if i = 0 then bi = 0 else climb t.idom.(i) in
    climb ti
  | _ -> false

(** Dominator-tree children by position, each list in reverse
    post-order. *)
let children t =
  let n = Array.length t.order in
  let children = Array.make n [] in
  for i = n - 1 downto 1 do
    let parent = t.idom.(i) in
    children.(parent) <- i :: children.(parent)
  done;
  children

(** Dominance frontier of each position: the positions in its frontier,
    latest first. *)
let frontiers t =
  let n = Array.length t.order in
  let df = Array.make n [] in
  for i = 0 to n - 1 do
    match t.preds.(i) with
    | _ :: _ :: _ as ps ->
      List.iter
        (fun p ->
          let runner = ref p in
          while !runner <> t.idom.(i) do
            (* only block [i] adds [i], so a duplicate is always the head *)
            (match df.(!runner) with
            | j :: _ when j = i -> ()
            | l -> df.(!runner) <- i :: l);
            runner := t.idom.(!runner)
          done)
        ps
    | _ -> ()
  done;
  df
