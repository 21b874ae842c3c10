(** Dominator tree and dominance frontiers (Cooper-Harvey-Kennedy), used by
    mem2reg for phi placement. Operates on the reachable subgraph. *)

module SMap = Map.Make (String)

type t = {
  order : Func.block array;  (** reverse post-order *)
  index : int SMap.t;  (** label -> position in [order] *)
  idom : int array;  (** immediate dominator by position; entry points at itself *)
  preds : int list array;  (** predecessors by position *)
}

let compute (fn : Func.t) =
  let reachable = Cfg.reachable fn in
  let order =
    Array.of_list
      (List.filter (fun b -> Cfg.SSet.mem b.Func.label reachable) (Cfg.rpo fn))
  in
  let n = Array.length order in
  let index =
    Array.to_list order
    |> List.mapi (fun i b -> (b.Func.label, i))
    |> List.fold_left (fun m (l, i) -> SMap.add l i m) SMap.empty
  in
  let label_preds = Cfg.predecessors fn in
  let preds =
    Array.map
      (fun b ->
        Option.value ~default:[] (SMap.find_opt b.Func.label label_preds)
        |> List.filter_map (fun l -> SMap.find_opt l index))
      order
  in
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
        let ps = List.filter (fun p -> idom.(p) >= 0) preds.(i) in
        match ps with
        | [] -> ()
        | first :: rest ->
          let new_idom = List.fold_left intersect first rest in
          if idom.(i) <> new_idom then begin
            idom.(i) <- new_idom;
            changed := true
          end
      done
    done
  end;
  { order; index; idom; preds }

let dominates t ~by ~target =
  match (SMap.find_opt by t.index, SMap.find_opt target t.index) with
  | Some bi, Some ti ->
    let rec climb i = if i = bi then true else if i = 0 then bi = 0 else climb t.idom.(i) in
    climb ti
  | _ -> false

(** Dominator-tree children: label -> child labels, in reverse
    post-order. *)
let children t =
  let children = Hashtbl.create 16 in
  for i = Array.length t.order - 1 downto 1 do
    let parent = t.order.(t.idom.(i)).Func.label in
    let old = Option.value ~default:[] (Hashtbl.find_opt children parent) in
    Hashtbl.replace children parent (t.order.(i).Func.label :: old)
  done;
  children

(** Dominance frontier: label -> list of frontier labels. *)
let frontiers t =
  let n = Array.length t.order in
  let df = Array.make (max n 1) [] in
  for i = 0 to n - 1 do
    let ps = t.preds.(i) in
    if List.length ps >= 2 then
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
  done;
  let map = ref SMap.empty in
  for i = 0 to n - 1 do
    let frontier = List.map (fun j -> t.order.(j).Func.label) df.(i) in
    map := SMap.add t.order.(i).Func.label frontier !map
  done;
  !map
