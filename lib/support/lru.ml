type 'a entry = { value : 'a; mutable tick : int }

type 'a t = {
  cap : int;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable clock : int;
  mutable evicted : int;
}

let create cap = { cap = max 1 cap; tbl = Hashtbl.create 64; clock = 0; evicted = 0 }
let capacity t = t.cap
let length t = Hashtbl.length t.tbl
let evictions t = t.evicted

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some e ->
      touch t e;
      Some e.value

let peek t key = Option.map (fun e -> e.value) (Hashtbl.find_opt t.tbl key)

let evict_oldest t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, tick) when tick <= e.tick -> ()
      | _ -> victim := Some (k, e.tick))
    t.tbl;
  match !victim with
  | None -> ()
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      t.evicted <- t.evicted + 1

let add t key value =
  (match Hashtbl.find_opt t.tbl key with
  | Some _ -> Hashtbl.remove t.tbl key
  | None -> ());
  if Hashtbl.length t.tbl >= t.cap then evict_oldest t;
  let e = { value; tick = 0 } in
  touch t e;
  Hashtbl.replace t.tbl key e

let clear t =
  Hashtbl.reset t.tbl;
  t.clock <- 0
