(** A fixed-size domain pool with an exception-safe fork/join [map].

    Failure contract (the property the rebuild pipeline leans on): a job
    that raises never abandons its siblings or poisons the queue. Each
    job captures its own result or exception; {!map} drains the queue
    alongside the workers and only re-raises — the first exception in
    input order, with its original backtrace — *after every job of the
    batch has completed*. A failed batch therefore cannot leave sibling
    jobs running against state the caller has already torn down, and the
    pool remains fully serviceable for subsequent batches. *)

type t = {
  psize : int;
  lock : Mutex.t;
  work : Condition.t;  (* signalled when a job is queued *)
  done_ : Condition.t;  (* signalled when some batch completes *)
  mutable jobs : (unit -> unit) list;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* Set inside worker domains so a nested [map] (e.g. a job that itself
   builds a session) cannot block on the queue it is supposed to drain. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let serial =
  {
    psize = 1;
    lock = Mutex.create ();
    work = Condition.create ();
    done_ = Condition.create ();
    jobs = [];
    stop = false;
    workers = [];
  }

let size t = t.psize

let default_size () =
  match
    Option.bind (Sys.getenv_opt "ODIN_JOBS") (fun s ->
        int_of_string_opt (String.trim s))
  with
  | Some n when n >= 1 -> min n 64
  | _ -> min (Domain.recommended_domain_count ()) 8

(* Pop a job or block until one arrives / the pool stops. Caller holds
   the lock; it is held again on return. *)
let rec next_job t =
  match t.jobs with
  | j :: rest ->
      t.jobs <- rest;
      Some j
  | [] ->
      if t.stop then None
      else (
        Condition.wait t.work t.lock;
        next_job t)

let worker_loop t () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock t.lock;
    match next_job t with
    | None -> Mutex.unlock t.lock
    | Some job ->
        Mutex.unlock t.lock;
        (* Jobs queued by [map] never raise: each stores its own result
           or exception and does its own batch accounting. *)
        job ();
        loop ()
  in
  loop ()

let create ?size () =
  let psize =
    match size with Some n -> max 1 n | None -> default_size ()
  in
  let t = { serial with psize; lock = Mutex.create (); work = Condition.create (); done_ = Condition.create () } in
  if psize > 1 then
    t.workers <- List.init (psize - 1) (fun _ -> Domain.spawn (worker_loop t));
  t

let default_pool = ref None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
      let p = create () in
      default_pool := Some p;
      p

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when t.psize <= 1 || Domain.DLS.get in_worker -> List.map f xs
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let results = Array.make n None in
      (* Per-batch completion counter: this map call joins exactly its
         own jobs, even when other batches share the pool concurrently. *)
      let remaining = ref n in
      let job i () =
        let r =
          try Stdlib.Ok (f arr.(i))
          with e -> Stdlib.Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock t.lock;
        results.(i) <- Some r;
        decr remaining;
        if !remaining = 0 then Condition.broadcast t.done_;
        Mutex.unlock t.lock
      in
      Mutex.lock t.lock;
      (* Queue in order; workers take from the head, the caller drains
         alongside them (jobs popped here may belong to another batch —
         running them is harmless and avoids idle domains). *)
      t.jobs <- t.jobs @ List.init n (fun i -> job i);
      Condition.broadcast t.work;
      let rec drain () =
        if !remaining > 0 then
          match t.jobs with
          | j :: rest ->
              t.jobs <- rest;
              Mutex.unlock t.lock;
              j ();
              Mutex.lock t.lock;
              drain ()
          | [] ->
              Condition.wait t.done_ t.lock;
              drain ()
      in
      drain ();
      Mutex.unlock t.lock;
      (* Join barrier passed: every job of this batch has completed, so
         re-raising here cannot abandon a sibling mid-flight. *)
      Array.to_list
        (Array.map
           (function
             | Some (Stdlib.Ok v) -> v
             | Some (Stdlib.Error (e, bt)) -> Printexc.raise_with_backtrace e bt
             | None -> assert false)
           results)

let shutdown t =
  if t.psize > 1 then begin
    Mutex.lock t.lock;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []
  end
