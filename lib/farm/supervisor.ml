(** The process supervisor shared by the fuzzing farm and the mutation
    campaign; see the interface. *)

module Recorder = Telemetry.Recorder

type ('job, 'res) spec = {
  argv : string array;
  env : string array;
  timeout : float;
  max_restarts : int;
  prefix : string;
  init : int -> Wire.msg;
  ready : Wire.msg -> int option;
  assign : 'job -> Wire.msg;
  result : int -> Wire.msg -> (int * 'res) option;
  on_restart : int -> unit;
}

type worker = {
  id : int;
  mutable pid : int;
  mutable fd_in : Unix.file_descr;  (** supervisor → worker stdin *)
  mutable rd : Wire.reader;  (** worker stdout → supervisor *)
  mutable restarts : int;
  mutable retired : string option;
  mutable last_seen : float;
  mutable queue : (int * Wire.msg) list;  (** outstanding (round, assign), FIFO *)
}

type ('job, 'res) t = {
  spec : ('job, 'res) spec;
  r : Recorder.t;
  ws : worker array;
  mutable units : int;  (** agreed Ready count; -1 until the first Ready *)
}

exception All_retired

let count t name = Recorder.count (Some t.r) (t.spec.prefix ^ "." ^ name)
let alive t = Array.to_list t.ws |> List.filter (fun w -> w.retired = None)
let live t = List.map (fun w -> w.id) (alive t)
let lowest_live t = match alive t with w :: _ -> w | [] -> raise All_retired
let units t = max 0 t.units
let restarts t = Array.fold_left (fun n w -> n + w.restarts) 0 t.ws

let retired t =
  Array.to_list t.ws
  |> List.filter_map (fun w -> Option.map (fun why -> (w.id, why)) w.retired)

(* ------------------------------------------------------------------ *)
(* Worker lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let close_pipes w =
  (try Unix.close w.fd_in with Unix.Unix_error _ -> ());
  try Unix.close w.rd.Wire.rd_fd with Unix.Unix_error _ -> ()

let reap t w =
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
  close_pipes w;
  (* reaped: never signal this (possibly recycled) pid again *)
  w.pid <- -1;
  count t "worker_deaths"

(* spawn + Init, then wait (bounded) for the Ready frame's unit count *)
let start t w =
  (* cloexec pipes: create_process's dup2 onto the std fds clears the
     flag for the child's own copies, and other children don't inherit
     this worker's pipe ends *)
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let argv = t.spec.argv in
  w.pid <- Unix.create_process_env argv.(0) argv t.spec.env in_r out_w Unix.stderr;
  Unix.close in_r;
  Unix.close out_w;
  w.fd_in <- in_w;
  w.rd <- Wire.reader out_r;
  w.last_seen <- Unix.gettimeofday ();
  match
    Wire.send w.fd_in (t.spec.init w.id);
    let deadline = Unix.gettimeofday () +. max t.spec.timeout 5. in
    let rec await () =
      match Wire.next w.rd with
      | Some (Wire.Died reason) -> Error reason
      | Some m -> (
        match t.spec.ready m with
        | Some n -> Ok n
        | None -> Error "protocol violation in handshake")
      | None ->
        if Unix.gettimeofday () > deadline then Error "handshake timeout"
        else (
          match Unix.select [ w.rd.Wire.rd_fd ] [] [] 0.1 with
          | [], _, _ -> await ()
          | _ -> (
            match Wire.feed w.rd with
            | `Eof -> Error "worker exited during handshake"
            | `Read _ -> await ()))
    in
    await ()
  with
  | result -> result
  | exception Wire.Wire_error m -> Error m

let note_restart t w =
  w.restarts <- w.restarts + 1;
  count t "worker_restarts";
  t.spec.on_restart w.id

(* restart-or-retire; re-dispatches the dead worker's outstanding
   assignments (to itself after a restart, to the lowest-id live worker
   after retirement) *)
let rec on_death t w reason =
  if w.retired = None then begin
    reap t w;
    if w.restarts < t.spec.max_restarts then begin
      note_restart t w;
      match start t w with
      | Ok _ -> send_jobs t w w.queue "resend failed: "
      | Error m -> on_death t w ("restart failed: " ^ m)
    end
    else begin
      w.retired <- Some reason;
      let orphans = w.queue in
      w.queue <- [];
      let h = lowest_live t in
      h.queue <- h.queue @ orphans;
      send_jobs t h orphans "orphan reassign failed: "
    end
  end

(* a failed send is a death like any other *)
and send_jobs t w jobs why =
  try List.iter (fun (_, m) -> Wire.send w.fd_in m) jobs
  with Wire.Wire_error m -> on_death t w (why ^ m)

(* the initial fleet: boot failures restart (within budget) like any
   death; a worker disagreeing on the unit count is retired *)
let rec boot t w =
  match start t w with
  | Ok n when t.units < 0 || n = t.units -> t.units <- n
  | Ok _ ->
    reap t w;
    w.retired <- Some "unit-count mismatch"
  | Error m ->
    reap t w;
    if w.restarts < t.spec.max_restarts then begin
      note_restart t w;
      boot t w
    end
    else w.retired <- Some m

let shutdown t =
  Array.iter
    (fun w ->
      (* retired, never spawned, or reaped before a failed respawn: no
         process to stop *)
      if w.pid > 0 then begin
        (try Wire.send w.fd_in Wire.Shutdown
         with Wire.Wire_error _ -> (
           try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ()));
        (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
        close_pipes w
      end)
    t.ws

let run ?telemetry ~workers spec f =
  let r = match telemetry with Some r -> r | None -> Recorder.create () in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let ws =
    Array.init (max 1 workers) (fun id ->
        {
          id;
          pid = -1;
          fd_in = Unix.stdin;
          rd = Wire.reader Unix.stdin;
          restarts = 0;
          retired = None;
          last_seen = 0.;
          queue = [];
        })
  in
  let t = { spec; r; ws; units = -1 } in
  Fun.protect ~finally:(fun () -> shutdown t) @@ fun () ->
  Telemetry.Span.with_span r.Recorder.spans ~cat:spec.prefix "spawn" (fun () ->
      Array.iter (boot t) ws);
  f t

(* ------------------------------------------------------------------ *)
(* One round: dispatch, supervise, collect                             *)
(* ------------------------------------------------------------------ *)

exception Dead of string

(* drain every complete frame a worker has sent; results are checked
   against the head of its queue *)
let rec drain t w results =
  match Wire.next w.rd with
  | None -> ()
  | Some (Wire.Heartbeat _) ->
    w.last_seen <- Unix.gettimeofday ();
    (try Support.Fault.hit "farm.heartbeat"
     with
     | Support.Fault.Injected _ | Support.Fault.Transient_fault _
     | Support.Fault.Timed_out _
     ->
       raise (Dead "heartbeat fault (preemptive kill)"));
    drain t w results
  | Some (Wire.Died reason) -> raise (Dead ("worker fault: " ^ reason))
  | Some m -> (
    match t.spec.result w.id m with
    | None -> raise (Dead "protocol violation")
    | Some (round, res) ->
      w.last_seen <- Unix.gettimeofday ();
      (match w.queue with
      | [] -> raise (Dead "unsolicited result frame")
      | (qround, _) :: rest ->
        if qround <> round then raise (Dead "result for the wrong round");
        w.queue <- rest;
        results := res :: !results);
      drain t w results)

let collect t ~round jobs =
  let results = ref [] in
  List.iter
    (fun (id, job) ->
      (* a worker retired while earlier jobs went out: its share follows
         its orphans *)
      let w = if t.ws.(id).retired = None then t.ws.(id) else lowest_live t in
      let q = [ (round, t.spec.assign job) ] in
      w.queue <- w.queue @ q;
      send_jobs t w q "assign failed: ")
    jobs;
  let outstanding () =
    Array.to_list t.ws |> List.filter (fun w -> w.retired = None && w.queue <> [])
  in
  while outstanding () <> [] do
    let now = Unix.gettimeofday () in
    (* preemptive watchdog: a worker owing results that has not
       heartbeat within the deadline is killed and restarted *)
    List.iter
      (fun w ->
        if now -. w.last_seen > t.spec.timeout then
          on_death t w "missed heartbeat deadline (preemptive kill)")
      (outstanding ());
    let waiting = outstanding () in
    if waiting <> [] then begin
      let fds = List.map (fun w -> w.rd.Wire.rd_fd) waiting in
      let readable, _, _ =
        try Unix.select fds [] [] 0.05
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          match List.find_opt (fun w -> w.rd.Wire.rd_fd == fd) waiting with
          | None -> ()
          | Some w -> (
            try
              (match Wire.feed w.rd with
              | `Eof ->
                if Wire.pending w.rd > 0 then
                  raise (Dead "torn frame: worker died mid-send")
                else raise (Dead "worker closed pipe")
              | `Read n -> if n > 0 then w.last_seen <- Unix.gettimeofday ());
              drain t w results
            with
            | Dead reason -> on_death t w reason
            | Wire.Wire_error m -> on_death t w m))
        readable
    end
  done;
  List.rev !results

let deal live items =
  let n = List.length live in
  List.mapi (fun k w -> (w, List.filteri (fun i _ -> i mod n = k) items)) live
  |> List.filter (fun (_, xs) -> xs <> [])

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

let serve ~boot ~job ?(shutdown = ignore) () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  ignore (Support.Fault.init_from_env ());
  let rd = Wire.reader Unix.stdin in
  let send m = Wire.send Unix.stdout m in
  let die reason code =
    (try send (Wire.Died reason) with _ -> ());
    exit code
  in
  let st, ready =
    match Wire.recv rd with
    | exception Wire.Wire_error _ -> exit 65
    | m -> (
      match boot m with
      | None -> die "protocol violation: expected init" 64
      | Some v -> v
      | exception Failure msg -> die msg 3)
  in
  (try send ready with Wire.Wire_error _ -> exit 70);
  let rec loop () =
    (match Wire.recv rd with
    | exception Wire.Wire_error _ ->
      (* supervisor went away (EOF / torn pipe): nothing to report to *)
      exit 66
    | Wire.Shutdown ->
      shutdown st;
      exit 0
    | m -> (
      try
        match job st m with
        | None -> die "protocol violation: unexpected frame" 64
        | Some (round, work) ->
          let beat d = send (Wire.Heartbeat { hb_round = round; hb_done = d }) in
          let done_units = ref 0 in
          beat 0;
          send
            (work (fun () ->
                 incr done_units;
                 beat !done_units))
      with
      | Wire.Wire_error _ ->
        (* a torn/failed send means this process can no longer speak the
           protocol; die and let the supervisor restart cleanly *)
        exit 70
      | Support.Fault.Injected site ->
        die (Printf.sprintf "injected fault at %s" site) 2
      | Support.Fault.Timed_out site ->
        die (Printf.sprintf "timed out at %s" site) 2
      | e -> die (Printexc.to_string e) 2));
    loop ()
  in
  loop ()
