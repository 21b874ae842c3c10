(** The process supervisor shared by every product that runs on worker
    processes: the fuzzing farm ({!Proc.run}) and the mutation campaign
    ([Mutate.Analysis], [--farm-mode procs]).

    The supervisor owns everything a product does not need to know
    about: spawning workers over cloexec pipes, the bounded
    Init→Ready handshake, the preemptive heartbeat watchdog, SIGKILL
    and reaping, restart with a re-send of the worker's outstanding
    queue, retirement after [max_restarts] with orphans moved to the
    lowest-id live worker, the [select] collect loop, and shutdown on
    every exit path. A product plugs in a {!spec}: its codec over the
    existing {!Wire} frames plus a counter prefix and a restart hook.

    Workers must be stateless between assignments: a restart re-sends
    the very same frames, so a killed worker reproduces its results
    bit-identically and products stay invariant across any
    kill/restart schedule.

    Fault site ["farm.heartbeat"] fires per heartbeat processed; an
    injected fault is treated as a missed deadline (preemptive kill). *)

(** A product's codec and supervision parameters. *)
type ('job, 'res) spec = {
  argv : string array;  (** worker command line (re-exec marker) *)
  env : string array;  (** worker environment *)
  timeout : float;  (** heartbeat deadline, seconds *)
  max_restarts : int;  (** restart budget per worker before retirement *)
  prefix : string;
      (** counter prefix: [<prefix>.worker_deaths] and
          [<prefix>.worker_restarts]; also the spawn span's category *)
  init : int -> Wire.msg;  (** the bootstrap frame for a worker id *)
  ready : Wire.msg -> int option;
      (** decode the handshake reply to the worker's unit count (probes,
          mutants); [None] is a protocol violation. A worker whose count
          disagrees with the first Ready is retired. *)
  assign : 'job -> Wire.msg;
  result : int -> Wire.msg -> (int * 'res) option;
      (** decode a result frame from the given worker id to its round
          and payload; [None] is a protocol violation *)
  on_restart : int -> unit;  (** called with the worker id per restart *)
}

type ('job, 'res) t

(** Raised by {!collect} when the last live worker is retired. *)
exception All_retired

(** [run ~workers spec f] boots the fleet (restarting boot failures
    within budget), applies [f], then shuts every live worker down —
    [Shutdown], SIGKILL if that send fails, [waitpid], close — whether
    [f] returns or raises. Counters go to [telemetry]. *)
val run :
  ?telemetry:Telemetry.Recorder.t ->
  workers:int ->
  ('job, 'res) spec ->
  (('job, 'res) t -> 'a) ->
  'a

(** The unit count every live worker agreed on (0 when none booted). *)
val units : ('job, 'res) t -> int

(** Live worker ids, ascending. *)
val live : ('job, 'res) t -> int list

(** Restarts so far, boot retries included. *)
val restarts : ('job, 'res) t -> int

(** Retired workers with the reason, by worker id. *)
val retired : ('job, 'res) t -> (int * string) list

(** [collect t ~round jobs] sends each [(worker id, job)], supervises
    until every queued job has a result whose round matches, and
    returns the payloads in arrival order.
    @raise All_retired when the last live worker is retired *)
val collect : ('job, 'res) t -> round:int -> (int * 'job) list -> 'res list

(** Deal [items] round-robin over [live]; workers dealt nothing are
    dropped. The deal only decides who computes what. *)
val deal : 'w list -> 'a list -> ('w * 'a list) list

(** Worker-side skeleton: ignore SIGPIPE, install the [ODIN_FAULTS]
    plan, decode the init frame with [boot] (returning the state and
    the Ready frame), then serve frames from stdin until [Shutdown].
    [job] decodes an assignment to its round and a [work] function;
    the skeleton sends a heartbeat before [work] and one per call of
    the [tick] it hands to [work], then sends the result frame [work]
    returns. Faults are reported as [Died] frames. Exit codes: 0 clean
    shutdown, 2 fault during a job, 3 [Failure] in [boot], 64 protocol
    violation, 65 no init frame, 66 supervisor gone, 70 failed send.
    Never returns. *)
val serve :
  boot:(Wire.msg -> ('st * Wire.msg) option) ->
  job:('st -> Wire.msg -> (int * ((unit -> unit) -> Wire.msg)) option) ->
  ?shutdown:('st -> unit) ->
  unit ->
  'a
