(** Campaign flight recorder: a bounded, crash-safe JSONL event journal.

    Producers ({!Farm.run}, [odinc fuzz --journal]) {!record} structured
    events — barrier summaries, session/link counter deltas, per-probe
    cost attribution — and {!flush} at sync barriers. A flush rewrites
    the whole retained window through {!Support.Fsio.write_atomic}
    (tmp + rename, the {!Support.Objstore} pattern), so a campaign
    killed mid-flush leaves the previous complete journal, and a
    truncated file can only come from a non-atomic filesystem — which
    {!load} recovers from by skipping unparseable lines and reporting
    how many it skipped.

    The journal is bounded: at most [limit] events are retained, oldest
    dropped first, with the drop count carried in the header line —
    long campaigns get a flight-recorder window, not an unbounded log.

    File format: line 1 is a header object
    [{"journal":1,"dropped":N,"events":M}]; every further line is one
    event [{"seq":..,"ts":..,"kind":..,  ...fields}]. Sequence numbers
    are global and monotonic, so a reader can detect the dropped prefix
    even without the header. *)

let format_version = 1

type event = {
  e_seq : int;
  e_ts : float;
  e_kind : string;
  e_fields : (string * Json.t) list;
}

type t = {
  limit : int;
  clock : Clock.t;
  lock : Mutex.t;
  q : event Queue.t;
  mutable seq : int;
  mutable dropped : int;
}

let create ?(limit = 8192) ?(clock = Clock.monotonic) () =
  {
    limit = max 1 limit;
    clock;
    lock = Mutex.create ();
    q = Queue.create ();
    seq = 0;
    dropped = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(** Append one event; drops the oldest when the window is full. Safe
    from any domain. *)
let record t ~kind fields =
  locked t @@ fun () ->
  let ev = { e_seq = t.seq; e_ts = t.clock (); e_kind = kind; e_fields = fields } in
  t.seq <- t.seq + 1;
  Queue.push ev t.q;
  if Queue.length t.q > t.limit then begin
    ignore (Queue.pop t.q);
    t.dropped <- t.dropped + 1
  end

let length t = locked t (fun () -> Queue.length t.q)
let dropped t = locked t (fun () -> t.dropped)

(** Retained events, oldest first. *)
let events t = locked t (fun () -> List.of_seq (Queue.to_seq t.q))

let event_to_json ev =
  Json.Obj
    ([
       ("seq", Json.Int ev.e_seq);
       ("ts", Json.Float ev.e_ts);
       ("kind", Json.String ev.e_kind);
     ]
    @ ev.e_fields)

let render t =
  locked t @@ fun () ->
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Json.to_string
       (Json.Obj
          [
            ("journal", Json.Int format_version);
            ("dropped", Json.Int t.dropped);
            ("events", Json.Int (Queue.length t.q));
          ]));
  Buffer.add_char b '\n';
  Queue.iter
    (fun ev ->
      Buffer.add_string b (Json.to_string (event_to_json ev));
      Buffer.add_char b '\n')
    t.q;
  Buffer.contents b

(** Publish the retained window to [path] atomically. Called at every
    sync barrier: the on-disk journal is always a complete, parseable
    prefix-dropped window of the campaign so far. *)
let flush t path = Support.Fsio.write_atomic path (render t)

let for_campaign ?journal ?path ~clock () =
  let j =
    match (journal, path) with
    | Some j, _ -> Some j
    | None, Some _ -> Some (create ~clock ())
    | None, None -> None
  in
  (j, fun () -> match (j, path) with Some j, Some p -> flush j p | _ -> ())

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type loaded = {
  l_events : event list;  (** parsed events, seq order *)
  l_dropped : int;  (** header drop count (0 if header missing) *)
  l_skipped : int;  (** unparseable lines (truncation / corruption) *)
}

let event_of_json j =
  match
    ( Option.bind (Json.member "seq" j) Json.to_int,
      Option.bind (Json.member "ts" j) Json.to_float,
      Option.bind (Json.member "kind" j) Json.to_str )
  with
  | Some seq, Some ts, Some kind ->
    let fields =
      match j with
      | Json.Obj fs ->
        List.filter (fun (k, _) -> k <> "seq" && k <> "ts" && k <> "kind") fs
      | _ -> []
    in
    Some { e_seq = seq; e_ts = ts; e_kind = kind; e_fields = fields }
  | _ -> None

(** Load a journal file. Unparseable or truncated lines (a torn write
    on a non-atomic filesystem, a partial copy) are skipped and
    counted, never fatal — the flight recorder must be readable after
    any crash. Raises [Sys_error] only if the file cannot be opened. *)
let load path =
  let body = Support.Fsio.read_file path in
  let lines = String.split_on_char '\n' body in
  let header_dropped = ref 0 in
  let skipped = ref 0 in
  let events = ref [] in
  List.iteri
    (fun i line ->
      if String.trim line = "" then ()
      else
        match Json.of_string line with
        | Error _ -> incr skipped
        | Ok j -> (
          match Json.member "journal" j with
          | Some _ when i = 0 ->
            header_dropped :=
              Option.value ~default:0
                (Option.bind (Json.member "dropped" j) Json.to_int)
          | _ -> (
            match event_of_json j with
            | Some ev -> events := ev :: !events
            | None -> incr skipped)))
    lines;
  {
    l_events = List.rev !events;
    l_dropped = !header_dropped;
    l_skipped = !skipped;
  }

(** Field accessors for report renderers. *)
let field ev name = List.assoc_opt name ev.e_fields

let field_int ev name = Option.bind (field ev name) Json.to_int
let field_float ev name = Option.bind (field ev name) Json.to_float
let field_str ev name = Option.bind (field ev name) Json.to_str
