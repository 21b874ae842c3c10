(** Hierarchical spans: the timing backbone of the pipeline.

    A recorder keeps a stack of open spans; [enter]/[exit] (or the
    exception-safe [with_span]) build a tree of timed regions. The
    session's recompilation flow, the optimizer's per-pass timing and
    the CLI's --time-report all read this tree — there is exactly one
    source of timing truth, so a report's stage totals always agree
    with the recompile events derived from the same spans.

    A tree is single-domain: concurrent producers each record into
    their own tree (see [Recorder.fork]) and the owner grafts the
    results back with [adopt] at the join point. Every span is stamped
    with the integer id of the domain that opened it, which is what the
    Chrome trace export reports as [tid].

    Memory is bounded per parent: once a span (or the root list) has
    accumulated [2 * limit] children, the oldest are discarded down to
    [limit], and the count of discarded spans is kept so reports can
    say "…and N more". Million-execute campaigns therefore hold a
    window of recent spans, not all of them; counters are unaffected
    and stay exact. *)

(* A span is 9 words when it has no children (most are leaves: one per
   pass execution): times are integer nanoseconds, not boxed floats,
   siblings are chained through the span itself instead of a list, and
   the child bookkeeping exists only once a child does. *)
type span = {
  sp_name : string;
  sp_cat : string;  (** category, e.g. "session", "pass" — trace "cat" field *)
  sp_tid : int;  (** id of the domain that opened the span *)
  mutable sp_args : (string * string) list;
  sp_start : int;  (** nanoseconds *)
  mutable sp_dur : int;  (** nanoseconds; negative while the span is open *)
  mutable sp_next : span;
      (** next sibling ([nil] ends the chain): the older one while the
          parent is open, the younger one once it is closed *)
  mutable sp_kids : kids;
}

and kids =
  | No_kids
  | Kids of {
      mutable first : span;  (** newest first while open; oldest once closed *)
      mutable kept : int;  (** length of the chain (amortized bound) *)
      mutable dropped : int;  (** children discarded by the ring bound *)
    }

let rec nil =
  {
    sp_name = "";
    sp_cat = "";
    sp_tid = 0;
    sp_args = [];
    sp_start = 0;
    sp_dur = 0;
    sp_next = nil;
    sp_kids = No_kids;
  }

type t = {
  clock : Clock.t;
  limit : int;  (** max children retained per parent (and roots) *)
  mutable roots : span list;  (** newest first *)
  mutable roots_kept : int;
  mutable roots_dropped : int;
  mutable stack : span list;  (** innermost open span first *)
}

let create ?(clock = Clock.monotonic) ?(limit = max_int) () =
  {
    clock;
    limit = max 1 limit;
    roots = [];
    roots_kept = 0;
    roots_dropped = 0;
    stack = [];
  }

let limit t = t.limit
let ns_of_seconds s = Float.to_int (Float.round (s *. 1e9))
let seconds_of_ns n = float_of_int n /. 1e9

let take n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | _ -> List.rev acc
  in
  go n [] l

(* The chain from [sp] (following [sp_next]) as a list, reversed. *)
let rev_chain sp =
  let rec go acc sp = if sp == nil then acc else go (sp :: acc) sp.sp_next in
  go [] sp

(* Cut a chain after its first [n] spans. *)
let truncate_chain first n =
  let rec go k sp =
    if sp != nil then
      if k = n - 1 then sp.sp_next <- nil else go (k + 1) sp.sp_next
  in
  if n > 0 then go 0 first

(* Amortized bound: truncate only once the chain doubles past the
   limit, so steady-state appends are O(1). Chains are newest-first
   while the parent is open, so cutting keeps the most recent spans.
   Open spans are never dropped: an open child is always the newest
   entry of its parent. *)
let bounded_add t sp parent =
  match parent with
  | Some p -> (
      match p.sp_kids with
      | No_kids -> p.sp_kids <- Kids { first = sp; kept = 1; dropped = 0 }
      | Kids k ->
          sp.sp_next <- k.first;
          k.first <- sp;
          k.kept <- k.kept + 1;
          if t.limit <> max_int && k.kept >= 2 * t.limit then begin
            truncate_chain k.first t.limit;
            k.dropped <- k.dropped + (k.kept - t.limit);
            k.kept <- t.limit
          end)
  | None ->
      t.roots <- sp :: t.roots;
      t.roots_kept <- t.roots_kept + 1;
      if t.limit <> max_int && t.roots_kept >= 2 * t.limit then begin
        t.roots <- take t.limit t.roots;
        t.roots_dropped <- t.roots_dropped + (t.roots_kept - t.limit);
        t.roots_kept <- t.limit
      end

let enter t ?(cat = "") ?(args = []) name =
  let sp =
    {
      sp_name = name;
      sp_cat = cat;
      sp_tid = (Domain.self () :> int);
      sp_args = args;
      sp_start = ns_of_seconds (t.clock ());
      sp_dur = -1;
      sp_next = nil;
      sp_kids = No_kids;
    }
  in
  bounded_add t sp (match t.stack with parent :: _ -> Some parent | [] -> None);
  t.stack <- sp :: t.stack;
  sp

(* Closing puts the children in chronological order: reverse the chain
   in place. *)
let close t sp =
  sp.sp_dur <- ns_of_seconds (t.clock ()) - sp.sp_start;
  match sp.sp_kids with
  | No_kids -> ()
  | Kids k ->
      let rec rev prev sp =
        if sp == nil then prev
        else begin
          let next = sp.sp_next in
          sp.sp_next <- prev;
          rev sp next
        end
      in
      k.first <- rev nil k.first

(** Close [sp]. Any spans opened inside it and not yet exited are closed
    with it (defensive: a forgotten exit cannot corrupt the tree). *)
let exit t sp =
  let rec pop = function
    | [] -> []  (* sp not on the stack: already closed; nothing to do *)
    | top :: rest ->
      close t top;
      if top == sp then rest else pop rest
  in
  t.stack <- pop t.stack

let add_arg sp k v = sp.sp_args <- sp.sp_args @ [ (k, v) ]

let with_span t ?cat ?args name f =
  let sp = enter t ?cat ?args name in
  Fun.protect ~finally:(fun () -> exit t sp) f

let duration sp = if sp.sp_dur < 0 then 0. else seconds_of_ns sp.sp_dur
let name sp = sp.sp_name
let cat sp = sp.sp_cat
let tid sp = sp.sp_tid
let args sp = sp.sp_args
let start sp = seconds_of_ns sp.sp_start
let dropped_children sp = match sp.sp_kids with No_kids -> 0 | Kids k -> k.dropped

(** Children in chronological order (valid once the span is closed). *)
let children sp =
  match sp.sp_kids with
  | No_kids -> []
  | Kids k -> if sp.sp_dur < 0 then rev_chain k.first else List.rev (rev_chain k.first)

(** Root spans in chronological order. *)
let roots t = List.rev t.roots

(** Graft already-closed spans (e.g. the roots of a forked worker tree)
    under [into] when given, else as roots of [t]. [spans] must be in
    chronological order; relative order is preserved. A span belongs to
    one tree: the tree it is adopted from must not be used after. The
    ring bound is not applied here — joins adopt a batch of
    per-fragment spans whose size the caller already controls. *)
let adopt t ?into spans =
  match into with
  | Some p ->
      List.iter
        (fun sp ->
          match p.sp_kids with
          | No_kids ->
              sp.sp_next <- nil;
              p.sp_kids <- Kids { first = sp; kept = 1; dropped = 0 }
          | Kids k ->
              sp.sp_next <- k.first;
              k.first <- sp;
              k.kept <- k.kept + 1)
        spans
  | None ->
      t.roots <- List.rev_append spans t.roots;
      t.roots_kept <- t.roots_kept + List.length spans

(** Preorder walk of every recorded span with its nesting depth. *)
let iter t f =
  let rec walk depth sp =
    f ~depth sp;
    List.iter (walk (depth + 1)) (children sp)
  in
  List.iter (walk 0) (roots t)

(** Total spans discarded by the ring bound, across the whole tree. *)
let dropped t =
  let acc = ref t.roots_dropped in
  iter t (fun ~depth:_ sp -> acc := !acc + dropped_children sp);
  !acc

(** Every span named [n], in preorder. *)
let find_all t n =
  let acc = ref [] in
  iter t (fun ~depth:_ sp -> if String.equal sp.sp_name n then acc := sp :: !acc);
  List.rev !acc

(** Summed duration of every span named [n]. *)
let total t n = List.fold_left (fun a sp -> a +. duration sp) 0. (find_all t n)
