(** Function inlining (bottom-up along the call graph). Inlining is the
    paper's canonical example of an interprocedural optimization that
    clones basic blocks across functions (Section 2.2, item 4) and that
    bonds a callee to its caller for partitioning purposes: redoing the
    inline at fragment-recompilation time requires both symbols in the
    same fragment. *)

open Ir

let default_threshold = 30

let is_recursive (f : Func.t) =
  let rec_ = ref false in
  Func.iter_insns
    (fun i ->
      match i.Ins.kind with
      | Ins.Call (Ins.Direct n, _) when String.equal n f.Func.name -> rec_ := true
      | _ -> ())
    f;
  !rec_

(* Cost model: probes are volatile and count double, so instrumented
   callees inline less readily — this is precisely how instrument-first
   "leaves less room for optimization" (Section 2.2). *)
let inline_cost (f : Func.t) =
  Func.fold_insns
    (fun acc (i : Ins.ins) ->
      acc + (if i.Ins.volatile then 2 else 1)
      + (match i.Ins.kind with Ins.Call _ -> 2 | _ -> 0))
    (List.length f.Func.blocks)
    f

(* Whether [callee] may be inlined into any other function.
   [address_taken] is {!Cfg.address_taken_map} of the module, built once
   per pass run (asking per candidate rescans the module: quadratic).
   Inlining never creates a [Blockaddr] naming a new function, so the
   map can only be conservative for the rest of the run. *)
let inlinable address_taken (callee : Func.t) ~threshold =
  (not (Func.is_declaration callee))
  && (not (is_recursive callee))
  && inline_cost callee <= threshold
  && not (Hashtbl.mem (Lazy.force address_taken) callee.Func.name)

(* Inline one call site: [call_ins], a direct call with arguments
   [args] in block [host] of [caller]. Returns the caller's blocks after
   [host], the inlined body first. The call's result is replaced through
   [subst], the caller's pending substitution: the caller is rewritten
   once, when the pass ends or before its body is cloned into another
   function ([callee_subst] is the callee's, applied first). *)
let inline_site ~subst ~callee_subst (caller : Func.t) (callee : Func.t)
    (host : Func.block) (call_ins : Ins.ins) args =
  Func.substitute callee callee_subst;
  (* Pick a prefix such that no existing label or register starts with
     it — repeated inlining of the same callee must not collide. Only
     names under "inl." can clash: collect those and their dotted
     prefixes once, then test candidates against the set. *)
  let prefix =
    let taken = Hashtbl.create 16 in
    let note name =
      if String.starts_with ~prefix:"inl." name then begin
        Hashtbl.replace taken name ();
        String.iteri
          (fun k c ->
            if c = '.' && k < String.length name - 1 then
              Hashtbl.replace taken (String.sub name 0 k) ())
          name
      end
    in
    Func.iter_blocks (fun b -> note b.Func.label) caller;
    Func.iter_insns (fun i -> if i.Ins.id <> "" then note i.Ins.id) caller;
    let rec pick n =
      let candidate = Printf.sprintf "inl.%s.%d" callee.Func.name n in
      if Hashtbl.mem taken candidate then pick (n + 1) else candidate
    in
    pick 0
  in
  let rename_label l = prefix ^ "." ^ l in
  let rename_reg r = prefix ^ "." ^ r in
  (* clone callee body with renamed registers and labels *)
  let param_map = Hashtbl.create 8 in
  List.iteri
    (fun idx (_, p) ->
      match List.nth_opt args idx with
      | Some a -> Hashtbl.replace param_map p a
      | None -> Hashtbl.replace param_map p (Ins.Undef Types.I64))
    callee.Func.params;
  let map_value = function
    | Ins.Reg (ty, n) -> (
      match Hashtbl.find_opt param_map n with
      | Some a -> a
      | None -> Ins.Reg (ty, rename_reg n))
    | v -> v
  in
  let clone_ins (i : Ins.ins) =
    let copy = { i with Ins.id = (if i.Ins.id = "" then "" else rename_reg i.Ins.id) } in
    Ins.map_operands map_value copy;
    (match copy.Ins.kind with
    | Ins.Phi incoming ->
      copy.Ins.kind <- Ins.Phi (List.map (fun (l, v) -> (rename_label l, v)) incoming)
    | _ -> ());
    copy
  in
  let cont_label = Func.fresh_label caller (host.Func.label ^ ".cont") in
  let rets = ref [] in
  let clone_block (b : Func.block) =
    let insns = List.map clone_ins b.Func.insns in
    let term =
      match b.Func.term with
      | Ins.Ret v ->
        let v = Option.map map_value v in
        rets := (rename_label b.Func.label, v) :: !rets;
        Ins.Br cont_label
      | Ins.Br l -> Ins.Br (rename_label l)
      | Ins.Cbr (c, a, b2) -> Ins.Cbr (map_value c, rename_label a, rename_label b2)
      | Ins.Switch (v, d, cases) ->
        Ins.Switch
          (map_value v, rename_label d, List.map (fun (k, l) -> (k, rename_label l)) cases)
      | Ins.Unreachable -> Ins.Unreachable
    in
    { Func.label = rename_label b.Func.label; insns; term }
  in
  let body = List.map clone_block callee.Func.blocks in
  (* split the host block *)
  let rec split acc = function
    | [] -> (List.rev acc, [])
    | i :: rest when i == call_ins -> (List.rev acc, rest)
    | i :: rest -> split (i :: acc) rest
  in
  let before, after = split [] host.Func.insns in
  let cont = { Func.label = cont_label; insns = after; term = host.Func.term } in
  (* successors' phis must now name cont instead of host *)
  List.iter
    (fun succ ->
      match Func.find_block caller succ with
      | None -> ()
      | Some sb ->
        List.iter
          (fun (i : Ins.ins) ->
            match i.Ins.kind with
            | Ins.Phi incoming ->
              i.Ins.kind <-
                Ins.Phi
                  (List.map
                     (fun (l, v) ->
                       if String.equal l host.Func.label then (cont_label, v) else (l, v))
                     incoming)
            | _ -> ())
          sb.Func.insns)
    (Ins.successors host.Func.term);
  let entry_label =
    match body with
    | [] -> cont_label
    | b :: _ -> b.Func.label
  in
  host.Func.insns <- before;
  host.Func.term <- Ins.Br entry_label;
  (* splice first: the substitution below must see the continuation block *)
  let rec insert_after = function
    | [] -> []
    | b :: rest when b == host -> (b :: body) @ (cont :: rest)
    | b :: rest -> b :: insert_after rest
  in
  caller.Func.blocks <- insert_after caller.Func.blocks;
  (* return value: single ret -> direct substitution; else a phi *)
  (if call_ins.Ins.id <> "" then
     match !rets with
     | [] | [ (_, None) ] ->
       Func.record subst call_ins.Ins.id (Ins.Undef call_ins.Ins.ty)
     | [ (_, Some v) ] -> Func.record subst call_ins.Ins.id v
     | many ->
       let phi =
         Ins.mk
           ~id:(Func.fresh_name caller (call_ins.Ins.id ^ ".ret"))
           ~ty:call_ins.Ins.ty
           (Ins.Phi
              (List.rev_map
                 (fun (l, v) ->
                   (l, Option.value ~default:(Ins.Undef call_ins.Ins.ty) v))
                 many))
       in
       cont.Func.insns <- phi :: cont.Func.insns;
       Func.record subst call_ins.Ins.id (Ins.Reg (phi.Ins.ty, phi.Ins.id)));
  let rec after_host = function
    | [] -> []
    | b :: rest -> if b == host then rest else after_host rest
  in
  after_host caller.Func.blocks

(* Inline the first eligible call site (functions in module order, then
   block and instruction order), repeatedly. After inlining into [C] the
   search resumes right after the host block, where the inlined body
   now starts: every earlier site was ineligible, and only [C]'s own
   eligibility can have changed (its size and calls did). Should [C]
   have turned inlinable, calls to it may now be eligible anywhere, so
   the search starts over from the top. Eligibility is memoized per
   callee and dropped when the callee is inlined into. *)
let run ?(threshold = default_threshold) (ctx : Pass.ctx) =
  let m = ctx.Pass.modul in
  let address_taken = lazy (Cfg.address_taken_map m) in
  let eligible = Hashtbl.create 16 in
  let inlinable_memo (f : Func.t) =
    match Hashtbl.find_opt eligible f.Func.name with
    | Some ok -> ok
    | None ->
      let ok = inlinable address_taken f ~threshold in
      Hashtbl.replace eligible f.Func.name ok;
      ok
  in
  let site_in (caller : Func.t) blocks =
    List.find_map
      (fun (b : Func.block) ->
        List.find_map
          (fun (i : Ins.ins) ->
            match i.Ins.kind with
            | Ins.Call (Ins.Direct callee_name, args) when not i.Ins.volatile -> (
              match Modul.find_func m callee_name with
              | Some callee
                when (not (String.equal caller.Func.name callee.Func.name))
                     && inlinable_memo callee ->
                Some (callee, b, i, args)
              | _ -> None)
            | _ -> None)
          b.Func.insns)
      blocks
  in
  (* [blocks]: where to resume in the first function of [fns] *)
  let rec search fns blocks =
    match fns with
    | [] -> None
    | (caller : Func.t) :: later -> (
      match site_in caller (Option.value ~default:caller.Func.blocks blocks) with
      | Some (callee, host, i, args) -> Some (caller, callee, host, i, args, later)
      | None -> search later None)
  in
  let all = Modul.defined_functions m in
  (* function name -> its pending substitution *)
  let pending = Hashtbl.create 16 in
  let subst_of (f : Func.t) =
    match Hashtbl.find_opt pending f.Func.name with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace pending f.Func.name tbl;
      tbl
  in
  let changed = ref false in
  let rec go budget found =
    match found with
    | Some (caller, callee, host, call_ins, args, later) when budget > 0 ->
      let was = inlinable_memo caller in
      let rest =
        inline_site ~subst:(subst_of caller) ~callee_subst:(subst_of callee) caller callee
          host call_ins args
      in
      Pass.log_bond ctx caller.Func.name callee.Func.name "inline";
      changed := true;
      Hashtbl.remove eligible caller.Func.name;
      let next =
        if (not was) && inlinable_memo caller then search all None
        else search (caller :: later) (Some rest)
      in
      go (budget - 1) next
    | _ -> ()
  in
  go 5000 (search all None);
  List.iter
    (fun (f : Func.t) ->
      Option.iter (Func.substitute f) (Hashtbl.find_opt pending f.Func.name))
    all;
  !changed

let pass = Pass.mk "inline" (fun ctx -> run ctx)
