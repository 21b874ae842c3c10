(** Loop unrolling — one of the paper's CFG-distorting passes (Section
    2.2, item 3). We fully unroll single-block self-loops whose trip count
    is a small compile-time constant, duplicating the body (including any
    probes — duplicated side effects are exactly what the loop would have
    executed).

    The trip count is established by abstract interpretation of the loop
    block over its phi state; anything not reducible to a constant makes
    the loop ineligible. Instrumented bodies exceed the size budget more
    easily, so instrument-first inhibits unrolling — contributing to the
    OdinCov-NoPrune vs SanitizerCoverage gap the paper reports. *)

open Ir

let max_trip = 8
let max_body = 34

module SMap = Map.Make (String)

let eval_value env = function
  | Ins.Const (ty, v) -> Some (ty, v)
  | Ins.Reg (ty, n) -> (
    match SMap.find_opt n env with Some v -> Some (ty, v) | None -> None)
  | _ -> None

(* Simulate one execution of the block body given phi values; returns
   (env after body, branch cond value) or None if not analyzable. *)
let simulate_body (blk : Func.block) phi_env =
  let env = ref phi_env in
  let ok = ref true in
  List.iter
    (fun (i : Ins.ins) ->
      if !ok then
        match i.Ins.kind with
        | Ins.Phi _ -> ()
        | Ins.Binop (op, a, b) -> (
          match (eval_value !env a, eval_value !env b) with
          | Some (_, va), Some (_, vb) -> (
            match Eval.binop i.Ins.ty op va vb with
            | Some r -> env := SMap.add i.Ins.id r !env
            | None -> ())
          | _ -> ())
        | Ins.Icmp (p, a, b) -> (
          match (eval_value !env a, eval_value !env b) with
          | Some (ta, va), Some (_, vb) ->
            env := SMap.add i.Ins.id (Eval.icmp ta p va vb) !env
          | _ -> ())
        | Ins.Cast (c, a) -> (
          match eval_value !env a with
          | Some (from, v) ->
            env := SMap.add i.Ins.id (Eval.cast c ~from ~into:i.Ins.ty v) !env
          | None -> ())
        | Ins.Store _ | Ins.Call _ | Ins.Load _ | Ins.Gep _ | Ins.Select _
        | Ins.Alloca _ ->
          (* unknown result; side effects are irrelevant to trip count *)
          ())
    blk.Func.insns;
  !env

(* Compute the trip count of a self-loop block, or None. *)
let trip_count (blk : Func.block) preheader =
  let self = blk.Func.label in
  let cond_reg, on_true_self =
    match blk.Func.term with
    | Ins.Cbr (Ins.Reg (Types.I1, c), t, f) when String.equal t self && not (String.equal f self) ->
      (Some c, true)
    | Ins.Cbr (Ins.Reg (Types.I1, c), t, f) when String.equal f self && not (String.equal t self) ->
      (Some c, false)
    | _ -> (None, true)
  in
  match cond_reg with
  | None -> None
  | Some cond ->
    let phis =
      List.filter_map
        (fun (i : Ins.ins) ->
          match i.Ins.kind with Ins.Phi incoming -> Some (i, incoming) | _ -> None)
        blk.Func.insns
    in
    (* Initial env from the preheader arms. Phis with non-constant inits
       (e.g. reduction accumulators) are simply untracked — the branch
       condition must still evaluate to a constant every iteration, which
       restricts the analysis to genuine induction variables. *)
    let env0 =
      List.fold_left
        (fun env (i, incoming) ->
          match List.assoc_opt preheader incoming with
          | Some (Ins.Const (_, v)) -> SMap.add i.Ins.id v env
          | _ -> env)
        SMap.empty phis
    in
    let rec iterate env count =
      if count > max_trip then None
      else begin
        let env' = simulate_body blk env in
        match SMap.find_opt cond env' with
        | None -> None
        | Some c ->
          let continue_ = if on_true_self then c <> 0L else c = 0L in
          if not continue_ then Some (count + 1)
          else begin
            (* next-iteration phi values from the self arms; unknown
               arms just stay untracked *)
            let env_next =
              List.fold_left
                (fun e (i, incoming) ->
                  match List.assoc_opt self incoming with
                  | Some v -> (
                    match eval_value env' v with
                    | Some (_, value) -> SMap.add i.Ins.id value e
                    | None -> e)
                  | None -> e)
                SMap.empty phis
            in
            iterate env_next (count + 1)
          end
      end
    in
    iterate env0 0

let body_size (blk : Func.block) =
  List.fold_left
    (fun acc (i : Ins.ins) -> acc + if i.Ins.volatile then 2 else 1)
    0 blk.Func.insns

(* Fully unroll [blk] (a self-loop) [t] times. *)
let unroll (fn : Func.t) (blk : Func.block) preheader t =
  let self = blk.Func.label in
  let exit_label =
    match blk.Func.term with
    | Ins.Cbr (_, a, b) -> if String.equal a self then b else a
    | _ -> assert false
  in
  let defined =
    List.filter_map
      (fun (i : Ins.ins) -> if i.Ins.id = "" then None else Some i.Ins.id)
      blk.Func.insns
  in
  let iter_name k r = Printf.sprintf "%s.u%d.%s" self k r in
  let iter_label k = Printf.sprintf "%s.u%d" self k in
  (* env maps original reg -> value available in iteration k *)
  let make_iteration k (prev_env : Ins.value SMap.t) =
    let env = ref prev_env in
    let map_value v =
      match v with
      | Ins.Reg (ty, n) -> (
        match SMap.find_opt n !env with
        | Some mapped -> mapped
        | None -> Ins.Reg (ty, n) (* defined before the loop *))
      | v -> v
    in
    (* Phis assign in parallel: resolve every arm against the previous
       iteration's environment before any of this iteration's bindings
       become visible. *)
    let phi_updates =
      List.filter_map
        (fun (i : Ins.ins) ->
          match i.Ins.kind with
          | Ins.Phi incoming ->
            let arm_label = if k = 0 then preheader else self in
            let v =
              match List.assoc_opt arm_label incoming with
              | Some v -> if k = 0 then v else map_value v
              | None -> Ins.Undef i.Ins.ty
            in
            Some (i.Ins.id, v)
          | _ -> None)
        blk.Func.insns
    in
    List.iter (fun (n, v) -> env := SMap.add n v !env) phi_updates;
    let insns =
      List.filter_map
        (fun (i : Ins.ins) ->
          match i.Ins.kind with
          | Ins.Phi _ -> None
          | _ ->
            let copy =
              { i with Ins.id = (if i.Ins.id = "" then "" else iter_name k i.Ins.id) }
            in
            Ins.map_operands map_value copy;
            if i.Ins.id <> "" then
              env := SMap.add i.Ins.id (Ins.Reg (i.Ins.ty, copy.Ins.id)) !env;
            Some copy)
        blk.Func.insns
    in
    (insns, !env)
  in
  (* phi self-arm values must be remapped *after* the body of the same
     iteration; make_iteration handles this because phis are listed first
     in the block and we resolve them against prev_env, while non-phi
     instructions update env as we go. *)
  let blocks = ref [] in
  let env = ref SMap.empty in
  for k = 0 to t - 1 do
    let insns, env' = make_iteration k !env in
    let term = if k = t - 1 then Ins.Br exit_label else Ins.Br (iter_label (k + 1)) in
    blocks := { Func.label = iter_label k; insns; term } :: !blocks;
    env := env'
  done;
  let unrolled = List.rev !blocks in
  (* splice in place of the original loop block *)
  let rec replace = function
    | [] -> []
    | b :: rest when b == blk -> unrolled @ rest
    | b :: rest -> b :: replace rest
  in
  fn.Func.blocks <- replace fn.Func.blocks;
  (* preheader branch retarget *)
  (match Func.find_block fn preheader with
  | Some pb ->
    let fix l = if String.equal l self then iter_label 0 else l in
    pb.Func.term <-
      (match pb.Func.term with
      | Ins.Br l -> Ins.Br (fix l)
      | Ins.Cbr (c, a, b) -> Ins.Cbr (c, fix a, fix b)
      | Ins.Switch (v, d, cases) ->
        Ins.Switch (v, fix d, List.map (fun (key, l) -> (key, fix l)) cases)
      | term -> term)
  | None -> ());
  (* uses of loop-defined values outside the loop refer to the final
     iteration; exit-block phi arms from the loop are relabelled *)
  let final_env = !env in
  let subst = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match SMap.find_opt r final_env with
      | Some v -> Func.record subst r v
      | None -> ())
    defined;
  Func.substitute fn subst;
  (match Func.find_block fn exit_label with
  | Some eb ->
    List.iter
      (fun (i : Ins.ins) ->
        match i.Ins.kind with
        | Ins.Phi incoming ->
          i.Ins.kind <-
            Ins.Phi
              (List.map
                 (fun (l, v) -> if String.equal l self then (iter_label (t - 1), v) else (l, v))
                 incoming)
        | _ -> ())
      eb.Func.insns
  | None -> ())

let run_function _ctx (fn : Func.t) =
  let changed = ref false in
  let preds = Cfg.predecessors fn in
  let candidates =
    List.filter_map
      (fun (blk : Func.block) ->
        let self = blk.Func.label in
        match Hashtbl.find_opt preds self with
        | Some ps when List.mem self ps -> (
          let outside = List.filter (fun p -> not (String.equal p self)) ps in
          match outside with
          | [ preheader ] when body_size blk <= max_body -> Some (blk, preheader)
          | _ -> None)
        | _ -> None)
      fn.Func.blocks
  in
  List.iter
    (fun (blk, preheader) ->
      (* the block may already have been removed by a previous unroll *)
      if List.memq blk fn.Func.blocks then
        match trip_count blk preheader with
        | Some t when t >= 1 && t <= max_trip ->
          unroll fn blk preheader t;
          changed := true
        | _ -> ())
    candidates;
  !changed

let pass = Pass.function_pass "loop-unroll" run_function
