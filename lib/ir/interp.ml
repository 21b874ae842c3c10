(** Reference interpreter for IR modules.

    This is *not* the execution engine the experiments run on (that is the
    machine-code VM in [lib/vm], whose cycle accounting produces the
    figures); it is the semantic oracle: the test suite executes programs
    both here and on compiled machine code and demands identical results. *)

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

type state = {
  modul : Modul.t;
  mem : Bytes.t;
  touched : Bytes.t;
  sym_addr : (string, int64) Hashtbl.t;
  fn_addr : (int64, string) Hashtbl.t;  (** code addresses back to functions *)
  host : (string, state -> int64 list -> int64) Hashtbl.t;
  mutable stack_top : int;  (** bump allocator for allocas *)
  mutable steps : int;
  max_steps : int;
}

let mem_size = 1 lsl 22 (* 4 MiB *)
let code_base = 0x10000L (* fake addresses for functions *)
let data_base = 0x100000

let register_host state name fn = Hashtbl.replace state.host name fn

let addr_of state name =
  match Hashtbl.find_opt state.sym_addr name with
  | Some a -> a
  | None -> trap "unknown symbol @%s" name

(* ------------------------------------------------------------------ *)
(* Memory access (little-endian)                                       *)
(* ------------------------------------------------------------------ *)

(* Memory is zero-filled one 4 KiB page at a time, on first access: a
   fresh state pays for the pages a run touches, not for all of
   [mem_size] (nor does it make them resident). *)
let page_bits = 12

let touch state a len =
  if len > 0 then
    for p = a lsr page_bits to (a + len - 1) lsr page_bits do
      if Bytes.get state.touched p = '\000' then begin
        Bytes.fill state.mem (p lsl page_bits) (1 lsl page_bits) '\000';
        Bytes.set state.touched p '\001'
      end
    done

let check_addr state addr width =
  let a = Int64.to_int addr in
  if a < 0 || a + width > Bytes.length state.mem then
    trap "memory access out of bounds: 0x%Lx (+%d)" addr width;
  touch state a width;
  a

let load state ty addr =
  let width = Types.size_of ty in
  let a = check_addr state addr width in
  let raw =
    match width with
    | 1 -> Int64.of_int (Char.code (Bytes.get state.mem a))
    | 2 -> Int64.of_int (Bytes.get_uint16_le state.mem a)
    | 4 -> Int64.of_int32 (Bytes.get_int32_le state.mem a)
    | 8 -> Bytes.get_int64_le state.mem a
    | _ -> trap "load of width %d" width
  in
  (* loads sign-extend to the value's type width, then normalize *)
  Types.normalize ty raw

let store state ty addr v =
  let width = Types.size_of ty in
  let a = check_addr state addr width in
  match width with
  | 1 -> Bytes.set state.mem a (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | 2 -> Bytes.set_uint16_le state.mem a (Int64.to_int (Int64.logand v 0xFFFFL))
  | 4 -> Bytes.set_int32_le state.mem a (Int64.to_int32 v)
  | 8 -> Bytes.set_int64_le state.mem a v
  | _ -> trap "store of width %d" width

(* ------------------------------------------------------------------ *)
(* State construction: lay out globals                                 *)
(* ------------------------------------------------------------------ *)

let create ?(max_steps = 50_000_000) modul =
  let state =
    {
      modul;
      mem = Bytes.create mem_size;
      touched = Bytes.make (mem_size lsr page_bits) '\000';
      sym_addr = Hashtbl.create 64;
      fn_addr = Hashtbl.create 64;
      host = Hashtbl.create 8;
      stack_top = mem_size - 8;
      steps = 0;
      max_steps;
    }
  in
  (* functions get fake, unique code addresses *)
  let next_code = ref code_base in
  List.iter
    (fun (f : Func.t) ->
      Hashtbl.replace state.sym_addr f.Func.name !next_code;
      Hashtbl.replace state.fn_addr !next_code f.Func.name;
      next_code := Int64.add !next_code 16L)
    (Modul.functions modul);
  (* data: sequential layout *)
  let cursor = ref data_base in
  let align n = cursor := (!cursor + (n - 1)) / n * n in
  List.iter
    (fun (v : Modul.gvar) ->
      align 8;
      Hashtbl.replace state.sym_addr v.Modul.gname (Int64.of_int !cursor);
      cursor := !cursor + max 1 (Modul.init_size v.Modul.ginit))
    (Modul.vars modul);
  (* initialize data now that all symbols have addresses *)
  List.iter
    (fun (v : Modul.gvar) ->
      let base = Int64.to_int (Hashtbl.find state.sym_addr v.Modul.gname) in
      match v.Modul.ginit with
      | Modul.Bytes s ->
        touch state base (String.length s);
        Bytes.blit_string s 0 state.mem base (String.length s)
      | Modul.Words (ty, ws) ->
        let w = Types.size_of ty in
        List.iteri
          (fun i value -> store state ty (Int64.of_int (base + (i * w))) value)
          ws
      | Modul.Symbols ss ->
        List.iteri
          (fun i s ->
            let a =
              match Hashtbl.find_opt state.sym_addr s with
              | Some a -> a
              | None -> trap "initializer references unknown @%s" s
            in
            store state Types.I64 (Int64.of_int (base + (i * 8))) a)
          ss
      | Modul.Zero _ | Modul.Extern -> ())
    (Modul.vars modul);
  (* aliases share their target's address *)
  List.iter
    (fun (a : Modul.alias) ->
      let target = Modul.resolve_alias modul a.Modul.aname in
      match Hashtbl.find_opt state.sym_addr target with
      | Some addr -> Hashtbl.replace state.sym_addr a.Modul.aname addr
      | None -> ())
    (Modul.aliases modul);
  state

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

module SMap = Map.Make (String)

let rec eval_value state env = function
  | Ins.Const (ty, v) -> Types.normalize ty v
  | Ins.Reg (_, n) -> (
    match SMap.find_opt n env with
    | Some v -> v
    | None -> trap "read of unset register %%%s" n)
  | Ins.Global g -> addr_of state g
  | Ins.Blockaddr (f, l) ->
    (* encode as function address + hash of label; only used as an opaque
       token for indirect branches, which we do not support in IR (the
       C frontend never emits them) *)
    Int64.add (addr_of state f) (Int64.of_int (Hashtbl.hash l mod 15))
  | Ins.Undef _ -> 0L

and call_function state fname args =
  match Modul.find_func state.modul fname with
  | Some f when not (Func.is_declaration f) -> run_function state f args
  | _ -> (
    match Hashtbl.find_opt state.host fname with
    | Some h -> h state args
    | None -> trap "call to undefined function @%s" fname)

and run_function state (f : Func.t) args =
  if List.length args <> List.length f.Func.params then
    trap "arity mismatch calling @%s" f.Func.name;
  let env0 =
    List.fold_left2
      (fun env (ty, p) v -> SMap.add p (Types.normalize ty v) env)
      SMap.empty f.Func.params args
  in
  let saved_stack = state.stack_top in
  let block_index = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace block_index b.Func.label b) f.Func.blocks;
  let entry = Func.entry f in
  let rec exec_block (b : Func.block) prev_label env =
    state.steps <- state.steps + 1;
    if state.steps > state.max_steps then trap "step budget exhausted";
    (* phis evaluate in parallel against the incoming environment *)
    let phi_values =
      List.filter_map
        (fun (i : Ins.ins) ->
          match i.Ins.kind with
          | Ins.Phi incoming -> (
            match prev_label with
            | None -> trap "phi in entry block"
            | Some prev -> (
              match List.assoc_opt prev incoming with
              | Some v -> Some (i.Ins.id, Types.normalize i.Ins.ty (eval_value state env v))
              | None -> trap "phi %%%s has no arm for %%%s" i.Ins.id prev))
          | _ -> None)
        b.Func.insns
    in
    let env = List.fold_left (fun e (n, v) -> SMap.add n v e) env phi_values in
    let env = ref env in
    List.iter
      (fun (i : Ins.ins) ->
        state.steps <- state.steps + 1;
        if state.steps > state.max_steps then trap "step budget exhausted";
        let set v = if i.Ins.id <> "" then env := SMap.add i.Ins.id (Types.normalize i.Ins.ty v) !env in
        match i.Ins.kind with
        | Ins.Phi _ -> ()
        | Ins.Binop (op, a, bv) -> (
          let va = eval_value state !env a and vb = eval_value state !env bv in
          match Eval.binop i.Ins.ty op va vb with
          | Some r -> set r
          | None -> trap "division by zero in @%s" f.Func.name)
        | Ins.Icmp (p, a, bv) ->
          let ta = Ins.value_ty a in
          set (Eval.icmp ta p (eval_value state !env a) (eval_value state !env bv))
        | Ins.Select (c, a, bv) ->
          set
            (if eval_value state !env c <> 0L then eval_value state !env a
             else eval_value state !env bv)
        | Ins.Cast (c, a) ->
          set (Eval.cast c ~from:(Ins.value_ty a) ~into:i.Ins.ty (eval_value state !env a))
        | Ins.Load p -> set (load state i.Ins.ty (eval_value state !env p))
        | Ins.Store (v, p) ->
          store state (Ins.value_ty v) (eval_value state !env p) (eval_value state !env v)
        | Ins.Gep (base, idx, sz) ->
          let b64 = eval_value state !env base in
          let i64 = eval_value state !env idx in
          set (Int64.add b64 (Int64.mul i64 (Int64.of_int sz)))
        | Ins.Call (callee, cargs) ->
          let vals = List.map (eval_value state !env) cargs in
          let result =
            match callee with
            | Ins.Direct name -> call_function state name vals
            | Ins.Indirect fv -> (
              let addr = eval_value state !env fv in
              match Hashtbl.find_opt state.fn_addr addr with
              | Some name -> call_function state name vals
              | None -> trap "indirect call to non-function address 0x%Lx" addr)
          in
          set result
        | Ins.Alloca (ty, count) ->
          let size = max 8 (Types.size_of ty * count) in
          state.stack_top <- state.stack_top - ((size + 7) / 8 * 8);
          if state.stack_top < mem_size / 2 then trap "interpreter stack overflow";
          set (Int64.of_int state.stack_top))
      b.Func.insns;
    match b.Func.term with
    | Ins.Ret v ->
      let result = match v with None -> 0L | Some v -> eval_value state !env v in
      state.stack_top <- saved_stack;
      result
    | Ins.Br l -> goto l b.Func.label !env
    | Ins.Cbr (c, t, fl) ->
      goto (if eval_value state !env c <> 0L then t else fl) b.Func.label !env
    | Ins.Switch (v, d, cases) ->
      let key = eval_value state !env v in
      let target =
        match List.find_opt (fun (k, _) -> Int64.equal k key) cases with
        | Some (_, l) -> l
        | None -> d
      in
      goto target b.Func.label !env
    | Ins.Unreachable -> trap "reached unreachable in @%s" f.Func.name
  and goto label prev env =
    match Hashtbl.find_opt block_index label with
    | Some b -> exec_block b (Some prev) env
    | None -> trap "branch to unknown label %%%s" label
  in
  exec_block entry None env0

(** Run [fname] with integer arguments. *)
let run state fname args = call_function state fname args

(** Copy [bytes] into the interpreter's memory at a fresh region and
    return its address (for passing buffers to the program under test). *)
let alloc_input state bytes =
  let size = max 1 (String.length bytes) in
  state.stack_top <- state.stack_top - ((size + 15) / 8 * 8);
  touch state state.stack_top (String.length bytes);
  Bytes.blit_string bytes 0 state.mem state.stack_top (String.length bytes);
  Int64.of_int state.stack_top
