(* Tests for the optimization passes, including the paper's two case
   studies: the islower range fold (Figure 2) and printf->puts plus dead
   argument elimination (Figure 4). Every transform is additionally
   validated semantically: the module must verify and compute the same
   results before and after. *)

let parse = Ir.Parse.module_of_string

let run_pass pass m =
  let ctx = Opt.Pass.make_ctx m in
  let changed = pass.Opt.Pass.run ctx in
  Ir.Verify.run_exn m;
  changed

let interp m fname args =
  let st = Ir.Interp.create m in
  Ir.Interp.run st fname args

(* Check a pass preserves a function's results over sample inputs. *)
let check_preserves pass src fname inputs =
  let m1 = parse src in
  let m2 = parse src in
  ignore (run_pass pass m2);
  List.iter
    (fun args ->
      Alcotest.(check int64)
        (Printf.sprintf "%s preserved" fname)
        (interp m1 fname args) (interp m2 fname args))
    inputs

(* ---------------- mem2reg ---------------- *)

let mem2reg_src =
  {|
define external @f(i32 %x) i32 {
entry:
  %a = alloca i32, 1
  store i32 %x, ptr %a
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %pos, label %end
pos:
  %v = load i32, ptr %a
  %v2 = mul i32 %v, 2
  store i32 %v2, ptr %a
  br label %end
end:
  %r = load i32, ptr %a
  ret i32 %r
}
|}

let test_mem2reg_removes_allocas () =
  let m = parse mem2reg_src in
  ignore (run_pass Opt.Mem2reg.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  let has_alloca = ref false in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with Ir.Ins.Alloca _ -> has_alloca := true | _ -> ())
    f;
  Alcotest.(check bool) "no allocas" false !has_alloca

let test_mem2reg_preserves_semantics () =
  check_preserves Opt.Mem2reg.pass mem2reg_src "f" [ [ 5L ]; [ -5L ]; [ 0L ] ]

let test_mem2reg_keeps_escaping_alloca () =
  let src =
    {|
declare external @sink(ptr %p) void
define external @f() i32 {
entry:
  %a = alloca i32, 1
  store i32 1, ptr %a
  call void @sink(ptr %a)
  %r = load i32, ptr %a
  ret i32 %r
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Mem2reg.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  let has_alloca = ref false in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with Ir.Ins.Alloca _ -> has_alloca := true | _ -> ())
    f;
  Alcotest.(check bool) "escaping alloca kept" true !has_alloca

(* ---------------- constant folding ---------------- *)

let test_constfold_folds () =
  let src =
    {|
define external @f() i32 {
entry:
  %a = add i32 2, 3
  %b = mul i32 %a, 4
  ret i32 %b
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Constfold.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "all folded" 0 (Ir.Func.insn_count f);
  Alcotest.(check int64) "value" 20L (interp m "f" [])

let test_constfold_branch () =
  let src =
    {|
define external @f() i32 {
entry:
  %c = icmp slt i32 1, 2
  br i1 %c, label %a, label %b
a:
  ret i32 10
b:
  ret i32 20
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Constfold.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "dead branch removed" 2 (Ir.Func.block_count f);
  Alcotest.(check int64) "value" 10L (interp m "f" [])

let test_constfold_keeps_volatile () =
  let src =
    {|
define external @f() i32 {
entry:
  %a = volatile add i32 2, 3
  ret i32 %a
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Constfold.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "volatile kept" 1 (Ir.Func.insn_count f)

(* ---------------- instcombine: identities ---------------- *)

let test_instcombine_identities () =
  let src =
    {|
define external @f(i32 %x) i32 {
entry:
  %a = add i32 %x, 0
  %b = mul i32 %a, 1
  %c = or i32 %b, 0
  ret i32 %c
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Instcombine.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "identities removed" 0 (Ir.Func.insn_count f)

let test_instcombine_strength_reduction () =
  let src =
    {|
define external @f(i32 %x) i32 {
entry:
  %a = mul i32 %x, 8
  ret i32 %a
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Instcombine.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  let is_shl = ref false in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with
      | Ir.Ins.Binop (Ir.Ins.Shl, _, _) -> is_shl := true
      | _ -> ())
    f;
  Alcotest.(check bool) "mul became shl" true !is_shl;
  Alcotest.(check int64) "semantics" 40L (interp m "f" [ 5L ])

(* ---------------- instcombine: Figure 2 range fold ---------------- *)

let islower_ir =
  {|
define external @islower(i8 %chr) i1 {
test_lb:
  %cmp1 = icmp sge i8 %chr, 97
  br i1 %cmp1, label %test_ub, label %end
test_ub:
  %cmp2 = icmp sle i8 %chr, 122
  br label %end
end:
  %r = phi i1 [ 0, %test_lb ], [ %cmp2, %test_ub ]
  ret i1 %r
}
|}

let test_range_fold_fires () =
  let m = parse islower_ir in
  ignore (run_pass Opt.Instcombine.pass m);
  ignore (run_pass Opt.Simplifycfg.pass m);
  let f = Option.get (Ir.Modul.find_func m "islower") in
  (* paper: "After optimization, there remains one basic block only" *)
  Alcotest.(check int) "single block" 1 (Ir.Func.block_count f);
  let has_ult = ref false and has_add = ref false in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with
      | Ir.Ins.Icmp (Ir.Ins.Ult, _, Ir.Ins.Const (_, 26L)) -> has_ult := true
      | Ir.Ins.Binop (Ir.Ins.Add, _, Ir.Ins.Const (_, -97L)) -> has_add := true
      | _ -> ())
    f;
  Alcotest.(check bool) "icmp ult 26 present" true !has_ult;
  Alcotest.(check bool) "add -97 present" true !has_add

let test_range_fold_preserves_semantics () =
  let inputs = List.init 256 (fun i -> [ Int64.of_int (i - 128) ]) in
  check_preserves Opt.Instcombine.pass islower_ir "islower" inputs

let test_range_fold_blocked_by_probe () =
  (* a volatile probe in the upper-bound block pins the CFG: coverage
     instrumentation applied *before* optimization survives (the paper's
     instrument-first correctness argument) *)
  let src =
    {|
@counters = external global zeroinitializer 8

define external @islower(i8 %chr) i1 {
test_lb:
  %cmp1 = icmp sge i8 %chr, 97
  br i1 %cmp1, label %test_ub, label %end
test_ub:
  %old = volatile load i8, ptr @counters
  %new = volatile add i8 %old, 1
  volatile store i8 %new, ptr @counters
  %cmp2 = icmp sle i8 %chr, 122
  br label %end
end:
  %r = phi i1 [ 0, %test_lb ], [ %cmp2, %test_ub ]
  ret i1 %r
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Instcombine.pass m);
  let f = Option.get (Ir.Modul.find_func m "islower") in
  Alcotest.(check int) "blocks kept" 3 (Ir.Func.block_count f)

(* ---------------- instcombine: printf -> puts (Figure 4) ------------- *)

let fig4_src =
  {|
@str = internal constant c"hello\0A\00"

declare external @printf(ptr %fmt) i32

define internal void @foo(i32 %unused) {
entry:
  %r = call i32 @printf(ptr @str)
  ret void
}

define external @main() i32 {
entry:
  call void @foo(i32 1)
  ret i32 0
}
|}

let test_printf_to_puts () =
  let m = parse fig4_src in
  let ctx = Opt.Pass.make_ctx ~trial:true m in
  ignore (Opt.Instcombine.pass.Opt.Pass.run ctx);
  Ir.Verify.run_exn m;
  let foo = Option.get (Ir.Modul.find_func m "foo") in
  let callee = ref "" in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with
      | Ir.Ins.Call (Ir.Ins.Direct n, _) -> callee := n
      | _ -> ())
    foo;
  Alcotest.(check string) "rewritten to puts" "puts" !callee;
  (* and the trial run logged the copy-on-use requirement *)
  let logged =
    List.exists
      (function
        | Opt.Pass.Copy_on_use { user = "foo"; sym = "str"; _ } -> true
        | _ -> false)
      ctx.Opt.Pass.reqs
  in
  Alcotest.(check bool) "copy-on-use logged" true logged

let test_dead_arg_elim_fig4 () =
  let m = parse fig4_src in
  let ctx = Opt.Pass.make_ctx ~trial:true m in
  ignore (Opt.Dead_arg_elim.pass.Opt.Pass.run ctx);
  Ir.Verify.run_exn m;
  let foo = Option.get (Ir.Modul.find_func m "foo") in
  Alcotest.(check int) "param removed" 0 (List.length foo.Ir.Func.params);
  let main = Option.get (Ir.Modul.find_func m "main") in
  let args = ref [ Ir.Ins.Undef Ir.Types.Void ] in
  Ir.Func.iter_insns
    (fun i ->
      match i.Ir.Ins.kind with
      | Ir.Ins.Call (Ir.Ins.Direct "foo", a) -> args := a
      | _ -> ())
    main;
  Alcotest.(check int) "call site updated" 0 (List.length !args);
  (* the bond between foo and its caller was logged *)
  let logged =
    List.exists
      (function
        | Opt.Pass.Bond { a = "foo"; b = "main"; _ }
        | Opt.Pass.Bond { a = "main"; b = "foo"; _ } ->
          true
        | _ -> false)
      ctx.Opt.Pass.reqs
  in
  Alcotest.(check bool) "bond logged" true logged

let test_dead_arg_elim_skips_external () =
  let src =
    {|
define external @f(i32 %unused) i32 {
entry:
  ret i32 0
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Dead_arg_elim.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "external signature kept" 1 (List.length f.Ir.Func.params)

(* ---------------- simplifycfg ---------------- *)

let test_simplifycfg_merges () =
  let src =
    {|
define external @f(i32 %x) i32 {
entry:
  %a = add i32 %x, 1
  br label %next
next:
  %b = mul i32 %a, 2
  ret i32 %b
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Simplifycfg.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "merged" 1 (Ir.Func.block_count f);
  Alcotest.(check int64) "semantics" 8L (interp m "f" [ 3L ])

let test_simplifycfg_keeps_blockaddr_target () =
  let src =
    {|
@tbl = internal constant [ptr x @f]

define external @f(i32 %x) i32 {
entry:
  %p = gep ptr blockaddress(@f, %next), i64 0, size 1
  br label %next
next:
  ret i32 1
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Simplifycfg.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check bool) "address-taken block survives" true
    (Ir.Func.find_block f "next" <> None)

(* ---------------- dce ---------------- *)

let test_dce_removes_dead_code () =
  let src =
    {|
define external @f(i32 %x) i32 {
entry:
  %dead = mul i32 %x, 100
  %live = add i32 %x, 1
  ret i32 %live
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Dce.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "dead removed" 1 (Ir.Func.insn_count f)

let test_dce_keeps_probes () =
  let src =
    {|
@c = external global zeroinitializer 8
define external @f(i32 %x) i32 {
entry:
  volatile store i8 1, ptr @c
  ret i32 %x
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Dce.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "probe kept" 1 (Ir.Func.insn_count f)

let test_global_dce () =
  let src =
    {|
@dead_str = internal constant c"unused\00"
define external @main() i32 {
entry:
  ret i32 0
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Dce.pass m);
  Alcotest.(check bool) "dead internal constant removed" false
    (Ir.Modul.mem m "dead_str")

(* ---------------- gvn ---------------- *)

let test_gvn_cse () =
  let src =
    {|
define external @f(i32 %x, i32 %y) i32 {
entry:
  %a = add i32 %x, %y
  %b = add i32 %x, %y
  %c = add i32 %a, %b
  ret i32 %c
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Gvn.pass m);
  ignore (run_pass Opt.Dce.pass m);
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check int) "one add eliminated" 2 (Ir.Func.insn_count f);
  Alcotest.(check int64) "semantics" 14L (interp m "f" [ 3L; 4L ])

let test_gvn_commutative () =
  let src =
    {|
define external @f(i32 %x, i32 %y) i32 {
entry:
  %a = add i32 %x, %y
  %b = add i32 %y, %x
  %c = sub i32 %a, %b
  ret i32 %c
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Gvn.pass m);
  ignore (run_pass Opt.Constfold.pass m);
  ignore (run_pass Opt.Dce.pass m);
  Alcotest.(check int64) "x+y == y+x" 0L (interp m "f" [ 3L; 4L ])

let test_gvn_load_invalidation () =
  let src =
    {|
@g = external global [i32 x 5]
define external @f() i32 {
entry:
  %a = load i32, ptr @g
  store i32 7, ptr @g
  %b = load i32, ptr @g
  %c = add i32 %a, %b
  ret i32 %c
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Gvn.pass m);
  Alcotest.(check int64) "store invalidates load CSE" 12L (interp m "f" [])

(* ---------------- inline ---------------- *)

let test_inline_small_function () =
  let src =
    {|
define internal @helper(i32 %x) i32 {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}
define external @main(i32 %x) i32 {
entry:
  %a = call i32 @helper(i32 %x)
  %b = call i32 @helper(i32 %a)
  ret i32 %b
}
|}
  in
  let m = parse src in
  let ctx = Opt.Pass.make_ctx ~trial:true m in
  ignore (Opt.Inline.pass.Opt.Pass.run ctx);
  Ir.Verify.run_exn m;
  let main = Option.get (Ir.Modul.find_func m "main") in
  let calls = ref 0 in
  Ir.Func.iter_insns
    (fun i -> match i.Ir.Ins.kind with Ir.Ins.Call _ -> incr calls | _ -> ())
    main;
  Alcotest.(check int) "no calls left" 0 !calls;
  Alcotest.(check int64) "semantics" 7L (interp m "main" [ 5L ]);
  let logged =
    List.exists
      (function
        | Opt.Pass.Bond { a = "main"; b = "helper"; _ }
        | Opt.Pass.Bond { a = "helper"; b = "main"; _ } ->
          true
        | _ -> false)
      ctx.Opt.Pass.reqs
  in
  Alcotest.(check bool) "inline bond logged" true logged

let test_inline_skips_recursive () =
  let src =
    {|
define internal @fib(i32 %n) i32 {
entry:
  %c = icmp sle i32 %n, 1
  br i1 %c, label %base, label %rec
base:
  ret i32 %n
rec:
  %n1 = sub i32 %n, 1
  %a = call i32 @fib(i32 %n1)
  %n2 = sub i32 %n, 2
  %b = call i32 @fib(i32 %n2)
  %r = add i32 %a, %b
  ret i32 %r
}
define external @main() i32 {
entry:
  %r = call i32 @fib(i32 10)
  ret i32 %r
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Inline.pass m);
  Alcotest.(check bool) "fib kept" true (Ir.Modul.mem m "fib");
  Alcotest.(check int64) "semantics" 55L (interp m "main" [])

(* ---------------- loop unroll ---------------- *)

let test_loop_unroll_constant_trip () =
  let src =
    {|
define external @f(i32 %x) i32 {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi i32 [ %x, %entry ], [ %acc2, %loop ]
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 4
  br i1 %c, label %loop, label %done
done:
  ret i32 %acc2
}
|}
  in
  let m1 = parse src in
  let m2 = parse src in
  let changed = run_pass Opt.Loop_unroll.pass m2 in
  Alcotest.(check bool) "unrolled" true changed;
  let f = Option.get (Ir.Modul.find_func m2 "f") in
  let has_backedge = ref false in
  Ir.Func.iter_blocks
    (fun b ->
      if List.mem b.Ir.Func.label (Ir.Ins.successors b.Ir.Func.term) then
        has_backedge := true)
    f;
  Alcotest.(check bool) "no self loop left" false !has_backedge;
  List.iter
    (fun x ->
      Alcotest.(check int64) "semantics" (interp m1 "f" [ x ]) (interp m2 "f" [ x ]))
    [ 0L; 10L; -3L ]

let test_loop_unroll_skips_dynamic_trip () =
  let src =
    {|
define external @f(i32 %n) i32 {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, %n
  br i1 %c, label %loop, label %done
done:
  ret i32 %i2
}
|}
  in
  let m = parse src in
  let changed = run_pass Opt.Loop_unroll.pass m in
  Alcotest.(check bool) "not unrolled" false changed

(* ---------------- full pipeline ---------------- *)

let test_pipeline_end_to_end () =
  let src =
    {|
int compute(int x) {
  int acc = 0;
  for (int i = 0; i < 4; i++) acc += x * 8 + i;
  if (acc > 100) return acc - 100;
  return acc;
}
|}
  in
  let m1 = Minic.Lower.compile src in
  let m2 = Minic.Lower.compile src in
  ignore (Opt.Pipeline.run ~keep:[ "compute" ] m2);
  Ir.Verify.run_exn m2;
  List.iter
    (fun x ->
      Alcotest.(check int64)
        "optimized matches unoptimized" (interp m1 "compute" [ x ])
        (interp m2 "compute" [ x ]))
    [ 0L; 1L; 5L; -7L; 100L ]

let test_pipeline_shrinks_code () =
  let src =
    {|
static int helper(int x, int unused) { return x + 0 + 1 * x; }
int main(void) {
  return helper(21, 99);
}
|}
  in
  let m = Minic.Lower.compile src in
  let before = Ir.Func.insn_count (Option.get (Ir.Modul.find_func m "main")) in
  ignore (Opt.Pipeline.run m);
  let after = Ir.Func.insn_count (Option.get (Ir.Modul.find_func m "main")) in
  Alcotest.(check bool) "code shrank or equal" true (after <= before);
  Alcotest.(check int64) "semantics" 42L (interp m "main" [])

(* property: the whole pipeline preserves semantics of random arith fns *)
let prop_pipeline_preserves =
  QCheck2.Test.make ~name:"pipeline preserves straight-line arithmetic" ~count:30
    QCheck2.Gen.(
      pair (int_range (-100) 100) (list_size (int_range 1 8) (int_range 1 5)))
    (fun (x, ops) ->
      let body =
        List.mapi
          (fun i k ->
            Printf.sprintf "  acc = acc * %d + %d + (acc >> %d);" (k + 1) i (k mod 4))
          ops
        |> String.concat "\n"
      in
      let src =
        Printf.sprintf "int f(int x) {\n  int acc = x;\n%s\n  return acc;\n}" body
      in
      let m1 = Minic.Lower.compile src in
      let m2 = Minic.Lower.compile src in
      ignore (Opt.Pipeline.run ~keep:[ "f" ] m2);
      interp m1 "f" [ Int64.of_int x ] = interp m2 "f" [ Int64.of_int x ])

(* ---------------- jump threading ---------------- *)

let threading_src =
  {|
define external @f(i32 %x) i32 {
entry:
  %c = icmp sgt i32 %x, 10
  br i1 %c, label %a, label %b
a:
  br label %check
b:
  br label %check
check:
  %flag = phi i1 [ 1, %a ], [ 0, %b ]
  br i1 %flag, label %yes, label %no
yes:
  ret i32 100
no:
  ret i32 200
}
|}

let test_jump_threading_threads_constant_phi () =
  let m = parse threading_src in
  let changed = run_pass Opt.Jump_threading.pass m in
  Alcotest.(check bool) "threaded" true changed;
  (* semantics preserved *)
  Alcotest.(check int64) "big" 100L (interp m "f" [ 50L ]);
  Alcotest.(check int64) "small" 200L (interp m "f" [ 3L ])

let test_jump_threading_clones_block () =
  (* the threaded block contains real code: the clone duplicates it,
     which is exactly the probe-duplication hazard of Section 2.2 *)
  let src =
    {|
@g = external global zeroinitializer 8
define external @f(i32 %x) i32 {
entry:
  %c = icmp sgt i32 %x, 10
  br i1 %c, label %a, label %join
a:
  br label %join
join:
  %flag = phi i32 [ 7, %a ], [ 0, %entry ]
  %w = mul i32 %x, 3
  %t = icmp ne i32 %flag, 0
  br i1 %t, label %yes, label %no
yes:
  %wy = phi i32 [ %w, %join ]
  %r1 = add i32 %wy, 1
  ret i32 %r1
no:
  %wn = phi i32 [ %w, %join ]
  ret i32 %wn
}
|}
  in
  let m1 = parse src in
  let m2 = parse src in
  let changed = run_pass Opt.Jump_threading.pass m2 in
  Alcotest.(check bool) "threaded" true changed;
  List.iter
    (fun x ->
      Alcotest.(check int64) "same result" (interp m1 "f" [ x ]) (interp m2 "f" [ x ]))
    [ 0L; 11L; -5L; 100L ]

let test_jump_threading_respects_volatile_condition () =
  (* a volatile (probe) computation feeding the branch must not be
     speculated away *)
  let src =
    {|
define external @f(i32 %x) i32 {
entry:
  %c = icmp sgt i32 %x, 10
  br i1 %c, label %a, label %b
a:
  br label %check
b:
  br label %check
check:
  %flag = phi i32 [ 1, %a ], [ 0, %b ]
  %probe = volatile add i32 %flag, 0
  %t = icmp ne i32 %probe, 0
  br i1 %t, label %yes, label %no
yes:
  ret i32 100
no:
  ret i32 200
}
|}
  in
  let m = parse src in
  ignore (run_pass Opt.Jump_threading.pass m);
  (* regardless of whether it threaded, semantics must hold *)
  Alcotest.(check int64) "big" 100L (interp m "f" [ 50L ]);
  Alcotest.(check int64) "small" 200L (interp m "f" [ 3L ])

(* property: jump threading preserves semantics on diamond chains *)
let prop_jump_threading_preserves =
  QCheck2.Test.make ~name:"jump threading preserves diamond semantics" ~count:25
    QCheck2.Gen.(pair (int_range (-100) 100) (int_range 1 40))
    (fun (x, k) ->
      let src =
        Printf.sprintf
          {|
int f(int x) {
  int flag = 0;
  if (x > %d) flag = 1;
  int acc = x * 3;
  if (flag) acc = acc + %d;
  else acc = acc - %d;
  return acc;
}
|}
          k k (k * 2)
      in
      let m1 = Minic.Lower.compile src in
      let m2 = Minic.Lower.compile src in
      ignore (Opt.Pipeline.run ~keep:[ "f" ] m2);
      Ir.Verify.run_exn m2;
      interp m1 "f" [ Int64.of_int x ] = interp m2 "f" [ Int64.of_int x ])

(* ---------------- golden IR (bit-identity oracle) ---------------- *)

(* MD5 of the printed module after the whole-program pipeline and after
   the fragment pipeline, per workload profile. Optimizer refactors must
   leave every byte of output (names included) unchanged: Shash memo
   keys, phi order and codegen all hang off it. *)
let golden_ir =
  [
    ( Workloads.Profile.find_exn "sqlite",
      "e9bef1c10101b03c8c0f22a77c994edc",
      "e9bef1c10101b03c8c0f22a77c994edc" );
    ( Workloads.Profile.find_exn "json",
      "a886cb00c394398156dd26e1ba779192",
      "a886cb00c394398156dd26e1ba779192" );
    ( Workloads.Profile.tiny,
      "67d205cb82aefce378f4d93755a2a222",
      "67d205cb82aefce378f4d93755a2a222" );
  ]

let ir_digest m = Digest.to_hex (Digest.string (Ir.Print.module_to_string m))

let test_golden_ir () =
  List.iter
    (fun ((profile : Workloads.Profile.t), whole, fragment) ->
      let name = profile.Workloads.Profile.name in
      let m = Workloads.Generate.compile profile in
      ignore (Opt.Pipeline.run ~keep:[ "target_main" ] m);
      Alcotest.(check string) (name ^ " pipeline digest") whole (ir_digest m);
      let m = Workloads.Generate.compile profile in
      ignore (Opt.Pipeline.run_fragment m);
      Alcotest.(check string) (name ^ " fragment digest") fragment (ir_digest m))
    golden_ir

(* ---------------- size scaling (work, not wall time) ---------------- *)

(* One function of [k] if/else diamonds, each updating two locals: the
   shape mem2reg turns into phi chains and gvn/jump-threading walk. *)
let diamonds_src k =
  let buf = Buffer.create (k * 96) in
  Buffer.add_string buf "int f(int x) {\n  int a = x;\n  int b = 1;\n";
  for i = 1 to k do
    Printf.bprintf buf
      "  if (a > %d) { a = a - %d; b = b + a; } else { a = a + %d; b = b * %d; }\n"
      (i * 7 mod 50) (i mod 9 + 1) (i mod 5 + 1) (i mod 3 + 2)
  done;
  Buffer.add_string buf "  return a + b;\n}\n";
  Buffer.contents buf

(* Minor-heap words each fragment pass allocates on [diamonds_src k],
   summed over every execution of the pass in a [run_fragment]-shaped
   fixpoint (two rounds at most). Deterministic: allocation depends only
   on the input IR. *)
let pass_words k =
  let ctx = Opt.Pass.make_ctx (Minic.Lower.compile (diamonds_src k)) in
  let words = Hashtbl.create 16 in
  let run_one (p : Opt.Pass.t) =
    let before = Gc.minor_words () in
    let changed = p.Opt.Pass.run ctx in
    let w = Gc.minor_words () -. before in
    Hashtbl.replace words p.Opt.Pass.name
      (w +. Option.value ~default:0. (Hashtbl.find_opt words p.Opt.Pass.name));
    changed
  in
  let rec go round =
    if round < 2 then
      let changed =
        List.fold_left (fun acc p -> run_one p || acc) false
          (Opt.Pipeline.fragment_passes ())
      in
      if changed then go (round + 1)
  in
  go 0;
  Ir.Verify.run_exn ctx.Opt.Pass.modul;
  words

(* Doubling the function must not much more than double any pass's
   allocation: a per-rewrite whole-function scan shows up as ~4x. *)
let test_pass_scaling () =
  let small = pass_words 100 and large = pass_words 200 in
  let superlinear =
    Hashtbl.fold
      (fun name w_small acc ->
        let w_large = Hashtbl.find large name in
        let ratio = w_large /. Float.max w_small 1. in
        if ratio > 2.6 then
          Printf.sprintf "%s: %.0f -> %.0f words (x%.2f)" name w_small w_large ratio
          :: acc
        else acc)
      small []
  in
  if superlinear <> [] then
    Alcotest.failf "allocation more than doubles with the function:\n%s"
      (String.concat "\n" (List.sort compare superlinear))

(* ---------------- allocation per input instruction ---------------- *)

(* sqlite's fragments as the partitioner cuts them (uninstrumented). *)
let sqlite_fragments () =
  let m = Workloads.Generate.compile (Workloads.Profile.find_exn "sqlite") in
  let keep = [ "target_main" ] in
  let plan = Odin.Partition.plan ~keep m (Odin.Classify.classify ~keep m) in
  Array.to_list plan.Odin.Partition.fragments
  |> List.map (fun f -> Odin.Partition.materialize plan f ~source:(fun _ -> None) ~base:m)

(* Minor-heap words each fragment pass (summed over a [run_fragment]-
   shaped two-round fixpoint) and codegen allocate on sqlite's
   fragments, per instruction of the input IR. Deterministic: allocation
   depends only on the input. *)
let words_per_input_insn () =
  let words = Hashtbl.create 16 in
  let add name w =
    Hashtbl.replace words name (w +. Option.value ~default:0. (Hashtbl.find_opt words name))
  in
  let measure name f =
    let before = Gc.minor_words () in
    let r = f () in
    add name (Gc.minor_words () -. before);
    r
  in
  let insns = ref 0 in
  List.iter
    (fun m ->
      insns :=
        !insns
        + List.fold_left (fun n f -> n + Ir.Func.insn_count f) 0 (Ir.Modul.defined_functions m);
      let ctx = Opt.Pass.make_ctx m in
      let rec go round =
        if round < 2 then
          let changed =
            List.fold_left
              (fun acc (p : Opt.Pass.t) ->
                measure p.Opt.Pass.name (fun () -> p.Opt.Pass.run ctx) || acc)
              false (Opt.Pipeline.fragment_passes ())
          in
          if changed then go (round + 1)
      in
      go 0;
      measure "codegen" (fun () -> ignore (Link.Objfile.of_module m)))
    (sqlite_fragments ());
  Hashtbl.fold (fun name w acc -> (name, w /. float_of_int !insns) :: acc) words []

(* Bounds at about 1.25x the measured words per input instruction (the
   table is in EXPERIMENTS.md, "Allocation-lean compile kernels"). The
   total is bounded at half of what the kernels allocated before them,
   1175 words per input instruction (479 after). *)
let alloc_bounds =
  [
    ("codegen", 145.); ("gvn", 89.); ("simplifycfg", 67.); ("mem2reg", 63.);
    ("inline", 58.); ("loop-unroll", 45.); ("dce", 43.); ("constfold", 36.);
    ("jump-threading", 26.); ("instcombine", 21.); ("dead-arg-elim", 5.2);
  ]

let test_alloc_per_insn () =
  let got = words_per_input_insn () in
  let over =
    List.filter_map
      (fun (name, bound) ->
        let w = Option.value ~default:0. (List.assoc_opt name got) in
        if w > bound then Some (Printf.sprintf "%s: %.1f words/insn > %.1f" name w bound)
        else None)
      alloc_bounds
  in
  let total = List.fold_left (fun a (_, w) -> a +. w) 0. got in
  let over =
    if total > 587. then Printf.sprintf "total: %.1f words/insn > 587" total :: over
    else over
  in
  Alcotest.(check (list string)) "stages within their allocation bound" [] over;
  Alcotest.(check (list string))
    "every stage has a bound" []
    (List.filter_map
       (fun (name, _) -> if List.mem_assoc name alloc_bounds then None else Some name)
       got)

let () =
  Alcotest.run "opt"
    [
      ( "mem2reg",
        [
          Alcotest.test_case "removes allocas" `Quick test_mem2reg_removes_allocas;
          Alcotest.test_case "preserves semantics" `Quick test_mem2reg_preserves_semantics;
          Alcotest.test_case "keeps escaping alloca" `Quick test_mem2reg_keeps_escaping_alloca;
        ] );
      ( "constfold",
        [
          Alcotest.test_case "folds" `Quick test_constfold_folds;
          Alcotest.test_case "branch folding" `Quick test_constfold_branch;
          Alcotest.test_case "keeps volatile" `Quick test_constfold_keeps_volatile;
        ] );
      ( "instcombine",
        [
          Alcotest.test_case "identities" `Quick test_instcombine_identities;
          Alcotest.test_case "strength reduction" `Quick test_instcombine_strength_reduction;
          Alcotest.test_case "range fold fires (Fig. 2)" `Quick test_range_fold_fires;
          Alcotest.test_case "range fold preserves semantics" `Quick
            test_range_fold_preserves_semantics;
          Alcotest.test_case "range fold blocked by probe" `Quick
            test_range_fold_blocked_by_probe;
          Alcotest.test_case "printf->puts (Fig. 4)" `Quick test_printf_to_puts;
        ] );
      ( "dead-arg-elim",
        [
          Alcotest.test_case "removes dead arg (Fig. 4)" `Quick test_dead_arg_elim_fig4;
          Alcotest.test_case "skips external" `Quick test_dead_arg_elim_skips_external;
        ] );
      ( "simplifycfg",
        [
          Alcotest.test_case "merges blocks" `Quick test_simplifycfg_merges;
          Alcotest.test_case "keeps blockaddress target" `Quick
            test_simplifycfg_keeps_blockaddr_target;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes dead" `Quick test_dce_removes_dead_code;
          Alcotest.test_case "keeps probes" `Quick test_dce_keeps_probes;
          Alcotest.test_case "global dce" `Quick test_global_dce;
        ] );
      ( "gvn",
        [
          Alcotest.test_case "cse" `Quick test_gvn_cse;
          Alcotest.test_case "commutative" `Quick test_gvn_commutative;
          Alcotest.test_case "load invalidation" `Quick test_gvn_load_invalidation;
        ] );
      ( "inline",
        [
          Alcotest.test_case "inlines small" `Quick test_inline_small_function;
          Alcotest.test_case "skips recursive" `Quick test_inline_skips_recursive;
        ] );
      ( "loop-unroll",
        [
          Alcotest.test_case "constant trip count" `Quick test_loop_unroll_constant_trip;
          Alcotest.test_case "skips dynamic trip" `Quick test_loop_unroll_skips_dynamic_trip;
        ] );
      ( "jump-threading",
        [
          Alcotest.test_case "threads constant phi" `Quick
            test_jump_threading_threads_constant_phi;
          Alcotest.test_case "clones block code" `Quick test_jump_threading_clones_block;
          Alcotest.test_case "volatile-fed condition" `Quick
            test_jump_threading_respects_volatile_condition;
          QCheck_alcotest.to_alcotest prop_jump_threading_preserves;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "end to end" `Quick test_pipeline_end_to_end;
          Alcotest.test_case "shrinks code" `Quick test_pipeline_shrinks_code;
          Alcotest.test_case "golden IR digests" `Quick test_golden_ir;
          Alcotest.test_case "passes scale linearly" `Quick test_pass_scaling;
          Alcotest.test_case "words per input instruction" `Quick test_alloc_per_insn;
          QCheck_alcotest.to_alcotest prop_pipeline_preserves;
        ] );
    ]

