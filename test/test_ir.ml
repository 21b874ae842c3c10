(* Tests for the IR library: construction, printing/parsing round-trips,
   verification, cloning, CFG utilities, dominators, and the reference
   interpreter. *)

let parse text = Ir.Parse.module_of_string text

let simple_add_src =
  {|
define external @add(i32 %a, i32 %b) i32 {
entry:
  %s = add i32 %a, %b
  ret i32 %s
}
|}

let test_parse_simple () =
  let m = parse simple_add_src in
  let f = Option.get (Ir.Modul.find_func m "add") in
  Alcotest.(check int) "one block" 1 (Ir.Func.block_count f);
  Alcotest.(check int) "one insn" 1 (Ir.Func.insn_count f)

let test_roundtrip () =
  let src =
    {|
@str = internal constant c"hello\0A\00"
@tbl = external global [i32 x 1, 2, 3]
@ptrs = internal global [ptr x @add, @add]
@alias_add = external alias @add

define external @add(i32 %a, i32 %b) i32 {
entry:
  %s = add i32 %a, %b
  %c = icmp slt i32 %s, 10
  br i1 %c, label %small, label %big
small:
  ret i32 %s
big:
  %d = mul i32 %s, 2
  ret i32 %d
}
|}
  in
  let m1 = parse src in
  let text1 = Ir.Print.module_to_string m1 in
  let m2 = parse text1 in
  let text2 = Ir.Print.module_to_string m2 in
  Alcotest.(check string) "print/parse/print fixpoint" text1 text2

let test_verify_ok () =
  let m = parse simple_add_src in
  Alcotest.(check int) "no errors" 0 (List.length (Ir.Verify.check_module m))

let test_verify_undefined_symbol () =
  let m =
    parse
      {|
define external @f() i32 {
entry:
  %x = call i32 @missing()
  ret i32 %x
}
|}
  in
  Alcotest.(check bool) "detects error" true (Ir.Verify.check_module m <> [])

let test_verify_bad_label () =
  let m =
    parse {|
define external @f() i32 {
entry:
  br label %nowhere
}
|}
  in
  Alcotest.(check bool) "detects error" true (Ir.Verify.check_module m <> [])

let test_verify_alias_of_declaration () =
  let m =
    parse
      {|
@a = external alias @undef_fn
declare external @undef_fn() i32
|}
  in
  Alcotest.(check bool) "alias of declaration rejected" true
    (Ir.Verify.check_module m <> [])

let test_verify_double_def () =
  let m =
    parse
      {|
define external @f() i32 {
entry:
  %x = add i32 1, 2
  %x = add i32 3, 4
  ret i32 %x
}
|}
  in
  Alcotest.(check bool) "detects double def" true (Ir.Verify.check_module m <> [])

let test_clone_module_independent () =
  let m = parse simple_add_src in
  let copy = Ir.Clone.clone_module m in
  let f = Option.get (Ir.Modul.find_func copy "add") in
  f.Ir.Func.blocks <- [];
  let original = Option.get (Ir.Modul.find_func m "add") in
  Alcotest.(check bool) "original untouched" false
    (Ir.Func.is_declaration original)

let test_clone_ins_map () =
  let m = parse simple_add_src in
  let map = Ir.Clone.empty_map () in
  let f = Option.get (Ir.Modul.find_func m "add") in
  let _copy = Ir.Clone.clone_func ~map f in
  let orig_ins = List.hd (Ir.Func.entry f).Ir.Func.insns in
  match Ir.Clone.map_ins map orig_ins with
  | Some cloned ->
    Alcotest.(check string) "same id" orig_ins.Ir.Ins.id cloned.Ir.Ins.id;
    Alcotest.(check bool) "different identity" true (not (orig_ins == cloned))
  | None -> Alcotest.fail "instruction not in map"

(* Two functions with the same body hold structurally equal but
   distinct instructions; each must map to the clone in its own
   function, not to whichever clone was recorded last. *)
let test_clone_ins_map_identity () =
  let m =
    parse
      {|
@g = external global [i32 x 1]
define external @f() void {
entry:
  store i32 0, ptr @g
  ret void
}
define external @h() void {
entry:
  store i32 0, ptr @g
  ret void
}
|}
  in
  let map = Ir.Clone.empty_map () in
  let f = Option.get (Ir.Modul.find_func m "f") in
  let h = Option.get (Ir.Modul.find_func m "h") in
  let f' = Ir.Clone.clone_func ~map f in
  let h' = Ir.Clone.clone_func ~map h in
  let first (fn : Ir.Func.t) = List.hd (Ir.Func.entry fn).Ir.Func.insns in
  Alcotest.(check bool) "structurally equal" true (first f = first h);
  Alcotest.(check bool) "f's store maps into f's clone" true
    (match Ir.Clone.map_ins map (first f) with Some c -> c == first f' | None -> false);
  Alcotest.(check bool) "h's store maps into h's clone" true
    (match Ir.Clone.map_ins map (first h) with Some c -> c == first h' | None -> false)

let test_extract_adds_declarations () =
  let m =
    parse
      {|
@g = external global [i32 x 7]

define external @f() i32 {
entry:
  %v = load i32, ptr @g
  %r = call i32 @helper(i32 %v)
  ret i32 %r
}

define external @helper(i32 %x) i32 {
entry:
  ret i32 %x
}
|}
  in
  let out, _map = Ir.Clone.extract m [ "f" ] in
  Alcotest.(check bool) "has f" true (Ir.Modul.mem out "f");
  Alcotest.(check bool) "declares helper" true (Ir.Modul.mem out "helper");
  Alcotest.(check bool) "declares g" true (Ir.Modul.mem out "g");
  (match Ir.Modul.find_func out "helper" with
  | Some h -> Alcotest.(check bool) "helper is a declaration" true (Ir.Func.is_declaration h)
  | None -> Alcotest.fail "helper missing");
  Alcotest.(check int) "extracted module verifies" 0
    (List.length (Ir.Verify.check_module out))

let diamond_src =
  {|
define external @f(i32 %x) i32 {
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %pos, label %neg
pos:
  br label %join
neg:
  br label %join
join:
  %r = phi i32 [ 1, %pos ], [ -1, %neg ]
  ret i32 %r
}
|}

let test_cfg_preds () =
  let m = parse diamond_src in
  let f = Option.get (Ir.Modul.find_func m "f") in
  let preds = Ir.Cfg.predecessors f in
  let join_preds = Hashtbl.find preds "join" in
  Alcotest.(check (list string)) "join preds" [ "pos"; "neg" ]
    (List.sort compare join_preds |> List.rev)

let test_cfg_rpo_starts_at_entry () =
  let m = parse diamond_src in
  let f = Option.get (Ir.Modul.find_func m "f") in
  match Ir.Cfg.rpo f with
  | first :: _ -> Alcotest.(check string) "entry first" "entry" first.Ir.Func.label
  | [] -> Alcotest.fail "empty rpo"

let test_cfg_remove_unreachable () =
  let m =
    parse
      {|
define external @f() i32 {
entry:
  ret i32 0
dead:
  ret i32 1
}
|}
  in
  let f = Option.get (Ir.Modul.find_func m "f") in
  Alcotest.(check bool) "changed" true (Ir.Cfg.remove_unreachable f);
  Alcotest.(check int) "one block left" 1 (Ir.Func.block_count f)

let test_dom_diamond () =
  let m = parse diamond_src in
  let f = Option.get (Ir.Modul.find_func m "f") in
  let dom = Ir.Dom.compute f in
  Alcotest.(check bool) "entry dominates join" true
    (Ir.Dom.dominates dom ~by:"entry" ~target:"join");
  Alcotest.(check bool) "pos does not dominate join" false
    (Ir.Dom.dominates dom ~by:"pos" ~target:"join")

let test_dom_frontier () =
  let m = parse diamond_src in
  let f = Option.get (Ir.Modul.find_func m "f") in
  let dom = Ir.Dom.compute f in
  let df = Ir.Dom.frontiers dom in
  let pos_df =
    List.map
      (fun j -> dom.Ir.Dom.order.(j).Ir.Func.label)
      df.(Option.get (Ir.Dom.position dom "pos"))
  in
  Alcotest.(check (list string)) "pos frontier is join" [ "join" ] pos_df

let test_uses_of_func () =
  let m =
    parse
      {|
@g = external global [i32 x 1]
define external @f() i32 {
entry:
  %v = load i32, ptr @g
  %r = call i32 @f()
  ret i32 %r
}
|}
  in
  let f = Option.get (Ir.Modul.find_func m "f") in
  let refs = Ir.Uses.of_func f in
  Alcotest.(check bool) "references g" true (Ir.Uses.SSet.mem "g" refs);
  Alcotest.(check bool) "references itself" true (Ir.Uses.SSet.mem "f" refs)

(* ---------------- interpreter ---------------- *)

let run_interp src fname args =
  let m = parse src in
  Ir.Verify.run_exn m;
  let st = Ir.Interp.create m in
  Ir.Interp.run st fname args

let test_interp_arith () =
  Alcotest.(check int64) "3+4" 7L (run_interp simple_add_src "add" [ 3L; 4L ])

let test_interp_branch () =
  Alcotest.(check int64) "pos" 1L (run_interp diamond_src "f" [ 5L ]);
  Alcotest.(check int64) "neg" (-1L) (run_interp diamond_src "f" [ -5L ])

let test_interp_loop () =
  let src =
    {|
define external @sum(i32 %n) i32 {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %loop ]
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, %n
  br i1 %c, label %loop, label %done
done:
  ret i32 %acc2
}
|}
  in
  Alcotest.(check int64) "sum 0..9" 45L (run_interp src "sum" [ 10L ])

let test_interp_memory () =
  let src =
    {|
@cell = external global zeroinitializer 8

define external @rw(i64 %v) i64 {
entry:
  store i64 %v, ptr @cell
  %r = load i64, ptr @cell
  ret i64 %r
}
|}
  in
  Alcotest.(check int64) "store/load" 1234L (run_interp src "rw" [ 1234L ])

let test_interp_signed_narrow () =
  (* storing 200 into an i8 and loading it back reads -56 (sign extension) *)
  let src =
    {|
@cell = external global zeroinitializer 1

define external @f() i32 {
entry:
  store i8 200, ptr @cell
  %v = load i8, ptr @cell
  %w = sext i8 %v to i32
  ret i32 %w
}
|}
  in
  Alcotest.(check int64) "sign extension" (-56L) (run_interp src "f" [])

let test_interp_string_constant () =
  let src =
    {|
@msg = internal constant c"AB\00"

define external @first() i32 {
entry:
  %c = load i8, ptr @msg
  %w = zext i8 %c to i32
  ret i32 %w
}
|}
  in
  Alcotest.(check int64) "reads 'A'" 65L (run_interp src "first" [])

let test_interp_switch () =
  let src =
    {|
define external @classify(i32 %x) i32 {
entry:
  switch i32 %x, label %other [1: label %one, 2: label %two]
one:
  ret i32 10
two:
  ret i32 20
other:
  ret i32 -1
}
|}
  in
  Alcotest.(check int64) "case 1" 10L (run_interp src "classify" [ 1L ]);
  Alcotest.(check int64) "case 2" 20L (run_interp src "classify" [ 2L ]);
  Alcotest.(check int64) "default" (-1L) (run_interp src "classify" [ 99L ])

let test_interp_indirect_call () =
  let src =
    {|
@table = internal constant [ptr x @inc, @dec]

define internal @inc(i32 %x) i32 {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}
define internal @dec(i32 %x) i32 {
entry:
  %r = sub i32 %x, 1
  ret i32 %r
}
define external @dispatch(i64 %idx, i32 %x) i32 {
entry:
  %slot = gep ptr @table, i64 %idx, size 8
  %fp = load ptr, ptr %slot
  %r = call i32 ptr %fp(i32 %x)
  ret i32 %r
}
|}
  in
  Alcotest.(check int64) "table[0] = inc" 8L (run_interp src "dispatch" [ 0L; 7L ]);
  Alcotest.(check int64) "table[1] = dec" 6L (run_interp src "dispatch" [ 1L; 7L ])

let test_interp_host_function () =
  let m =
    parse
      {|
declare external @host_add(i64 %a, i64 %b) i64
define external @f() i64 {
entry:
  %r = call i64 @host_add(i64 20, i64 22)
  ret i64 %r
}
|}
  in
  let st = Ir.Interp.create m in
  Ir.Interp.register_host st "host_add" (fun _ args ->
      match args with [ a; b ] -> Int64.add a b | _ -> 0L);
  Alcotest.(check int64) "host call" 42L (Ir.Interp.run st "f" [])

let test_interp_division_by_zero_traps () =
  let src =
    {|
define external @f(i32 %x) i32 {
entry:
  %r = sdiv i32 10, %x
  ret i32 %r
}
|}
  in
  Alcotest.check_raises "div by zero traps" (Ir.Interp.Trap "division by zero in @f")
    (fun () -> ignore (run_interp src "f" [ 0L ]))

(* property: Eval.binop agrees with 64-bit OCaml arithmetic for I64 add/sub/mul *)
let prop_eval_wraps =
  QCheck2.Test.make ~name:"Eval.binop i64 matches Int64 ops" ~count:300
    QCheck2.Gen.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))
    (fun (a, b) ->
      let a = Int64.of_int a and b = Int64.of_int b in
      Ir.Eval.binop Ir.Types.I64 Ir.Ins.Add a b = Some (Int64.add a b)
      && Ir.Eval.binop Ir.Types.I64 Ir.Ins.Sub a b = Some (Int64.sub a b)
      && Ir.Eval.binop Ir.Types.I64 Ir.Ins.Mul a b = Some (Int64.mul a b))

let prop_normalize_idempotent =
  QCheck2.Test.make ~name:"Types.normalize is idempotent" ~count:300
    QCheck2.Gen.(pair (oneofl Ir.Types.[ I1; I8; I16; I32; I64 ]) int)
    (fun (ty, v) ->
      let v = Int64.of_int v in
      Ir.Types.normalize ty (Ir.Types.normalize ty v) = Ir.Types.normalize ty v)

let () =
  Alcotest.run "ir"
    [
      ( "parse/print",
        [
          Alcotest.test_case "parse simple" `Quick test_parse_simple;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        ] );
      ( "verify",
        [
          Alcotest.test_case "ok module" `Quick test_verify_ok;
          Alcotest.test_case "undefined symbol" `Quick test_verify_undefined_symbol;
          Alcotest.test_case "bad label" `Quick test_verify_bad_label;
          Alcotest.test_case "alias of declaration" `Quick test_verify_alias_of_declaration;
          Alcotest.test_case "double definition" `Quick test_verify_double_def;
        ] );
      ( "clone",
        [
          Alcotest.test_case "module clone independent" `Quick test_clone_module_independent;
          Alcotest.test_case "instruction map" `Quick test_clone_ins_map;
          Alcotest.test_case "instruction map is by identity" `Quick
            test_clone_ins_map_identity;
          Alcotest.test_case "extract adds declarations" `Quick test_extract_adds_declarations;
        ] );
      ( "cfg/dom",
        [
          Alcotest.test_case "predecessors" `Quick test_cfg_preds;
          Alcotest.test_case "rpo entry first" `Quick test_cfg_rpo_starts_at_entry;
          Alcotest.test_case "remove unreachable" `Quick test_cfg_remove_unreachable;
          Alcotest.test_case "dominators" `Quick test_dom_diamond;
          Alcotest.test_case "dominance frontier" `Quick test_dom_frontier;
          Alcotest.test_case "uses" `Quick test_uses_of_func;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arith" `Quick test_interp_arith;
          Alcotest.test_case "branch" `Quick test_interp_branch;
          Alcotest.test_case "loop" `Quick test_interp_loop;
          Alcotest.test_case "memory" `Quick test_interp_memory;
          Alcotest.test_case "signed narrow" `Quick test_interp_signed_narrow;
          Alcotest.test_case "string constant" `Quick test_interp_string_constant;
          Alcotest.test_case "switch" `Quick test_interp_switch;
          Alcotest.test_case "indirect call" `Quick test_interp_indirect_call;
          Alcotest.test_case "host function" `Quick test_interp_host_function;
          Alcotest.test_case "div by zero traps" `Quick test_interp_division_by_zero_traps;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_eval_wraps;
          QCheck_alcotest.to_alcotest prop_normalize_idempotent;
        ] );
    ]
