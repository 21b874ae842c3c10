(** The linker: combines object files into an executable image.

    - strong-symbol resolution with COMDAT folding (first definition of a
      COMDAT group wins, duplicates are discarded — the C++ template
      model);
    - address assignment (code addresses are opaque 16-byte-aligned
      tokens; data is laid out in a flat little-endian image);
    - absolute relocations patched in data;
    - aliases resolve to their base symbol's address;
    - unresolved symbols must be satisfied by the runtime (host
      functions), otherwise linking fails. *)

exception Link_error of string

(** Two symbols resolve to the same name outside a shared COMDAT group.
    [in_object] is the object bringing the second definition; [prior]
    the one that defined it first. *)
exception
  Duplicate_symbol of { symbol : string; in_object : string; prior : string }

(** A reference could not be satisfied by any object, the host-symbol
    list, or an alias. [referenced_from] names the referencing object
    (or the alias / data relocation that needs the symbol). *)
exception Undefined_symbol of { symbol : string; referenced_from : string }

let error fmt = Printf.ksprintf (fun s -> raise (Link_error s)) fmt

let link_error_message = function
  | Link_error msg -> Some msg
  | Duplicate_symbol { symbol; in_object; prior } ->
    Some
      (Printf.sprintf "duplicate symbol @%s: defined in %s and again in %s"
         symbol prior in_object)
  | Undefined_symbol { symbol; referenced_from } ->
    Some
      (Printf.sprintf "undefined symbol @%s (referenced from %s)" symbol
         referenced_from)
  | _ -> None

type exe = {
  funcs : (string, Codegen.Mach.mfunc) Hashtbl.t;
  sym_addr : (string, int64) Hashtbl.t;
  fn_at_addr : (int64, string) Hashtbl.t;  (** code address -> function *)
  host_at_addr : (int64, string) Hashtbl.t;  (** host-symbol address -> name *)
  host_syms : (string, unit) Hashtbl.t;  (** resolved to the runtime *)
  image : (int * Bytes.t) list;  (** (base address, initialized bytes) *)
  data_end : int;
  symbols_resolved : int;  (** linker work metric, used by the cost model *)
}

let code_base = 0x400000
let data_base = 0x40000

let addr_of exe name =
  (* [find], not [find_opt]: the VM resolves symbol operands through
     here on every execution of one, so the lookup must not allocate *)
  match Hashtbl.find exe.sym_addr name with
  | a -> a
  | exception Not_found -> error "no such symbol @%s" name

let find_func exe name = Hashtbl.find_opt exe.funcs name

(** Link objects; [host] names symbols provided by the runtime.
    Declares the ["link"] fault site.
    @raise Duplicate_symbol on a strong-symbol collision
    @raise Undefined_symbol on an unsatisfiable reference *)
let link ?(host = []) (objs : Objfile.t list) =
  Support.Fault.hit "link";
  let chosen : (string, Objfile.sym) Hashtbl.t = Hashtbl.create 128 in
  let defined_in : (string, string) Hashtbl.t = Hashtbl.create 128 in
  let order = ref [] in
  let comdat_seen = Hashtbl.create 16 in
  let choose (obj : Objfile.t) (s : Objfile.sym) =
    if Hashtbl.mem chosen s.Objfile.s_name then
      raise
        (Duplicate_symbol
           {
             symbol = s.Objfile.s_name;
             in_object = obj.Objfile.o_name;
             prior =
               Option.value ~default:"?"
                 (Hashtbl.find_opt defined_in s.Objfile.s_name);
           });
    Hashtbl.replace chosen s.Objfile.s_name s;
    Hashtbl.replace defined_in s.Objfile.s_name obj.Objfile.o_name;
    order := s.Objfile.s_name :: !order
  in
  List.iter
    (fun (obj : Objfile.t) ->
      List.iter
        (fun (s : Objfile.sym) ->
          match s.Objfile.s_comdat with
          | Some key ->
            if not (Hashtbl.mem comdat_seen key) then begin
              Hashtbl.replace comdat_seen key ();
              choose obj s
            end
          | None -> choose obj s)
        obj.Objfile.o_syms)
    objs;
  let order = List.rev !order in
  let exe =
    {
      funcs = Hashtbl.create 64;
      sym_addr = Hashtbl.create 128;
      fn_at_addr = Hashtbl.create 64;
      host_at_addr = Hashtbl.create 8;
      host_syms = Hashtbl.create 8;
      image = [];
      data_end = data_base;
      symbols_resolved = 0;
    }
  in
  (* address assignment *)
  let next_code = ref code_base in
  let next_data = ref data_base in
  let datas = ref [] in
  List.iter
    (fun name ->
      let s = Hashtbl.find chosen name in
      match s.Objfile.s_def with
      | Objfile.Code mf ->
        let addr = Int64.of_int !next_code in
        Hashtbl.replace exe.sym_addr name addr;
        Hashtbl.replace exe.fn_at_addr addr name;
        Hashtbl.replace exe.funcs name mf;
        next_code := !next_code + 16
      | Objfile.Data d ->
        let size = Bytes.length d.Objfile.d_bytes in
        let base = (!next_data + 7) / 8 * 8 in
        Hashtbl.replace exe.sym_addr name (Int64.of_int base);
        datas := (base, d) :: !datas;
        next_data := base + size)
    order;
  (* host symbols: anything still undefined *)
  List.iter (fun h -> Hashtbl.replace exe.host_syms h ()) host;
  let next_host = ref (code_base - 0x10000) in
  let resolved = ref 0 in
  List.iter
    (fun (obj : Objfile.t) ->
      List.iter
        (fun u ->
          incr resolved;
          if not (Hashtbl.mem exe.sym_addr u) then begin
            if Hashtbl.mem exe.host_syms u then begin
              let addr = Int64.of_int !next_host in
              Hashtbl.replace exe.sym_addr u addr;
              Hashtbl.replace exe.host_at_addr addr u;
              next_host := !next_host + 16
            end
            else begin
              (* alias defined in another object? resolved below; else fail *)
              let is_alias =
                List.exists
                  (fun (o : Objfile.t) ->
                    List.exists (fun (a, _, _) -> String.equal a u) o.Objfile.o_aliases)
                  objs
              in
              if not is_alias then
                raise
                  (Undefined_symbol
                     { symbol = u; referenced_from = obj.Objfile.o_name })
            end
          end)
        obj.Objfile.o_undefined)
    objs;
  (* aliases *)
  List.iter
    (fun (obj : Objfile.t) ->
      List.iter
        (fun (alias, target, _) ->
          match Hashtbl.find_opt exe.sym_addr target with
          | Some addr ->
            Hashtbl.replace exe.sym_addr alias addr;
            (* an alias to a function is callable *)
            (match Hashtbl.find_opt exe.funcs target with
            | Some mf -> Hashtbl.replace exe.funcs alias mf
            | None -> ())
          | None ->
            raise
              (Undefined_symbol
                 { symbol = target; referenced_from = "alias @" ^ alias }))
        obj.Objfile.o_aliases)
    objs;
  (* patch data relocations *)
  let image =
    List.rev_map
      (fun (base, (d : Objfile.data)) ->
        let bytes = Bytes.copy d.Objfile.d_bytes in
        List.iter
          (fun (off, target) ->
            incr resolved;
            match Hashtbl.find_opt exe.sym_addr target with
            | Some addr -> Bytes.set_int64_le bytes off addr
            | None ->
              raise
                (Undefined_symbol
                   {
                     symbol = target;
                     referenced_from = "data relocation";
                   }))
          d.Objfile.d_relocs;
        (base, bytes))
      !datas
  in
  { exe with image; data_end = !next_data; symbols_resolved = !resolved }

(** Linker cost model (cycles of work, converted to time by the bench
    harness): proportional to symbols + relocations resolved, matching
    the paper's observation that linking is cheap (~49 ms on average)
    because internalized fragments export few symbols. *)
let link_cost exe = 2000 + (exe.symbols_resolved * 40)
