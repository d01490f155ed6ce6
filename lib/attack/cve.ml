open Bunshin_ir
module B = Builder
module San = Bunshin_sanitizer.Sanitizer
module Inst = Bunshin_sanitizer.Instrument
module Slicer = Bunshin_slicer.Slicer
module Forensics = Bunshin_forensics.Forensics
module Nxe = Bunshin_nxe.Nxe

type case = {
  c_program : string;
  c_cve : string;
  c_exploit : string;
  c_sanitizer : string;
  c_modul : Ast.modul;
  c_entry : string;
  c_benign : int64 list;
  c_exploit_args : int64 list;
  c_vuln_func : string;
}

(* --------------------------------------------------------------- *)
(* nginx 1.4.0 / CVE-2013-2028: the chunked-transfer parser trusts an
   attacker-controlled chunk size and writes past a fixed stack buffer. *)
let nginx_case () =
  let b = B.create "nginx-1.4.0" in
  B.start_func b ~name:"ngx_http_parse_chunked" ~params:[ "chunk_size" ];
  let buf = B.alloca b 16 in
  (* The final write of the chunk copy: buf[chunk_size - 1]. *)
  let last = B.sub b (Ast.Reg "chunk_size") (B.cst 1) in
  let p = B.gep b buf last in
  B.store b (B.cst 0x41) p;
  B.ret b (Some (B.cst 0));
  B.start_func b ~name:"ngx_http_process_request" ~params:[ "chunk_size" ];
  let st = B.call b "ngx_http_parse_chunked" [ Ast.Reg "chunk_size" ] in
  B.ret b (Some st);
  B.start_func b ~name:"main" ~params:[ "chunk_size" ];
  let st = B.call b "ngx_http_process_request" [ Ast.Reg "chunk_size" ] in
  B.call_void b "sys_write" [ B.cst 1; st ];
  B.ret b (Some st);
  {
    c_program = "nginx-1.4.0";
    c_cve = "2013-2028";
    c_exploit = "blind ROP";
    c_sanitizer = "ASan";
    c_modul = B.finish b;
    c_entry = "main";
    c_benign = [ 8L ];
    c_exploit_args = [ 17L ];
    c_vuln_func = "ngx_http_parse_chunked";
  }

(* --------------------------------------------------------------- *)
(* cpython 2.7.10 / CVE-2016-5636: zipimport computes [size = len + 1]
   without an overflow check; a huge len wraps to a tiny allocation that a
   later fixed-offset write overflows. *)
let cpython_case () =
  let b = B.create "cpython-2.7.10" in
  B.start_func b ~name:"zipimport_get_data" ~params:[ "len" ];
  let size = B.add b (Ast.Reg "len") (B.cst 1) in
  let buf = B.call b "malloc" [ size ] in
  (* Copy header at offset len & 3 (stands in for the length-derived
     index): with a wrapped size the buffer is far smaller. *)
  let idx = B.bin b Ast.And (Ast.Reg "len") (B.cst 3) in
  let p = B.gep b buf idx in
  B.store b (B.cst 0x7f) p;
  let v = B.load b p in
  B.ret b (Some v);
  B.start_func b ~name:"main" ~params:[ "len" ];
  let v = B.call b "zipimport_get_data" [ Ast.Reg "len" ] in
  B.call_void b "sys_write" [ B.cst 1; v ];
  B.ret b (Some v);
  {
    c_program = "cpython-2.7.10";
    c_cve = "2016-5636";
    c_exploit = "int. overflow";
    c_sanitizer = "ASan";
    c_modul = B.finish b;
    c_entry = "main";
    c_benign = [ 10L ];
    c_exploit_args = [ Int64.max_int ];
    c_vuln_func = "zipimport_get_data";
  }

(* --------------------------------------------------------------- *)
(* php 5.6.6 / CVE-2015-4602: unserialize type confusion lets an attacker
   integer be dereferenced as an object pointer. *)
let php_case () =
  let b = B.create "php-5.6.6" in
  B.add_global b ~name:"zval_table" ~size:8 ~init:(Array.make 8 7L) ();
  B.start_func b ~name:"php_unserialize_object" ~params:[ "zv" ];
  let is_handle = B.cmp b Ast.Slt (Ast.Reg "zv") (B.cst 8) in
  B.cond_br b is_handle "handle" "confused";
  B.start_block b "handle";
  let p = B.gep b (Ast.Global "zval_table") (Ast.Reg "zv") in
  let v = B.load b p in
  B.ret b (Some v);
  B.start_block b "confused";
  (* Type confusion: the raw integer is used as a pointer. *)
  let v = B.load b (Ast.Reg "zv") in
  B.ret b (Some v);
  B.start_func b ~name:"main" ~params:[ "zv" ];
  let v = B.call b "php_unserialize_object" [ Ast.Reg "zv" ] in
  B.call_void b "sys_write" [ B.cst 1; v ];
  B.ret b (Some v);
  {
    c_program = "php-5.6.6";
    c_cve = "2015-4602";
    c_exploit = "type confusion";
    c_sanitizer = "ASan";
    c_modul = B.finish b;
    c_entry = "main";
    c_benign = [ 3L ];
    c_exploit_args = [ 0x999999L ];
    c_vuln_func = "php_unserialize_object";
  }

(* --------------------------------------------------------------- *)
(* openssl 1.0.1a / CVE-2014-0160 (heartbleed): the heartbeat response
   copies payload_len bytes from a request buffer whose real size is 16;
   an oversized length reads the adjacent secret and sends it out. *)
let openssl_case () =
  let b = B.create "openssl-1.0.1a" in
  B.start_func b ~name:"tls1_process_heartbeat" ~params:[ "payload_len" ];
  let req = B.call b "malloc" [ B.cst 16 ] in
  B.store b (B.cst 0) req;
  B.store b (B.cst 0) (B.gep b req (B.cst 2));
  let secret = B.call b "malloc" [ B.cst 8 ] in
  B.store b (B.cst 42) secret;
  B.store b (B.cst 42) (B.gep b secret (B.cst 1));
  (* memcpy(response, req, payload_len): model two sampled bytes of the
     copy, at idx-1 and idx+1.  For the exploit length the first touches
     the redzone (where ASan's check fires) and the second reads the
     adjacent secret — the leak the unchecked build sends to the wire. *)
  let idx = B.sub b (Ast.Reg "payload_len") (B.cst 1) in
  let v1 = B.load b (B.gep b req idx) in
  let v2 = B.load b (B.gep b req (B.add b idx (B.cst 2))) in
  let leaked = B.add b v1 v2 in
  B.ret b (Some leaked);
  B.start_func b ~name:"main" ~params:[ "payload_len" ];
  let leaked = B.call b "tls1_process_heartbeat" [ Ast.Reg "payload_len" ] in
  (* The heartbeat response goes out on the wire. *)
  B.call_void b "sys_write" [ B.cst 5; leaked ];
  B.ret b (Some leaked);
  {
    c_program = "openssl-1.0.1a";
    c_cve = "2014-0160";
    c_exploit = "heartbleed";
    c_sanitizer = "ASan";
    c_modul = B.finish b;
    c_entry = "main";
    c_benign = [ 1L ];
    (* idx = 16 hits the redzone (ASan fires); idx + 2 = 18 is the adjacent
       secret, which the unchecked build leaks. *)
    c_exploit_args = [ 17L ];
    c_vuln_func = "tls1_process_heartbeat";
  }

(* --------------------------------------------------------------- *)
(* httpd 2.4.10 / CVE-2014-3581: mod_cache dereferences a NULL header
   pointer on a crafted request (DoS). *)
let httpd_case () =
  let b = B.create "httpd-2.4.10" in
  B.add_global b ~name:"default_header" ~size:1 ~init:[| 200L |] ();
  B.start_func b ~name:"cache_select_url" ~params:[ "has_header" ];
  let c = B.cmp b Ast.Ne (Ast.Reg "has_header") (B.cst 0) in
  let p = B.select b c (Ast.Global "default_header") Ast.Null in
  (* r->headers dereferenced without a NULL check. *)
  let v = B.load b p in
  B.ret b (Some v);
  B.start_func b ~name:"main" ~params:[ "has_header" ];
  let v = B.call b "cache_select_url" [ Ast.Reg "has_header" ] in
  B.call_void b "sys_write" [ B.cst 1; v ];
  B.ret b (Some v);
  {
    c_program = "httpd-2.4.10";
    c_cve = "2014-3581";
    c_exploit = "null deref.";
    c_sanitizer = "UBSan";
    c_modul = B.finish b;
    c_entry = "main";
    c_benign = [ 1L ];
    c_exploit_args = [ 0L ];
    c_vuln_func = "cache_select_url";
  }

let cases = [ nginx_case (); cpython_case (); php_case (); openssl_case (); httpd_case () ]

(* --------------------------------------------------------------- *)

type verdict = {
  v_full_sanitizer : bool;
  v_variant_a : bool;
  v_variant_b : bool;
  v_diverged : bool;
  v_bunshin_detects : bool;
  v_benign_clean : bool;
  v_incident : Forensics.incident option;
}

let sanitizer_of case =
  match case.c_sanitizer with
  | "ASan" -> San.asan
  | "UBSan" -> Option.get (San.find_ubsan_sub "null")
  | other -> invalid_arg ("Cve.sanitizer_of: unknown sanitizer " ^ other)

let detected run =
  match run.Interp.outcome with Interp.Detected _ -> true | _ -> false

let finished run =
  match run.Interp.outcome with Interp.Finished _ -> true | _ -> false

(* Check distribution over two variants: A keeps the checks of the
   vulnerable function (removal elsewhere), B keeps the rest. *)
let variants case =
  let san = sanitizer_of case in
  let inst = Inst.apply_exn [ san ] case.c_modul in
  let all_funcs = List.map (fun f -> f.Ast.f_name) case.c_modul.Ast.m_funcs in
  let others = List.filter (fun f -> f <> case.c_vuln_func) all_funcs in
  [
    Slicer.remove_checks ~in_funcs:others inst;
    Slicer.remove_checks ~in_funcs:[ case.c_vuln_func ] inst;
  ]

let evaluate case =
  let san = sanitizer_of case in
  let inst = Inst.apply_exn [ san ] case.c_modul in
  (* Each module is interpreted twice (exploit + benign): compile once per
     module and reuse the precompiled form. *)
  let variant_a, variant_b =
    match variants case with
    | [ a; b ] -> (Interp.compile a, Interp.compile b)
    | _ -> assert false
  in
  let inst = Interp.compile inst in
  let run pm args = Interp.run_compiled pm ~entry:case.c_entry ~args in
  let full_x = run inst case.c_exploit_args in
  let a_x = run variant_a case.c_exploit_args in
  let b_x = run variant_b case.c_exploit_args in
  (* The monitor's verdict and incident: the variants' group run under the
     NXE, with the firing check site joined in by the bridge. *)
  let group = Bridge.run_runs [ a_x; b_x ] in
  let benign pm = run pm case.c_benign in
  let benign_a = benign variant_a and benign_b = benign variant_b in
  {
    v_full_sanitizer = detected full_x;
    v_variant_a = detected a_x;
    v_variant_b = detected b_x;
    v_diverged = not (Interp.events_equal a_x b_x);
    v_bunshin_detects = group.Nxe.outcome <> `All_finished;
    v_benign_clean =
      List.for_all finished [ benign inst; benign_a; benign_b ]
      && (Bridge.run_runs [ benign_a; benign_b ]).Nxe.outcome = `All_finished;
    v_incident = group.Nxe.incident;
  }
