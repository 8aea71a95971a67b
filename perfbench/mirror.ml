(* The traced mirror: the request paths of `hpjava serve` and of the
   `hpjava` subcommands, replayed in this process with a span around
   every call they make into a layer's public functions.

   Each function below makes the same calls, in the same order, as
   Dispatch.exec / Dispatch.handle (lib/server/dispatch.ml) or the
   matching subcommand in bin/hpjava.ml; only the spans are added.  The
   mirror covers the requests the benchmark's workloads send.  A span is
   named <layer>.<function>, the layer being the library the function
   lives in. *)

open Pstore
open Minijava
open Hyperprog
module Protocol = Server.Protocol
module Frame = Server.Frame

let call = Span.call

(* -- the server --------------------------------------------------------------- *)

type server = {
  store : Store.t;
  vm : Rt.t;
  mutable req : int;
  mutable frame_bytes : int;  (* request + response frames *)
}

(* What `hpjava serve STORE` does before its select loop starts. *)
let start_server path =
  let store, vm =
    Span.request ~req:0 "proc.serve_start" (fun () ->
        let store = call "pstore.open_file" (fun () -> Store.open_file path) in
        let vm = call "minijava.vm_for" (fun () -> Boot.vm_for store) in
        vm.Rt.echo <- true;
        call "hyperprog.install" (fun () -> Dynamic_compiler.install vm);
        (store, vm))
  in
  { store; vm; req = 0; frame_bytes = 0 }

type conn = {
  srv : server;
  mutable password : string option;
  mutable session : Store.Session.t option;
}

let open_session c = call "pstore.open_session" (fun () -> Store.open_session c.srv.store)

let session c =
  match c.session with
  | Some s when Store.Session.is_open s -> s
  | Some _ | None ->
    let s = open_session c in
    c.session <- Some s;
    s

let refused code message = Protocol.Refused { code; message }
let value_text v = call "pstore.value_to_string" (fun () -> Pvalue.to_string v)
let obs c = Store.obs c.srv.store

let exec c (req : Protocol.request) : Protocol.response =
  let vm = c.srv.vm in
  match req with
  | Hello _ when c.password <> None ->
    refused Protocol.code_proto "already authenticated; one hello per connection"
  | Hello { version; password } -> begin
    match call "server.auth_validate" (fun () -> Server.Auth.validate vm ~version ~password) with
    | Error { Server.Auth.code; message } -> refused code message
    | Ok () ->
      c.password <- Some password;
      let s = session c in
      Hello_ok { session = Store.Session.id s; server = "mirror" }
  end
  | _ when c.password = None -> refused Protocol.code_auth "hello first"
  | Browse Roots ->
    let s = session c in
    let text =
      call "pstore.session_roots" (fun () ->
          let names = Store.Session.root_names s in
          if names = [] then "no roots"
          else
            String.concat "\n"
              (List.map
                 (fun name ->
                   let v = Option.value (Store.Session.root s name) ~default:Pvalue.Null in
                   Printf.sprintf "%-24s %s" name (Pvalue.to_string v))
                 names))
    in
    Ok_text text
  | Browse Census -> Ok_text (String.trim (call "browser.census" (fun () -> Browser.Render.census c.srv.store)))
  | Browse (Root name) -> begin
    let s = session c in
    match call "pstore.session_root" (fun () -> Store.Session.root s name) with
    | Some v -> Ok_text (Printf.sprintf "%s = %s" name (value_text v))
    | None -> refused Protocol.code_not_found (Printf.sprintf "no root named %s" name)
  end
  | Browse Programs -> begin
    match call "hyperprog.live_programs" (fun () -> Registry.live_programs vm) with
    | [] -> Ok_text "no live hyper-programs"
    | programs ->
      Ok_text
        (call "hyperprog.class_names" (fun () ->
             String.concat "\n"
               (List.map
                  (fun (uid, oid) ->
                    let name = Storage_form.class_name vm oid in
                    Printf.sprintf "hp %d @%d %s" uid (Oid.to_int oid)
                      (if name = "" then "(unnamed)" else name))
                  programs)))
  end
  | Get_link { hp; link } -> begin
    let password = Option.get c.password in
    match call "hyperprog.get_link" (fun () -> Registry.try_get_link vm ~password ~hp ~link) with
    | Ok v -> Ok_text (value_text v)
    | Error (Failure.Collected _ as f) | Error (Failure.Bad_index _ as f) ->
      refused Protocol.code_not_found (Failure.describe f)
    | Error f -> refused Protocol.code_broken_link (Failure.describe f)
  end
  | Edit { root; source } ->
    if root = "" then refused Protocol.code_refused "edit needs a nonempty root name"
    else begin
      let password = Option.get c.password in
      let hp = call "hyperprog.to_storage" (fun () -> Hyper_source.to_storage vm source) in
      let uid = call "hyperprog.add_hp" (fun () -> Registry.add_hp vm ~password hp) in
      let s = session c in
      call "pstore.session_set_root" (fun () -> Store.Session.set_root s root (Pvalue.Ref hp));
      Ok_text
        (Printf.sprintf "edit buffered in session %d: root %s -> hyper-program %d (@%d); commit to publish"
           (Store.Session.id s) root uid (Oid.to_int hp))
    end
  | Commit -> begin
    let s = session c in
    let id = Store.Session.id s in
    let n = Store.Session.buffered_ops s in
    let compactions = Obs.count (obs c) Obs.Compaction in
    (* A commit whose stabilise compacted is its own span: the stall is
       reported apart from the ordinary commit path. *)
    let rename name =
      if Obs.count (obs c) Obs.Compaction > compactions then "pstore.compaction" else name
    in
    match call ~rename "pstore.commit" (fun () -> Store.Session.commit s) with
    | () ->
      c.session <- Some (open_session c);
      Ok_text (Printf.sprintf "committed session %d: %d op%s" id n (if n = 1 then "" else "s"))
    | exception Failure.Commit_conflict { session = sid; oids; keys } ->
      c.session <- Some (open_session c);
      Conflict { session = sid; oids = List.map Oid.to_int oids; keys }
  end
  | Bye -> Ok_text "bye"
  | Compile _ | Abort | Stats | Health -> refused Protocol.code_refused "not mirrored"

let exec_catching c req =
  try exec c req with
  | Failure.Commit_conflict _ as e -> raise e
  | e -> refused Protocol.code_internal (Printexc.to_string e)

(* Dispatch.handle plus the frame codec around it: one request span. *)
let handle c frame =
  let srv = c.srv in
  srv.req <- srv.req + 1;
  Span.request ~req:srv.req "server.request" (fun () ->
      let body =
        call "server.frame_extract" (fun () ->
            match Frame.extract frame with
            | Frame.Got (body, _) -> body
            | Frame.Need _ | Frame.Bad _ -> failwith "bad frame")
      in
      Obs.incr (obs c) Obs.Net_request;
      let resp =
        match call "server.decode_request" (fun () -> Protocol.decode_request body) with
        | Error msg -> refused Protocol.code_proto msg
        | Ok req -> exec_catching c req
      in
      (match resp with Protocol.Refused _ -> Obs.incr (obs c) Obs.Net_error | _ -> ());
      call "server.encode_response" (fun () -> Frame.encode (Protocol.encode_response resp)))

(* A client's view of one request: encode, hand the frame to the
   server, decode the answer.  Clients take turns (Load.run_clients
   ~threads:false), so one request runs at a time, as in the select loop. *)
let rpc c req =
  let frame = Frame.encode (Protocol.encode_request req) in
  let answer = handle c frame in
  c.srv.frame_bytes <- c.srv.frame_bytes + String.length frame + String.length answer;
  match Frame.extract answer with
  | Frame.Got (body, _) -> (
    match Protocol.decode_response body with Ok r -> r | Error m -> failwith m)
  | Frame.Need _ | Frame.Bad _ -> failwith "bad response frame"

let connect srv =
  let c = { srv; password = None; session = None } in
  match rpc c (Protocol.Hello { version = Protocol.version; password = Registry.built_in_password }) with
  | Protocol.Hello_ok _ -> c
  | r -> failwith ("hello refused: " ^ Protocol.describe_response r)

(* The dashboard route /hp/<uid> (Serve.http_route). *)
let page srv uid =
  srv.req <- srv.req + 1;
  Span.request ~req:srv.req "server.http_request" (fun () ->
      match call "hyperprog.live_page" (fun () -> Html_export.live_page srv.vm ~uid) with
      | Some body ->
        Printf.sprintf
          "HTTP/1.0 200 OK\r\nContent-Type: text/html; charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
          (String.length body) body
      | None -> "HTTP/1.0 404 Not Found\r\n\r\n")

(* -- the CLI ------------------------------------------------------------------- *)

type command =
  | Roots
  | Browse
  | Census
  | Print_hp of string
  | Source of string
  | Check
  | Go of string  (* run-hp --go FILE *)
  | Compile of string  (* compile FILE *)
  | New of { cls : string; root : string; arg : string }

(* The hpjava command line for [cmd] on [store]. *)
let argv ~store = function
  | Roots -> [ "roots"; store ]
  | Browse -> [ "browse"; store ]
  | Census -> [ "census"; store ]
  | Print_hp root -> [ "print-hp"; store; root ]
  | Source cls -> [ "source"; store; cls ]
  | Check -> [ "check"; store ]
  | Go file -> [ "run-hp"; "--go"; store; file ]
  | Compile file -> [ "compile"; store; file ]
  | New { cls; root; arg } -> [ "new"; store; cls; root; arg ]

let read_file f = Workload.Subproc.read_file f

(* bin/hpjava.ml's session_of: open, relink, install the compiler. *)
let session_of path =
  let store = call "pstore.open_file" (fun () -> Store.open_file path) in
  let vm = call "minijava.vm_for" (fun () -> Boot.vm_for store) in
  vm.Rt.echo <- true;
  call "hyperprog.install" (fun () -> Dynamic_compiler.install vm);
  (store, vm)

let stabilise store = call "pstore.stabilise" (fun () -> Store.stabilise store)

(* Dynamic_compiler.go, one call per layer. *)
let go vm hp =
  let source = call "hyperprog.textual_form" (fun () -> Dynamic_compiler.generate_textual_form vm hp) in
  let rcs = call "hyperprog.compile" (fun () -> Dynamic_compiler.compile_strings vm ~names:[] [ source ]) in
  call "pstore.set_origin" (fun () ->
      let uid = Storage_form.uid vm hp in
      List.iter
        (fun rc ->
          if rc.Rt.rc_classfile.Classfile.cf_source = Some source then
            Store.set_blob vm.Rt.store ("hyper.origin:" ^ rc.Rt.rc_name) (string_of_int uid))
        rcs);
  let principal =
    let declared = Storage_form.class_name vm hp in
    if declared <> "" && List.exists (fun rc -> String.equal rc.Rt.rc_name declared) rcs then declared
    else match rcs with rc :: _ -> rc.Rt.rc_name | [] -> failwith "no classes"
  in
  call "minijava.run_main" (fun () -> Dynamic_compiler.run_main vm ~cls:principal []);
  principal

(* One subcommand; returns the store it opened (the caller reads the
   caches' counters and closes it, as process exit would). *)
let command ~req path cmd =
  Span.request ~req "proc.request" (fun () ->
      match cmd with
      | Check ->
        let store = call "pstore.open_file" (fun () -> Store.open_file path) in
        let violations = call "pstore.integrity_check" (fun () -> Integrity.check store) in
        let fatal = List.filter Integrity.fatal violations in
        let stats = Store.stats store in
        Printf.printf "integrity %s: %d objects, %d quarantined, %d violation%s (%d fatal)\n"
          (if fatal = [] then "ok" else "FAILED")
          (Store.size store) stats.Store.quarantined (List.length violations)
          (if List.length violations = 1 then "" else "s")
          (List.length fatal);
        (store, None)
      | _ ->
        let store, vm = session_of path in
        (match cmd with
        | Roots ->
          call "pstore.roots" (fun () ->
              List.iter
                (fun name ->
                  let v = Option.value (Store.root store name) ~default:Pvalue.Null in
                  Printf.printf "%-24s %s\n" name (Pvalue.to_string v))
                (Store.root_names store))
        | Browse ->
          let b = call "browser.create" (fun () -> Browser.Ocb.create vm) in
          ignore (call "browser.open_roots" (fun () -> Browser.Ocb.open_roots b));
          print_string (call "browser.render" (fun () -> Browser.Render.browser b))
        | Census -> print_string (call "browser.census" (fun () -> Browser.Render.census store))
        | Print_hp root -> (
          match call "pstore.root" (fun () -> Store.root store root) with
          | Some (Pvalue.Ref hp) when Storage_form.is_hyper_program vm hp ->
            print_string (call "hyperprog.of_storage" (fun () -> Hyper_source.of_storage vm hp))
          | _ -> failwith ("root does not hold a hyper-program: " ^ root))
        | Source cls -> (
          match call "minijava.find_class" (fun () -> Rt.find_class vm cls) with
          | Some { Rt.rc_classfile = { Classfile.cf_source = Some source; _ }; _ } ->
            print_string source
          | _ -> failwith ("no source for " ^ cls))
        | Go file ->
          let source = read_file file in
          let hp = call "hyperprog.to_storage" (fun () -> Hyper_source.to_storage vm source) in
          call "pstore.set_root" (fun () ->
              Store.set_root store ("hp:" ^ Filename.remove_extension (Filename.basename file)) (Pvalue.Ref hp));
          let principal = go vm hp in
          Printf.printf "ran %s.main\n" principal;
          stabilise store
        | Compile file ->
          let source = read_file file in
          let rcs =
            call "minijava.compile_and_load" (fun () -> Jcompiler.compile_and_load ~redefine:true vm [ source ])
          in
          List.iter (fun rc -> Printf.printf "compiled %s\n" rc.Rt.rc_name) rcs;
          stabilise store
        | New { cls; root; arg } ->
          let obj =
            call "minijava.new_instance" (fun () ->
                Vm.new_instance vm ~cls ~desc:"(Ljava.lang.String;)V" [ Rt.jstring vm arg ])
          in
          call "pstore.set_root" (fun () -> Store.set_root store root obj);
          stabilise store;
          Printf.printf "%s = %s\n" root (Vm.to_string vm obj)
        | Check -> ());
        (store, Some vm))
