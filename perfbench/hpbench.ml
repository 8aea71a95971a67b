(* The repository benchmark.

     hpbench --workload wire-write|wire-read|cli --seed N --seconds S
             --trace 0|1 --hpjava PATH

   Builds the starting store with the real hpjava binary (five times,
   reporting the median set-up time), drives the workload for S seconds
   and checks every answer.  With --trace 0 it reports the end-to-end
   metrics; with --trace 1 it runs the workload for S/2 seconds, checks
   that the in-process mirror answers as the real program does, and then
   replays the same seeded inputs through the mirror four times (traced,
   untraced, untraced, traced) to report the per-layer metrics.  Every
   metric is printed with its unit and sample count; the last line of
   stdout is one JSON object carrying them all, which perfbench/run.py
   cuts down to the metrics BENCHMARK.json lists.  See
   perfbench/README.md. *)

open Pstore
module Subproc = Workload.Subproc
module Protocol = Server.Protocol

let now = Span.now

(* -- metrics ---------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float option; n : int; note : string }

let metrics : metric list ref = ref []

let report ?(note = "") ?(n = 1) name unit_ value =
  let value = match value with Some v when Float.is_finite v -> Some v | _ -> None in
  metrics := { name; unit_; value; n; note } :: !metrics

let p50 ?note name xs = report ?note ~n:(List.length xs) name "ms" (if xs = [] then None else Some (Stat.median xs))

let tail name xs =
  let q, v = Stat.tail xs in
  report ~n:(List.length xs) ~note:(Printf.sprintf "p%g" (q *. 100.)) name "ms" (if xs = [] then None else Some v)

(* -- the world outside: processes, files, /proc --------------------------------- *)

let hpjava = ref ""
let live : Subproc.proc list ref = ref []

(* The hpjava command now running, and when it must have ended. *)
let running : (int * float) option Atomic.t = Atomic.make None
let cli_timeout_s = 60.

(* Kills a command that outlives its deadline, so a hung store cannot
   hang the benchmark.  It wakes twice a second and does nothing else. *)
let watchdog =
  lazy
    (Thread.create
       (fun () ->
         while true do
           Thread.delay 0.5;
           match Atomic.get running with
           | Some (pid, deadline) when now () > deadline -> (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
           | _ -> ()
         done)
       ())

(* One hpjava command, timed on the monotonic clock from spawn to exit.
   The wait blocks until the process ends, so the time carries no
   polling delay.  Output goes through files, as in Subproc.run. *)
let cli args =
  ignore (Lazy.force watchdog);
  let argv = !hpjava :: args in
  let tmp suffix = Filename.temp_file "hpjava" suffix in
  let in_f = tmp ".in" and out_f = tmp ".out" and err_f = tmp ".err" in
  Fun.protect ~finally:(fun () -> List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ in_f; out_f; err_f ])
  @@ fun () ->
  let fd_in = Unix.openfile in_f [ Unix.O_RDONLY ] 0 in
  let fd_out = Unix.openfile out_f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_err = Unix.openfile err_f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let t0 = now () in
  let pid = Unix.create_process !hpjava (Array.of_list argv) fd_in fd_out fd_err in
  Atomic.set running (Some (pid, t0 +. cli_timeout_s));
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  let rec wait () = match Unix.waitpid [] pid with _, status -> status | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait () in
  let status = wait () in
  let elapsed_s = now () -. t0 in
  Atomic.set running None;
  { Subproc.argv; status; stdout = Subproc.read_file out_f; stderr = Subproc.read_file err_f; elapsed_s }

let must args =
  let r = cli args in
  if not (Subproc.ok r) then failwith (Subproc.describe r);
  r

(* /proc files report length 0: read to EOF. *)
let read_proc path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  Buffer.contents buf

let proc_field pid file key =
  match read_proc (Printf.sprintf "/proc/%d/%s" pid file) with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ k; v ] when String.trim k = key -> (
          match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> float_of_string_opt n
          | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' text)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* The image and its journal. *)
let store_bytes image = file_size image + file_size (Journal.path_for image)

let copy_store ~src ~dst =
  Unix.mkdir dst 0o700;
  Array.iter
    (fun f ->
      if not (Filename.check_suffix f ".sock" || Filename.check_suffix f ".java" || Filename.check_suffix f ".hp") then
        Subproc.write_file (Filename.concat dst f) (Subproc.read_file (Filename.concat src f)))
    (Sys.readdir src)

let serve ~store ~socket =
  let p = Subproc.spawn ~bin:!hpjava [ "serve"; store; "--socket"; socket ] in
  live := p :: !live;
  if not (Subproc.wait_output ~timeout_s:60. p "listening on") then
    failwith ("server did not start: " ^ Subproc.proc_errors p);
  p

let stop ?(signal = Sys.sigterm) p =
  ignore (Subproc.terminate ~signal ~timeout_s:30. p);
  live := List.filter (fun q -> q != p) !live

(* -- get-link answers, checked in process ------------------------------------------- *)

(* Open the store files [image] in this process and check get-link
   answers against the links the generated sources declared.  An answer
   "@OID" to (program [uid], link [l]) must be that program's [l]-th link
   object, and the link must hold the declared value: the same number,
   or the object the declared root names.  Returns one line per wrong
   answer. *)
let check_links image answers =
  let store = Store.open_file image in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  let vm = Minijava.Boot.vm_for store in
  let programs = Hashtbl.of_seq (List.to_seq (Hyperprog.Registry.live_programs vm)) in
  let declared_link = function
    | Gen.Int n -> Some (Hyperprog.Hyperlink.L_primitive (Pvalue.Int (Int32.of_int n)))
    | Gen.Long n -> Some (Hyperprog.Hyperlink.L_primitive (Pvalue.Long (Int64.of_int n)))
    | Gen.Double x -> Some (Hyperprog.Hyperlink.L_primitive (Pvalue.Double x))
    | Gen.Root k -> (
      match Store.root store (Gen.person_root k) with
      | Some (Pvalue.Ref o) -> Some (Hyperprog.Hyperlink.L_object o)
      | _ -> None)
  in
  List.filter_map
    (fun (uid, l, answer, declared) ->
      let verdict =
        match Hashtbl.find_opt programs uid with
        | None -> Error "no such live program"
        | Some hp -> (
          match List.nth_opt (Hyperprog.Storage_form.link_oids vm hp) l with
          | None -> Error "no such link"
          | Some o when Printf.sprintf "@%d" (Oid.to_int o) <> answer ->
            Error (Printf.sprintf "the link object is @%d" (Oid.to_int o))
          | Some o ->
            if Some (Hyperprog.Storage_form.read_link vm o).link = declared_link declared then Ok ()
            else Error "the link holds another value")
      in
      match verdict with
      | Ok () -> None
      | Error why -> Some (Printf.sprintf "get-link %d/%d answered %s, declared %s: %s" uid l answer (Gen.spec declared) why))
    answers

(* -- set-up ------------------------------------------------------------------------ *)

type setup = {
  dir : string;
  store : string;
  socket : string;
  server : Subproc.proc option;
  setup_s : float;
  registered : (int array * int array * Gen.link array) option;  (* wire-read's programs: uids, oids, links *)
  cat : Load.catalogue option;  (* and the answers their links give *)
}

(* cli's inputs: the Go pool, the stored programs, the helper classes. *)
let write_cli_inputs ~seed dir =
  let w name text = Subproc.write_file (Filename.concat dir name) text in
  for i = 0 to Gen.go_pool - 1 do
    w (Printf.sprintf "G%d.hp" i) (fst (Gen.go_program (Gen.rng seed (1000 + i)) i))
  done;
  for k = 0 to Gen.query_programs - 1 do
    w (Printf.sprintf "q%d.hp" k) (Gen.query_source k)
  done;
  for k = 0 to Gen.helper_classes - 1 do
    w (Printf.sprintf "H%d.java" k) (Gen.helper_source k)
  done

(* The starting store: a journalled one-shard store (group window 1,
   default compaction limit) holding the Person class and roots p0..p3;
   cli adds four stored hyper-programs, wire-read 256 programs committed
   through the server. *)
let setup_once ~workload ~seed dir =
  Unix.mkdir dir 0o700;
  let store = Filename.concat dir "store.img" in
  let socket = Filename.concat dir "s.sock" in
  let t0 = now () in
  Subproc.write_file (Filename.concat dir "Person.java") Gen.person_source;
  ignore (must [ "init"; store; "--journalled" ]);
  ignore (must [ "compile"; store; Filename.concat dir "Person.java" ]);
  for k = 0 to Gen.people - 1 do
    ignore (must [ "new"; store; "Person"; Gen.person_root k; Gen.person_name k ])
  done;
  match workload with
  | "cli" ->
    write_cli_inputs ~seed dir;
    for k = 0 to Gen.query_programs - 1 do
      ignore (must [ "run-hp"; store; Filename.concat dir (Printf.sprintf "q%d.hp" k) ])
    done;
    { dir; store; socket; server = None; setup_s = now () -. t0; registered = None; cat = None }
  | _ ->
    let p = serve ~store ~socket in
    let registered =
      if workload = "wire-read" then begin
        let link = (Load.real (Load.new_wire_stats ()) socket).Load.connect () in
        Fun.protect ~finally:link.Load.close (fun () -> Some (Load.populate ~seed link))
      end
      else None
    in
    { dir; store; socket; server = Some p; setup_s = now () -. t0; registered; cat = None }

let setups = 5

(* Set up [setups] times; keep the last, report the median time. *)
let setup ~workload ~seed work =
  let all =
    List.init setups (fun i ->
        let s = setup_once ~workload ~seed (Filename.concat work (Printf.sprintf "s%d" i)) in
        if i < setups - 1 then begin
          Option.iter stop s.server;
          Subproc.rm_rf s.dir
        end;
        s)
  in
  report ~n:setups "setup_s" "s" (Some (Stat.median (List.map (fun s -> s.setup_s) all)));
  let s = List.nth all (setups - 1) in
  (* wire-read compares every get-link answer with this catalogue, so
     each entry is checked first against the link its source declared,
     on a copy of the served store. *)
  let catalogue registered =
    let link = (Load.real (Load.new_wire_stats ()) s.socket).Load.connect () in
    let cat = Fun.protect ~finally:link.Load.close (fun () -> Load.catalogue ~seed link registered) in
    let copy = Filename.concat work "catalogue" in
    copy_store ~src:s.dir ~dst:copy;
    let l = Gen.read_links in
    let answers =
      List.init (Array.length cat.expected) (fun k -> (cat.uids.(k / l), k mod l, cat.expected.(k), cat.declared.(k)))
    in
    let wrong = check_links (Filename.concat copy "store.img") answers in
    Subproc.rm_rf copy;
    if wrong <> [] then
      failwith (Printf.sprintf "catalogue: %d wrong get-link answers, first: %s" (List.length wrong) (List.hd wrong));
    cat
  in
  { s with cat = Option.map catalogue s.registered }

(* -- the untraced run ---------------------------------------------------------------- *)

type run = {
  acc : Load.acc;  (* the measured phase *)
  wall : float;
  extra : Load.acc;  (* read-back and restart checks *)
  lost : int;
  ws : Load.wire_stats;
}

let ops_metrics r =
  let all = Load.all_latencies r.acc in
  let completed = r.acc.Load.attempted - r.acc.Load.failed in
  report ~n:completed "ops_per_s" "1/s" (Some (float_of_int completed /. r.wall));
  p50 "op_p50_ms" all;
  tail "op_p99_ms" all;
  let attempted = r.acc.attempted + r.extra.attempted and failed = r.acc.failed + r.extra.failed in
  report ~n:attempted "error_ratio" "ratio" (Some (float_of_int failed /. float_of_int (max 1 attempted)))

let vm_hwm_mb pid = Option.map (fun kb -> kb /. 1024.) (proc_field pid "status" "VmHWM")
let wchar pid = proc_field pid "io" "wchar"

let wire_write ~seed ~seconds ~trace (s : setup) =
  let ws = Load.new_wire_stats ~keep:trace () in
  let tr = Load.real ws s.socket in
  let server = ref (Option.get s.server) in
  let writers = Array.init 2 (Load.writer ~seed) in
  let links = Array.init 2 (fun _ -> tr.Load.connect ()) in
  let pid = !server.Subproc.pid in
  let w0 = wchar pid in
  let t0 = now () in
  let accs =
    Load.run_clients ~clients:2 ~deadline:(t0 +. seconds) ~budget:max_int (fun i acc ->
        Load.write_round writers.(i) links.(i) acc)
  in
  let wall = now () -. t0 in
  let acc = Load.merge accs in
  let rss = vm_hwm_mb pid and w1 = wchar pid in
  let response_bytes = Load.response_bytes ws in
  let disk = store_bytes s.store in
  Array.iter (fun l -> l.Load.close ()) links;
  (* SIGKILL -> restart cycles, each right after two acknowledged rounds;
     every acknowledged commit must read back after each restart. *)
  let extra = Load.new_acc () in
  let lost = ref 0 in
  let recoveries =
    List.init 3 (fun _ ->
        let l = tr.connect () in
        for _ = 1 to 2 do
          Load.write_round writers.(0) l extra
        done;
        l.close ();
        let t_kill = now () in
        stop ~signal:Sys.sigkill !server;
        server := Subproc.spawn ~bin:!hpjava [ "serve"; s.store; "--socket"; s.socket ];
        live := !server :: !live;
        let rec dial () =
          match Server.Client.connect (Server.Client.unix_addr s.socket) with
          | c -> c
          | exception (Unix.Unix_error _ | Server.Frame.Closed) when now () -. t_kill < 60. ->
            Unix.sleepf 0.0005;
            dial ()
        in
        let c = dial () in
        let ms = (now () -. t_kill) *. 1e3 in
        lost := !lost + Load.read_back (Array.to_list writers) { Load.rpc = Server.Client.rpc c; close = ignore } extra;
        Server.Client.close c;
        ms)
  in
  stop !server;
  (* Every get-link answer against the link its edit declared. *)
  let answers =
    Array.to_list writers
    |> List.concat_map (fun w ->
           Hashtbl.fold (fun (uid, l) (answer, declared) a -> (uid, l, answer, declared) :: a) w.Load.links [])
  in
  List.iter (Load.fail extra) (check_links s.store answers);
  let r = { acc; wall; extra; lost = !lost; ws } in
  ops_metrics r;
  p50 "edit_p50_ms" (Load.latencies acc "edit");
  p50 "commit_p50_ms" (Load.latencies acc "commit");
  p50 "get_link_p50_ms" (Load.latencies acc "get_link");
  p50 "recovery_ms" recoveries;
  report ~n:acc.commits "disk_bytes_per_commit" "B"
    (if acc.commits > 0 then Some (float_of_int disk /. float_of_int acc.commits) else None);
  report "rss_mb" "MB" rss;
  if trace then begin
    report ~n:acc.commit_attempts "pstore.conflict_ratio" "ratio"
      (Some (float_of_int acc.conflicts /. float_of_int (max 1 acc.commit_attempts)));
    report ~n:acc.commits "pstore.write_bytes_per_commit" "B"
      (match (w0, w1) with
      | Some w0, Some w1 when acc.commits > 0 ->
        Some ((w1 -. w0 -. float_of_int response_bytes) /. float_of_int acc.commits)
      | _ -> None)
  end;
  r

let wire_read ~seed ~seconds (s : setup) =
  let cat = Option.get s.cat in
  let ws = Load.new_wire_stats () in
  let tr = Load.real ws s.socket in
  let server = Option.get s.server in
  let links = Array.init Load.readers (fun _ -> tr.Load.connect ()) in
  let rngs = Array.init Load.readers (fun i -> Gen.rng seed (200 + i)) in
  let t0 = now () in
  let accs =
    Load.run_clients ~clients:Load.readers ~deadline:(t0 +. seconds) ~budget:max_int (fun i acc ->
        Load.read_step cat ~page:tr.page rngs.(i) links.(i) acc)
  in
  let wall = now () -. t0 in
  let acc = Load.merge accs in
  let rss = vm_hwm_mb server.Subproc.pid in
  Array.iter (fun l -> l.Load.close ()) links;
  stop server;
  let r = { acc; wall; extra = Load.new_acc (); lost = 0; ws } in
  ops_metrics r;
  p50 "get_link_p50_ms" (Load.latencies acc "get_link");
  p50 "browse_p50_ms" (Load.latencies acc "browse");
  p50 "page_p50_ms" (Load.latencies acc "page");
  report "rss_mb" "MB" rss;
  r

let cli_run ~seed ~seconds (s : setup) =
  let next = Load.cli_commands ~seed ~dir:s.dir in
  let acc = Load.new_acc () in
  let t0 = now () in
  let step = ref 0 in
  while now () -. t0 < seconds do
    let cmd, expect = next !step in
    incr step;
    acc.attempted <- acc.attempted + 1;
    match cli (Mirror.argv ~store:s.store cmd) with
    | r ->
      acc.samples <- (Load.cli_class cmd, r.Subproc.elapsed_s *. 1e3) :: acc.samples;
      if Subproc.ok r then Load.check_output acc cmd expect r.stdout
      else Load.fail acc (Subproc.describe r)
    | exception e -> Load.fail acc (Printexc.to_string e)
  done;
  let wall = now () -. t0 in
  let r = { acc; wall; extra = Load.new_acc (); lost = 0; ws = Load.new_wire_stats () } in
  ops_metrics r;
  p50 "go_p50_ms" (Load.latencies acc "go");
  p50 "query_p50_ms" (Load.latencies acc "query");
  r

(* -- the traced mirror run --------------------------------------------------------------- *)

let median_time f =
  Stat.median
    (List.init 5 (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         now () -. t0))

(* Open and recovery cost of the store files [image] as they stand. *)
let store_probes image =
  report "pstore.image_load_ms" "ms" ~n:5 (Some (1e3 *. median_time (fun () -> Image.load image)));
  let bytes = Subproc.read_file image in
  let t = median_time (fun () -> Codec.crc32 bytes) in
  report "pstore.crc32_mb_per_s" "MB/s" ~n:5 (Some (float_of_int (String.length bytes) /. 1e6 /. t));
  report "pstore.journal_read_ms" "ms" ~n:5
    (Some (1e3 *. median_time (fun () -> Journal.read (Journal.path_for image))))

(* Per-layer numbers from the recorded spans. *)
let span_metrics ~wall spans =
  let dur name = List.filter_map (fun sp -> if sp.Span.name = name then Some (Span.duration sp *. 1e3) else None) spans in
  let requests = List.filter (fun sp -> sp.Span.parent = 0) spans in
  let is_request sp = List.mem sp.Span.name [ "server.request"; "server.http_request"; "proc.request" ] in
  let nreq = List.length (List.filter is_request requests) in
  List.iter
    (fun (metric, span) -> if dur span <> [] then p50 metric (dur span))
    [
      ("pstore.open_ms", "pstore.open_file");
      ("minijava.vm_for_ms", "minijava.vm_for");
      ("hyperprog.to_storage_ms", "hyperprog.to_storage");
      ("hyperprog.add_hp_ms", "hyperprog.add_hp");
      ("hyperprog.get_link_ms", "hyperprog.get_link");
      ("hyperprog.live_page_ms", "hyperprog.live_page");
      ("hyperprog.textual_form_ms", "hyperprog.textual_form");
      ("hyperprog.compile_ms", "hyperprog.compile");
      ("minijava.run_main_ms", "minijava.run_main");
      ("pstore.session_open_ms", "pstore.open_session");
      ("pstore.commit_ms", "pstore.commit");
      ("pstore.stabilise_ms", "pstore.stabilise");
      ("browser.census_ms", "browser.census");
    ];
  let compactions = dur "pstore.compaction" in
  if compactions <> [] || dur "pstore.commit" <> [] then begin
    report "pstore.compactions" "count" (Some (float_of_int (List.length compactions)));
    report ~n:(List.length compactions) "pstore.compaction_ms" "ms" (Some (Stat.sum compactions));
    report ~n:(List.length compactions) "pstore.compaction_share" "ratio" (Some (Stat.sum compactions /. 1e3 /. wall))
  end;
  (* Self time per layer, per request, for the layers the run entered. *)
  let self = Span.self_times spans in
  List.iter
    (fun layer ->
      let times = List.filter_map (fun (sp, t) -> if Span.layer sp.Span.name = layer then Some t else None) self in
      if times <> [] then report ~n:nreq (layer ^ ".self_ms") "ms" (Some (Stat.sum times *. 1e3 /. float_of_int (max 1 nreq))))
    [ "proc"; "server"; "hyperprog"; "minijava"; "pstore"; "browser" ];
  let cov = Span.coverage (List.filter (fun sp -> is_request sp || sp.Span.parent <> 0) spans) in
  if cov <> [] then begin
    let covered = List.length (List.filter (fun c -> c >= 0.9) cov) in
    report ~n:(List.length cov) "trace.coverage_p50" "ratio" (Some (Stat.median cov));
    report ~n:(List.length cov) "trace.requests_covered_90" "ratio"
      (Some (float_of_int covered /. float_of_int (List.length cov)));
    let reqs = List.filter (fun sp -> sp.Span.parent = 0 && is_request sp) spans in
    let self_of = Hashtbl.create 1024 in
    List.iter (fun (sp, t) -> if sp.Span.parent = 0 then Hashtbl.replace self_of sp.Span.id t) self;
    let total = Stat.sum (List.map Span.duration reqs) in
    let uncovered = Stat.sum (List.map (fun sp -> Hashtbl.find self_of sp.Span.id) reqs) in
    report ~n:(List.length reqs) "trace.coverage_weighted" "ratio" (Some (1. -. (uncovered /. total)))
  end;
  nreq

(* Set while the replay whose spans and counters are reported runs. *)
let reporting = ref false

(* Replay [budget] operations through the mirror over a copy of the
   starting store, four times: traced, untraced, untraced, traced.  The
   first replay gives the per-layer numbers; the overhead ratio compares
   the traced pair with the untraced pair, so a drift of the machine over
   the four replays cancels.  [drive] runs the workload's clients and
   returns the accounting. *)
let mirrored ~work ~src ~budget ~name drive =
  let one i traced =
    let dir = Filename.concat work (Printf.sprintf "mirror%d" i) in
    copy_store ~src ~dst:dir;
    Span.reset ();
    Stdlib.Gc.full_major ();
    Span.on := traced;
    reporting := i = 0;
    let t0 = now () in
    let acc = drive (Filename.concat dir "store.img") budget in
    let wall = now () -. t0 in
    Span.on := false;
    reporting := false;
    (dir, acc, wall, Span.all ())
  in
  let dir, acc, wall, spans = one 0 true in
  let _, acc1, plain1, _ = one 1 false in
  let _, acc2, plain2, _ = one 2 false in
  let _, acc3, traced2, _ = one 3 true in
  report ~n:acc.Load.attempted "trace.overhead_ratio" "ratio" (Some ((wall +. traced2) /. (plain1 +. plain2)));
  let nreq = span_metrics ~wall spans in
  store_probes (Filename.concat dir "store.img");
  Span.write_chrome name spans;
  Printf.printf "  trace: %d spans over %d requests written to %s\n" (List.length spans) nreq name;
  (Load.merge [ acc; acc1; acc2; acc3 ], spans)

(* The server side of the mirror: start, clients, then a crash and a
   restart of the store the clients left behind. *)
let mirror_server image budget clients =
  let srv = Mirror.start_server image in
  let objects_start = Store.size srv.store in
  let o = Store.obs srv.store in
  let c0 = Obs.count o Obs.Session_commit and j0 = Obs.count o Obs.Journal_append and s0 = Obs.count o Obs.Stabilise in
  let acc = Load.merge (clients srv budget) in
  if !reporting then begin
    report "pstore.objects_start" "count" (Some (float_of_int objects_start));
    report "pstore.objects_end" "count" (Some (float_of_int (Store.size srv.store)));
    let m = Hyperprog.Registry.memo_stats srv.vm in
    report ~n:(m.hits + m.misses) "hyperprog.link_memo_hit_ratio" "ratio"
      (if m.hits + m.misses > 0 then Some (float_of_int m.hits /. float_of_int (m.hits + m.misses)) else None);
    report ~n:srv.req "server.bytes_per_req" "B" (Some (float_of_int srv.frame_bytes /. float_of_int (max 1 srv.req)));
    let commits = Obs.count o Obs.Session_commit - c0 in
    if commits > 0 then begin
      report ~n:commits "pstore.journal_appends_per_commit" "count"
        (Some (float_of_int (Obs.count o Obs.Journal_append - j0) /. float_of_int commits));
      report ~n:commits "pstore.stabilises_per_commit" "count"
        (Some (float_of_int (Obs.count o Obs.Stabilise - s0) /. float_of_int commits))
    end
  end;
  Store.crash srv.store;
  ignore (Span.request ~req:(srv.req + 1) "proc.restart" (fun () -> Mirror.session_of image));
  acc

(* The seeded wire clients, taking turns: [budget] operations over [tr]. *)
let write_turns ~seed (tr : Load.transport) budget =
  let writers = Array.init 2 (Load.writer ~seed) in
  let links = Array.init 2 (fun _ -> tr.connect ()) in
  Load.run_clients ~threads:false ~clients:2 ~deadline:(now () +. 120.) ~budget (fun i acc ->
      Load.write_round writers.(i) links.(i) acc)

let read_turns ~seed cat (tr : Load.transport) budget =
  let links = Array.init Load.readers (fun _ -> tr.connect ()) in
  let rngs = Array.init Load.readers (fun i -> Gen.rng seed (200 + i)) in
  Load.run_clients ~threads:false ~clients:Load.readers ~deadline:(now () +. 120.) ~budget (fun i acc ->
      Load.read_step cat ~page:tr.page rngs.(i) links.(i) acc)

let trace_wire ~work ~src ~budget ~name turns =
  mirrored ~work ~src ~budget ~name (fun image budget ->
      mirror_server image budget (fun srv budget -> turns (Load.mirror srv) budget))

(* -- the mirror against the real program -------------------------------------------------- *)

(* The mirror is a copy of the request paths of lib/server/dispatch.ml
   and bin/hpjava.ml, so every traced run first checks it against them:
   the first operations of the seeded clients go, one at a time, to the
   real program and to the mirror, each over its own copy of the
   starting store, and every answer must be byte-identical.  A change to
   those paths that the mirror does not follow fails the run. *)
let mirror_check_ops = 200
let mirror_check_commands = 16

(* [tr] with every answer appended to [log] as bytes. *)
let recording (tr : Load.transport) log =
  let note what bytes = log := (what, bytes) :: !log in
  {
    Load.connect =
      (fun () ->
        let l = tr.connect () in
        {
          l with
          rpc =
            (fun req ->
              let r = l.rpc req in
              note (Protocol.describe_response r) (Protocol.encode_response r);
              r);
        });
    page =
      (fun uid ->
        let text = tr.page uid in
        note (Printf.sprintf "page %d" uid) text;
        text);
  }

let compare_answers what real mirror =
  let rec go i = function
    | (d, a) :: real, (d', b) :: mirror ->
      if a <> b then failwith (Printf.sprintf "mirror check (%s): answer %d differs: real %S, mirror %S" what i d d')
      else go (i + 1) (real, mirror)
    | [], [] -> i
    | _ -> failwith (Printf.sprintf "mirror check (%s): the real program gave %d answers, the mirror %d" what
                       (List.length real) (List.length mirror))
  in
  let n = go 0 (List.rev real, List.rev mirror) in
  Printf.printf "  mirror check: %d answers identical to the real program's\n%!" n

let check_mirror_wire ~work ~src turns =
  let copy name =
    let dir = Filename.concat work name in
    copy_store ~src ~dst:dir;
    dir
  in
  let real = ref [] and mirror = ref [] in
  let dir = copy "check-real" in
  let socket = Filename.concat dir "s.sock" in
  let p = serve ~store:(Filename.concat dir "store.img") ~socket in
  Fun.protect ~finally:(fun () -> stop p) (fun () ->
      ignore (turns (recording (Load.real (Load.new_wire_stats ()) socket) real) mirror_check_ops));
  let srv = Mirror.start_server (Filename.concat (copy "check-mirror") "store.img") in
  Fun.protect ~finally:(fun () -> Store.close srv.store) (fun () ->
      ignore (turns (recording (Load.mirror srv) mirror) mirror_check_ops));
  compare_answers "wire" !real !mirror

(* A real `hpjava serve` start on a copy of [src]: from spawn until the
   socket accepts a connection (median of three). *)
let server_start_ms ~work ~src =
  Stat.median
    (List.init 3 (fun i ->
         let dir = Filename.concat work (Printf.sprintf "start%d" i) in
         copy_store ~src ~dst:dir;
         let socket = Filename.concat dir "s.sock" in
         let t0 = now () in
         let p = Subproc.spawn ~bin:!hpjava [ "serve"; Filename.concat dir "store.img"; "--socket"; socket ] in
         live := p :: !live;
         let rec dial () =
           let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
           match Unix.connect fd (Unix.ADDR_UNIX socket) with
           | () -> Unix.close fd
           | exception Unix.Unix_error _ when now () -. t0 < 60. ->
             Unix.close fd;
             Unix.sleepf 0.0002;
             dial ()
         in
         dial ();
         let ms = (now () -. t0) *. 1e3 in
         stop p;
         Subproc.rm_rf dir;
         ms))

(* Run [f] with stdout sent to a file; returns its result and the text. *)
let capture f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let tmp = Filename.temp_file "mirror" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let r = try Ok (f ()) with e -> Error e in
  flush stdout;
  Unix.dup2 saved Unix.stdout;
  Unix.close saved;
  let out = Subproc.read_file tmp in
  Sys.remove tmp;
  (r, out)

(* The first commands of the seeded sequence, run by the real hpjava
   binary and by the mirror over their own copies of the starting store:
   each must print the same output. *)
let check_mirror_cli ~seed ~work ~src ~dir =
  let next = Load.cli_commands ~seed ~dir in
  let commands = List.init mirror_check_commands next in
  let image name =
    let d = Filename.concat work name in
    copy_store ~src ~dst:d;
    Filename.concat d "store.img"
  in
  let describe cmd out =
    let shown = if String.length out > 160 then String.sub out 0 160 ^ "..." else out in
    (String.concat " " (Mirror.argv ~store:"STORE" cmd) ^ ": " ^ shown, out)
  in
  let real =
    let store = image "check-real" in
    List.map
      (fun (cmd, _) ->
        let r = cli (Mirror.argv ~store cmd) in
        describe cmd (if Subproc.ok r then r.stdout else Subproc.describe r))
      commands
  in
  let mirror =
    let store = image "check-mirror" in
    List.mapi
      (fun i (cmd, _) ->
        match capture (fun () -> Mirror.command ~req:(i + 1) store cmd) with
        | Ok (st, _), out ->
          Store.close st;
          describe cmd out
        | Error e, _ -> describe cmd (Printexc.to_string e))
      commands
  in
  compare_answers "cli" (List.rev real) (List.rev mirror)

let trace_cli ~seed ~work ~src ~budget ~name ~dir =
  mirrored ~work ~src ~budget ~name (fun image budget ->
      let next = Load.cli_commands ~seed ~dir in
      let acc = Load.new_acc () in
      let hits = ref 0 and misses = ref 0 in
      let objects_start =
        let store = Store.open_file image in
        Fun.protect ~finally:(fun () -> Store.close store) (fun () -> Store.size store)
      in
      for step = 0 to budget - 1 do
        let cmd, expect = next step in
        acc.attempted <- acc.attempted + 1;
        let t0 = now () in
        match capture (fun () -> Mirror.command ~req:(step + 1) image cmd) with
        | Ok (store, vm), out ->
          acc.samples <- (Load.cli_class cmd, (now () -. t0) *. 1e3) :: acc.samples;
          Load.check_output acc cmd expect out;
          Option.iter
            (fun vm ->
              let s = Hyperprog.Compile_cache.stats vm in
              hits := !hits + s.hits;
              misses := !misses + s.misses)
            vm;
          Store.close store
        | Error e, _ -> Load.fail acc (Printexc.to_string e)
      done;
      let store, _ = Span.request ~req:(budget + 1) "proc.restart" (fun () -> Mirror.session_of image) in
      if !reporting then begin
        report "pstore.objects_start" "count" (Some (float_of_int objects_start));
        report "pstore.objects_end" "count" (Some (float_of_int (Store.size store)));
        report ~n:(!hits + !misses) "hyperprog.compile_cache_hit_ratio" "ratio"
          (if !hits + !misses > 0 then Some (float_of_int !hits /. float_of_int (!hits + !misses)) else None)
      end;
      Store.close store;
      acc)

(* -- output ----------------------------------------------------------------------- *)

let json_number v = Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed =
  let table = List.rev !metrics in
  List.iter
    (fun m ->
      Printf.printf "  %-36s %16s %-6s n=%d%s\n" m.name
        (match m.value with Some v -> Printf.sprintf "%.4f" v | None -> "missing")
        m.unit_ m.n
        (if m.note = "" then "" else "  (" ^ m.note ^ ")"))
    table;
  let fields =
    List.filter_map
      (fun m ->
        Option.map (fun v -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number v) m.unit_) m.value)
      table
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct attempted failed
    (String.concat ", " fields)

(* -- main ------------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "wire-write | wire-read | cli");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--hpjava", Arg.Set_string hpjava, "the hpjava binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hpbench --workload W --seed N --seconds S --trace 0|1 --hpjava PATH";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (List.mem !workload [ "wire-write"; "wire-read"; "cli" ]) then begin
    prerr_endline "hpbench: --workload must be wire-write, wire-read or cli";
    exit 2
  end;
  if not (Sys.file_exists !hpjava) then begin
    prerr_endline "hpbench: --hpjava must name the built hpjava binary";
    exit 2
  end;
  if Filename.is_relative !hpjava then hpjava := Filename.concat (Sys.getcwd ()) !hpjava;
  let traced = !trace = 1 in
  let root = "_perfbench" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o700;
  let work = Filename.concat root (Printf.sprintf "%s-%d-%d" !workload !seed (Unix.getpid ())) in
  Unix.mkdir work 0o700;
  let tmp = Filename.concat work "tmp" in
  Unix.mkdir tmp 0o700;
  Filename.set_temp_dir_name tmp;
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" !workload !seed !seconds !trace;
  let cleanup () =
    List.iter (fun p -> ignore (Subproc.terminate ~signal:Sys.sigkill ~timeout_s:10. p)) !live;
    live := [];
    Subproc.rm_rf work
  in
  let outcome =
    Fun.protect ~finally:cleanup @@ fun () ->
    let s = setup ~workload:!workload ~seed:!seed work in
    let pristine = Filename.concat work "pristine" in
    if traced then begin
      copy_store ~src:s.dir ~dst:pristine;
      match !workload with
      | "wire-write" -> check_mirror_wire ~work ~src:pristine (write_turns ~seed:!seed)
      | "wire-read" -> check_mirror_wire ~work ~src:pristine (read_turns ~seed:!seed (Option.get s.cat))
      | _ -> check_mirror_cli ~seed:!seed ~work ~src:pristine ~dir:s.dir
    end;
    let seconds = if traced then !seconds /. 2. else !seconds in
    let r =
      match !workload with
      | "wire-write" -> wire_write ~seed:!seed ~seconds ~trace:traced s
      | "wire-read" -> wire_read ~seed:!seed ~seconds s
      | _ -> cli_run ~seed:!seed ~seconds s
    in
    let mirror_acc =
      if not traced then Load.new_acc ()
      else begin
        let name = Filename.concat root (Printf.sprintf "trace-%s-%d.json" !workload !seed) in
        let budget = r.acc.attempted in
        let acc, spans =
          match !workload with
          | "wire-write" -> trace_wire ~work ~src:pristine ~budget ~name (write_turns ~seed:!seed)
          | "wire-read" -> trace_wire ~work ~src:pristine ~budget ~name (read_turns ~seed:!seed (Option.get s.cat))
          | _ -> trace_cli ~seed:!seed ~work ~src:pristine ~budget ~name ~dir:s.dir
        in
        (* Process start: the real wall time minus the in-process work. *)
        let requests = List.filter (fun sp -> sp.Span.parent = 0) spans in
        let span_ms name = List.filter_map (fun sp -> if sp.Span.name = name then Some (Span.duration sp *. 1e3) else None) requests in
        (match !workload with
        | "cli" ->
          report ~note:"CLI wall p50 - mirror request p50" "proc.start_ms" "ms"
            (Some (Stat.median (Load.all_latencies r.acc) -. Stat.median (span_ms "proc.request")))
        | _ ->
          report ~note:"server spawn-to-accept - mirror start" "proc.start_ms" "ms"
            (Some (server_start_ms ~work ~src:pristine -. Stat.median (span_ms "proc.serve_start")));
          let rtt = List.filter_map (fun (c, ms) -> if c = "page" then None else Some ms) r.acc.samples in
          let wire = List.filter_map (fun sp -> if sp.Span.name = "server.request" then Some (Span.duration sp *. 1e3) else None) spans in
          report ~n:(List.length rtt) "server.overhead_p50_ms" "ms" (Some (Stat.median rtt -. Stat.median wire));
          p50 "server.connect_ms" r.ws.connect_ms);
        acc
      end
    in
    let attempted = r.acc.attempted + r.extra.attempted + mirror_acc.attempted in
    let failed = r.acc.failed + r.extra.failed + mirror_acc.failed in
    List.iter (fun e -> Printf.printf "  failure: %s\n" e) (r.acc.errors @ r.extra.errors @ mirror_acc.errors);
    if r.lost > 0 then Printf.printf "  lost commits: %d\n" r.lost;
    (failed = 0 && r.lost = 0, attempted, failed)
  in
  let correct, attempted, failed = outcome in
  print_result ~correct ~attempted ~failed
