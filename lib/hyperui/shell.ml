(* An interactive (and pipe-scriptable) shell over the hyper-programming
   session: the terminal stand-in for the paper's Figure 12 user
   interface.  Commands mirror the UI's gestures: type text, insert links
   (using the .hp link-spec syntax), press buttons, browse, Compile /
   Display Class / Go. *)

(* The UI session (editors, browser panels) — bound before [open Pstore]
   so it keeps the short name; the store's MVCC session is
   [Store.Session]. *)
module Ui_session = Session

open Pstore
open Hyperprog
module Session = Ui_session

let help_text =
  {|commands:
  edit [CLASS]             open a new editor (optionally naming the principal class)
  type TEXT                insert TEXT at the cursor (use \n for newlines)
  link SPEC                insert a hyper-link at the cursor (.hp spec, e.g. `link root x`,
                           `link method Person.marry`, `link int 42`)
  cursor LINE COL          move the cursor (0-based)
  show                     render the front editor
  press LINE COL           press the link button at a position (opens a browser panel)
  browse [root NAME|@OID|class NAME]   open a browser panel (default: the roots panel)
  panels                   render the browser panels
  row N [value|loc]        insert a link to row N of the front panel into the editor
  open N                   open row N of the front panel in a new panel
  compile                  compile the front editor's hyper-program
  display-class            compile and browse the principal class
  go [ARGS...]             compile and run the principal class's main
  save NAME                save the hyper-program under a persistent root
  edit-class CLASS         open the hyper-program a class was compiled from
  load NAME                load a hyper-program from a persistent root
  session [open|use N|status]  open / switch to / list snapshot-isolated store sessions
  commit                   publish the active session's buffered writes (first committer wins)
  abort                    discard the active session's buffered writes
  bind NAME N              set root NAME to int N (through the active session, if any)
  roots | census | gc | stabilise
  scrub [BUDGET]           run one scrubber step: verify object checksums and references
  health                   store health: shard states, scrub progress, quarantine, retries
  repair [N|all]           repair a degraded/offline shard (default: every unhealthy one)
  stats                    operation counters (and latencies while tracing is on)
  cache [on|off]           compile-cache and getLink-memo statistics / toggle both
  trace on|off|dump        toggle span tracing / dump the in-memory trace ring
  log                      show the session event log
  help | quit
|}

let split_args line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else if i + 1 < n && s.[i] = '\\' && s.[i + 1] = 'n' then begin
      Buffer.add_char buf '\n';
      go (i + 2)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let say fmt = Printf.printf fmt

(* The store-level operator commands, shared between the full shell and
   maintenance mode (when a demoted shard blocks the VM boot, the
   operator still needs health / repair / stats to get out of it). *)

(* Render one banner line for an open store session: `stats` and
   `health` must make clear that object counts are the session's
   snapshot view, never its dirty buffer. *)
let session_banner = function
  | Some s ->
    let n = Store.Session.buffered_ops s in
    say "session %d (epoch %d): %d buffered op%s uncommitted; counts reflect the snapshot\n"
      (Store.Session.id s)
      (Store.Session.snapshot_epoch s)
      n
      (if n = 1 then "" else "s")
  | None -> ()

let cmd_health ?session store =
  let stats =
    match session with
    | Some s -> Store.Session.stats s
    | None -> Store.stats store
  in
  session_banner session;
  say "live objects: %d\n" stats.Store.live;
  say "scrub: %s\n" (Format.asprintf "%a" Scrub.pp_progress (Store.scrub_progress store));
  say "quarantined: %d\n" stats.Store.quarantined;
  List.iter
    (fun (oid, reason) -> say "  @%d: %s\n" (Oid.to_int oid) reason)
    (Store.quarantined store);
  if Store.shards store > 1 then begin
    List.iter
      (fun (info : Store.shard_info) ->
        say "shard %d (%s): %d objects, %d quarantined, %d journal bytes, %d pending, %d \
             remembered\n"
          info.Store.shard info.Store.state info.Store.objects info.Store.quarantined
          info.Store.journal_bytes info.Store.pending_ops info.Store.remembered)
      (Store.shard_info store);
    say "unhealthy shards: %d\n" stats.Store.unhealthy_shards;
    List.iter
      (fun (h : Store.shard_health) ->
        if
          (match h.Store.h_state with Health.Healthy -> false | _ -> true)
          || h.Store.h_failures > 0 || h.Store.h_trips > 0
          || h.Store.h_degraded_reads > 0 || h.Store.h_refused_writes > 0
          || h.Store.h_repairs > 0
        then
          say "shard %d health: %s; %d consecutive failures, %d trips, %d degraded \
               reads, %d refused writes, %d repairs\n"
            h.Store.h_shard
            (Health.describe h.Store.h_state)
            h.Store.h_failures h.Store.h_trips h.Store.h_degraded_reads
            h.Store.h_refused_writes h.Store.h_repairs)
      (Store.health store)
  end;
  say "degraded ops: %d\n" (Obs.count (Store.obs store) Obs.Degraded_op);
  say "io retries absorbed by this store: %d\n" stats.Store.io_retries;
  let rs = Retry.stats () in
  say "retry totals: %d attempts, %d retried, %d absorbed, %d exhausted\n" rs.Retry.attempts
    rs.Retry.retries rs.Retry.absorbed rs.Retry.exhausted;
  List.iter (fun (label, n) -> say "  %s: %d\n" label n) (Retry.counters ())

let cmd_repair store rest =
  let render (r : Store.repair_report) =
    say "shard %d repaired (%s): %d objects restored, %d journal ops replayed, %d \
         references lost, %.1f ms\n"
      r.Store.r_shard
      (Health.state_name r.Store.r_was)
      r.Store.r_restored r.Store.r_replayed r.Store.r_lost r.Store.r_ms
  in
  let repair_all () =
    match Store.repair_all store with
    | [] -> say "all shards healthy; nothing to repair\n"
    | reports -> List.iter render reports
  in
  try
    match rest with
    | [] | "all" :: _ -> repair_all ()
    | n :: _ -> begin
      match int_of_string_opt n with
      | None -> say "usage: repair [N|all]\n"
      | Some k -> begin
        match Store.repair store k with
        | Some r -> render r
        | None -> say "shard %d is healthy; nothing to repair\n" k
      end
    end
  with
  | Invalid_argument e -> say "repair: %s\n" e
  | e ->
    (* the durable rewrite can re-fail; the shard stays demoted and
       the shell stays up so the operator can retry *)
    say "repair failed: %s\n" (Printexc.to_string e)

let cmd_stats ?session store =
  let obs = Store.obs store in
  say "operations: %d (tracing %s)\n" (Obs.total obs)
    (if Obs.enabled obs then "on" else "off");
  let st =
    match session with
    | Some s -> Store.Session.stats s
    | None -> Store.stats store
  in
  session_banner session;
  say "live objects: %d\n" st.Store.live;
  if st.Store.unhealthy_shards > 0 then
    say "unhealthy shards: %d (see `health`)\n" st.Store.unhealthy_shards;
  List.iter
    (fun (op, n) ->
      match Obs.latency obs op with
      | Some l ->
        say "  %-14s %8d   p50 %.0fns  p99 %.0fns  max %.0fns\n" (Obs.op_name op) n
          l.Obs.p50_ns l.Obs.p99_ns l.Obs.max_ns
      | None -> say "  %-14s %8d\n" (Obs.op_name op) n)
    (Obs.counts obs)

(* Maintenance mode: the session VM boots by writing to the store (class
   blobs, registry state), which a demoted shard refuses — so when boot
   itself is refused, drop to a store-only loop until the operator
   repairs or quits.  Returns [true] once the store is healthy again. *)
let maintenance ~input store =
  let quit = ref false in
  let interactive = Unix.isatty (Unix.descr_of_in_channel input) in
  while not (!quit || Store.healthy store) do
    if interactive then begin
      print_string "hp(maintenance)> ";
      flush stdout
    end;
    match input_line input with
    | exception End_of_file -> quit := true
    | line -> begin
      match split_args line with
      | [] -> ()
      | ("quit" | "exit") :: _ -> quit := true
      | "health" :: _ -> cmd_health store
      | "repair" :: rest -> cmd_repair store rest
      | "stats" :: _ -> cmd_stats store
      | cmd :: _ ->
        say "maintenance mode: %s unavailable (commands: health, repair [N|all], stats, \
             quit)\n"
          cmd
    end
  done;
  (not !quit) && Store.healthy store

let run_session ~input ~echo store session =
  let vm = Session.vm session in
  let b = Session.browser session in
  let with_editor f =
    match Session.front_editor session with
    | Some ed -> f ed
    | None -> say "no editor open (use `edit`)\n"
  in
  (* The open MVCC store sessions, oldest first, plus the one root
     reads/writes and the stats/health views currently route through —
     so the operator sees snapshot isolation from the command line, and
     two sessions in one shell can race to commit. *)
  let sessions : Store.Session.t list ref = ref [] in
  let active : Store.Session.t option ref = ref None in
  let prune () = sessions := List.filter Store.Session.is_open !sessions in
  let active_session () =
    prune ();
    match !active with
    | Some s when Store.Session.is_open s -> Some s
    | Some _ | None ->
      active := None;
      None
  in
  (* Root reads and writes go through the active session, or straight
     to the live store when none is open (direct mode). *)
  let root name =
    match active_session () with
    | Some s -> Store.Session.root s name
    | None -> Store.root store name
  in
  let set_root name v =
    match active_session () with
    | Some s -> Store.Session.set_root s name v
    | None -> Store.set_root store name v
  in
  let root_names () =
    match active_session () with
    | Some s -> Store.Session.root_names s
    | None -> Store.root_names store
  in
  let quit = ref false in
  let handle line =
    match split_args line with
    | [] -> ()
    | "help" :: _ -> print_string help_text
    | ("quit" | "exit") :: _ -> quit := true
    | "edit" :: rest ->
      let class_name = match rest with name :: _ -> name | [] -> "" in
      let id, _ = Session.new_editor ~class_name session in
      say "editor %d open\n" id
    | "type" :: _ ->
      let text = String.sub line 5 (String.length line - 5) in
      with_editor (fun ed -> Editor.User_editor.type_text ed (unescape text))
    | "link" :: _ ->
      let spec = String.trim (String.sub line 4 (String.length line - 4)) in
      with_editor (fun ed ->
          match Hyper_source.parse_link vm spec with
          | link -> begin
            match Editor.User_editor.insert_link ed link with
            | Ok () -> say "inserted %s\n" (Format.asprintf "%a" Hyperlink.pp link)
            | Error e -> say "refused: %s\n" e
          end
          | exception Hyper_source.Format_error e -> say "bad link spec: %s\n" e)
    | [ "cursor"; l; c ] ->
      with_editor (fun ed ->
          Editor.User_editor.move_cursor ed
            { Editor.Basic_editor.line = int_of_string l; col = int_of_string c })
    | "show" :: _ -> with_editor (fun ed -> print_string (Editor.User_editor.render ed))
    | [ "press"; l; c ] -> begin
      match
        Session.press_link_button session
          { Editor.Basic_editor.line = int_of_string l; col = int_of_string c }
      with
      | Ok panel -> say "opened %s\n" (Browser.Ocb.entity_title b panel.Browser.Ocb.entity)
      | Error e -> say "press failed: %s\n" e
    end
    | [ "browse" ] -> ignore (Browser.Ocb.open_roots b)
    | [ "browse"; "root"; name ] -> begin
      match root name with
      | Some (Pvalue.Ref oid) -> ignore (Browser.Ocb.open_object b oid)
      | Some v -> say "%s = %s\n" name (Pvalue.to_string v)
      | None -> say "no root %s\n" name
    end
    | [ "browse"; "class"; name ] -> ignore (Browser.Ocb.open_class b name)
    | [ "browse"; target ] when String.length target > 1 && target.[0] = '@' ->
      ignore
        (Browser.Ocb.open_object b
           (Oid.of_int (int_of_string (String.sub target 1 (String.length target - 1)))))
    | "panels" :: _ -> print_string (Browser.Render.browser b)
    | "row" :: n :: rest -> begin
      let half =
        match rest with
        | "loc" :: _ -> Session.Location_half
        | _ -> Session.Value_half
      in
      match Session.insert_link_from_row session ~half ~row:(int_of_string n) with
      | Ok link -> say "inserted %s\n" (Format.asprintf "%a" Hyperlink.pp link)
      | Error e -> say "failed: %s\n" e
    end
    | [ "open"; n ] -> begin
      match Browser.Ocb.front b with
      | Some panel -> begin
        match Browser.Ocb.open_row b panel (int_of_string n) with
        | Some p -> say "opened %s\n" (Browser.Ocb.entity_title b p.Browser.Ocb.entity)
        | None -> say "row cannot be opened\n"
      end
      | None -> say "no panel open\n"
    end
    | "compile" :: _ -> begin
      match Session.compile session with
      | Editor.User_editor.Compiled classes -> say "compiled %s\n" (String.concat ", " classes)
      | Editor.User_editor.Compile_failed msg -> say "error: %s\n" msg
    end
    | "display-class" :: _ -> begin
      match Session.display_class session with
      | Ok panel -> say "displaying %s\n" (Browser.Ocb.entity_title b panel.Browser.Ocb.entity)
      | Error e -> say "error: %s\n" e
    end
    | "go" :: argv -> begin
      match Session.go ~argv session with
      | Ok principal ->
        if not echo then print_string (Session.output session);
        say "ran %s.main\n" principal
      | Error e -> say "error: %s\n" e
    end
    | [ "save"; name ] ->
      with_editor (fun ed ->
          let hp = Editor.User_editor.save ed in
          set_root name (Pvalue.Ref hp);
          say "saved as root %s\n" name)
    | "session" :: rest -> begin
      match rest with
      | "open" :: _ ->
        let s = Store.open_session store in
        sessions := !sessions @ [ s ];
        active := Some s;
        say "session %d open (epoch %d)\n" (Store.Session.id s)
          (Store.Session.snapshot_epoch s)
      | [ "use"; n ] -> begin
        prune ();
        match int_of_string_opt n with
        | None -> say "usage: session use N (N a session id)\n"
        | Some id -> begin
          match List.find_opt (fun s -> Store.Session.id s = id) !sessions with
          | Some s ->
            active := Some s;
            say "session %d active (epoch %d): %d buffered op%s\n" id
              (Store.Session.snapshot_epoch s)
              (Store.Session.buffered_ops s)
              (if Store.Session.buffered_ops s = 1 then "" else "s")
          | None -> say "no open session %d\n" id
        end
      end
      | [] | "status" :: _ -> begin
        prune ();
        match !sessions with
        | [] -> say "no session open (direct mode); `session open` starts one\n"
        | open_sessions ->
          let act = active_session () in
          List.iter
            (fun s ->
              let n = Store.Session.buffered_ops s in
              say "session %d open (epoch %d): %d buffered op%s%s\n" (Store.Session.id s)
                (Store.Session.snapshot_epoch s)
                n
                (if n = 1 then "" else "s")
                (match act with Some a when a == s -> " [active]" | _ -> ""))
            open_sessions
      end
      | _ -> say "usage: session [open|use N|status]\n"
    end
    | "commit" :: _ -> begin
      match active_session () with
      | None -> say "no session open; direct-mode writes commit immediately\n"
      | Some s -> begin
        let id = Store.Session.id s in
        let n = Store.Session.buffered_ops s in
        let t0 = Unix.gettimeofday () in
        match Store.Session.commit s with
        | () ->
          active := None;
          say "committed session %d: %d op%s in %.0f us\n" id n
            (if n = 1 then "" else "s")
            ((Unix.gettimeofday () -. t0) *. 1e6)
        | exception Failure.Commit_conflict { session = sid; oids; keys } ->
          active := None;
          say "commit conflict: session %d lost (first committer wins); clashes: %s\n" sid
            (String.concat ", "
               (List.map (fun o -> "@" ^ string_of_int (Oid.to_int o)) oids @ keys))
      end
    end
    | "abort" :: _ -> begin
      match active_session () with
      | None -> say "no session open\n"
      | Some s ->
        let n = Store.Session.buffered_ops s in
        Store.Session.abort s;
        active := None;
        say "aborted session %d: %d buffered op%s discarded\n" (Store.Session.id s) n
          (if n = 1 then "" else "s")
    end
    | [ "bind"; name; value ] -> begin
      match int_of_string_opt value with
      | None -> say "usage: bind NAME N (N an integer)\n"
      | Some n ->
        set_root name (Pvalue.Int (Int32.of_int n));
        say "%s = %d%s\n" name n
          (match active_session () with
          | Some s -> Printf.sprintf " (buffered in session %d)" (Store.Session.id s)
          | None -> "")
    end
    | [ "edit-class"; cls ] -> begin
      match Session.edit_class session cls with
      | Ok (id, _) -> say "opened hyper-program of %s in editor %d\n" cls id
      | Error e -> say "%s\n" e
    end
    | [ "load"; name ] -> begin
      match root name with
      | Some (Pvalue.Ref hp) when Storage_form.is_hyper_program vm hp ->
        let id, ed = Session.new_editor session in
        Editor.User_editor.load ed hp;
        say "loaded into editor %d\n" id
      | _ -> say "root %s does not hold a hyper-program\n" name
    end
    | "roots" :: _ ->
      List.iter
        (fun name ->
          let v = Option.value (root name) ~default:Pvalue.Null in
          say "%-24s %s\n" name (Pvalue.to_string v))
        (root_names ())
    | "census" :: _ -> print_string (Browser.Render.census store)
    | "gc" :: _ ->
      let stats = Store.gc store in
      say "%s\n" (Format.asprintf "%a" Gc.pp_stats stats);
      (* Keep the registry consistent with what the GC reclaimed. *)
      let pruned = Registry.prune vm in
      if pruned.Registry.cleared_slots > 0 || pruned.Registry.removed_origins > 0 then
        say "registry pruned: %d dead slots, %d stale origin records\n"
          pruned.Registry.cleared_slots pruned.Registry.removed_origins
    | "scrub" :: rest -> begin
      match (match rest with b :: _ -> int_of_string_opt b | [] -> Some Store.default_scrub_budget) with
      | None -> say "scrub: bad budget\n"
      | Some budget ->
        let report = Store.scrub ~budget store in
        say "scanned %d object%s: %d verified, %d primed%s\n" report.Scrub.scanned
          (if report.Scrub.scanned = 1 then "" else "s")
          report.Scrub.verified report.Scrub.primed
          (if report.Scrub.pass_complete then " (pass complete)" else "");
        List.iter
          (fun (oid, reason) -> say "quarantined @%d: %s\n" (Oid.to_int oid) reason)
          report.Scrub.newly_quarantined
    end
    | "health" :: _ -> cmd_health ?session:(active_session ()) store
    | "repair" :: rest -> cmd_repair store rest
    | "stats" :: _ -> cmd_stats ?session:(active_session ()) store
    | "cache" :: rest -> begin
      match rest with
      | [] ->
        let cc = Compile_cache.stats vm in
        let lm = Registry.memo_stats vm in
        say "compile cache (%s): %d hits, %d misses, %d/%d entries resident\n"
          (if Compile_cache.enabled vm then "on" else "off")
          cc.Compile_cache.hits cc.Compile_cache.misses cc.Compile_cache.entries
          cc.Compile_cache.capacity;
        say "getLink memo   (%s): %d hits, %d misses, %d/%d entries\n"
          (if Registry.memo_enabled vm then "on" else "off")
          lm.Registry.hits lm.Registry.misses lm.Registry.entries lm.Registry.capacity
      | "on" :: _ ->
        Compile_cache.set_enabled vm true;
        Registry.set_memo_enabled vm true;
        say "caches on\n"
      | "off" :: _ ->
        Compile_cache.set_enabled vm false;
        Registry.set_memo_enabled vm false;
        say "caches off\n"
      | _ -> say "usage: cache [on|off]\n"
    end
    | [ "trace"; "on" ] ->
      Obs.set_enabled (Store.obs store) true;
      say "tracing on\n"
    | [ "trace"; "off" ] ->
      Obs.set_enabled (Store.obs store) false;
      say "tracing off\n"
    | [ "trace"; "dump" ] -> begin
      let obs = Store.obs store in
      match Obs.events obs with
      | [] ->
        say "trace ring empty%s\n"
          (if Obs.enabled obs then "" else " (tracing is off; `trace on` first)")
      | events ->
        List.iter (fun e -> say "%s\n" (Format.asprintf "%a" Obs.pp_event e)) events
    end
    | "trace" :: _ -> say "usage: trace on|off|dump\n"
    | "stabilise" :: _ | "stabilize" :: _ ->
      Store.stabilise store;
      say "stabilised (%d objects)\n" (Store.size store)
    | "log" :: _ -> List.iter print_endline (Session.events session)
    | cmd :: _ -> say "unknown command %s (try `help`)\n" cmd
  in
  let interactive = Unix.isatty (Unix.descr_of_in_channel input) in
  (try
     while not !quit do
       if interactive then begin
         print_string "hp> ";
         flush stdout
       end;
       match input_line input with
       | line -> (
         (* A demoted shard refuses writes with a typed failure; the
            shell must survive it, or the operator can never reach
            `repair`. *)
         try handle line with
         | Failure.Shard_degraded { shard; state; _ } ->
           say "refused: shard %d is %s (run `repair %d` or `repair all`)\n"
             shard state shard
         | Invalid_argument msg ->
           (* e.g. gc / mark_dirty refused while a snapshot session is
              open — operator guidance, not a shell crash *)
           say "refused: %s\n" msg)
       | exception End_of_file -> quit := true
     done
   with e ->
     Printf.eprintf "shell error: %s\n" (Printexc.to_string e));
  try Store.stabilise store
  with Failure.Shard_degraded { shard; state; _ } ->
    Printf.eprintf
      "warning: shard %d is %s; its unpersisted changes await `repair` (other \
       shards are safe)\n"
      shard state

let run ~store_path ~input ~echo =
  let store =
    if Sys.file_exists store_path then Store.open_file store_path
    else begin
      let s = Store.create () in
      Store.configure s { (Store.config s) with Store.Config.backing = Some store_path };
      s
    end
  in
  (* The interactive shell absorbs transient I/O hiccups with bounded
     retries; the `health` command surfaces the counters.  Configured
     through the unified record so every other tunable is kept as-is. *)
  Store.configure store
    { (Store.config store) with Store.Config.retry = Some Retry.default_policy };
  match Session.create ~echo store with
  | session -> run_session ~input ~echo store session
  | exception Failure.Shard_degraded { shard; state; _ } ->
    (* Booting the VM writes to the store, and a demoted shard refused
       it.  The operator gets a store-only loop to repair from; once the
       store is whole again, boot for real and carry on. *)
    say "shard %d is %s: the session VM cannot boot while a shard refuses writes\n"
      shard state;
    say "entering maintenance mode — `repair all` restores service, `quit` leaves\n";
    if maintenance ~input store then begin
      say "store healthy again; booting the session\n";
      run_session ~input ~echo store (Session.create ~echo store)
    end
