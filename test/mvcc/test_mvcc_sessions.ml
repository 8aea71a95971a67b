(* Directed coverage of the handle-based MVCC session surface:
   snapshot stability, read-your-writes, first-committer-wins conflicts
   (typed, with clashing oids/keys), abort hygiene (no journal residue),
   conflict-retry, commit durability through the group-commit journal,
   and the session-gated whole-store operations. *)

open Pstore
open Mvcc_util

let sp = Printf.sprintf

let ival n = Pvalue.Int (Int32.of_int n)

let int_of = function
  | Pvalue.Int v -> Int32.to_int v
  | v -> Alcotest.failf "expected an int, got %s" (Pvalue.to_string v)

let session_fingerprint s = Image.encode (Store.Session.snapshot_contents s)

(* -- snapshot stability --------------------------------------------------- *)

let snapshot_reads_are_byte_stable () =
  let store = Store.create () in
  let a = Store.alloc_record store "A" [| ival 1; ival 2 |] in
  Store.set_root store "a" (Pvalue.Ref a);
  Store.set_root store "n" (ival 10);
  Store.set_blob store "b" "before";
  let s = Store.open_session store in
  let fp0 = session_fingerprint s in
  let field0 = Store.Session.field s a 0 in
  (* another writer (the default session) moves the shared store on:
     overwrites, fresh allocations, root and blob churn *)
  Store.set_field store a 0 (ival 99);
  Store.set_root store "n" (ival 11);
  Store.set_root store "fresh" (ival 12);
  Store.set_blob store "b" "after";
  ignore (Store.alloc_string store "noise");
  (* ... and a second session commits on top of that *)
  let w = Store.open_session store in
  Store.Session.set_root w "n" (ival 13);
  Store.Session.commit w;
  (* the pinned view is unmoved, byte for byte *)
  check_output "snapshot fingerprint is byte-stable" fp0 (session_fingerprint s);
  check_bool "field read is stable" true (Store.Session.field s a 0 = field0);
  check_int "root read is stable" 10 (int_of (Option.get (Store.Session.root s "n")));
  check_bool "root created after open is invisible" true
    (Store.Session.root s "fresh" = None);
  check_output "blob read is stable" "before" (Option.get (Store.Session.blob s "b"));
  (* while the live store sees everything *)
  check_int "live store moved on" 13 (int_of (Option.get (Store.root store "n")));
  Store.Session.abort s;
  (* MVCC bookkeeping is torn down with the last session *)
  check_int "no sessions left" 0 (Store.open_session_count store)

let read_your_writes () =
  let store = Store.create () in
  let a = Store.alloc_record store "A" [| ival 1 |] in
  Store.set_root store "a" (Pvalue.Ref a);
  let s = Store.open_session store in
  Store.Session.set_field s a 0 (ival 42);
  Store.Session.set_root s "mine" (ival 7);
  let oid = Store.Session.alloc_record s "B" [| ival 5 |] in
  check_int "own field write visible" 42 (int_of (Store.Session.field s a 0));
  check_int "own root write visible" 7 (int_of (Option.get (Store.Session.root s "mine")));
  check_int "own allocation readable" 5 (int_of (Store.Session.field s oid 0));
  check_bool "own allocation is live in-session" true (Store.Session.is_live s oid);
  (* none of it visible outside before commit *)
  check_int "field invisible outside" 1 (int_of (Store.field store a 0));
  check_bool "root invisible outside" true (Store.root store "mine" = None);
  check_bool "allocation invisible outside" false (Store.is_live store oid);
  Store.Session.commit s;
  check_int "field visible after commit" 42 (int_of (Store.field store a 0));
  check_int "root visible after commit" 7 (int_of (Option.get (Store.root store "mine")));
  check_int "allocation visible after commit" 5 (int_of (Store.field store oid 0))

(* -- conflicts ------------------------------------------------------------ *)

let first_committer_wins_on_oids () =
  let store = Store.create () in
  let a = Store.alloc_record store "A" [| ival 0 |] in
  Store.set_root store "a" (Pvalue.Ref a);
  let s1 = Store.open_session store in
  let s2 = Store.open_session store in
  Store.Session.set_field s1 a 0 (ival 1);
  Store.Session.set_field s2 a 0 (ival 2);
  Store.Session.commit s1;
  (match Store.Session.commit s2 with
  | () -> Alcotest.fail "second committer must lose"
  | exception Failure.Commit_conflict { session; oids; keys } ->
    check_int "loser is session 2" (Store.Session.id s2) session;
    check_bool "clash names the contested oid" true (oids = [ a ]);
    check_bool "no key clash" true (keys = []));
  check_int "first committer's write survives" 1 (int_of (Store.field store a 0));
  check_bool "loser is aborted" true (Store.Session.state s2 = `Aborted);
  check_int "conflict counted" 1 (Obs.count (Store.obs store) Obs.Conflict);
  check_int "one session commit counted" 1
    (Obs.count (Store.obs store) Obs.Session_commit)

let conflicts_with_direct_writer () =
  let store = Store.create () in
  Store.set_root store "k" (ival 0);
  let s = Store.open_session store in
  Store.Session.set_root s "k" (ival 1);
  (* a direct (default-session) write to the same key after the snapshot
     was pinned also makes the session lose *)
  Store.set_root store "k" (ival 9);
  (match Store.Session.commit s with
  | () -> Alcotest.fail "session must lose to the direct writer"
  | exception Failure.Commit_conflict { oids; keys; _ } ->
    check_bool "clash names the contested key" true (keys = [ "k" ]);
    check_bool "no oid clash" true (oids = []));
  check_int "direct write survives" 9 (int_of (Option.get (Store.root store "k")))

let disjoint_sessions_both_commit () =
  let store = Store.create () in
  let a = Store.alloc_record store "A" [| ival 0 |] in
  let b = Store.alloc_record store "B" [| ival 0 |] in
  let s1 = Store.open_session store in
  let s2 = Store.open_session store in
  Store.Session.set_field s1 a 0 (ival 1);
  Store.Session.set_root s1 "r1" (ival 1);
  Store.Session.set_field s2 b 0 (ival 2);
  Store.Session.set_root s2 "r2" (ival 2);
  Store.Session.commit s1;
  Store.Session.commit s2;
  check_int "s1's field landed" 1 (int_of (Store.field store a 0));
  check_int "s2's field landed" 2 (int_of (Store.field store b 0));
  check_int "no conflicts" 0 (Obs.count (Store.obs store) Obs.Conflict)

let conflict_retry_succeeds () =
  let store = Store.create () in
  Store.set_root store "n" (ival 0);
  let s1 = Store.open_session store in
  let s2 = Store.open_session store in
  (* both increment the same counter root *)
  let incr_in s =
    Store.Session.set_root s "n" (ival (int_of (Option.get (Store.Session.root s "n")) + 1))
  in
  incr_in s1;
  incr_in s2;
  Store.Session.commit s1;
  (match Store.Session.commit s2 with
  | () -> Alcotest.fail "stale increment must conflict"
  | exception Failure.Commit_conflict _ ->
    (* the canonical retry: a fresh session over the new state *)
    let s3 = Store.open_session store in
    incr_in s3;
    Store.Session.commit s3);
  check_int "both increments landed" 2 (int_of (Option.get (Store.root store "n")))

(* -- abort hygiene -------------------------------------------------------- *)

let abort_leaves_no_journal_residue () =
  with_store_file @@ fun path ->
  let store = Store.create () in
  Store.configure store
    {
      (Store.config store) with
      Store.Config.backing = Some path;
    };
  let a = Store.alloc_record store "A" [| ival 1 |] in
  Store.set_root store "a" (Pvalue.Ref a);
  Store.stabilise store;
  let depth = (Store.stats store).Store.journal_depth in
  let pending = (Store.stats store).Store.pending_ops in
  let live = (Store.stats store).Store.live in
  let s = Store.open_session store in
  Store.Session.set_field s a 0 (ival 99);
  Store.Session.set_root s "junk" (ival 1);
  let reserved = Store.Session.alloc_string s "junk" in
  Store.Session.abort s;
  check_int "field write never landed" 1 (int_of (Store.field store a 0));
  check_bool "root write never landed" true (Store.root store "junk" = None);
  check_bool "buffered allocation never landed" false (Store.is_live store reserved);
  check_int "live count unchanged" live (Store.stats store).Store.live;
  check_int "journal depth unchanged" depth (Store.stats store).Store.journal_depth;
  check_int "no pending ops from the abort" pending (Store.stats store).Store.pending_ops;
  (* the reserved oid is simply never used — the allocator is monotone,
     so no later allocation can collide with the aborted one *)
  let later = Store.alloc_string store "later" in
  check_bool "reserved oids are not reused" true (later <> reserved);
  Store.stabilise store;
  let fp = fingerprint store in
  Store.close store;
  let reopened = Store.open_file path in
  check_output "reopened state never saw the aborted writes" fp (fingerprint reopened);
  check_int "reopened field is the pre-session value" 1 (int_of (Store.field reopened a 0));
  check_bool "reopened store has no junk root" true (Store.root reopened "junk" = None);
  Store.close reopened

let committed_session_survives_reopen () =
  with_store_file @@ fun path ->
  let store = Store.create () in
  Store.configure store
    {
      (Store.config store) with
      Store.Config.backing = Some path;
    };
  let a = Store.alloc_record store "A" [| ival 1 |] in
  Store.set_root store "a" (Pvalue.Ref a);
  Store.stabilise store;
  let s = Store.open_session store in
  Store.Session.set_field s a 0 (ival 5);
  let fresh = Store.Session.alloc_record s "B" [| ival 6 |] in
  Store.Session.set_root s "b" (Pvalue.Ref fresh);
  (* commit pays the barrier itself on a journalled backed store *)
  Store.Session.commit s;
  let fp = fingerprint store in
  Store.close store;
  let reopened = Store.open_file path in
  check_output "committed session replays through the journal" fp (fingerprint reopened);
  check_int "field survived" 5 (int_of (Store.field reopened a 0));
  check_int "allocation survived" 6 (int_of (Store.field reopened fresh 0));
  Store.close reopened

(* -- commit validation keeps the session alive ---------------------------- *)

let refused_commit_can_be_retried () =
  let store = Store.create () in
  let a = Store.alloc_record store "A" [| ival 0 |] in
  Store.set_root store "a" (Pvalue.Ref a);
  let s = Store.open_session store in
  Store.Session.set_field s a 0 (ival 1);
  (* quarantining the target after buffering makes validation refuse the
     commit — before anything is published *)
  Store.quarantine_oid store a "induced";
  (match Store.Session.commit s with
  | () -> Alcotest.fail "commit into quarantine must be refused"
  | exception Quarantine.Quarantined _ -> ());
  check_bool "refused commit leaves the session live" true (Store.Session.is_open s);
  (* raw heap read: the store read path would (rightly) refuse the
     quarantined target *)
  check_int "nothing was published" 0 (int_of (Heap.field (Store.heap store) a 0));
  (* repair, then the SAME session commits *)
  Store.clear_quarantine store a;
  Store.Session.commit s;
  check_int "retried commit landed" 1 (int_of (Store.field store a 0))

(* -- session-gated whole-store operations --------------------------------- *)

let gc_rollback_mark_dirty_are_gated () =
  let store = Store.create () in
  let s = Store.open_session store in
  let refuses f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "gc refuses" true (refuses (fun () -> Store.gc store));
  check_bool "with_rollback refuses" true
    (refuses (fun () -> Store.with_rollback store (fun () -> ())));
  check_bool "mark_dirty refuses" true (refuses (fun () -> Store.mark_dirty store));
  Store.Session.abort s;
  ignore (Store.gc store);
  Store.mark_dirty store;
  check_bool "all allowed again after the last session closes" true
    (Store.with_rollback store (fun () -> true) = Ok true)

let closed_sessions_refuse_use () =
  let store = Store.create () in
  let s = Store.open_session store in
  Store.Session.commit s;
  (match Store.Session.root s "x" with
  | _ -> Alcotest.fail "a committed session must refuse reads"
  | exception Invalid_argument _ -> ());
  (match Store.Session.commit s with
  | () -> Alcotest.fail "double commit must be refused"
  | exception Invalid_argument _ -> ());
  let t = Store.open_session store in
  Store.Session.abort t;
  match Store.Session.set_root t "x" (ival 1) with
  | () -> Alcotest.fail "an aborted session must refuse writes"
  | exception Invalid_argument _ -> ()

(* Every function in store.mli's "Reads" and "Introspection" groups
   refuses a closed session, whichever way it was closed — none may
   quietly answer from the live heap.  Each read is first shown to answer on a live session, so the
   refusal is the closed state's doing, not a bad argument's. *)
let closed_sessions_refuse_every_read () =
  let store = Store.create () in
  let r = Store.alloc_record store "A" [| ival 1 |] in
  let a = Store.alloc_array store "int" [| ival 2 |] in
  let str = Store.alloc_string store "s" in
  let w = Store.alloc_weak store (Pvalue.Ref r) in
  Store.set_root store "r" (Pvalue.Ref r);
  Store.set_blob store "b" "data";
  let reads s =
    let open Store.Session in
    [
      ("get", fun () -> ignore (get s r));
      ("find", fun () -> ignore (find s r));
      ("is_live", fun () -> ignore (is_live s r));
      ("class_of", fun () -> ignore (class_of s r));
      ("get_record", fun () -> ignore (get_record s r));
      ("get_array", fun () -> ignore (get_array s a));
      ("get_string", fun () -> ignore (get_string s str));
      ("get_weak", fun () -> ignore (get_weak s w));
      ("field", fun () -> ignore (field s r 0));
      ("elem", fun () -> ignore (elem s a 0));
      ("array_length", fun () -> ignore (array_length s a));
      ("string_value", fun () -> ignore (string_value s (Pvalue.Ref str)));
      ("try_get", fun () -> ignore (try_get s r));
      ("try_field", fun () -> ignore (try_field s r 0));
      ("root", fun () -> ignore (root s "r"));
      ("root_names", fun () -> ignore (root_names s));
      ("blob", fun () -> ignore (blob s "b"));
      ("blob_keys", fun () -> ignore (blob_keys s));
      ("live_count", fun () -> ignore (live_count s));
      ("stats", fun () -> ignore (stats s));
      ("snapshot_contents", fun () -> ignore (snapshot_contents s));
    ]
  in
  let live = Store.open_session store in
  List.iter (fun (_, read) -> read ()) (reads live);
  Store.Session.abort live;
  let committed = Store.open_session store in
  Store.Session.set_root committed "c" (ival 1);
  Store.Session.commit committed;
  let aborted = Store.open_session store in
  Store.Session.set_root aborted "d" (ival 1);
  Store.Session.abort aborted;
  List.iter
    (fun (how, s) ->
      List.iter
        (fun (name, read) ->
          match read () with
          | () -> Alcotest.failf "%s on a %s session must raise Invalid_argument" name how
          | exception Invalid_argument _ -> ())
        (reads s))
    [ ("committed", committed); ("aborted", aborted) ]

(* -- session stats reflect the snapshot, not the buffer ------------------- *)

let session_stats_reflect_snapshot () =
  let store = Store.create () in
  ignore (Store.alloc_string store "one");
  ignore (Store.alloc_string store "two");
  let s = Store.open_session store in
  ignore (Store.Session.alloc_string s "buffered");
  ignore (Store.Session.alloc_string s "buffered too");
  check_int "buffered allocations do not count as live" 2
    (Store.Session.stats s).Store.live;
  check_int "buffered ops are reported separately" 2 (Store.Session.buffered_ops s);
  (* writers landing after the snapshot do not move the session's view *)
  ignore (Store.alloc_string store "after");
  check_int "post-snapshot allocations are invisible" 2 (Store.Session.live_count s);
  check_int "the store itself sees them" 3 (Store.stats store).Store.live;
  Store.Session.commit s;
  check_int "commit publishes the buffered allocations" 5 (Store.stats store).Store.live

let with_session_commits_and_aborts () =
  let store = Store.create () in
  Session.with_session store (fun s -> Session.set_root s "ok" (ival 1));
  check_int "with_session commits on success" 1
    (int_of (Option.get (Store.root store "ok")));
  (match Session.with_session store (fun s ->
       Session.set_root s "bad" (ival 2);
       failwith "boom")
   with
  | () -> Alcotest.fail "the exception must propagate"
  | exception Stdlib.Failure _ -> ());
  check_bool "with_session aborts on raise" true (Store.root store "bad" = None);
  check_int "no sessions leak" 0 (Store.open_session_count store)

let suite =
  [
    test "snapshot reads are byte-stable under concurrent writers"
      snapshot_reads_are_byte_stable;
    test "a session reads its own buffered writes" read_your_writes;
    test "first committer wins on contested oids" first_committer_wins_on_oids;
    test "a direct writer also defeats a stale session" conflicts_with_direct_writer;
    test "disjoint write sets both commit" disjoint_sessions_both_commit;
    test "a conflicting increment succeeds on retry" conflict_retry_succeeds;
    test "abort leaves no journal residue" abort_leaves_no_journal_residue;
    test "a committed session survives close/reopen" committed_session_survives_reopen;
    test "a refused commit leaves the session live for retry"
      refused_commit_can_be_retried;
    test "gc / with_rollback / mark_dirty are session-gated"
      gc_rollback_mark_dirty_are_gated;
    test "closed sessions refuse further use" closed_sessions_refuse_use;
    test "closed sessions refuse every read" closed_sessions_refuse_every_read;
    test "session stats reflect the snapshot, not the dirty buffer"
      session_stats_reflect_snapshot;
    test "with_session commits on success and aborts on raise"
      with_session_commits_and_aborts;
  ]

let _ = sp
