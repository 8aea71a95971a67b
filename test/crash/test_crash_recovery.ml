(* The crash-recovery test matrix.

   For each fault point (short write, fail-after-N bytes, fsync failure,
   rename failure, silent bit flip) crossed with each mutation kind
   (roots, allocations, field/element updates, blobs), kill the write
   mid-flight via the fault hook, simulate the process dying, reopen the
   store from disk and assert that everything previously stabilised —
   every root, object (oid identity included) and blob — is intact.

   The matrix runs twice: once with stabilise on the journal-append path
   and once with the compaction limit forced to zero so every stabilise
   rewrites the image (exercising the Image.save crash windows).

   Each scenario applies exactly ONE mutation per stabilise, so a torn
   journal tail can only recover to the state before or after that
   mutation — which is exactly what we assert. *)

open Pstore
open Crash_util

let sp = Printf.sprintf

(* -- the matrix ----------------------------------------------------------- *)

type fixture = {
  store : Store.t;
  path : string;
  anchor : Oid.t;  (* baseline string object, rooted *)
  rec0 : Oid.t;  (* baseline record with two fields *)
  arr0 : Oid.t;  (* baseline three-element array *)
}

(* Baseline state: objects, roots and blobs that every scenario asserts
   survive the crash, plus victims for the removal mutations.  Ends with
   the initial compacting stabilise, so the baseline is durable. *)
let build_fixture dir =
  let path = Filename.concat dir "store.img" in
  let store = Store.create () in
  let anchor = Store.alloc_string store "anchor-contents" in
  Store.set_root store "anchor" (Pvalue.Ref anchor);
  let rec0 = Store.alloc_record store "Base" [| Pvalue.Int 1l; Pvalue.Null |] in
  Store.set_root store "rec0" (Pvalue.Ref rec0);
  let arr0 =
    Store.alloc_array store "int" [| Pvalue.Int 1l; Pvalue.Int 2l; Pvalue.Int 3l |]
  in
  Store.set_root store "arr0" (Pvalue.Ref arr0);
  Store.set_root store "victim1" (Pvalue.Int 11l);
  Store.set_root store "victim2" (Pvalue.Int 22l);
  Store.set_blob store "keep" "keep-data";
  Store.set_blob store "victim_blob1" "vb1";
  Store.set_blob store "victim_blob2" "vb2";
  Store.stabilise ~path store;
  { store; path; anchor; rec0; arr0 }

(* One store mutation of each journalled kind.  [i] distinguishes the
   stabilised application (1) from the crashed one (2). *)
let mutations : (string * (fixture -> int -> unit)) list =
  [
    ( "set_root",
      fun fx i -> Store.set_root fx.store (sp "extra%d" i) (Pvalue.Int (Int32.of_int i)) );
    ("remove_root", fun fx i -> Store.remove_root fx.store (sp "victim%d" i));
    ( "alloc_record",
      fun fx i -> ignore (Store.alloc_record fx.store "Extra" [| Pvalue.Int (Int32.of_int i) |]) );
    ( "alloc_array",
      fun fx i -> ignore (Store.alloc_array fx.store "int" [| Pvalue.Int (Int32.of_int i) |]) );
    ("alloc_string", fun fx i -> ignore (Store.alloc_string fx.store (sp "fresh-%d" i)));
    ( "set_field",
      fun fx i -> Store.set_field fx.store fx.rec0 0 (Pvalue.Int (Int32.of_int (100 + i))) );
    ( "set_elem",
      fun fx i -> Store.set_elem fx.store fx.arr0 (i - 1) (Pvalue.Int (Int32.of_int (200 + i))) );
    ("set_blob", fun fx i -> Store.set_blob fx.store (sp "blob%d" i) (sp "payload-%d" i));
    ("remove_blob", fun fx i -> Store.remove_blob fx.store (sp "victim_blob%d" i));
  ]

(* Fault points hit by the journal-append path. *)
let append_faults =
  [
    ("short-write-0", Faults.Short_write 0);
    ("short-write-3", Faults.Short_write 3);
    ("fail-after-5", Faults.Fail_after_bytes 5);
    ("fsync-fails", Faults.Fsync_fails);
    ("bit-flip-10", Faults.Bit_flip 10);
  ]

(* Fault points hit by the compaction (full image rewrite) path.  No bit
   flip here: silently corrupting the only image is media failure with
   nothing left to recover from, which open_file rightly reports. *)
let compact_faults =
  [
    ("short-write-7", Faults.Short_write 7);
    ("fail-after-50", Faults.Fail_after_bytes 50);
    ("fsync-fails", Faults.Fsync_fails);
    ("rename-fails", Faults.Rename_fails);
  ]

let run_scenario ~mode ~fault_name ~fault ~mutate () =
  with_dir @@ fun dir ->
  let fx = build_fixture dir in
  (match mode with
  | `Append -> Store.configure fx.store { (Store.config fx.store) with Store.Config.compaction_limit = 1_000_000 }
  | `Compact -> Store.configure fx.store { (Store.config fx.store) with Store.Config.compaction_limit = 0 });
  (* one mutation, stabilised: this is the durable pre-crash state *)
  mutate fx 1;
  Store.stabilise fx.store;
  let fp_before = fingerprint fx.store in
  (* a second mutation whose stabilise we kill mid-write *)
  mutate fx 2;
  let fp_after = fingerprint fx.store in
  (match (fault, Faults.with_fault fault (fun () -> Store.stabilise fx.store)) with
  | Faults.Bit_flip _, Ok () -> () (* silent corruption: the write "succeeds" *)
  | _, Error (Faults.Fault_injected _) -> ()
  | _, Error e -> raise e
  | _, Ok () -> Alcotest.failf "%s: fault did not fire" fault_name);
  Store.crash fx.store;
  (* reopen from disk: recovery must not raise *)
  let store2 = Store.open_file fx.path in
  Fun.protect ~finally:(fun () -> Store.close store2) @@ fun () ->
  let fp2 = fingerprint store2 in
  check_bool
    (sp "%s: recovered state is pre- or post-mutation" fault_name)
    true
    (String.equal fp2 fp_before || String.equal fp2 fp_after);
  (* previously-stabilised facts, oid identity included *)
  check_bool "anchor root intact" true (Store.root store2 "anchor" = Some (Pvalue.Ref fx.anchor));
  check_output "anchor contents intact" "anchor-contents" (Store.get_string store2 fx.anchor);
  check_bool "rec0 root intact" true (Store.root store2 "rec0" = Some (Pvalue.Ref fx.rec0));
  check_bool "arr0 root intact" true (Store.root store2 "arr0" = Some (Pvalue.Ref fx.arr0));
  check_int "arr0 length intact" 3 (Store.array_length store2 fx.arr0);
  check_output "kept blob intact" "keep-data" (Option.get (Store.blob store2 "keep"));
  (* the recovered store keeps journalling: its next stabilise appends *)
  let st = Store.stats store2 in
  Store.set_root store2 "after" (Pvalue.Int 1l);
  Store.stabilise store2;
  let st' = Store.stats store2 in
  check_bool (sp "%s: stabilise after reopen appends" fault_name) true
    (st'.Store.journal_depth > st.Store.journal_depth);
  check_int (sp "%s: no compaction after reopen" fault_name) st.Store.compactions
    st'.Store.compactions;
  Integrity.check_exn store2

let matrix =
  List.concat_map
    (fun (mode, mode_name, faults) ->
      List.concat_map
        (fun (mut_name, mutate) ->
          List.map
            (fun (fault_name, fault) ->
              test
                (sp "%s: %s x %s" mode_name mut_name fault_name)
                (run_scenario ~mode ~fault_name ~fault ~mutate))
            faults)
        mutations)
    [ (`Append, "append", append_faults); (`Compact, "compact", compact_faults) ]

(* -- torn-tail truncation at every byte offset ---------------------------- *)

(* Build a journal of several records, then for EVERY prefix length of
   the journal file check that open_file (a) does not raise and (b)
   recovers exactly the state after some whole number of records — the
   record framing admits no other outcome. *)
let truncation_at_every_offset () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "store.img" in
  let store = Store.create () in
  let r = Store.alloc_record store "Node" [| Pvalue.Null; Pvalue.Null |] in
  Store.set_root store "node" (Pvalue.Ref r);
  Store.stabilise ~path store;
  let fps = ref [ fingerprint store ] in
  (* one journal record per stabilise, varied kinds *)
  let ops =
    [
      (fun () -> Store.set_root store "a" (Pvalue.Int 1l));
      (fun () -> Store.set_field store r 0 (Pvalue.Int 2l));
      (fun () -> Store.set_blob store "b" "blob-data");
      (fun () -> ignore (Store.alloc_string store "another"));
      (fun () -> Store.set_field store r 1 (Pvalue.Ref r));
      (fun () -> Store.remove_root store "a");
      (fun () -> Store.remove_blob store "b");
      (fun () -> Store.set_root store "z" (Pvalue.Double 0.5));
    ]
  in
  List.iter
    (fun op ->
      op ();
      Store.stabilise store;
      fps := fingerprint store :: !fps)
    ops;
  Store.close store;
  let fps = Array.of_list (List.rev !fps) in
  (* record end offsets, from the journal's own lenient parser *)
  let wal_path = Journal.path_for path in
  let wal_data = read_file wal_path in
  let ends =
    match Journal.read wal_path with
    | Some replay -> List.map snd replay.Journal.records
    | None -> Alcotest.fail "journal unreadable"
  in
  check_int "one record per stabilise" (List.length ops) (List.length ends);
  let image_data = read_file path in
  for len = 0 to String.length wal_data do
    let dir2 = Filename.concat dir (sp "cut%d" len) in
    Unix.mkdir dir2 0o700;
    let path2 = Filename.concat dir2 "store.img" in
    write_file path2 image_data;
    write_file (Journal.path_for path2) (String.sub wal_data 0 len);
    let store2 = Store.open_file path2 in
    let complete = List.length (List.filter (fun e -> e <= len) ends) in
    check_output
      (sp "prefix %d recovers to record boundary %d" len complete)
      fps.(complete) (fingerprint store2);
    Integrity.check_exn store2;
    Store.close store2;
    rm_rf dir2
  done

(* -- recovery bookkeeping -------------------------------------------------- *)

let stats_report_recovery () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "store.img" in
  let store = Store.create () in
  Store.set_root store "a" (Pvalue.Int 1l);
  Store.stabilise ~path store;
  Store.set_root store "b" (Pvalue.Int 2l);
  Store.set_root store "c" (Pvalue.Int 3l);
  Store.stabilise store;
  (* clean reopen: both records replay, no torn tail *)
  Store.close store;
  let s2 = Store.open_file path in
  let st = Store.stats s2 in
  check_int "replayed" 2 st.Store.journal_replayed;
  check_int "depth" 2 st.Store.journal_depth;
  check_bool "not torn" false st.Store.recovered_torn_tail;
  (* appending after recovery must work (journal reopened for append) *)
  Store.set_root s2 "d" (Pvalue.Int 4l);
  Store.stabilise s2;
  Store.close s2;
  let s3 = Store.open_file path in
  check_int "replayed after append" 3 (Store.stats s3).Store.journal_replayed;
  check_bool "d present" true (Store.root s3 "d" = Some (Pvalue.Int 4l));
  (* now tear the tail and check the flag *)
  Store.set_root s3 "e" (Pvalue.Int 5l);
  (match Faults.with_fault (Faults.Short_write 3) (fun () -> Store.stabilise s3) with
  | Error (Faults.Fault_injected _) -> ()
  | _ -> Alcotest.fail "fault did not fire");
  Store.crash s3;
  let s4 = Store.open_file path in
  let st4 = Store.stats s4 in
  check_bool "torn tail reported" true st4.Store.recovered_torn_tail;
  check_int "only whole records replayed" 3 st4.Store.journal_replayed;
  check_bool "e lost with the torn tail" true (Store.root s4 "e" = None);
  Store.close s4

(* A crash between a compaction's image rename and its journal reset
   leaves a stale journal naming the OLD image.  Recovery must discard
   it: the new image already contains every journalled effect. *)
let stale_journal_discarded () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "store.img" in
  let store = Store.create () in
  Store.set_root store "a" (Pvalue.Int 1l);
  Store.stabilise ~path store;
  Store.set_root store "b" (Pvalue.Int 2l);
  Store.stabilise store;
  let stale_wal = read_file (Journal.path_for path) in
  (* force the next stabilise to compact, then put the old journal back *)
  Store.mark_dirty store;
  Store.set_root store "c" (Pvalue.Int 3l);
  Store.stabilise store;
  let fp_compacted = fingerprint store in
  Store.crash store;
  write_file (Journal.path_for path) stale_wal;
  let s2 = Store.open_file path in
  check_output "stale journal ignored" fp_compacted (fingerprint s2);
  check_int "nothing replayed" 0 (Store.stats s2).Store.journal_replayed;
  (* the store must be able to stabilise again (recompacts first) *)
  Store.set_root s2 "d" (Pvalue.Int 4l);
  Store.stabilise s2;
  check_int "stale journal recompacts" 1 (Store.stats s2).Store.compactions;
  Store.close s2;
  let s3 = Store.open_file path in
  check_bool "post-recovery stabilise durable" true (Store.root s3 "d" = Some (Pvalue.Int 4l));
  Store.close s3

(* -- Image.save atomicity (snapshot mode regression) ----------------------- *)

let snapshot_save_is_atomic () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "store.img" in
  let store = Store.create () in
  Store.set_root store "x" (Pvalue.Int 1l);
  Store.stabilise ~path store;
  let fp1 = fingerprint store in
  let faulted fault =
    Store.set_root store "x" (Pvalue.Int 99l);
    (match Faults.with_fault fault (fun () -> Store.stabilise store) with
    | Error (Faults.Fault_injected _) -> ()
    | _ -> Alcotest.fail "fault did not fire");
    (* the crashed write must not have damaged the last good image *)
    let s2 = Store.open_file path in
    check_output "old image intact" fp1 (fingerprint s2);
    Store.close s2;
    Store.set_root store "x" (Pvalue.Int 1l)
  in
  faulted (Faults.Fail_after_bytes 10);
  faulted (Faults.Short_write 4);
  faulted Faults.Fsync_fails;
  faulted Faults.Rename_fails;
  (* and a clean stabilise still lands *)
  Store.set_root store "x" (Pvalue.Int 2l);
  Store.stabilise store;
  let s3 = Store.open_file path in
  check_bool "new state durable" true (Store.root s3 "x" = Some (Pvalue.Int 2l));
  Store.close s3

(* A crash after writing and fsyncing the temp image but before the
   rename: open_file promotes the complete temp snapshot when the main
   image is unreadable. *)
let tmp_snapshot_promoted () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "store.img" in
  let store = Store.create () in
  Store.set_root store "x" (Pvalue.Int 1l);
  Store.stabilise ~path store;
  Store.set_root store "x" (Pvalue.Int 2l);
  (* the newer snapshot made it to the temp file... *)
  write_file (path ^ ".tmp") (Image.encode (Store.contents store));
  (* ...and the main image was lost mid-overwrite *)
  write_file path (String.sub (read_file path) 0 10);
  let s2 = Store.open_file path in
  check_bool "temp snapshot promoted" true (Store.root s2 "x" = Some (Pvalue.Int 2l));
  check_bool "promoted over the image path" false (Sys.file_exists (path ^ ".tmp"));
  Store.close s2

(* -- registry hyper-links across a crash ----------------------------------- *)

(* The paper's invariant: hyper-links denote store entities by identity.
   Boot a VM, create a storage-form hyper-program whose link targets a
   store object, register it, stabilise; then crash a later journal
   append and check the reopened store still resolves the registered
   program to the SAME HyperLinkHP instance and the SAME target oid. *)
let registry_links_survive_crash () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "store.img" in
  let store = Store.create () in
  let vm = Minijava.Boot.vm_for store in
  Hyperprog.Dynamic_compiler.install vm;
  let target = Store.alloc_string store "hyper-linked target" in
  Store.set_root store "hold-target" (Pvalue.Ref target);
  let hp =
    Hyperprog.Storage_form.create vm ~class_name:"Demo" ~text:"use  here"
      ~links:
        [ { Hyperprog.Storage_form.link = Hyperprog.Hyperlink.L_object target;
            label = "t";
            pos = 4 } ]
  in
  Store.set_root store "hold-hp" (Pvalue.Ref hp);
  let uid = Hyperprog.Registry.add_hp vm ~password:Hyperprog.Registry.built_in_password hp in
  let link_oids = Hyperprog.Storage_form.link_oids vm hp in
  check_int "one link" 1 (List.length link_oids);
  Store.stabilise ~path store;
  Store.set_root store "epoch" (Pvalue.Int 1l);
  Store.stabilise store;
  let fp_before = fingerprint store in
  Store.set_root store "epoch" (Pvalue.Int 2l);
  (match Faults.with_fault (Faults.Short_write 5) (fun () -> Store.stabilise store) with
  | Error (Faults.Fault_injected _) -> ()
  | _ -> Alcotest.fail "fault did not fire");
  Store.crash store;
  let store2 = Store.open_file path in
  Fun.protect ~finally:(fun () -> Store.close store2) @@ fun () ->
  check_output "recovered to the last stabilise" fp_before (fingerprint store2);
  let vm2 = Minijava.Boot.vm_for store2 in
  check_bool "hyper-program oid intact" true (Hyperprog.Storage_form.is_hyper_program vm2 hp);
  check_output "text intact" "use  here" (Hyperprog.Storage_form.text vm2 hp);
  check_bool "HyperLinkHP oids preserved" true (Hyperprog.Storage_form.link_oids vm2 hp = link_oids);
  (match
     Hyperprog.Registry.get_link vm2 ~password:Hyperprog.Registry.built_in_password ~hp:uid
       ~link:0
   with
  | Pvalue.Ref l ->
    check_bool "registry resolves to the same instance" true (List.mem l link_oids)
  | v -> Alcotest.failf "unexpected link value %s" (Pvalue.to_string v));
  (match Hyperprog.Storage_form.links vm2 hp with
  | [ { Hyperprog.Storage_form.link = Hyperprog.Hyperlink.L_object t; pos = 4; _ } ] ->
    check_bool "target oid identity preserved" true (Oid.equal t target);
    check_output "target contents intact" "hyper-linked target" (Store.get_string store2 t)
  | _ -> Alcotest.fail "links did not survive");
  Integrity.check_exn store2

let suite =
  [
    test "torn tail: truncation at every byte offset" truncation_at_every_offset;
    test "stats report replay and torn tails" stats_report_recovery;
    test "stale journal after crashed compaction is discarded" stale_journal_discarded;
    test "snapshot save is atomic under faults" snapshot_save_is_atomic;
    test "complete temp snapshot is promoted" tmp_snapshot_promoted;
    test "registry hyper-links survive a crash" registry_links_survive_crash;
  ]
