(* Crash semantics of journal group commit.

   A journalled stabilise now coalesces its whole multi-op delta into ONE
   batch record (journal tag 7), and a group window > 1 defers the fsync.
   The contract under crash:

   - ATOMICITY: a crash mid-batch tears the batch as a unit.  Recovery
     lands exactly on a stabilise-boundary state — never on a prefix of
     a delta's mutations, which the old one-record-per-op journal
     permitted.

   - BOUNDED LOSS: with window n, a crash loses at most the n-1 whole
     batches since the last fsync; everything up to that fsync is
     durable.

   Checked with window 1 (fsync every stabilise) and with group commit
   (window > 1). *)

open Pstore
open Crash_util

let sp = Printf.sprintf

let image dir = Filename.concat dir "store.img"

let make_store ?(window = 1) dir =
  let config =
    {
      Store.Config.default with
      Store.Config.group_window = window;
      backing = Some (image dir);
    }
  in
  Store.create ~config ()

(* One multi-op delta: alloc + root + field write + blob write, so every
   stabilise carries a batch of at least four journal ops. *)
let mutate store i =
  let oid =
    Store.alloc_record store "G" [| Pvalue.Int (Int32.of_int i); Pvalue.Null |]
  in
  Store.set_root store (sp "g%d" i) (Pvalue.Ref oid);
  Store.set_field store oid 1 (Pvalue.Int (Int32.of_int (i * 7)));
  Store.set_blob store (sp "gb%d" i) (sp "payload-%d" i)

(* -- atomicity under every possible torn write ---------------------------- *)

(* File surgery: truncate the journal at EVERY byte length inside the
   batch record.  Each cut must recover the pre-batch state exactly —
   a torn batch never replays a prefix of its ops. *)
let torn_batch_recovers_pre_batch_state () =
  with_dir (fun dir ->
      let store = make_store dir in
      mutate store 0;
      Store.stabilise store (* full image: the recovery baseline *);
      let fp_base = fingerprint store in
      let wal = image dir ^ ".wal" in
      let pre_size = file_size wal in
      for i = 1 to 3 do
        mutate store (100 + i)
      done;
      Store.stabilise store (* ONE batch record carrying 12 ops *);
      let fp_post = fingerprint store in
      Store.close store;
      let full_size = file_size wal in
      check_bool "the batch added journal bytes" true (full_size > pre_size);
      (* cut inside the record: every prefix must be rejected whole *)
      let cuts = ref 0 in
      for cut = pre_size to full_size - 1 do
        with_dir (fun scratch ->
            copy_dir dir (Filename.concat scratch "copy");
            let dir = Filename.concat scratch "copy" in
            Unix.truncate (image dir ^ ".wal") cut;
            let reopened = Store.open_file (image dir) in
            let fp = fingerprint reopened in
            if not (String.equal fp fp_base) then
              Alcotest.failf "cut at byte %d recovered neither pre- nor batch state" cut;
            incr cuts;
            Integrity.check_exn reopened;
            Store.close reopened)
      done;
      check_bool "exercised many torn positions" true (!cuts > 50);
      (* and the untouched journal replays the whole batch *)
      let reopened = Store.open_file (image dir) in
      check_output "full journal recovers the post-batch state" fp_post
        (fingerprint reopened);
      Store.close reopened)

(* -- fault-injected crash mid-stabilise ------------------------------------ *)

let pick_fault seed =
  match seed mod 4 with
  | 0 -> Faults.Short_write (seed mod 13)
  | 1 -> Faults.Fail_after_bytes (1 + (seed mod 97))
  | 2 -> Faults.Fsync_fails
  | _ -> Faults.Rename_fails

(* Crash one seed-chosen way during a stabilise carrying a multi-op
   delta: the reopened store holds the pre-batch state or the complete
   post-batch state — nothing in between. *)
let crash_mid_batch ~window seed =
  with_dir (fun dir ->
      let store = make_store ~window dir in
      mutate store 0;
      Store.stabilise store;
      let fp_base = fingerprint store in
      for i = 1 to 3 do
        mutate store (10 * i)
      done;
      let fp_post = fingerprint store in
      (match
         Faults.with_fault (pick_fault seed) (fun () -> Store.stabilise store)
       with
      | Ok () -> () (* the fault point was not on this stabilise's path *)
      | Error (Faults.Fault_injected _) -> ()
      | Error e -> raise e);
      Store.crash store;
      let reopened = Store.open_file (image dir) in
      let fp = fingerprint reopened in
      check_bool
        (sp "seed %d: all-or-nothing (window %d)" seed window)
        true
        (String.equal fp fp_base || String.equal fp fp_post);
      Integrity.check_exn reopened;
      Store.close reopened)

let crash_matrix () =
  List.iter
    (fun window ->
      for seed = 0 to 23 do
        crash_mid_batch ~window seed
      done)
    [ 1; 4 ]

(* -- bounded loss with a deferred fsync ----------------------------------- *)

(* Window 3, five stabilises, then a crash.  Stabilise 3 fsyncs, 4 and 5
   only buffer: recovery must land on a batch boundary at or after the
   fsync barrier — whole batches may be lost, prefixes and pre-barrier
   states may not. *)
let deferred_fsync_loses_whole_batches_only () =
  with_dir (fun dir ->
      let store = make_store ~window:3 dir in
      mutate store 0;
      Store.stabilise store (* compaction: durable *);
      let boundary = ref [] in
      for i = 1 to 5 do
        mutate store i;
        Store.stabilise store;
        boundary := !boundary @ [ fingerprint store ]
      done;
      check_int "two batches still unsynced at the crash"
        2 (Store.stats store).Store.unsynced_batches;
      Store.crash store;
      let reopened = Store.open_file (image dir) in
      let fp = fingerprint reopened in
      (* stabilise 3 hit the window: its fsync is the durability floor *)
      let acceptable = [ List.nth !boundary 2; List.nth !boundary 3; List.nth !boundary 4 ] in
      check_bool "recovered at or after the last fsync, on a batch boundary" true
        (List.exists (String.equal fp) acceptable);
      Integrity.check_exn reopened;
      Store.close reopened)

(* A clean close, by contrast, syncs the tail: nothing is lost. *)
let clean_close_flushes_the_window () =
  with_dir (fun dir ->
      let store = make_store ~window:8 dir in
      mutate store 0;
      Store.stabilise store;
      for i = 1 to 3 do
        mutate store i;
        Store.stabilise store
      done;
      let fp = fingerprint store in
      check_bool "batches pending at close" true
        ((Store.stats store).Store.unsynced_batches > 0);
      Store.close store;
      let reopened = Store.open_file (image dir) in
      check_output "close flushed every deferred batch" fp (fingerprint reopened);
      check_int "nothing left unsynced" 0 (Store.stats reopened).Store.unsynced_batches;
      Store.close reopened)

(* -- configuration plumbing ----------------------------------------------- *)

let window_configuration () =
  let store = Store.create () in
  check_int "default window" 1 (Store.group_window store);
  Store.set_group_window store 6;
  check_int "setter round-trips" 6 (Store.group_window store);
  check_int "config reads it back" 6 (Store.config store).Store.Config.group_window;
  Store.configure store { (Store.config store) with Store.Config.group_window = 2 };
  check_int "configure applies it" 2 (Store.group_window store);
  check_bool "window < 1 is rejected" true
    (match Store.set_group_window store 0 with
    | () -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    test "a torn batch recovers the pre-batch state at every cut"
      torn_batch_recovers_pre_batch_state;
    test "crash mid-batch is all-or-nothing across durability modes" crash_matrix;
    test "a deferred fsync loses whole batches only"
      deferred_fsync_loses_whole_batches_only;
    test "a clean close flushes the group window" clean_close_flushes_the_window;
    test "the group window is a first-class config knob" window_configuration;
  ]
