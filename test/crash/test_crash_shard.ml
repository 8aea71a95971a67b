(* Multi-shard crash atomicity.

   A sharded journalled stabilise writes one batch record per dirty
   shard plus a store-level commit-marker record; the marker is the only
   witness that every shard's half landed.  These suites drive faults
   into every gap of that protocol and require recovery to land on a
   whole stabilise — never one shard's half of it:

   - a seeded matrix (the single-shard harness's generator re-run over a
     4-shard store, with the same CRASH_SEED replay contract);
   - a deterministic byte-budget sweep that tears the append path at
     every offset — inside a shard's batch, between shards, inside the
     marker record;
   - compaction crashes, full (manifest rename never lands: recover the
     previous state) and partial (the delta was journalled through the
     old journals first: recover the NEW state even though the image
     move died);
   - the fault layer's one-shot guarantee with real domains racing to
     fire it. *)

open Pstore
open Crash_util

let sp = Printf.sprintf
let nshards = 4

let shard_config ?(compaction_limit = 32) path =
  {
    Store.Config.default with
    Store.Config.compaction_limit;
    backing = Some path;
    shards = nshards;
  }

let make_store dir =
  Store.create ~config:(shard_config (Filename.concat dir "store.img")) ()

(* -- seeded matrix over a sharded store ----------------------------------- *)

(* The reference run doubles as a shard-count-equivalence check: the same
   program on a single-shard store must fingerprint identically (shard
   assignment is a storage layout, not a semantics). *)
let reference_run ops dir =
  let store = make_store dir in
  let records = ref [] in
  List.iter (Test_crash_matrix.exec store records ignore) ops;
  Store.stabilise store;
  let fp = fingerprint store in
  let flat = with_dir (fun flat_dir ->
      let flat = Test_crash_matrix.make_store flat_dir in
      let records = ref [] in
      List.iter (Test_crash_matrix.exec flat records ignore) ops;
      Store.stabilise flat;
      let ffp = fingerprint flat in
      Store.close flat;
      ffp)
  in
  check_output "1-shard and 4-shard runs fingerprint identically" flat fp;
  Store.close store;
  let reopened = Store.open_file (Filename.concat dir "store.img") in
  check_output "clean sharded reopen is byte-identical" fp (fingerprint reopened);
  check_int "reopen keeps the shard count" nshards (Store.shards reopened);
  Integrity.check_exn reopened;
  Store.close reopened

let crash_run ops seed dir =
  let n_stabs =
    List.length (List.filter (fun op -> op = Test_crash_matrix.Stabilise) ops)
  in
  let crash_at = 1 + (seed mod (n_stabs - 1)) in
  let fault = Test_crash_matrix.pick_fault seed in
  let store = make_store dir in
  let records = ref [] in
  let candidates = ref [ fingerprint store ] in
  let note () = candidates := !candidates @ [ fingerprint store ] in
  let stabs = ref 0 in
  (try
     List.iter
       (fun op ->
         match op with
         | Test_crash_matrix.Stabilise ->
           if !stabs = crash_at then begin
             (match Faults.with_fault fault (fun () -> Store.stabilise store) with
             | Ok () -> ()
             | Error (Faults.Fault_injected _) -> ()
             | Error e -> raise e);
             raise Exit
           end
           else begin
             Store.stabilise store;
             incr stabs;
             candidates := [ fingerprint store ]
           end
         | op -> Test_crash_matrix.exec store records note op)
       ops
   with Exit -> ());
  Store.crash store;
  let reopened = Store.open_file (Filename.concat dir "store.img") in
  let fp = fingerprint reopened in
  check_bool
    (sp "seed %d: recovered state is one the program passed through" seed)
    true
    (List.exists (String.equal fp) !candidates);
  check_int (sp "seed %d: recovery quarantines nothing" seed) 0
    (Store.stats reopened).Store.quarantined;
  Integrity.check_exn reopened;
  Store.close reopened

let run_seed seed =
  try
    let ops = Test_crash_matrix.gen_program (Random.State.make [| seed; 77 |]) in
    with_dir (reference_run ops);
    with_dir (crash_run ops seed)
  with e ->
    Printf.eprintf
      "sharded crash matrix failed at seed %d\n\
       replay exactly with: CRASH_SEED=%d dune exec test/crash/test_crash_main.exe\n"
      seed seed;
    raise e

let seeds = 120
let batch = 30

(* -- deterministic protocol tears ----------------------------------------- *)

let setup_spread dir =
  let path = Filename.concat dir "store.img" in
  let store = Store.create ~config:(shard_config path) () in
  let oids =
    Array.init 32 (fun i ->
        Store.alloc_record store "Node" [| Pvalue.Int (Int32.of_int i); Pvalue.Null |])
  in
  Array.iteri (fun i oid -> Store.set_root store (sp "r%d" i) (Pvalue.Ref oid)) oids;
  Store.stabilise store;
  (path, store, oids)

(* Tear the append path at every byte offset: the write order is shard
   batches then marker record, so small budgets die inside the first
   shard's batch, middling ones between shards, large ones inside the
   marker.  Whatever tears, recovery must produce exactly the pre-delta
   state — a fault that never fired must leave exactly the post-delta
   state.  Nothing in between, ever. *)
let torn_append_rolls_back_whole_stabilise () =
  let budgets = List.init 60 (fun i -> 1 + (i * 13)) in
  List.iter
    (fun budget ->
      with_dir (fun dir ->
          let path, store, oids = setup_spread dir in
          let before = fingerprint store in
          Array.iter (fun oid -> Store.set_field store oid 0 (Pvalue.Int 7l)) oids;
          let after = fingerprint store in
          let outcome =
            Faults.with_fault (Faults.Fail_after_bytes budget) (fun () ->
                Store.stabilise store)
          in
          Store.crash store;
          let reopened = Store.open_file path in
          let fp = fingerprint reopened in
          (match outcome with
          | Ok () ->
            check_output (sp "budget %d: fault never fired, delta durable" budget) after fp
          | Error (Faults.Fault_injected _) ->
            check_output (sp "budget %d: torn stabilise rolled back whole" budget) before fp
          | Error e -> raise e);
          check_int (sp "budget %d: recovery quarantines nothing" budget) 0
            (Store.stats reopened).Store.quarantined;
          Integrity.check_exn reopened;
          Store.close reopened))
    budgets

(* A crashed FULL compaction (here: the first shard-image rename dies, so
   the manifest never moves) must recover the previous durable state. *)
let full_compaction_crash_recovers_last_stabilise () =
  with_dir (fun dir ->
      let path, store, oids = setup_spread dir in
      Array.iter (fun oid -> Store.set_field store oid 0 (Pvalue.Int 1l)) oids;
      Store.stabilise store;
      let durable = fingerprint store in
      ignore (Store.gc store : Gc.stats) (* journal can't express a sweep: forces full *);
      Array.iter (fun oid -> Store.set_field store oid 0 (Pvalue.Int 2l)) oids;
      (match
         Faults.with_fault Faults.Rename_fails (fun () -> Store.stabilise store)
       with
      | Error (Faults.Fault_injected _) -> ()
      | Ok () -> Alcotest.fail "rename fault never fired"
      | Error e -> raise e);
      Store.crash store;
      let reopened = Store.open_file path in
      check_output "crashed full compaction recovers the pre-gc durable state" durable
        (fingerprint reopened);
      check_int "nothing quarantined" 0 (Store.stats reopened).Store.quarantined;
      Integrity.check_exn reopened;
      Store.close reopened)

(* A crashed PARTIAL compaction must NOT lose the delta that triggered
   it: the delta goes through the old journals and the commit marker
   before any image moves, so recovery replays it even though the image
   rewrite died. *)
let partial_compaction_crash_keeps_the_delta () =
  with_dir (fun dir ->
      let path = Filename.concat dir "store.img" in
      (* per-shard limit: ceil(8/4) = 2 journalled records *)
      let store = Store.create ~config:(shard_config ~compaction_limit:8 path) () in
      let oids =
        Array.init 16 (fun i ->
            Store.alloc_record store "Node" [| Pvalue.Int (Int32.of_int i); Pvalue.Null |])
      in
      Array.iteri (fun i oid -> Store.set_root store (sp "r%d" i) (Pvalue.Ref oid)) oids;
      Store.stabilise store (* full compaction: all journals at depth 0 *);
      let hot = oids.(0) in
      (* push the hot shard over its slice of the limit *)
      Store.set_field store hot 0 (Pvalue.Int 100l);
      Store.stabilise store;
      Store.set_field store hot 0 (Pvalue.Int 101l);
      Store.stabilise store;
      Store.set_field store hot 0 (Pvalue.Int 102l);
      let post = fingerprint store in
      (* this stabilise partially compacts the hot shard; its image
         rename dies AFTER the delta was journalled and marker-committed *)
      (match
         Faults.with_fault Faults.Rename_fails (fun () -> Store.stabilise store)
       with
      | Error (Faults.Fault_injected _) -> ()
      | Ok () -> Alcotest.fail "rename fault never fired (partial compaction not triggered?)"
      | Error e -> raise e);
      Store.crash store;
      let reopened = Store.open_file path in
      check_output "delta survives the crashed partial compaction" post
        (fingerprint reopened);
      check_int "nothing quarantined" 0 (Store.stats reopened).Store.quarantined;
      Integrity.check_exn reopened;
      Store.close reopened)

(* A clean reopen must resume journalled appends, not rebuild the store:
   the first stabilise after [open_file] appends to the recovered
   journals (same image epochs, same marker file, WALs growing), and a
   further reopen replays those appends.  Pins a regression where every
   reopen forced a full compaction — journalled mode silently degraded
   to snapshot-per-process, and with the epochs also lost the compaction
   overwrote live image files in place. *)
let reopen_appends_without_compacting () =
  with_dir (fun dir ->
      let path, store, oids = setup_spread dir in
      Store.close store;
      let epochs_before = (Manifest.load path).Manifest.epochs in
      let reopened = Store.open_file path in
      Array.iter (fun oid -> Store.set_field reopened oid 0 (Pvalue.Int 7l)) oids;
      Store.stabilise reopened;
      let expected = fingerprint reopened in
      Store.close reopened;
      let m = Manifest.load path in
      check_bool "image epochs unchanged by reopen + stabilise" true
        (m.Manifest.epochs = epochs_before);
      let wal_bytes k =
        let st = Unix.stat (Manifest.shard_wal path k m.Manifest.epochs.(k)) in
        st.Unix.st_size
      in
      let grew = ref false in
      for k = 0 to nshards - 1 do
        if wal_bytes k > Journal.header_size then grew := true
      done;
      check_bool "delta appended to a recovered journal" true !grew;
      let again = Store.open_file path in
      check_output "second reopen replays the appended delta" expected (fingerprint again);
      check_int "nothing quarantined" 0 (Store.stats again).Store.quarantined;
      Integrity.check_exn again;
      Store.close again)

(* One-shot fault semantics with real domains: force the pool to spawn
   workers so shard syncs genuinely race to fire the armed fault.  It
   must fire exactly once (the run must not wedge or double-raise), and
   the failed stabilise must roll back whole. *)
let fault_fires_once_across_domains () =
  let saved = Dpool.parallelism () in
  Dpool.set_limit nshards;
  Fun.protect ~finally:(fun () -> Dpool.set_limit (max 1 saved)) @@ fun () ->
  with_dir (fun dir ->
      let path, store, oids = setup_spread dir in
      let before = fingerprint store in
      Array.iter (fun oid -> Store.set_field store oid 0 (Pvalue.Int 9l)) oids;
      (match Faults.with_fault Faults.Fsync_fails (fun () -> Store.stabilise store) with
      | Error (Faults.Fault_injected _) -> ()
      | Ok () -> Alcotest.fail "fsync fault never fired"
      | Error e -> raise e);
      check_bool "fault disarmed after firing once" true (Faults.armed () = None);
      Store.crash store;
      let reopened = Store.open_file path in
      check_output "parallel append rolled back whole" before (fingerprint reopened);
      Integrity.check_exn reopened;
      Store.close reopened)

let deterministic =
  [
    test "torn append sweep: all-or-nothing across shards" torn_append_rolls_back_whole_stabilise;
    test "full compaction crash recovers last stabilise" full_compaction_crash_recovers_last_stabilise;
    test "partial compaction crash keeps the delta" partial_compaction_crash_keeps_the_delta;
    test "reopen appends to recovered journals without compacting" reopen_appends_without_compacting;
    test "one-shot fault under racing domains" fault_fires_once_across_domains;
  ]

let suite =
  deterministic
  @
  match Option.bind (Sys.getenv_opt "CRASH_SEED") int_of_string_opt with
  | Some seed -> [ test (sp "seed %d (CRASH_SEED)" seed) (fun () -> run_seed seed) ]
  | None ->
    List.init (seeds / batch) (fun b ->
        let lo = b * batch in
        let hi = lo + batch - 1 in
        test (sp "seeds %d-%d" lo hi) (fun () ->
            for seed = lo to hi do
              run_seed seed
            done))
