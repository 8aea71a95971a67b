(* Store-level self-healing: the online scrubber, quarantine reads and
   their persistence, bounded I/O retry, lifecycle idempotence, and the
   quarantine-aware integrity checker. *)

open Pstore
open Scrub_util

(* -- the scrubber ------------------------------------------------------ *)

let prime_then_verify () =
  let store = Store.create () in
  for i = 0 to 49 do
    ignore (Store.alloc_string store (Printf.sprintf "object %d" i))
  done;
  let q1 = scrub_pass store in
  check_int "nothing quarantined on first pass" 0 (List.length q1);
  (* everything untouched: the second pass verifies every recorded CRC *)
  let r = Store.scrub ~budget:10_000 store in
  check_bool "one step drains the pass" true r.Scrub.pass_complete;
  check_int "all verified" r.Scrub.scanned r.Scrub.verified;
  check_int "nothing re-primed" 0 r.Scrub.primed;
  check_int "still clean" 0 (List.length r.Scrub.newly_quarantined)

let budget_is_respected () =
  let store = Store.create () in
  for i = 0 to 99 do
    ignore (Store.alloc_string store (string_of_int i))
  done;
  let r = Store.scrub ~budget:10 store in
  check_int "scans exactly the budget" 10 r.Scrub.scanned;
  check_bool "pass not complete yet" false r.Scrub.pass_complete;
  check_bool "work remains queued" true (Scrub.pending (Store.scrub_progress store) > 0);
  ignore (scrub_pass ~budget:10 store);
  check_bool "a full pass was counted" true (Scrub.passes (Store.scrub_progress store) >= 1)

let bit_flip_in_big_store_detected () =
  let store = Store.create () in
  let oids = Array.init 10_000 (fun i -> Store.alloc_string store (Printf.sprintf "payload %d" i)) in
  ignore (scrub_pass ~budget:2048 store); (* prime every checksum *)
  let victim = oids.(5_000) in
  Faults.corrupt_entry (Store.heap store) victim;
  let caught = scrub_pass ~budget:2048 store in
  check_int "exactly one object quarantined" 1 (List.length caught);
  let oid, reason = List.hd caught in
  check_bool "the victim was caught" true (Oid.equal oid victim);
  check_bool "reason names the checksum" true (contains reason "checksum");
  check_bool "store agrees" true (Store.is_quarantined store victim);
  check_int "stats agree" 1 (Store.stats store).Store.quarantined;
  (* the victim's neighbours are untouched and readable *)
  check_output "sibling before" "payload 4999" (Store.get_string store oids.(4_999));
  check_output "sibling after" "payload 5001" (Store.get_string store oids.(5_001));
  (* reads of the hole get the typed error, not a crash *)
  (match Store.get store victim with
  | _ -> Alcotest.fail "read of a quarantined object must raise"
  | exception Quarantine.Quarantined (o, _) ->
    check_bool "typed error names the oid" true (Oid.equal o victim));
  match Store.try_get store victim with
  | Error (Failure.Quarantined { oid = o; _ }) ->
    check_bool "try_get salvages" true (Oid.equal o victim)
  | Error _ -> Alcotest.fail "quarantined, not missing"
  | Ok _ -> Alcotest.fail "try_get must report the quarantine"

let mutation_reprimes_instead_of_quarantining () =
  let store = Store.create () in
  let oid = Store.alloc_record store "Counter" [| Pvalue.Int 1l |] in
  ignore (scrub_pass store);
  (* a legitimate mutation through the store API invalidates the CRC *)
  Store.set_field store oid 0 (Pvalue.Int 2l);
  let q = scrub_pass store in
  check_int "mutation is not corruption" 0 (List.length q);
  check_bool "object still readable" true (Store.field store oid 0 = Pvalue.Int 2l);
  (* and the re-primed checksum verifies on the next pass *)
  let r = Store.scrub ~budget:10_000 store in
  check_int "clean verify after re-prime" 0 (List.length r.Scrub.newly_quarantined)

let dangling_target_quarantined () =
  let store = Store.create () in
  let target = Store.alloc_string store "soon gone" in
  let holder = Store.alloc_record store "Holder" [| Pvalue.Ref target |] in
  Store.set_root store "holder" (Pvalue.Ref holder);
  (* rip the target out behind the store API (bad-DIMM stand-in) *)
  Heap.remove (Store.heap store) target;
  Store.mark_dirty store;
  let q = scrub_pass store in
  check_int "the hole is quarantined" 1 (List.length q);
  let oid, reason = List.hd q in
  check_bool "it is the dangling target" true (Oid.equal oid target);
  check_bool "reason says dangling" true (contains reason "dangling");
  (* the holder itself stays healthy... *)
  check_output "holder readable" "Holder" (Store.class_of store holder);
  (* ...and the hole reads as a typed error instead of Heap_error *)
  match Store.try_field store holder 0 with
  | Ok (Pvalue.Ref o) -> (
    match Store.try_get store o with
    | Error (Failure.Quarantined _) -> ()
    | _ -> Alcotest.fail "hole must read as quarantined")
  | _ -> Alcotest.fail "holder field must read"

(* -- quarantine persistence ------------------------------------------- *)

let quarantine_survives_reopen () =
  with_store_file (fun path ->
      let store = Store.create () in
      Store.configure store { (Store.config store) with Store.Config.backing = Some path };
      let victim = Store.alloc_string store "victim" in
      let sibling = Store.alloc_string store "sibling" in
      Store.set_root store "s" (Pvalue.Ref sibling);
      Store.set_root store "v" (Pvalue.Ref victim);
      Store.stabilise store;
      Store.quarantine_oid store victim "operator isolation";
      (* quarantining forces a full image at the next stabilise, which is
         what persists the set *)
      Store.stabilise store;
      Store.close store;
      let store2 = Store.open_file path in
      check_bool "quarantine survived" true (Store.is_quarantined store2 victim);
      check_output "reason survived" "operator isolation"
        (Option.value (Store.quarantine_reason store2 victim) ~default:"<none>");
      check_int "set size" 1 (List.length (Store.quarantined store2));
      check_output "sibling fine" "sibling" (Store.get_string store2 sibling))

let bit_flip_during_save_salvaged_on_load () =
  with_store_file (fun path ->
      let store = Store.create () in
      let victim = Store.alloc_string store "sentinel-victim-payload" in
      let sibling = Store.alloc_string store "sibling-payload" in
      Store.set_root store "v" (Pvalue.Ref victim);
      Store.set_root store "s" (Pvalue.Ref sibling);
      (* the image bytes the save will stream out, to aim the fault *)
      let encoded = Image.encode (Store.contents store) in
      let offset = index_of encoded "sentinel-victim-payload" in
      let fired_before = Faults.fired () in
      Faults.arm (Faults.Bit_flip offset);
      Store.stabilise ~path store;
      check_int "the flip fired silently" (fired_before + 1) (Faults.fired ());
      (* media corruption: the load salvages around the bad entry *)
      let store2 = Store.open_file path in
      check_bool "victim quarantined by salvage" true (Store.is_quarantined store2 victim);
      check_output "sibling decoded" "sibling-payload" (Store.get_string store2 sibling);
      match Store.root store2 "s" with
      | Some (Pvalue.Ref _) -> ()
      | _ -> Alcotest.fail "roots must survive the salvage")

(* -- bounded retry ------------------------------------------------------ *)

let transient_fsync_absorbed () =
  with_store_file (fun path ->
      let store = Store.create () in
      Store.configure store { (Store.config store) with Store.Config.backing = Some path };
      ignore (Store.alloc_string store "first");
      Store.stabilise store;
      (* arm a transient failure *)
      Store.configure store { (Store.config store) with Store.Config.retry = (Some Retry.default_policy) };
      Retry.reset_stats ();
      ignore (Store.alloc_string store "second");
      Faults.arm Faults.Fsync_fails;
      Store.stabilise store;
      (* absorbed, not raised *)
      let stats = Store.stats store in
      check_bool "a retry was recorded" true (stats.Store.io_retries >= 1);
      check_bool "within the bound" true (stats.Store.io_retries <= 3);
      let rs = Retry.stats () in
      check_bool "operation absorbed" true (rs.Retry.absorbed >= 1);
      check_int "nothing exhausted" 0 rs.Retry.exhausted;
      check_bool "label counted" true
        (List.mem_assoc "stabilise" (Retry.counters ()));
      Store.close store;
      let store2 = Store.open_file path in
      check_int "both objects durable" 2 (Store.size store2))

let short_write_absorbed () =
  with_store_file (fun path ->
      let store = Store.create () in
      Store.configure store { (Store.config store) with Store.Config.backing = Some path };
      ignore (Store.alloc_string store "first");
      Store.stabilise store;
      Store.configure store { (Store.config store) with Store.Config.retry = (Some Retry.default_policy) };
      ignore (Store.alloc_string store "second");
      (* the journal append tears mid-record; the retry compacts *)
      Faults.arm (Faults.Short_write 3);
      Store.stabilise store;
      check_bool "retried" true ((Store.stats store).Store.io_retries >= 1);
      check_bool "within the bound" true ((Store.stats store).Store.io_retries <= 3);
      Store.close store;
      let store2 = Store.open_file path in
      check_int "both objects durable" 2 (Store.size store2);
      check_int "no torn tail left behind" 0
        (List.length (Integrity.check store2)))

let rename_failure_absorbed_in_snapshot_mode () =
  with_store_file (fun path ->
      let store = Store.create () in
      Store.configure store { (Store.config store) with Store.Config.backing = Some path };
      Store.configure store { (Store.config store) with Store.Config.retry = (Some Retry.default_policy) };
      ignore (Store.alloc_string store "snapshot payload");
      Faults.arm Faults.Rename_fails;
      Store.stabilise store;
      check_bool "retried" true ((Store.stats store).Store.io_retries >= 1);
      let store2 = Store.open_file path in
      check_int "image landed" 1 (Store.size store2))

let no_policy_means_raw_failures () =
  with_store_file (fun path ->
      let store = Store.create () in
      Store.configure store { (Store.config store) with Store.Config.backing = Some path };
      ignore (Store.alloc_string store "x");
      Store.stabilise store;
      check_bool "retry is opt-in" true (Store.retry_policy store = None);
      ignore (Store.alloc_string store "y");
      Faults.arm Faults.Fsync_fails;
      (match Store.stabilise store with
      | () -> Alcotest.fail "without a policy the fault must propagate"
      | exception Faults.Fault_injected _ -> ());
      check_int "no silent retries" 0 (Store.stats store).Store.io_retries)

(* -- close / crash idempotence ----------------------------------------- *)

let close_and_crash_are_idempotent () =
  (* unbacked snapshot store: every combination is a no-op *)
  let s = Store.create () in
  Store.close s;
  Store.close s;
  Store.crash s;
  Store.crash s;
  Store.close s;
  (* journalled, backed store: double close, crash after close, reopen *)
  with_store_file (fun path ->
      let store = Store.create () in
      Store.configure store { (Store.config store) with Store.Config.backing = Some path };
      ignore (Store.alloc_string store "durable");
      Store.stabilise store;
      Store.close store;
      Store.close store;
      Store.crash store;
      Store.crash store;
      let store2 = Store.open_file path in
      check_int "contents intact" 1 (Store.size store2);
      (* crash first, then close, on the reopened journalled store *)
      Store.crash store2;
      Store.close store2;
      Store.crash store2)

(* -- integrity extensions ----------------------------------------------- *)

let blob_anchors_checked () =
  let store = Store.create () in
  let live = Store.alloc_string store "anchored" in
  Store.set_root store "keep" (Pvalue.Ref live);
  check_int "live anchor is fine" 0
    (List.length (Integrity.check ~anchors:[ ("hyper.origin:Good", live) ] store));
  let dead = Oid.of_int 424_242 in
  (match Integrity.check ~anchors:[ ("hyper.origin:Bad", dead) ] store with
  | [ (Integrity.Bad_blob_anchor { key; target } as v) ] ->
    check_output "anchor key" "hyper.origin:Bad" key;
    check_bool "anchor target" true (Oid.equal target dead);
    check_bool "fatal" true (Integrity.fatal v)
  | vs -> Alcotest.failf "expected one bad anchor, got %d violations" (List.length vs));
  match Integrity.check_exn ~anchors:[ ("hyper.origin:Bad", dead) ] store with
  | () -> Alcotest.fail "check_exn must raise on a fatal violation"
  | exception Heap.Heap_error _ -> ()

let quarantined_refs_are_not_fatal () =
  let store = Store.create () in
  let target = Store.alloc_string store "suspect" in
  let holder = Store.alloc_record store "Holder" [| Pvalue.Ref target |] in
  Store.set_root store "h" (Pvalue.Ref holder);
  Store.quarantine_oid store target "test isolation";
  (match Integrity.check store with
  | [ (Integrity.Quarantined_ref { target = t; _ } as v) ] ->
    check_bool "points at the quarantine" true (Oid.equal t target);
    check_bool "non-fatal" false (Integrity.fatal v)
  | vs -> Alcotest.failf "expected one quarantined ref, got %d violations" (List.length vs));
  (* a store whose only blemish is quarantine must not raise *)
  Integrity.check_exn store

(* The top-level string dereference is a read like any other: once the
   string's oid is quarantined it raises the typed error, exactly as
   [Store.get_string] does, instead of handing back the suspect bytes. *)
let string_value_refuses_quarantined () =
  let store = Store.create () in
  let s = Store.alloc_string store "suspect" in
  Alcotest.(check string) "readable before" "suspect" (Store.string_value store (Pvalue.Ref s));
  Store.quarantine_oid store s "test isolation";
  let refuses name read =
    match read () with
    | (_ : string) -> Alcotest.failf "%s must refuse a quarantined string" name
    | exception Quarantine.Quarantined (o, _) ->
      check_bool (name ^ " names the oid") true (Oid.equal o s)
  in
  refuses "get_string" (fun () -> Store.get_string store s);
  refuses "string_value" (fun () -> Store.string_value store (Pvalue.Ref s))

let bad_weak_targets_reported () =
  let store = Store.create () in
  let target = Store.alloc_string store "weakly held" in
  let weak = Store.alloc_weak store (Pvalue.Ref target) in
  Store.set_root store "w" (Pvalue.Ref weak);
  Heap.remove (Store.heap store) target;
  Store.mark_dirty store;
  let weak_violations =
    List.filter
      (function Integrity.Bad_weak_target _ -> true | _ -> false)
      (Integrity.check store)
  in
  match weak_violations with
  | [ (Integrity.Bad_weak_target { holder; target = t } as v) ] ->
    check_bool "holder is the weak cell" true (Oid.equal holder weak);
    check_bool "target is the hole" true (Oid.equal t target);
    check_bool "fatal" true (Integrity.fatal v)
  | vs -> Alcotest.failf "expected one bad weak target, got %d" (List.length vs)

let suite =
  [
    test "scrubber primes then verifies" prime_then_verify;
    test "scrub budget is respected" budget_is_respected;
    test "bit flip in a 10k-object store is caught" bit_flip_in_big_store_detected;
    test "mutation re-primes instead of quarantining" mutation_reprimes_instead_of_quarantining;
    test "dangling target is quarantined" dangling_target_quarantined;
    test "quarantine survives stabilise and reopen" quarantine_survives_reopen;
    test "bit flip during save is salvaged on load" bit_flip_during_save_salvaged_on_load;
    test "transient fsync failure is absorbed" transient_fsync_absorbed;
    test "short write is absorbed" short_write_absorbed;
    test "rename failure is absorbed in snapshot mode" rename_failure_absorbed_in_snapshot_mode;
    test "without a policy faults propagate" no_policy_means_raw_failures;
    test "close and crash are idempotent" close_and_crash_are_idempotent;
    test "blob anchors are checked" blob_anchors_checked;
    test "quarantined refs are not fatal" quarantined_refs_are_not_fatal;
    test "string_value refuses a quarantined string" string_value_refuses_quarantined;
    test "bad weak targets are reported" bad_weak_targets_reported;
  ]
