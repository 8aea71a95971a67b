(* Transactions: commit keeps effects, abort restores the whole store —
   including live schema evolution (the paper's Section 7 scenario). *)

open Pstore
open Minijava
open Hyperprog
open Helpers

let rollback_restores_everything () =
  let store = fresh_store () in
  let keep = Store.alloc_string store "keep" in
  Store.set_root store "keep" (Pvalue.Ref keep);
  Store.set_blob store "blob" "original";
  let before_size = Store.size store in
  let result =
    Store.with_rollback store (fun () ->
        ignore (Store.alloc_string store "junk1");
        Store.set_root store "junk" (Pvalue.Ref (Store.alloc_string store "junk2"));
        Store.set_blob store "blob" "overwritten";
        Store.remove_root store "keep";
        failwith "abort")
  in
  (match result with
  | Error (Failure _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected abort");
  check_int "size restored" before_size (Store.size store);
  check_bool "root restored" true (Store.root store "keep" = Some (Pvalue.Ref keep));
  check_bool "junk root gone" true (Store.root store "junk" = None);
  check_bool "blob restored" true (Store.blob store "blob" = Some "original");
  check_output "string intact" "keep" (Store.get_string store keep);
  Integrity.check_exn store

let rollback_commit_keeps_effects () =
  let store = fresh_store () in
  let result =
    Store.with_rollback store (fun () ->
        let s = Store.alloc_string store "committed" in
        Store.set_root store "s" (Pvalue.Ref s);
        42)
  in
  check_bool "ok" true (result = Ok 42);
  check_bool "effect kept" true (Store.root store "s" <> None)

let transact_commit () =
  let store = fresh_store () in
  ignore (Transaction.fresh_vm store);
  match
    Transaction.transact store (fun vm ->
        compile_into vm [ person_source ];
        let p = new_person vm "tina" in
        Store.set_root store "tina" p;
        "done")
  with
  | Transaction.Committed ("done", vm) ->
    (* the committed VM keeps working over the shared store *)
    let tina = Option.get (Store.root store "tina") in
    let name = Vm.call_virtual vm ~recv:tina ~name:"getName" ~desc:"()Ljava.lang.String;" [] in
    check_output "usable after commit" "tina" (Rt.ocaml_string vm name)
  | Transaction.Committed _ -> Alcotest.fail "wrong value"
  | Transaction.Aborted (e, _) -> Alcotest.failf "aborted: %s" (Printexc.to_string e)

let transact_abort_restores_classes_and_data () =
  let store = fresh_store () in
  let vm0 = Transaction.fresh_vm store in
  compile_into vm0 [ person_source ];
  let p = new_person vm0 "zara" in
  Store.set_root store "zara" p;
  let before_census = Browser.Graph.census store in
  match
    Transaction.transact store (fun vm ->
        (* make a mess, then fail *)
        compile_into vm [ "public class Mess { public static int junk; }" ];
        ignore (new_person vm "ghost1");
        ignore (new_person vm "ghost2");
        Store.set_root store "zara" Pvalue.Null;
        failwith "transaction body fails")
  with
  | Transaction.Committed _ -> Alcotest.fail "expected abort"
  | Transaction.Aborted (_, vm) ->
    check_bool "Mess class rolled back" false (Rt.is_loaded vm "Mess");
    check_bool "Person still loaded" true (Rt.is_loaded vm "Person");
    let zara = Option.get (Store.root store "zara") in
    check_bool "root restored" true (zara <> Pvalue.Null);
    let name = Vm.call_virtual vm ~recv:zara ~name:"getName" ~desc:"()Ljava.lang.String;" [] in
    check_output "object usable via the fresh VM" "zara" (Rt.ocaml_string vm name);
    Alcotest.(check (list (pair string int))) "census unchanged" before_census
      (Browser.Graph.census store)

let live_evolution_commits () =
  let store = fresh_store () in
  let vm0 = Transaction.fresh_vm store in
  compile_into vm0 [ "public class Evo { public int n; }" ];
  let o = Vm.new_instance vm0 ~cls:"Evo" ~desc:"()V" [] in
  Store.set_root store "o" o;
  Store.set_field store (oid_of o) (Rt.field_slot vm0 "Evo" "n") (Pvalue.Int 5l);
  match
    Transaction.evolve store ~class_name:"Evo"
      ~new_source:"public class Evo { public long n; public int extra; }" ()
  with
  | Transaction.Committed (result, vm) ->
    check_int "instances" 1 result.Evolution.instances_updated;
    let n = Store.field store (oid_of o) (Rt.field_slot vm "Evo" "n") in
    check_bool "widened" true (Pvalue.equal n (Pvalue.Long 5L))
  | Transaction.Aborted (e, _) -> Alcotest.failf "aborted: %s" (Printexc.to_string e)

let live_evolution_aborts_cleanly () =
  let store = fresh_store () in
  let vm0 = Transaction.fresh_vm store in
  compile_into vm0 [ "public class Evo { public int n; }" ];
  let o = Vm.new_instance vm0 ~cls:"Evo" ~desc:"()V" [] in
  Store.set_root store "o" o;
  Store.set_field store (oid_of o) (Rt.field_slot vm0 "Evo" "n") (Pvalue.Int 7l);
  (* the converter divides by zero on the first instance: the evolution
     must roll back wholesale *)
  match
    Transaction.evolve store ~class_name:"Evo"
      ~new_source:"public class Evo { public int n; public int derived; }"
      ~converter:
        "public class Conv { public static void convert(Evo e) { int z = 0; e.derived = e.n / z; } }"
      ()
  with
  | Transaction.Committed _ -> Alcotest.fail "expected abort"
  | Transaction.Aborted (_, vm) ->
    (* old schema back: no `derived` field, value intact, no archive *)
    let n = Store.field store (oid_of o) (Rt.field_slot vm "Evo" "n") in
    check_bool "value intact" true (Pvalue.equal n (Pvalue.Int 7l));
    expect_jerror "java.lang.NoSuchFieldError" (fun () ->
        ignore (Rt.field_slot vm "Evo" "derived"));
    check_int "no archived version" 0 (List.length (Evolution.archived_versions vm "Evo"));
    check_bool "converter class rolled back" false (Rt.is_loaded vm "Conv")

(* -- transactions over a journalled store ----------------------------------- *)

let with_backing f =
  let path = Filename.temp_file "txn_wal" ".img" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; Journal.path_for path; path ^ ".tmp" ])
    (fun () -> f path)

(* A committed transaction on a journalled, backed store is durable
   without anyone calling stabilise: the commit barrier fsyncs the
   delta to the journal — and pays no compaction for it. *)
let journalled_commit_is_durable () =
  with_backing (fun path ->
      let store = fresh_store () in
      ignore (Transaction.fresh_vm store);
      Store.stabilise ~path store;
      let compactions_before = (Store.stats store).Store.compactions in
      (match Transaction.transact store (fun _vm -> Store.set_root store "t" (Pvalue.Int 9l)) with
      | Transaction.Committed (_, _) -> ()
      | Transaction.Aborted (e, _) -> Alcotest.failf "aborted: %s" (Printexc.to_string e));
      check_int "commit barrier appends, never compacts" compactions_before
        (Store.stats store).Store.compactions;
      let replica = Store.open_file path in
      check_bool "committed root durable with no explicit stabilise" true
        (Store.root replica "t" = Some (Pvalue.Int 9l));
      Store.close replica;
      Store.close store)

(* An aborted transaction must leave the on-disk journal replayable to
   the pre-transaction state — even when the transaction body itself
   stabilised part of its work into the journal. *)
let journalled_abort_leaves_replayable_journal () =
  with_backing (fun path ->
      let store = fresh_store () in
      ignore (Transaction.fresh_vm store);
      let keep = Store.alloc_string store "keep" in
      Store.set_root store "keep" (Pvalue.Ref keep);
      Store.stabilise ~path store;
      let fp_before = Image.encode (Store.contents store) in
      (match
         Transaction.transact store (fun _vm ->
             Store.set_root store "temp" (Pvalue.Int 1l);
             Store.stabilise store;
             ignore (Store.alloc_string store "junk");
             failwith "boom")
       with
      | Transaction.Aborted (Failure _, _) -> ()
      | Transaction.Aborted (e, _) -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | Transaction.Committed _ -> Alcotest.fail "expected abort");
      check_output "memory restored" fp_before (Image.encode (Store.contents store));
      let replica = Store.open_file path in
      check_output "journal replays to pre-transaction state" fp_before
        (Image.encode (Store.contents replica));
      check_bool "stabilised-then-aborted root gone from disk" true
        (Store.root replica "temp" = None);
      check_bool "pre-transaction root intact" true
        (Store.root replica "keep" = Some (Pvalue.Ref keep));
      Integrity.check_exn replica;
      Store.close replica;
      Store.close store)

let suite =
  [
    test "rollback restores heap, roots and blobs" rollback_restores_everything;
    test "successful body commits" rollback_commit_keeps_effects;
    test "transact: commit" transact_commit;
    test "transact: abort restores classes and data" transact_abort_restores_classes_and_data;
    test "live evolution in a transaction commits" live_evolution_commits;
    test "live evolution aborts cleanly" live_evolution_aborts_cleanly;
    test "journalled commit is durable via the barrier" journalled_commit_is_durable;
    test "journalled abort leaves a replayable journal" journalled_abort_leaves_replayable_journal;
  ]

let props = []
