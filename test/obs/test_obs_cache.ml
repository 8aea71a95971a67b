(* Observability of the hot-path caches: the cache-hit / cache-miss /
   group-commit op classes added for the caching layer.  Counters are
   monotone, hits + misses account for every cache lookup, and — as for
   every other op class — the tracing-off path records no latency and
   no trace events. *)

open Pstore
open Hyperprog
open Obs_util

let password = Registry.built_in_password

let vm_with_hp () =
  let store, vm = fresh_hyper_vm () in
  let hp, _, _ = marry_example vm in
  let uid = Registry.add_hp vm ~password hp in
  (store, vm, uid)

let hits_plus_misses_equal_lookups () =
  let store, vm, uid = vm_with_hp () in
  let obs = Store.obs store in
  let lookups = 17 in
  for i = 1 to lookups do
    ignore (Registry.try_get_link vm ~password ~hp:uid ~link:(i mod 4))
  done;
  let hit = Obs.count obs Obs.Cache_hit in
  let miss = Obs.count obs Obs.Cache_miss in
  check_int "hit + miss = getLink lookups" lookups (hit + miss);
  check_int "the span counter agrees" lookups (Obs.count obs Obs.Get_link);
  check_bool "warm loop actually hit" true (hit > miss)

let compile_cache_accounts_too () =
  let store, vm = fresh_hyper_vm () in
  let obs = Store.obs store in
  let src = "public class ObsK { public static int v() { return 5; } }" in
  ignore (Dynamic_compiler.compile_strings vm ~names:[ "ObsK" ] [ src ]);
  ignore (Dynamic_compiler.compile_strings vm ~names:[ "ObsK" ] [ src ]);
  check_int "one miss then one hit" 1 (Obs.count obs Obs.Cache_miss);
  check_int "the repeat hit" 1 (Obs.count obs Obs.Cache_hit);
  check_int "exactly one real compile" 1 (Obs.count obs Obs.Compile)

let counters_are_monotone () =
  let store, vm, uid = vm_with_hp () in
  let obs = Store.obs store in
  let last = ref (-1) in
  for i = 0 to 9 do
    ignore (Registry.try_get_link vm ~password ~hp:uid ~link:(i mod 3));
    let total = Obs.count obs Obs.Cache_hit + Obs.count obs Obs.Cache_miss in
    check_bool "each lookup advances hit+miss" true (total > !last);
    last := total
  done

let group_commit_counted_per_batch () =
  with_store_file (fun path ->
      let config =
        {
          Store.Config.default with
          Store.Config.group_window = 4;
          backing = Some path;
        }
      in
      let store = Store.create ~config () in
      let obs = Store.obs store in
      let a = Store.alloc_record store "A" [| Pvalue.Int 0l; Pvalue.Null |] in
      Store.set_root store "a" (Pvalue.Ref a);
      Store.stabilise store (* compaction, not a batch *);
      check_int "no batches yet" 0 (Obs.count obs Obs.Group_commit);
      for i = 1 to 3 do
        (* multi-op delta: one batch record per stabilise *)
        Store.set_field store a 0 (Pvalue.Int (Int32.of_int i));
        Store.set_blob store "b" (string_of_int i);
        Store.stabilise store
      done;
      check_int "one group-commit per batched stabilise" 3
        (Obs.count obs Obs.Group_commit);
      (* a single-op delta keeps the legacy framing: no batch counted *)
      Store.set_field store a 0 (Pvalue.Int 99l);
      Store.stabilise store;
      check_int "single-op deltas are not batches" 3 (Obs.count obs Obs.Group_commit);
      check_bool "appends were counted alongside" true
        (Obs.count obs Obs.Journal_append >= 4);
      Store.close store)

let new_ops_have_names_and_order () =
  (* every new op renders, and all_ops appends at the end so existing
     counts-order expectations are unchanged *)
  check_output "cache-hit name" "cache-hit" (Obs.op_name Obs.Cache_hit);
  check_output "cache-miss name" "cache-miss" (Obs.op_name Obs.Cache_miss);
  check_output "group-commit name" "group-commit" (Obs.op_name Obs.Group_commit);
  check_output "net-request name" "net-request" (Obs.op_name Obs.Net_request);
  check_output "net-error name" "net-error" (Obs.op_name Obs.Net_error);
  match List.rev Obs.all_ops with
  | Obs.Net_error :: Obs.Net_request :: Obs.Conflict :: Obs.Session_commit :: Obs.Degraded_op
    :: Obs.Repair :: Obs.Group_commit :: Obs.Cache_miss :: Obs.Cache_hit :: _ -> ()
  | _ -> Alcotest.fail "new op classes must sit at the end of all_ops"

let tracing_off_path_unchanged () =
  let store, vm, uid = vm_with_hp () in
  let obs = Store.obs store in
  Obs.clear_events obs;
  check_bool "tracing starts off" false (Obs.enabled obs);
  for i = 0 to 7 do
    ignore (Registry.try_get_link vm ~password ~hp:uid ~link:(i mod 2))
  done;
  check_bool "counters advanced" true (Obs.count obs Obs.Cache_hit > 0);
  check_int "no trace events while tracing is off" 0 (List.length (Obs.events obs));
  check_bool "no latency recorded for the cached lookups" true
    (Obs.latency obs Obs.Get_link = None);
  (* flip tracing on: the same path now records spans *)
  Obs.set_enabled obs true;
  ignore (Registry.try_get_link vm ~password ~hp:uid ~link:0);
  check_bool "tracing on records the span" true (Obs.latency obs Obs.Get_link <> None)

let suite =
  [
    test "hits + misses account for every lookup" hits_plus_misses_equal_lookups;
    test "the compile cache reports through the same counters" compile_cache_accounts_too;
    test "cache counters are monotone" counters_are_monotone;
    test "group commits are counted per batch record" group_commit_counted_per_batch;
    test "new op classes render and extend all_ops at the end" new_ops_have_names_and_order;
    test "the tracing-off path is unchanged" tracing_off_path_unchanged;
  ]
