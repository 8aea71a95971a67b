(* The unified Store.Config record — the only way to retune a live
   store: incremental single-knob updates compose, the record
   round-trips, and an explicit config is authoritative over recovery on
   open_file. *)

open Pstore
open Obs_util

let incremental_updates_compose () =
  (* three one-knob [{ config with ... }] updates land on the same state
     as one whole-record configure *)
  let stepwise = Store.create () in
  Store.configure stepwise { (Store.config stepwise) with Store.Config.compaction_limit = 128 };
  Store.configure stepwise { (Store.config stepwise) with Store.Config.retry = (Some Retry.default_policy) };
  let unified = Store.create () in
  Store.configure unified
    {
      Store.Config.compaction_limit = 128;
      group_window = 1;
      retry = Some Retry.default_policy;
      breaker = Store.Config.default.Store.Config.breaker;
      backing = None;
      trace_ring = Obs.default_ring_capacity;
      tracing = false;
      shards = 1;
    };
  check_bool "three one-knob updates equal one record" true
    (Store.config stepwise = Store.config unified)

let configure_config_is_identity () =
  with_store_file (fun path ->
      let store = Store.create () in
      Store.configure store { (Store.config store) with Store.Config.backing = Some path };
      Store.configure store { (Store.config store) with Store.Config.retry = (Some Retry.default_policy) };
      let before = Store.config store in
      Store.configure store before;
      check_bool "configure (config s) changes nothing" true
        (Store.config store = before);
      check_bool "backing round-trips" true
        (before.Store.Config.backing = Some path))

let default_config_leaves_backing_alone () =
  with_store_file (fun path ->
      let store = Store.create () in
      Store.configure store { (Store.config store) with Store.Config.backing = Some path };
      Store.configure store Store.Config.default;
      check_bool "backing = None means keep, not clear" true
        (Store.backing store = Some path))

let open_file_config_wins_over_recovery () =
  with_store_file (fun path ->
      let store = Store.create () in
      let a = Store.alloc_record store "A" [| Pvalue.Int 1l |] in
      Store.set_root store "a" (Pvalue.Ref a);
      Store.stabilise ~path store;
      Store.set_root store "b" (Pvalue.Int 2l);
      Store.stabilise store;
      Store.close store;
      (* default open recovers the journal, and the next stabilise
         appends to it... *)
      let recovered = Store.open_file path in
      check_int "recovered journal depth" 1 (Store.stats recovered).Store.journal_depth;
      Store.set_root recovered "b" (Pvalue.Int 3l);
      Store.stabilise recovered;
      check_int "default limit appends" 0 (Store.stats recovered).Store.compactions;
      Store.close recovered;
      (* ...but an explicit config is applied after recovery, so it wins:
         limit 0 compacts the recovered journal at the next stabilise *)
      let overridden =
        Store.open_file
          ~config:{ Store.Config.default with compaction_limit = 0; group_window = 4 }
          path
      in
      check_int "journal recovered before the config applies" 2
        (Store.stats overridden).Store.journal_depth;
      let c = Store.config overridden in
      check_int "explicit compaction limit wins" 0 c.Store.Config.compaction_limit;
      check_int "explicit group window wins" 4 c.Store.Config.group_window;
      Store.set_root overridden "b" (Pvalue.Int 4l);
      Store.stabilise overridden;
      let st = Store.stats overridden in
      check_int "limit 0 compacts" 1 st.Store.compactions;
      check_int "fresh journal" 0 st.Store.journal_depth;
      Store.close overridden)

let construction_config_reaches_obs () =
  let store =
    Store.create
      ~config:{ Store.Config.default with tracing = true; trace_ring = 4 }
      ()
  in
  let obs = Store.obs store in
  check_bool "tracing enabled at construction" true (Obs.enabled obs);
  check_int "ring capacity applied" 4 (Obs.ring_capacity obs);
  for _ = 1 to 10 do
    ignore (Store.alloc_string store "x")
  done;
  check_int "ring bounded by the configured capacity" 4
    (List.length (Obs.events obs));
  (* and the config reads back what the obs state says *)
  let c = Store.config store in
  check_bool "tracing reads back" true c.Store.Config.tracing;
  check_int "ring reads back" 4 c.Store.Config.trace_ring

let suite =
  [
    test "incremental one-knob updates compose" incremental_updates_compose;
    test "configure (config s) is the identity" configure_config_is_identity;
    test "the default config leaves backing alone" default_config_leaves_backing_alone;
    test "open_file applies an explicit config after recovery"
      open_file_config_wins_over_recovery;
    test "construction config reaches the observability state"
      construction_config_reaches_obs;
  ]
