(* The store facade: a heap, named roots, and a blob table, with
   stabilisation to a backing file.  This plays the role PJama plays in the
   paper: the environment in which programs are composed, stored and
   executed.

   The store is also where higher layers register "pins": transient strong
   roots contributed by a running VM (static fields, stack frames) that the
   garbage collector must honour even though they are not named roots.

   Durability is a property of the store, not a mode: every backed store
   pairs its image with a write-ahead journal.  Mutations made through
   this module are buffered as journal ops, stabilise appends and fsyncs
   just the delta, and the image is rewritten only at compaction points
   (first stabilise, journal over the compaction limit — [0] rewrites on
   every stabilise — or after operations the journal cannot express: a
   GC sweep, or direct heap surgery flagged via [mark_dirty]).

   The object space is partitioned into N shards (N fixed at creation,
   persisted in the store manifest).  Each shard owns an oid-hash slice of
   the objects plus the key-hashed roots and blobs, and carries its own
   image file, journal, quarantine set, checksum table, scrub cursor and
   counters, so stabilise, scrub and GC mark can run shard-wise on the
   domain pool.  N = 1 — the default — keeps the legacy flat single-file
   layout, byte for byte.

   Multi-shard journalled crash atomicity: every stabilise gets a
   store-level sequence number; the delta lands as one seq-stamped batch
   record per dirty shard, and the sequence number is committed by
   appending it to the store's commit-marker file only after every dirty
   shard journal has been fsynced.  Recovery replays, per shard, exactly
   the batches whose sequence number the marker shows committed — so a
   crash between per-shard writes rolls the whole stabilise back, never
   half of it.

   Every operation is counted through the store's [Obs.t].  Counting is a
   single array increment; latency timing and trace events only happen
   when tracing is enabled, so the hot accessors below branch on
   [Obs.enabled] explicitly rather than paying a closure on the untraced
   path. *)

(* Per-shard state.  The [sobs] counters are bumped from pool domains
   (counters are atomic; tracing is never enabled on a shard Obs) and
   delta-merged into the store-level [obs] after each parallel section. *)
type shard = {
  sq : Quarantine.t; (* corrupt objects, isolated not fatal *)
  scrcs : int32 Oid.Table.t; (* per-object checksums, primed by the scrubber *)
  sscrub : Scrub.state;
  sobs : Obs.t;
  shealth : Health.t; (* fault-domain state machine *)
  mutable swal : Journal.t option;
  mutable spending : Journal.op list; (* newest first *)
  mutable spending_count : int;
  mutable sepoch : int; (* current on-disk image epoch of this shard *)
  mutable sdirty : bool; (* journal has appended-but-unsynced bytes *)
  mutable sneeds_full : bool; (* this shard's journal can't express its state *)
  mutable sremembered : Oid.Set.t; (* live oids here referenced from other shards *)
}

type t = {
  heap : Heap.t;
  roots : Roots.t;
  blobs : (string, string) Hashtbl.t;
  shards : shard array; (* length >= 1, fixed at creation *)
  obs : Obs.t;
  props : Props.t; (* transient per-store state attached by higher layers *)
  mutable marker : Manifest.Marker.t option; (* multi-shard commit marker *)
  mutable marker_epoch : int; (* current marker file index; -1 = none yet *)
  mutable seq : int; (* store-level stabilise sequence number *)
  mutable committed : int; (* highest seq durably recorded in the marker *)
  mutable side_epoch : int; (* bumped on events that invalidate side caches *)
  mutable retry : Retry.policy option; (* transient-I/O retry, opt-in *)
  mutable breaker : int; (* consecutive exhausted failures before demotion; 0 = off *)
  mutable unhealthy : int; (* shards currently not Healthy (hot-path gate) *)
  mutable io_retries : int;
  mutable backing : string option;
  mutable pins : (unit -> Oid.t list) list;
  mutable stabilise_count : int;
  mutable gc_count : int;
  mutable needs_full : bool; (* journal can't express state since last image *)
  mutable compaction_limit : int;
  mutable group_window : int; (* stabilises per fsync; 1 = every stabilise *)
  mutable unsynced : int; (* group-committed batches not yet fsynced *)
  mutable compactions : int;
  mutable replayed : int;
  mutable recovered_torn : bool;
  mutable rollback_depth : int; (* compaction is deferred inside with_rollback *)
  mvcc : mvcc; (* snapshot-session versioning state *)
}

(* MVCC snapshot-session state.  Populated only while snapshot sessions
   are open: version chains preserve pre-images for snapshot readers,
   stamps feed first-committer-wins conflict detection, and everything
   here is cleared the moment the last session closes — a store without
   open sessions pays one list-emptiness check per write and nothing
   else. *)
and mvcc = {
  mutable commit_seq : int; (* committed-write epoch, monotone *)
  mutable direct_dirty : bool;
      (* top-level writes share one provisional epoch until sealed *)
  mutable open_sessions : session list; (* snapshot sessions, newest first *)
  mutable next_session_id : int;
  versions : (int * Heap.entry option) list Oid.Table.t;
      (* per-oid pre-image chain, newest epoch first: [(e, v)] is the
         entry's state from just before the write at epoch [e]
         ([None] = the object did not exist yet) *)
  vstamps : int Oid.Table.t; (* oid -> epoch of its last committed write *)
  root_versions : (string, (int * Pvalue.t option) list) Hashtbl.t;
  root_stamps : (string, int) Hashtbl.t;
  blob_versions : (string, (int * string option) list) Hashtbl.t;
  blob_stamps : (string, int) Hashtbl.t;
}

and session = {
  s_id : int;
  s_store : t;
  s_epoch : int; (* commit epoch pinned at [open_session] *)
  s_overlay : Heap.entry Oid.Table.t;
      (* read-your-writes: private copies of objects this session wrote *)
  s_root_over : (string, Pvalue.t option) Hashtbl.t; (* [None] = removed *)
  s_blob_over : (string, string option) Hashtbl.t;
  mutable s_ops : Journal.op list; (* buffered writes, newest first *)
  mutable s_nops : int;
  mutable s_written : Oid.Set.t; (* pre-existing oids this session wrote *)
  mutable s_allocated : Oid.Set.t; (* oids reserved by this session's allocs *)
  mutable s_state : [ `Live | `Committed | `Aborted ];
}

type store = t

let default_compaction_limit = 4096
let max_shards = 64
let default_breaker = 3
(* a sharded open that salvages at least this many entries from one
   shard's image opens that shard degraded *)
let salvage_degrade = 8

module Config = struct
  type nonrec t = {
    compaction_limit : int;
    group_window : int;
    retry : Retry.policy option;
    breaker : int;
    backing : string option;
    trace_ring : int;
    tracing : bool;
    shards : int;
  }

  let default =
    {
      compaction_limit = default_compaction_limit;
      group_window = 1;
      retry = None;
      breaker = default_breaker;
      backing = None;
      trace_ring = Obs.default_ring_capacity;
      tracing = false;
      shards = 1;
    }
end

let make_shard () =
  {
    sq = Quarantine.create ();
    scrcs = Oid.Table.create 64;
    sscrub = Scrub.create ();
    (* counters only — no ring, tracing never enabled *)
    sobs = Obs.create ~ring_capacity:0 ();
    shealth = Health.create ();
    swal = None;
    spending = [];
    spending_count = 0;
    sepoch = 0;
    sdirty = false;
    sneeds_full = false;
    sremembered = Oid.Set.empty;
  }

let fresh_mvcc () =
  {
    commit_seq = 0;
    direct_dirty = false;
    open_sessions = [];
    next_session_id = 1;
    versions = Oid.Table.create 64;
    vstamps = Oid.Table.create 64;
    root_versions = Hashtbl.create 16;
    root_stamps = Hashtbl.create 16;
    blob_versions = Hashtbl.create 16;
    blob_stamps = Hashtbl.create 16;
  }

let make ?(obs = Obs.create ()) ?(nshards = 1) () =
  if nshards < 1 || nshards > max_shards then
    invalid_arg (Printf.sprintf "Store: shard count must be in 1..%d" max_shards);
  {
    heap = Heap.create ();
    roots = Roots.create ();
    blobs = Hashtbl.create 16;
    shards = Array.init nshards (fun _ -> make_shard ());
    obs;
    props = Props.create ();
    marker = None;
    marker_epoch = -1;
    seq = 0;
    committed = 0;
    side_epoch = 0;
    retry = None;
    breaker = default_breaker;
    unhealthy = 0;
    io_retries = 0;
    backing = None;
    pins = [];
    stabilise_count = 0;
    gc_count = 0;
    needs_full = true;
    compaction_limit = default_compaction_limit;
    group_window = 1;
    unsynced = 0;
    compactions = 0;
    replayed = 0;
    recovered_torn = false;
    rollback_depth = 0;
    mvcc = fresh_mvcc ();
  }

let heap store = store.heap
let roots store = store.roots
let obs store = store.obs
let props store = store.props

(* -- shard routing -------------------------------------------------------- *)

let nshards store = Array.length store.shards
let shards = nshards

let shard_ix_oid store oid =
  let n = Array.length store.shards in
  if n = 1 then 0 else Manifest.shard_of_oid ~count:n oid

let shard_ix_key store key =
  let n = Array.length store.shards in
  if n = 1 then 0 else Manifest.shard_of_key ~count:n key

let shard_of = shard_ix_oid
let shard_oid store oid = Array.unsafe_get store.shards (shard_ix_oid store oid)
let shard_key store key = store.shards.(shard_ix_key store key)
let s0 store = store.shards.(0)

(* Side-cache invalidation: higher layers (the registry's getLink memo)
   stamp their cached entries with this epoch; any event that can change
   what a read observes without going through their own API — quarantine
   churn, a GC sweep, rollback, direct heap surgery — bumps it. *)
let invalidation_epoch store = store.side_epoch
let bump_epoch store = store.side_epoch <- store.side_epoch + 1

let backing store = store.backing

(* -- shard Obs merging ----------------------------------------------------

   Parallel sections bump per-shard counters from pool domains; the
   store-level [obs] (which tests and tooling read) receives the deltas
   once the section is over, on the calling domain. *)

let merged_ops =
  [| Obs.Journal_append; Obs.Group_commit; Obs.Image_save; Obs.Image_load; Obs.Retry |]

let shard_counts store =
  Array.map (fun sh -> Array.map (fun op -> Obs.count sh.sobs op) merged_ops) store.shards

let merge_shard_counts store before =
  Array.iteri
    (fun i sh ->
      Array.iteri
        (fun j op ->
          let d = Obs.count sh.sobs op - before.(i).(j) in
          if d > 0 then Obs.add store.obs op d)
        merged_ops)
    store.shards

(* -- journalling ----------------------------------------------------------- *)

(* A mutation is worth recording only when a journal can receive it: the
   store is backed and does not already owe a full image (which will
   capture the mutation anyway).  An unbacked store records nothing. *)
let journalling store =
  match store.backing with
  | Some _ -> not store.needs_full
  | None -> false

(* Single-shard journal close (legacy flat layout). *)
let close_wal store =
  let sh = s0 store in
  match sh.swal with
  | Some w ->
    (* An orderly close is a durability barrier: batches whose fsync was
       deferred by the group window must land before the handle goes. *)
    if store.unsynced > 0 then (try Journal.sync w with _ -> ());
    store.unsynced <- 0;
    Journal.close w;
    sh.swal <- None
  | None -> ()

let set_compaction_limit store n =
  if n < 0 then invalid_arg "Store.set_compaction_limit: negative";
  store.compaction_limit <- n

let group_window store = store.group_window

(* Group commit: with window n > 1, journalled stabilise coalesces each
   delta into one batch record (per dirty shard) and fsyncs only every
   n-th stabilise (and at compaction and close).  A crash can lose up to
   n-1 recent batches, but each lost batch vanishes whole — never a
   prefix of a delta, and on a sharded store never one shard's half of
   a stabilise (the commit marker gates replay). *)
let set_group_window store n =
  if n < 1 then invalid_arg "Store.set_group_window: window must be >= 1";
  store.group_window <- n

let retry_policy store = store.retry

(* -- shard health (fault domains) -----------------------------------------

   Each shard is a fault domain: repeated exhausted transient I/O
   failures (the circuit breaker), a salvage-heavy image load, or an
   unreadable image at open demote ONLY that shard.  A demoted shard is
   read-only — reads serve from memory, writes raise the typed
   [Failure.Shard_degraded] — while every other shard keeps full
   service.  [Store.repair] is the way back.

   The hot-path cost while everything is healthy is one int load
   ([store.unhealthy = 0]); state transitions happen on the calling
   domain only, never from the pool. *)

let refresh_unhealthy store =
  store.unhealthy <-
    Array.fold_left (fun acc sh -> if Health.healthy sh.shealth then acc else acc + 1) 0
      store.shards

let shard_healthy store k = Health.healthy store.shards.(k).shealth
let healthy store = store.unhealthy = 0

let check_shard_index store k =
  if k < 0 || k >= nshards store then
    invalid_arg (Printf.sprintf "Store: shard %d out of range (store has %d)" k (nshards store))

let degrade_shard store k reason =
  check_shard_index store k;
  Health.degrade store.shards.(k).shealth reason;
  refresh_unhealthy store

let offline_shard store k reason =
  check_shard_index store k;
  Health.offline store.shards.(k).shealth reason;
  refresh_unhealthy store

let refuse_write store k st =
  let sh = store.shards.(k) in
  Health.note_refused_write sh.shealth;
  Obs.incr store.obs Obs.Degraded_op;
  let state, reason =
    match st with
    | Health.Degraded r -> ("degraded", r)
    | Health.Offline r -> ("offline", r)
    | Health.Healthy -> ("healthy", "") (* unreachable: guards check first *)
  in
  raise (Failure.Shard_degraded { shard = k; state; reason })

(* Write guard: free while all shards are healthy, one state check on
   the op's own shard otherwise. *)
let guard_shard_write store k =
  if store.unhealthy > 0 then begin
    match Health.state store.shards.(k).shealth with
    | Health.Healthy -> ()
    | st -> refuse_write store k st
  end

let guard_write_oid store oid =
  if store.unhealthy > 0 then guard_shard_write store (shard_ix_oid store oid)

let guard_write_key store key =
  if store.unhealthy > 0 then guard_shard_write store (shard_ix_key store key)

(* Allocation routes by the oid the heap will hand out next, so the
   guard must predict it: refusing AFTER allocating would leak a live
   object into a read-only shard. *)
let guard_alloc store =
  if store.unhealthy > 0 then
    guard_shard_write store (shard_ix_oid store (Oid.of_int (Heap.next_oid store.heap)))

(* Reads always serve (that is the point of degraded mode); a read that
   lands on a demoted shard is counted so operators can see traffic
   running on reduced redundancy. *)
let note_read store oid =
  if store.unhealthy > 0 then begin
    let sh = shard_oid store oid in
    if not (Health.healthy sh.shealth) then begin
      Health.note_degraded_read sh.shealth;
      Obs.incr store.obs Obs.Degraded_op
    end
  end

let note_read_key store key =
  if store.unhealthy > 0 then begin
    let sh = shard_key store key in
    if not (Health.healthy sh.shealth) then begin
      Health.note_degraded_read sh.shealth;
      Obs.incr store.obs Obs.Degraded_op
    end
  end

(* The circuit breaker: after a failed stabilise/compaction, demote (on
   the calling domain) every shard whose consecutive exhausted-failure
   count crossed the threshold.  Successful shard I/O resets the count
   from the pool, so only a persistent run of failures trips it. *)
let trip_breakers store =
  if store.breaker > 0 && nshards store > 1 then begin
    Array.iter
      (fun sh ->
        if Health.healthy sh.shealth && Health.failures sh.shealth >= store.breaker then
          Health.degrade sh.shealth
            (Printf.sprintf "circuit breaker: %d consecutive transient I/O failures"
               (Health.failures sh.shealth)))
      store.shards;
    refresh_unhealthy store
  end

type shard_health = {
  h_shard : int;
  h_state : Health.state;
  h_failures : int; (* consecutive exhausted transient failures *)
  h_trips : int;
  h_degraded_reads : int;
  h_refused_writes : int;
  h_repairs : int;
}

let health store =
  Array.to_list
    (Array.mapi
       (fun k sh ->
         {
           h_shard = k;
           h_state = Health.state sh.shealth;
           h_failures = Health.failures sh.shealth;
           h_trips = Health.trips sh.shealth;
           h_degraded_reads = Health.degraded_reads sh.shealth;
           h_refused_writes = Health.refused_writes sh.shealth;
           h_repairs = Health.repairs sh.shealth;
         })
       store.shards)

let first_unhealthy store =
  let found = ref None in
  Array.iteri
    (fun k sh ->
      if !found = None && not (Health.healthy sh.shealth) then
        found := Some (k, Health.state sh.shealth))
    store.shards;
  !found

(* Run one shard's I/O under the store's retry policy ([None] = fail
   fast, the crash-injection tests' contract).  Runs on pool domains:
   retries happen in place (after [undo] rolls partial effects back),
   exhaustion feeds the shard's consecutive-failure counter — the
   circuit breaker's input — and success resets it.  Only the counters
   are touched here; the breaker trip itself (a state transition)
   happens later on the calling domain, in [trip_breakers]. *)
let shard_io store sh cls ?(undo = fun () -> ()) f =
  match store.retry with
  | None -> begin
    match f () with
    | v ->
      Health.note_ok sh.shealth;
      v
    | exception e ->
      if Retry.transient e then Health.note_failure sh.shealth;
      raise e
  end
  | Some policy ->
    let v =
      Retry.run ~policy ~obs:sh.sobs ~label:(Retry.class_name cls)
        ~on_retry:(fun _ _ -> undo ())
        ~on_exhausted:(fun _ -> Health.note_failure sh.shealth)
        f
    in
    Health.note_ok sh.shealth;
    v

(* -- configuration --------------------------------------------------------- *)

let configure store (c : Config.t) =
  if c.Config.shards <> nshards store then
    invalid_arg
      (Printf.sprintf
         "Store.configure: shard count is fixed at store creation (store has %d, config asks for \
          %d)"
         (nshards store) c.Config.shards);
  set_compaction_limit store c.Config.compaction_limit;
  set_group_window store c.Config.group_window;
  store.retry <- c.Config.retry;
  if c.Config.breaker < 0 then invalid_arg "Store.configure: negative breaker threshold";
  store.breaker <- c.Config.breaker;
  (* [backing = None] leaves the current backing alone: store identity is
     not a tunable, and [open_file ?config] must not clear the path it
     just opened. *)
  (match c.Config.backing with Some p -> store.backing <- Some p | None -> ());
  if Obs.ring_capacity store.obs <> c.Config.trace_ring then
    Obs.set_ring_capacity store.obs c.Config.trace_ring;
  Obs.set_enabled store.obs c.Config.tracing

let config store : Config.t =
  {
    Config.compaction_limit = store.compaction_limit;
    group_window = store.group_window;
    retry = store.retry;
    breaker = store.breaker;
    backing = store.backing;
    trace_ring = Obs.ring_capacity store.obs;
    tracing = Obs.enabled store.obs;
    shards = nshards store;
  }

let create ?config () =
  let nshards =
    match config with
    | Some c -> c.Config.shards
    | None -> 1
  in
  let store = make ~nshards () in
  Option.iter (configure store) config;
  store

let mark_dirty store =
  (* Raw heap surgery happens behind the MVCC hooks' back; a pinned
     snapshot could not survive it. *)
  if store.mvcc.open_sessions <> [] then
    invalid_arg "Store.mark_dirty: open snapshot sessions pin the object graph; commit or abort them first";
  store.needs_full <- true;
  bump_epoch store;
  (* Raw heap surgery invalidates every recorded checksum; the
     scrubber re-primes them on its next pass. *)
  Array.iter (fun sh -> Oid.Table.reset sh.scrcs) store.shards

(* Every journal op belongs to exactly one shard: object mutations hash
   by oid, root/blob mutations by key.  No two shards ever carry ops on
   the same object or key, so cross-shard replay order cannot matter. *)
let record store op =
  let sh =
    match op with
    | Journal.Alloc (oid, _) | Journal.Set_field (oid, _, _) | Journal.Set_elem (oid, _, _) ->
      shard_oid store oid
    | Journal.Set_root (key, _)
    | Journal.Remove_root key
    | Journal.Set_blob (key, _)
    | Journal.Remove_blob key -> shard_key store key
  in
  sh.spending <- op :: sh.spending;
  sh.spending_count <- sh.spending_count + 1

let pending_total store = Array.fold_left (fun acc sh -> acc + sh.spending_count) 0 store.shards

(* -- MVCC versioning ------------------------------------------------------

   A snapshot session pins the store's committed-write epoch
   ([mvcc.commit_seq]) at [open_session].  While at least one snapshot
   session is open, every mutation of shared state first preserves the
   pre-image of the object / root / blob it is about to change (once per
   epoch) and stamps the target with the writing epoch.  A snapshot
   reader resolves a target by walking its version chain for the oldest
   pre-image whose epoch is newer than its snapshot; commit uses the
   stamps for first-committer-wins detection.  With no session open the
   tables are empty and every hook below is one list-emptiness check. *)

let sessions_open store = store.mvcc.open_sessions <> []
let open_session_count store = List.length store.mvcc.open_sessions

(* Top-level writes made since the last seal share one provisional epoch,
   [commit_seq + 1]; sealing closes it off before a session pins a
   snapshot or a commit claims an epoch of its own. *)
let seal_epoch store =
  let m = store.mvcc in
  if m.direct_dirty then begin
    m.commit_seq <- m.commit_seq + 1;
    m.direct_dirty <- false
  end

let capture_oid store epoch oid ~pre_image =
  let m = store.mvcc in
  (match Oid.Table.find_opt m.versions oid with
  | Some ((e, _) :: _) when e = epoch -> () (* already captured this epoch *)
  | prior ->
    let chain = match prior with Some c -> c | None -> [] in
    let before =
      if pre_image then Option.map Journal.copy_entry (Heap.find store.heap oid) else None
    in
    Oid.Table.replace m.versions oid ((epoch, before) :: chain));
  Oid.Table.replace m.vstamps oid epoch

let capture_key versions stamps epoch key current =
  (match Hashtbl.find_opt versions key with
  | Some ((e, _) :: _) when e = epoch -> ()
  | prior ->
    let chain = match prior with Some c -> c | None -> [] in
    Hashtbl.replace versions key ((epoch, current ()) :: chain));
  Hashtbl.replace stamps key epoch

(* Hooks on the direct write path: called before the mutation lands
   (allocation captures an absent pre-image once the oid is known). *)
let mvcc_note_write store oid =
  if sessions_open store then begin
    let m = store.mvcc in
    m.direct_dirty <- true;
    capture_oid store (m.commit_seq + 1) oid ~pre_image:true
  end

let mvcc_note_alloc store oid =
  if sessions_open store then begin
    let m = store.mvcc in
    m.direct_dirty <- true;
    capture_oid store (m.commit_seq + 1) oid ~pre_image:false
  end

let mvcc_note_root store key =
  if sessions_open store then begin
    let m = store.mvcc in
    m.direct_dirty <- true;
    capture_key m.root_versions m.root_stamps (m.commit_seq + 1) key (fun () ->
        Roots.find store.roots key)
  end

let mvcc_note_blob store key =
  if sessions_open store then begin
    let m = store.mvcc in
    m.direct_dirty <- true;
    capture_key m.blob_versions m.blob_stamps (m.commit_seq + 1) key (fun () ->
        Hashtbl.find_opt store.blobs key)
  end

(* The chain is newest-first, so the LAST element whose epoch is newer
   than the snapshot holds the state the snapshot saw. *)
let chain_pick snap chain =
  let rec go best = function
    | [] -> best
    | (e, v) :: rest -> if e > snap then go (Some v) rest else best
  in
  go None chain

let snapshot_entry store snap oid =
  match Oid.Table.find_opt store.mvcc.versions oid with
  | None | Some [] -> Heap.find store.heap oid
  | Some chain -> (
    match chain_pick snap chain with
    | Some before -> before
    | None -> Heap.find store.heap oid)

let snapshot_root_value store snap key =
  match Hashtbl.find_opt store.mvcc.root_versions key with
  | None | Some [] -> Roots.find store.roots key
  | Some chain -> (
    match chain_pick snap chain with
    | Some v -> v
    | None -> Roots.find store.roots key)

let snapshot_blob_value store snap key =
  match Hashtbl.find_opt store.mvcc.blob_versions key with
  | None | Some [] -> Hashtbl.find_opt store.blobs key
  | Some chain -> (
    match chain_pick snap chain with
    | Some v -> v
    | None -> Hashtbl.find_opt store.blobs key)

(* -- roots --------------------------------------------------------------- *)

let set_root store name v =
  guard_write_key store name;
  Obs.incr store.obs Obs.Set;
  mvcc_note_root store name;
  Roots.set store.roots name v;
  if journalling store then record store (Journal.Set_root (name, v))

let root store name =
  note_read_key store name;
  Obs.incr store.obs Obs.Root_lookup;
  Roots.find store.roots name

let remove_root store name =
  guard_write_key store name;
  Obs.incr store.obs Obs.Set;
  mvcc_note_root store name;
  Roots.remove store.roots name;
  if journalling store then record store (Journal.Remove_root name)

let root_names store = Roots.names store.roots

(* -- allocation & access ------------------------------------------------- *)

(* Allocations are journalled with a copy of the entry as allocated —
   a copy, because the live entry is mutable and the op may outlive
   arbitrary later mutations (rollback replays it).  Subsequent mutations
   arrive as their own records, so replay converges on the same final
   state in the same order. *)
let journal_alloc store oid =
  record store (Journal.Alloc (oid, Journal.copy_entry (Heap.get store.heap oid)))

let alloc_record store class_name fields =
  guard_alloc store;
  Obs.span store.obs Obs.Alloc ~label:class_name (fun () ->
      let oid = Heap.alloc_record store.heap class_name fields in
      mvcc_note_alloc store oid;
      if journalling store then journal_alloc store oid;
      oid)

let alloc_array store elem_type elems =
  guard_alloc store;
  Obs.span store.obs Obs.Alloc ~label:elem_type (fun () ->
      let oid = Heap.alloc_array store.heap elem_type elems in
      mvcc_note_alloc store oid;
      if journalling store then journal_alloc store oid;
      oid)

let alloc_string store s =
  guard_alloc store;
  Obs.span store.obs Obs.Alloc ~label:"string" (fun () ->
      let oid = Heap.alloc_string store.heap s in
      mvcc_note_alloc store oid;
      if journalling store then journal_alloc store oid;
      oid)

let alloc_weak store target =
  guard_alloc store;
  Obs.span store.obs Obs.Alloc ~label:"weak" (fun () ->
      let oid = Heap.alloc_weak store.heap target in
      mvcc_note_alloc store oid;
      if journalling store then journal_alloc store oid;
      oid)

(* Reads of a quarantined oid fail with the typed [Quarantined] error so
   callers can degrade gracefully instead of consuming corrupt state.
   One lookup: the reason doubles as the membership test. *)
let check_q store oid =
  note_read store oid;
  match Quarantine.find (shard_oid store oid).sq oid with
  | Some reason ->
    Obs.incr store.obs Obs.Quarantine_hit;
    raise (Quarantine.Quarantined (oid, reason))
  | None -> ()

(* A mutation invalidates the object's recorded checksum; the scrubber
   re-primes it on its next pass (trust-on-first-scan — no per-write
   hashing cost on the hot path). *)
let invalidate_crc store oid = Oid.Table.remove (shard_oid store oid).scrcs oid

let get store oid =
  if Obs.enabled store.obs then
    Obs.span store.obs Obs.Get ~oid (fun () ->
        check_q store oid;
        Heap.get store.heap oid)
  else begin
    Obs.incr store.obs Obs.Get;
    check_q store oid;
    Heap.get store.heap oid
  end

let find store oid =
  Obs.incr store.obs Obs.Get;
  if Quarantine.mem (shard_oid store oid).sq oid then None else Heap.find store.heap oid

let is_live store oid = Heap.is_live store.heap oid

let class_of store oid =
  Obs.incr store.obs Obs.Get;
  check_q store oid;
  Heap.class_of store.heap oid

let get_record store oid =
  Obs.incr store.obs Obs.Get;
  check_q store oid;
  Heap.get_record store.heap oid

let get_array store oid =
  Obs.incr store.obs Obs.Get;
  check_q store oid;
  Heap.get_array store.heap oid

let get_string store oid =
  Obs.incr store.obs Obs.Get;
  check_q store oid;
  Heap.get_string store.heap oid

let get_weak store oid =
  Obs.incr store.obs Obs.Get;
  check_q store oid;
  Heap.get_weak store.heap oid

let field store oid idx =
  if Obs.enabled store.obs then
    Obs.span store.obs Obs.Get ~oid (fun () ->
        check_q store oid;
        Heap.field store.heap oid idx)
  else begin
    Obs.incr store.obs Obs.Get;
    check_q store oid;
    Heap.field store.heap oid idx
  end

let set_field store oid idx v =
  guard_write_oid store oid;
  if Obs.enabled store.obs then
    Obs.span store.obs Obs.Set ~oid (fun () ->
        check_q store oid;
        mvcc_note_write store oid;
        Heap.set_field store.heap oid idx v;
        invalidate_crc store oid;
        if journalling store then record store (Journal.Set_field (oid, idx, v)))
  else begin
    Obs.incr store.obs Obs.Set;
    check_q store oid;
    mvcc_note_write store oid;
    Heap.set_field store.heap oid idx v;
    invalidate_crc store oid;
    if journalling store then record store (Journal.Set_field (oid, idx, v))
  end

let elem store oid idx =
  if Obs.enabled store.obs then
    Obs.span store.obs Obs.Get ~oid (fun () ->
        check_q store oid;
        Heap.elem store.heap oid idx)
  else begin
    Obs.incr store.obs Obs.Get;
    check_q store oid;
    Heap.elem store.heap oid idx
  end

let set_elem store oid idx v =
  guard_write_oid store oid;
  if Obs.enabled store.obs then
    Obs.span store.obs Obs.Set ~oid (fun () ->
        check_q store oid;
        mvcc_note_write store oid;
        Heap.set_elem store.heap oid idx v;
        invalidate_crc store oid;
        if journalling store then record store (Journal.Set_elem (oid, idx, v)))
  else begin
    Obs.incr store.obs Obs.Set;
    check_q store oid;
    mvcc_note_write store oid;
    Heap.set_elem store.heap oid idx v;
    invalidate_crc store oid;
    if journalling store then record store (Journal.Set_elem (oid, idx, v))
  end

let array_length store oid =
  Obs.incr store.obs Obs.Get;
  check_q store oid;
  Heap.array_length store.heap oid

(* -- salvage reads -------------------------------------------------------- *)

let try_get store oid =
  note_read store oid;
  Obs.incr store.obs Obs.Get;
  match Quarantine.find (shard_oid store oid).sq oid with
  | Some reason ->
    Obs.incr store.obs Obs.Quarantine_hit;
    Error (Failure.Quarantined { oid; reason })
  | None -> begin
    match Heap.find store.heap oid with
    | Some entry -> Ok entry
    | None -> Error (Failure.Dangling oid)
  end

(* A field read over an already-resolved entry, as salvage data: a bad
   index (or a non-record) is [Bad_index] against the entry's container. *)
let field_result oid idx = function
  | Error e -> Error e
  | Ok entry -> (
    match Heap.entry_field oid entry idx with
    | v -> Ok v
    | exception Heap.Heap_error _ ->
      Error (Failure.Bad_index { container = Heap.entry_container entry; index = idx }))

let try_field store oid idx = field_result oid idx (try_get store oid)

(* -- quarantine ----------------------------------------------------------- *)

(* Quarantine membership changes cannot be expressed as journal ops, so
   they force a fresh image of the owning shard at the next compaction
   point — which is also what persists the quarantine set across reopen.
   The invariant is shard-local: an oid is quarantined in (and only in)
   its own shard, so on a sharded store only that shard pays the image
   rewrite ([sneeds_full] selects it for a partial compaction). *)
let quarantine_oid store oid reason =
  let sh = shard_oid store oid in
  Quarantine.add sh.sq oid reason;
  Oid.Table.remove sh.scrcs oid;
  bump_epoch store;
  if nshards store = 1 then store.needs_full <- true else sh.sneeds_full <- true

let clear_quarantine store oid =
  let sh = shard_oid store oid in
  if Quarantine.mem sh.sq oid then begin
    Quarantine.remove sh.sq oid;
    bump_epoch store;
    if nshards store = 1 then store.needs_full <- true else sh.sneeds_full <- true
  end

let quarantine_reason store oid = Quarantine.find (shard_oid store oid).sq oid
let is_quarantined store oid = Quarantine.mem (shard_oid store oid).sq oid

let quarantined store =
  if nshards store = 1 then Quarantine.to_list (s0 store).sq
  else
    Array.fold_left (fun acc sh -> List.rev_append (Quarantine.to_list sh.sq) acc) [] store.shards
    |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)

let quarantined_total store =
  Array.fold_left (fun acc sh -> acc + Quarantine.size sh.sq) 0 store.shards

let size store = Heap.size store.heap

(* Interned string allocation would be possible, but Java semantics gives
   distinct identity to non-literal strings; we allocate fresh. *)
let string_value store = function
  | Pvalue.Ref oid -> get_string store oid
  | v ->
    raise (Heap.Heap_error ("expected a string reference, got " ^ Pvalue.to_string v))

(* -- blobs --------------------------------------------------------------- *)

let set_blob store key data =
  guard_write_key store key;
  Obs.incr store.obs Obs.Set;
  mvcc_note_blob store key;
  Hashtbl.replace store.blobs key data;
  if journalling store then record store (Journal.Set_blob (key, data))

let blob store key =
  note_read_key store key;
  Obs.incr store.obs Obs.Get;
  Hashtbl.find_opt store.blobs key

let remove_blob store key =
  guard_write_key store key;
  Obs.incr store.obs Obs.Set;
  mvcc_note_blob store key;
  Hashtbl.remove store.blobs key;
  if journalling store then record store (Journal.Remove_blob key)

let blob_keys store =
  Hashtbl.fold (fun k _ acc -> k :: acc) store.blobs [] |> List.sort String.compare

(* -- pins (transient strong roots) --------------------------------------- *)

let add_pin store f = store.pins <- f :: store.pins

let pinned_oids store = List.concat_map (fun f -> f ()) store.pins

(* -- GC & stabilisation -------------------------------------------------- *)

(* Quarantined objects that still have heap entries are kept across GC
   (corrupt data is evidence, and structure reachable only through them
   may still be salvageable), so they seed the mark alongside the pins.
   Quarantine records for already-dead oids contribute nothing. *)
let quarantine_roots store =
  List.filter (Heap.is_live store.heap) (List.map fst (quarantined store))

let gc store =
  (* A sweep reclaims objects a pinned snapshot may still see; sessions
     and GC are therefore mutually exclusive by construction. *)
  if sessions_open store then
    invalid_arg "Store.gc: open snapshot sessions pin the object graph; commit or abort them first";
  (* A sweep touches every shard's objects and forces a full compaction,
     which needs every shard writable — refuse while any is down rather
     than silently dropping a demoted shard's garbage analysis. *)
  (if store.unhealthy > 0 then
     match first_unhealthy store with
     | Some (k, st) -> refuse_write store k st
     | None -> ());
  Obs.span store.obs Obs.Gc (fun () ->
      store.gc_count <- store.gc_count + 1;
      bump_epoch store;
      (* A sweep removes objects and clears weak cells behind the journal's
         back; the next stabilise must therefore compact. *)
      store.needs_full <- true;
      let extra_roots = quarantine_roots store @ pinned_oids store in
      let stats =
        if nshards store = 1 then Gc.collect ~extra_roots store.heap store.roots
        else begin
          let n = nshards store in
          let stats, remembered =
            Gc.collect_sharded ~nshards:n
              ~shard_of:(fun oid -> Manifest.shard_of_oid ~count:n oid)
              ~extra_roots store.heap store.roots
          in
          Array.iteri (fun k r -> store.shards.(k).sremembered <- r) remembered;
          stats
        end
      in
      (* Recorded checksums of swept objects are stale, and the sweep may
         have cleared weak-cell targets behind the checksum's back. *)
      Array.iter
        (fun sh ->
          let stale =
            Oid.Table.fold
              (fun oid _ acc ->
                match Heap.find store.heap oid with
                | None | Some (Heap.Weak _) -> oid :: acc
                | Some _ -> acc)
              sh.scrcs []
          in
          List.iter (Oid.Table.remove sh.scrcs) stale)
        store.shards;
      stats)

let reachable store =
  Gc.reachable
    ~extra_roots:(quarantine_roots store @ pinned_oids store)
    store.heap store.roots

(* A single-shard store's contents share its quarantine set (the legacy
   contract); a sharded store merges the per-shard sets into a fresh one,
   so fingerprints are identical whatever the shard count. *)
let contents store =
  let quarantine =
    if nshards store = 1 then (s0 store).sq
    else begin
      let q = Quarantine.create () in
      Array.iter
        (fun sh -> List.iter (fun (oid, r) -> Quarantine.add q oid r) (Quarantine.to_list sh.sq))
        store.shards;
      q
    end
  in
  { Image.heap = store.heap; roots = store.roots; blobs = store.blobs; quarantine }

(* -- scrubbing ------------------------------------------------------------ *)

let default_scrub_budget = 256

let scrub ?(budget = default_scrub_budget) store =
  Obs.span store.obs Obs.Scrub_step (fun () ->
      let report =
        if nshards store = 1 then begin
          let sh = s0 store in
          Scrub.step sh.sscrub ~heap:store.heap ~crcs:sh.scrcs ~quarantine:sh.sq ~budget ()
        end
        else begin
          let n = nshards store in
          let per = max 1 ((budget + n - 1) / n) in
          (* If any shard is about to start a fresh pass, partition a heap
             snapshot here on the calling domain: the lazy default reseed
             would walk the (shared) heap from inside pool domains. *)
          let parts =
            if Array.exists (fun sh -> Scrub.pending sh.sscrub = 0) store.shards then begin
              let parts = Array.make n [] in
              List.iter
                (fun oid ->
                  let k = shard_ix_oid store oid in
                  parts.(k) <- oid :: parts.(k))
                (List.rev (List.sort Oid.compare (Heap.oids store.heap)));
              Some parts
            end
            else None
          in
          let reports = Array.make n None in
          Dpool.run n (fun k ->
              let sh = store.shards.(k) in
              let reseed = Option.map (fun p () -> p.(k)) parts in
              reports.(k) <-
                Some
                  (Scrub.step sh.sscrub ~heap:store.heap ~crcs:sh.scrcs ~quarantine:sh.sq ?reseed
                     ~foreign:(fun oid -> shard_ix_oid store oid <> k)
                     ~budget:per ()));
          let merged =
            Array.fold_left
              (fun acc r ->
                match r with
                | None -> acc
                | Some (r : Scrub.report) ->
                  {
                    Scrub.scanned = acc.Scrub.scanned + r.Scrub.scanned;
                    verified = acc.Scrub.verified + r.Scrub.verified;
                    primed = acc.Scrub.primed + r.Scrub.primed;
                    newly_quarantined = acc.Scrub.newly_quarantined @ r.Scrub.newly_quarantined;
                    pass_complete = acc.Scrub.pass_complete && r.Scrub.pass_complete;
                  })
              {
                Scrub.scanned = 0;
                verified = 0;
                primed = 0;
                newly_quarantined = [];
                pass_complete = true;
              }
              reports
          in
          (* Cross-shard dangling targets were only reported by the finding
             shard; apply the quarantine on the owning shard here, after
             the parallel step (the same target may have been reported by
             several shards — dedup first). *)
          let newly =
            List.sort_uniq (fun (a, _) (b, _) -> Oid.compare a b) merged.Scrub.newly_quarantined
          in
          List.iter
            (fun (oid, reason) ->
              let sh = shard_oid store oid in
              if not (Quarantine.mem sh.sq oid) then Quarantine.add sh.sq oid reason;
              Oid.Table.remove sh.scrcs oid)
            newly;
          { merged with Scrub.newly_quarantined = newly }
        end
      in
      if report.Scrub.newly_quarantined <> [] then begin
        (if nshards store = 1 then store.needs_full <- true
         else
           List.iter
             (fun (oid, _) -> (shard_oid store oid).sneeds_full <- true)
             report.Scrub.newly_quarantined);
        bump_epoch store
      end;
      report)

let scrub_progress store = (s0 store).sscrub

let wal_depth store =
  Array.fold_left
    (fun acc sh ->
      acc
      +
      match sh.swal with
      | Some w -> Journal.depth w
      | None -> 0)
    0 store.shards

(* -- single-shard (legacy flat layout) stabilisation ---------------------- *)

let compact store path =
  Obs.span store.obs Obs.Compaction (fun () ->
      close_wal store;
      let crc = Image.save ~obs:store.obs path (contents store) in
      (* The image now contains every pending effect; a crash before the new
         journal header lands leaves a stale journal (old base checksum) that
         recovery discards. *)
      let sh = s0 store in
      sh.spending <- [];
      sh.spending_count <- 0;
      sh.swal <- Some (Journal.create ~obs:store.obs (Journal.path_for path) ~base_crc:crc);
      store.needs_full <- false;
      store.unsynced <- 0;
      store.compactions <- store.compactions + 1)

(* -- sharded stabilisation ------------------------------------------------

   File layout: the store path holds a manifest naming each shard's image
   epoch and the commit-marker epoch; shard k's image is [path.s<k>.<e>],
   its journal [path.s<k>.<e>.wal], the marker [path.marker.<m>].  The
   manifest is replaced atomically (tmp + rename), which makes it the
   commit point of any compaction. *)

let shard_keep store k =
  let n = Array.length store.shards in
  ( (fun oid -> Manifest.shard_of_oid ~count:n oid = k),
    fun key -> Manifest.shard_of_key ~count:n key = k )

let manifest_of store ~marker_epoch =
  {
    Manifest.nshards = nshards store;
    marker_epoch;
    epochs = Array.map (fun sh -> sh.sepoch) store.shards;
  }

let sync_dirty_shards store =
  Dpool.run (nshards store) (fun k ->
      let sh = store.shards.(k) in
      if sh.sdirty && Health.healthy sh.shealth then
        Faults.with_shard_scope k (fun () ->
            shard_io store sh Retry.Journal_append (fun () ->
                (match sh.swal with
                | Some w -> Journal.sync w
                | None -> ());
                sh.sdirty <- false)))

(* The journalled append path.  One store-level sequence number covers
   the whole stabilise: each dirty shard gets one seq-stamped batch
   record, and the sequence number is committed by appending it to the
   marker only after every dirty journal is fsynced.  [force_sync]
   bypasses the group window (compaction uses it: the delta must be
   durable before images start moving).  On failure every journal and the
   marker are truncated back to their savepoints — the whole stabilise
   rolls back, and [needs_full] routes the retry through compaction. *)
let sharded_append ~force_sync store =
  let marker = Option.get store.marker in
  (* A demoted shard takes no part: its pending ops stay buffered (they
     describe heap state that [repair]'s rewrite will persist) and its
     files are not touched.  Demotion therefore never loses a delta — it
     just defers that shard's durability to the repair. *)
  let active sh = Health.healthy sh.shealth in
  let have_pending = Array.exists (fun sh -> active sh && sh.spending <> []) store.shards in
  let seq' = if have_pending then store.seq + 1 else store.seq in
  let saves =
    Array.map
      (fun sh ->
        match sh.swal with
        | Some w when active sh && sh.spending <> [] ->
          Some (w, Journal.position w, Journal.depth w)
        | _ -> None)
      store.shards
  in
  let msave = Manifest.Marker.position marker in
  let before = shard_counts store in
  match
    if have_pending then
      Dpool.run (nshards store) (fun k ->
          let sh = store.shards.(k) in
          match saves.(k) with
          | None -> ()
          | Some (w, pos, depth) ->
            Faults.with_shard_scope k (fun () ->
                (* An interrupted append may have landed a torn prefix;
                   truncating back to the savepoint restores idempotency
                   before each retry. *)
                shard_io store sh Retry.Journal_append
                  ~undo:(fun () -> try Journal.truncate_to w ~pos ~depth with _ -> ())
                  (fun () ->
                    Journal.append_batch ~seq:seq' w (List.rev sh.spending);
                    sh.sdirty <- true)));
    if force_sync || store.unsynced + 1 >= store.group_window then begin
      sync_dirty_shards store;
      if seq' > store.committed then begin
        let commit () =
          Manifest.Marker.append marker seq';
          Manifest.Marker.sync marker
        in
        (match store.retry with
        | None -> commit ()
        | Some policy ->
          Retry.run ~policy ~obs:store.obs ~label:(Retry.class_name Retry.Marker)
            ~on_retry:(fun _ _ ->
              store.io_retries <- store.io_retries + 1;
              try Manifest.Marker.truncate_to marker ~pos:msave with _ -> ())
            commit);
        store.committed <- seq'
      end;
      store.unsynced <- 0
    end
    else store.unsynced <- store.unsynced + 1
  with
  | () ->
    merge_shard_counts store before;
    store.seq <- seq';
    Array.iteri
      (fun k sh ->
        if saves.(k) <> None || sh.spending = [] then begin
          sh.spending <- [];
          sh.spending_count <- 0
        end)
      store.shards
  | exception e ->
    merge_shard_counts store before;
    (* Roll the whole stabilise back.  Journals that took part are
       truncated to their savepoints; only the shards whose files were
       actually touched are marked for a fresh image — a healthy shard
       must not pay for its neighbour's failure. *)
    Array.iteri
      (fun k save ->
        match save with
        | Some (w, pos, depth) ->
          (try Journal.truncate_to w ~pos ~depth with _ -> ());
          store.shards.(k).sneeds_full <- true
        | None -> ())
      saves;
    (try Manifest.Marker.truncate_to marker ~pos:msave with _ -> ());
    raise e

(* Sharded compaction.  [selected] says which shards get a fresh image
   (all of them on a full compaction); on a partial compaction the
   current delta is first made durable through the OLD journals and the
   marker, so the subsequent image writes can fail or tear anywhere
   without losing it — nothing references a new-epoch file until the
   manifest rename, which is the single commit point. *)
let compact_shards store path ~full ~selected =
  Obs.span store.obs Obs.Compaction (fun () ->
      let n = nshards store in
      if not full then sharded_append ~force_sync:true store;
      let c = contents store in
      let before = shard_counts store in
      let new_wals = Array.make n None in
      let created_marker = ref None in
      match
        Dpool.run n (fun k ->
            if selected.(k) then begin
              let sh = store.shards.(k) in
              let e' = sh.sepoch + 1 in
              let keep_oid, keep_key = shard_keep store k in
              Faults.with_shard_scope k (fun () ->
                  (* Idempotent under retry: the image write is tmp+rename
                     and the journal create truncates — each attempt
                     rewrites the same new-epoch paths from scratch. *)
                  shard_io store sh Retry.Image_save (fun () ->
                      let slice = Image.slice ~keep_oid ~keep_key c in
                      let crc = Image.save ~obs:sh.sobs (Manifest.shard_image path k e') slice in
                      new_wals.(k) <-
                        Some
                          (Journal.create ~obs:sh.sobs (Manifest.shard_wal path k e')
                             ~base_crc:crc)))
            end);
        merge_shard_counts store before;
        (* a full compaction rotates the marker: sequence numbers restart
           at zero with the fresh journals *)
        let marker_epoch' = if full then store.marker_epoch + 1 else store.marker_epoch in
        if full then
          created_marker := Some (Manifest.Marker.create (Manifest.marker_path path marker_epoch'));
        let epochs' =
          Array.mapi (fun k sh -> if selected.(k) then sh.sepoch + 1 else sh.sepoch) store.shards
        in
        let commit () =
          Manifest.save path { Manifest.nshards = n; marker_epoch = marker_epoch'; epochs = epochs' }
        in
        (match store.retry with
        | None -> commit ()
        | Some policy ->
          Retry.run ~policy ~obs:store.obs ~label:(Retry.class_name Retry.Compaction)
            ~on_retry:(fun _ _ -> store.io_retries <- store.io_retries + 1)
            commit);
        (marker_epoch', epochs')
      with
      | marker_epoch', epochs' ->
        Array.iteri
          (fun k sh ->
            if selected.(k) then begin
              (match sh.swal with
              | Some w -> Journal.close w
              | None -> ());
              sh.swal <- new_wals.(k);
              sh.sdirty <- false;
              sh.sneeds_full <- false;
              sh.sepoch <- epochs'.(k)
            end)
          store.shards;
        if full then begin
          (match store.marker with
          | Some m -> Manifest.Marker.close m
          | None -> ());
          store.marker <- !created_marker;
          store.marker_epoch <- marker_epoch';
          store.seq <- 0;
          store.committed <- 0
        end;
        (* A demoted shard's pending ops stay buffered for its repair:
           its image was not selected, its journal was not appended —
           clearing them would drop the only record that a rewrite is
           still owed. *)
        Array.iter
          (fun sh ->
            if Health.healthy sh.shealth then begin
              sh.spending <- [];
              sh.spending_count <- 0
            end)
          store.shards;
        store.needs_full <- false;
        store.unsynced <- 0;
        store.compactions <- store.compactions + 1;
        Manifest.cleanup_stale path (manifest_of store ~marker_epoch:marker_epoch')
      | exception e ->
        merge_shard_counts store before;
        (* nothing references the new-epoch files (the manifest rename did
           not land); the old state on disk is intact.  Drop the fresh
           handles — retrying truncates and rewrites the same paths. *)
        Array.iter
          (function
            | Some w -> ( try Journal.close w with _ -> ())
            | None -> ())
          new_wals;
        (match !created_marker with
        | Some m -> ( try Manifest.Marker.close m with _ -> ())
        | None -> ());
        if full then store.needs_full <- true
        else Array.iteri (fun k sh -> if selected.(k) then sh.sneeds_full <- true) store.shards;
        raise e)

let per_shard_limit store =
  let n = nshards store in
  max 1 ((store.compaction_limit + n - 1) / n)

let stabilise_once_sharded store path =
  let in_rollback = store.rollback_depth > 0 in
  let active sh = Health.healthy sh.shealth in
  (* Missing files of a DEMOTED shard don't force anything: that shard
     is out of service and its rebuild is [repair]'s job.  Only a
     healthy shard without a journal makes appending impossible. *)
  let any_missing =
    store.marker = None || Array.exists (fun sh -> active sh && sh.swal = None) store.shards
  in
  let must_compact = store.needs_full || any_missing in
  let limit = per_shard_limit store in
  let over sh =
    (match sh.swal with
    | Some w -> Journal.depth w
    | None -> 0)
    + sh.spending_count
    > limit
  in
  let want sh = active sh && (over sh || sh.sneeds_full) in
  if must_compact && in_rollback then
    invalid_arg
      "Store.stabilise: store needs compaction inside with_rollback (after a gc or direct \
       heap surgery); stabilise before the transaction instead"
  else if must_compact then begin
    (* A full compaction rewrites every shard and rotates the marker —
       it cannot proceed around a dead shard.  Refuse with the typed
       error naming the shard that must be repaired first. *)
    (if store.unhealthy > 0 then
       match first_unhealthy store with
       | Some (k, st) -> refuse_write store k st
       | None -> ());
    compact_shards store path ~full:true ~selected:(Array.make (nshards store) true)
  end
  else if Array.exists want store.shards && not in_rollback then
    (* Per-shard compaction: only the shards over their slice of the
       limit (or owing a quarantine-change image) pay the rewrite — the
       hot shard compacts while cold shards keep their journals. *)
    compact_shards store path ~full:false ~selected:(Array.map want store.shards)
  else sharded_append ~force_sync:false store

(* One stabilisation attempt.  Both failure paths are idempotent, which
   is what makes the retry wrapper below safe: a failed journal append
   has already set [needs_full] (so a retry compacts instead of appending
   after torn bytes), and a failed compaction just rewrites the temp
   image from scratch. *)
let stabilise_once store path =
  if nshards store > 1 then stabilise_once_sharded store path
  else
    let sh = s0 store in
    let in_rollback = store.rollback_depth > 0 in
    let must_compact = store.needs_full || sh.swal = None in
    let over_limit = wal_depth store + sh.spending_count > store.compaction_limit in
    if must_compact && in_rollback then
      invalid_arg
        "Store.stabilise: store needs compaction inside with_rollback (after a gc or direct \
         heap surgery); stabilise before the transaction instead"
    else if must_compact || (over_limit && not in_rollback) then compact store path
    else begin
      (* Over the limit inside a transaction we keep appending: compaction
         cannot be undone by an abort, the next top-level stabilise does it. *)
      let wal = Option.get sh.swal in
      match
        (* The delta rides as one batch record — atomic under a torn
           write.  With a group window, the fsync is amortised over
           [group_window] stabilises; a crash loses whole recent batches,
           never part of one. *)
        Journal.append_batch wal (List.rev sh.spending);
        if store.unsynced + 1 >= store.group_window then begin
          Journal.sync wal;
          store.unsynced <- 0
        end
        else store.unsynced <- store.unsynced + 1
      with
      | () ->
        sh.spending <- [];
        sh.spending_count <- 0
      | exception e ->
        (* The journal tail is now suspect (possibly torn); recover by
           compacting next time rather than appending after garbage. *)
        store.needs_full <- true;
        raise e
    end

(* Release every journal handle (and, sharded, the commit marker).  An
   orderly release is a durability barrier: deferred batches are flushed
   and the current sequence number committed before the handles go. *)
let release_journals store =
  if nshards store = 1 then close_wal store
  else begin
    (try
       if store.unsynced > 0 || Array.exists (fun sh -> sh.sdirty) store.shards then
         sync_dirty_shards store;
       match store.marker with
       | Some m when store.seq > store.committed ->
         Manifest.Marker.append m store.seq;
         Manifest.Marker.sync m;
         store.committed <- store.seq
       | _ -> ()
     with _ -> ());
    Array.iter
      (fun sh ->
        (match sh.swal with
        | Some w -> ( try Journal.close w with _ -> ())
        | None -> ());
        sh.swal <- None;
        sh.sdirty <- false)
      store.shards;
    (match store.marker with
    | Some m -> ( try Manifest.Marker.close m with _ -> ())
    | None -> ());
    store.marker <- None;
    store.unsynced <- 0
  end

let stabilise ?path store =
  let path =
    match path, store.backing with
    | Some p, Some q when p <> q ->
      (* Re-pointing a backed store: its journals describe [q]'s image,
         so [p] starts from a full one. *)
      release_journals store;
      store.needs_full <- true;
      store.backing <- Some p;
      p
    | Some p, _ ->
      store.backing <- Some p;
      p
    | None, Some p -> p
    | None, None -> invalid_arg "Store.stabilise: no backing file"
  in
  store.stabilise_count <- store.stabilise_count + 1;
  Obs.span store.obs Obs.Stabilise (fun () ->
      let attempt () = stabilise_once store path in
      let run () =
        match store.retry with
        | None -> attempt ()
        | Some policy ->
          Retry.run ~policy ~obs:store.obs ~label:"stabilise"
            ~on_retry:(fun _ _ -> store.io_retries <- store.io_retries + 1)
            attempt
      in
      match run () with
      | () -> ()
      | exception e ->
        (* The per-shard failure counters were fed while the attempts ran
           (on pool domains); the state transition happens here, once,
           after the whole stabilise has given up. *)
        trip_breakers store;
        raise e)

(* -- open / recovery ------------------------------------------------------ *)

let distribute_quarantine store q =
  List.iter (fun (oid, reason) -> Quarantine.add (shard_oid store oid).sq oid reason)
    (Quarantine.to_list q)

let of_contents ?obs ?backing { Image.heap; roots; blobs; quarantine } =
  let base = make ?obs () in
  let store = { base with heap; roots; blobs; backing } in
  distribute_quarantine store quarantine;
  store

(* Legacy flat-image open (single shard). *)
let open_flat ?config path =
  let obs = Obs.create () in
  let contents, crc =
    try Image.load_with_crc ~obs path
    with (Image.Image_error _ | Codec.Decode_error _ | Sys_error _) as e -> begin
      (* A crash between writing and renaming a snapshot can leave a
         complete image under the temp name; promote it rather than fail. *)
      let tmp = path ^ ".tmp" in
      match (try Some (Image.load_with_crc ~obs tmp) with _ -> None) with
      | Some (c, crc) ->
        Faults.rename tmp path;
        (c, crc)
      | None -> raise e
    end
  in
  let store = of_contents ~obs ~backing:path contents in
  let sh = s0 store in
  (match Journal.read (Journal.path_for path) with
  | Some replay when Int32.equal replay.Journal.base_crc crc ->
    List.iter
      (fun (op, _) -> Journal.apply op store.heap store.roots store.blobs)
      replay.Journal.records;
    store.replayed <- List.length replay.Journal.records;
    store.recovered_torn <- replay.Journal.torn;
    sh.swal <-
      Some
        (Journal.open_for_append ~obs (Journal.path_for path)
           ~valid_bytes:replay.Journal.valid_bytes ~depth:store.replayed);
    store.needs_full <- false
  | Some _ | None ->
    (* No journal, or a stale one (the image is newer: a compaction's
       journal reset never landed).  The image already holds every
       journalled effect; the next stabilise writes a fresh image and
       journal ([make] left [needs_full] set). *)
    ());
  (* A salvage load quarantined objects the on-disk image does not yet
     record as such; force a compaction so the next stabilise persists
     the quarantine set. *)
  if not (Quarantine.is_empty sh.sq) then store.needs_full <- true;
  (* An explicit configuration is applied last, so it wins over
     recovered state.  The shard count is whatever the file has: it is
     persistent state, not a tunable. *)
  Option.iter (fun (c : Config.t) -> configure store { c with Config.shards = 1 }) config;
  store

(* Every oid any surviving entry or root still references.  Weak targets
   count too: resurrecting a weak reference onto a recycled oid would
   alias just like a strong one. *)
let iter_referenced_oids store f =
  Heap.iter
    (fun _ entry ->
      List.iter f (Heap.strong_refs entry);
      match entry with
      | Heap.Weak { Heap.target = Pvalue.Ref o } -> f o
      | _ -> ())
    store.heap;
  Roots.iter
    (fun _ v ->
      match v with
      | Pvalue.Ref o -> f o
      | _ -> ())
    store.roots

(* After a shard's image is lost, its allocation history is unknown;
   handing out an oid number a survivor still references would alias the
   dangling reference onto a fresh object.  Advance the allocator past
   everything still referenced from the surviving shards. *)
let bump_past_references store =
  let bump = ref (Heap.next_oid store.heap) in
  iter_referenced_oids store (fun o -> if Oid.to_int o >= !bump then bump := Oid.to_int o + 1);
  Heap.set_next_oid store.heap !bump

(* Sharded open: load every shard image (in parallel), merge, then replay
   each shard's journal up to the marker's committed sequence number.
   Batches past the committed point are dropped whole — another shard's
   half of the same stabilise may be missing, and the marker is the only
   witness that all halves landed.

   Shard faults are contained at open: an unreadable image takes ONLY
   that shard offline (its slice of the heap stays empty until
   [repair]); a salvage-heavy load — more than [salvage_degrade]
   quarantined entries — opens the shard degraded.  The rest of the
   store loads and serves normally. *)
let open_sharded ?config path =
  let obs = Obs.create () in
  let m = Manifest.load path in
  let n = m.Manifest.nshards in
  let store = make ~obs ~nshards:n () in
  store.backing <- Some path;
  (* The full configuration is applied last (it must win over recovered
     state), but the load below already consults the retry policy and
     the breaker threshold — install those up front. *)
  (match config with
  | Some (c : Config.t) ->
    store.retry <- c.Config.retry;
    store.breaker <- c.Config.breaker
  | None -> ());
  let parts : Image.load_report option array = Array.make n None in
  let fails = Array.make n None in
  let before = shard_counts store in
  Dpool.run n (fun k ->
      let sh = store.shards.(k) in
      Faults.with_shard_scope k (fun () ->
          match
            shard_io store sh Retry.Image_load (fun () ->
                Image.load_report ~obs:sh.sobs (Manifest.shard_image path k m.Manifest.epochs.(k)))
          with
          | r -> parts.(k) <- Some r
          | exception
              (( Image.Image_error _ | Codec.Decode_error _ | Sys_error _
               | Faults.Fault_injected _ | Unix.Unix_error _ ) as e) ->
            fails.(k) <- Some (Printexc.to_string e)));
  merge_shard_counts store before;
  (* Health transitions happen here, on the calling domain, after the
     parallel loads have joined. *)
  Array.iteri
    (fun k fail ->
      match (fail, parts.(k)) with
      | Some reason, _ ->
        Health.offline store.shards.(k).shealth ("image load failed: " ^ reason)
      | None, Some r
        when r.Image.lr_salvaged >= salvage_degrade ->
        Health.degrade store.shards.(k).shealth
          (Printf.sprintf "salvage-heavy image load: %d entries quarantined" r.Image.lr_salvaged)
      | _ -> ())
    fails;
  refresh_unhealthy store;
  Array.iteri
    (fun k part ->
      match part with
      | None -> ()
      | Some (r : Image.load_report) ->
        let c = r.Image.lr_contents in
        Heap.iter (fun oid entry -> Heap.insert store.heap oid entry) c.Image.heap;
        if Heap.next_oid c.Image.heap > Heap.next_oid store.heap then
          Heap.set_next_oid store.heap (Heap.next_oid c.Image.heap);
        Roots.iter (Roots.set store.roots) c.Image.roots;
        Hashtbl.iter (Hashtbl.replace store.blobs) c.Image.blobs;
        Quarantine.replace_all store.shards.(k).sq ~from:c.Image.quarantine)
    parts;
  (* Epochs are persistent state: a compaction that forgot them would
     overwrite live image files in place instead of committing fresh
     epoch files through the manifest rename. *)
  Array.iteri (fun k sh -> sh.sepoch <- m.Manifest.epochs.(k)) store.shards;
  if m.Manifest.marker_epoch >= 0 then begin
    store.marker_epoch <- m.Manifest.marker_epoch;
    let mpath = Manifest.marker_path path m.Manifest.marker_epoch in
    match Manifest.Marker.read mpath with
    | None ->
      (* No readable marker: no batch is known committed.  Replay nothing
         and rebuild everything at the next stabilise. *)
      store.needs_full <- true
    | Some mr ->
      store.committed <- mr.Manifest.Marker.committed;
      store.seq <- mr.Manifest.Marker.committed;
      let replayed = ref 0 in
      let all_journals_good = ref true in
      Array.iteri
        (fun k sh ->
          match parts.(k) with
          | None -> () (* offline: [repair] salvages its journal later *)
          | Some (r : Image.load_report) -> begin
            let wpath = Manifest.shard_wal path k m.Manifest.epochs.(k) in
            match Journal.read wpath with
            | Some jr when Int32.equal jr.Journal.base_crc r.Image.lr_crc ->
              let stop = ref false in
              let valid = ref Journal.header_size in
              let depth = ref 0 in
              List.iter
                (fun (b : Journal.batch) ->
                  if not !stop then begin
                    match b.Journal.b_seq with
                    | Some s when s > store.committed -> stop := true
                    | _ ->
                      List.iter
                        (fun op -> Journal.apply op store.heap store.roots store.blobs)
                        b.Journal.b_ops;
                      let nops = List.length b.Journal.b_ops in
                      replayed := !replayed + nops;
                      depth := !depth + nops;
                      valid := b.Journal.b_end
                  end)
                jr.Journal.batches;
              if jr.Journal.torn then store.recovered_torn <- true;
              sh.swal <-
                Some
                  (Journal.open_for_append ~obs:sh.sobs wpath ~valid_bytes:!valid ~depth:!depth)
            | Some _ | None ->
              (* Missing or stale journal (its base image moved on, or the
                 file tore at the header): its shard image already holds or
                 supersedes the journalled effects that mattered — force a
                 fresh full compaction rather than trusting the tail. *)
              all_journals_good := false;
              store.needs_full <- true
          end)
        store.shards;
      store.replayed <- !replayed;
      (* Every journal matched its image and replayed cleanly: the next
         stabilise may append, like the flat open.  (A fresh [make] starts
         with [needs_full] set, which would otherwise force a pointless
         full compaction on the first stabilise after every reopen.) *)
      if !all_journals_good then store.needs_full <- false;
      store.marker <-
        Some (Manifest.Marker.open_for_append mpath ~valid_bytes:mr.Manifest.Marker.valid_bytes)
  end;
  (* A salvage load quarantined objects the on-disk image does not yet
     record as such; mark the owning shard so its next compaction point
     persists the quarantine set. *)
  Array.iter
    (fun sh -> if not (Quarantine.is_empty sh.sq) then sh.sneeds_full <- true)
    store.shards;
  if store.unhealthy > 0 then bump_past_references store;
  Option.iter (fun (c : Config.t) -> configure store { c with Config.shards = n }) config;
  (* Files from epochs this manifest superseded (a crash mid-compaction
     leaves them behind) are unreferenced — sweep them now. *)
  Manifest.cleanup_stale path m;
  store

let open_file ?config path =
  if Manifest.is_manifest path then open_sharded ?config path else open_flat ?config path

(* Both [close] and [crash] are idempotent: each drops the journal
   handles (a no-op when there are none, as on an unbacked store or after
   a previous close/crash).  [close] additionally seals a final
   observability snapshot and empties the trace ring; [crash] drops the
   ring without snapshotting, exactly as a process crash would lose
   in-flight trace state. *)
let close store =
  release_journals store;
  Obs.flush store.obs

let crash store =
  Array.iter
    (fun sh ->
      (match sh.swal with
      | Some w -> ( try Journal.crash w with _ -> ())
      | None -> ());
      sh.swal <- None;
      sh.sdirty <- false)
    store.shards;
  (match store.marker with
  | Some m -> ( try Manifest.Marker.crash m with _ -> ())
  | None -> ());
  store.marker <- None;
  store.unsynced <- 0;
  Obs.drop store.obs

(* -- repair ---------------------------------------------------------------- *)

type repair_report = {
  r_shard : int;
  r_was : Health.state; (* the state the shard was repaired out of *)
  r_restored : int; (* heap entries recovered from its on-disk image *)
  r_replayed : int; (* journal ops re-applied on top of them *)
  r_lost : int; (* referenced oids that stayed unrecoverable (quarantined) *)
  r_ms : float; (* wall-clock repair time, milliseconds *)
}

(* Rebuild an OFFLINE shard's slice of the heap from whatever survives on
   disk: the image (salvage-tolerant), then its journal — gated by the
   marker's committed sequence number exactly like normal recovery, but
   op-by-op lenient: an op whose base object was unrecoverable is
   skipped, not fatal.  The degraded case needs none of this — memory
   was never lost, only the shard's files fell out of trust. *)
let rebuild_offline_shard store k ~restored ~replayed =
  match store.backing with
  | None -> ()
  | Some path ->
    let sh = store.shards.(k) in
    let img =
      try Some (Image.load_report (Manifest.shard_image path k sh.sepoch)) with _ -> None
    in
    (match img with
    | Some (r : Image.load_report) ->
      let c = r.Image.lr_contents in
      Heap.iter
        (fun oid entry ->
          if not (Heap.is_live store.heap oid) then begin
            Heap.insert store.heap oid entry;
            incr restored
          end)
        c.Image.heap;
      if Heap.next_oid c.Image.heap > Heap.next_oid store.heap then
        Heap.set_next_oid store.heap (Heap.next_oid c.Image.heap);
      Roots.iter (Roots.set store.roots) c.Image.roots;
      Hashtbl.iter (Hashtbl.replace store.blobs) c.Image.blobs;
      List.iter
        (fun (oid, reason) -> Quarantine.add sh.sq oid reason)
        (Quarantine.to_list c.Image.quarantine)
    | None -> ());
    (match Journal.read (Manifest.shard_wal path k sh.sepoch) with
    | None -> ()
    | Some jr ->
      let fresh =
        match img with
        | Some r -> Int32.equal jr.Journal.base_crc r.Image.lr_crc
        | None -> true (* no image to pair against: best-effort salvage *)
      in
      if fresh then begin
        let stop = ref false in
        List.iter
          (fun (b : Journal.batch) ->
            if not !stop then begin
              match b.Journal.b_seq with
              | Some s when s > store.committed -> stop := true
              | _ ->
                List.iter
                  (fun op ->
                    match Journal.apply op store.heap store.roots store.blobs with
                    | () -> incr replayed
                    | exception _ -> ())
                  b.Journal.b_ops
            end)
          jr.Journal.batches
      end)

(* References from survivors into shard [k] that still have no live
   object after the rebuild are permanently lost; quarantine them so
   reads fail with the typed reason instead of a bare dangling error. *)
let quarantine_lost_refs store k =
  let sh = store.shards.(k) in
  let lost = ref Oid.Set.empty in
  iter_referenced_oids store (fun o ->
      if
        shard_ix_oid store o = k
        && (not (Heap.is_live store.heap o))
        && not (Quarantine.mem sh.sq o)
      then lost := Oid.Set.add o !lost);
  Oid.Set.iter
    (fun o -> Quarantine.add sh.sq o "lost with its shard (unrecovered by repair)")
    !lost;
  Oid.Set.cardinal !lost

let repair store k =
  check_shard_index store k;
  let sh = store.shards.(k) in
  match Health.state sh.shealth with
  | Health.Healthy -> None
  | was ->
    Some
      (Obs.span store.obs Obs.Repair (fun () ->
           let t0 = Unix.gettimeofday () in
           let restored = ref 0 and replayed = ref 0 in
           (match was with
           | Health.Offline _ -> rebuild_offline_shard store k ~restored ~replayed
           | _ -> ());
           let lost =
             match was with
             | Health.Offline _ -> quarantine_lost_refs store k
             | _ -> 0
           in
           Health.promote sh.shealth;
           refresh_unhealthy store;
           bump_epoch store;
           (* The shard's recorded checksums describe entries from before
              the outage; let the scrubber re-prime them. *)
           Oid.Table.reset sh.scrcs;
           (* Durable rewrite: the shard owes the disk a fresh image
              covering everything that happened while it was out of
              service (buffered pending ops, salvage quarantine, the
              rebuild).  On a backed store, pay it now. *)
           sh.sneeds_full <- true;
           (match store.backing with
           | Some path when nshards store > 1 -> begin
             match
               if store.needs_full || store.marker = None then begin
                 if store.unhealthy = 0 then
                   compact_shards store path ~full:true
                     ~selected:(Array.make (nshards store) true)
                 (* else: another shard is still down — the last repair
                    reaches this full compaction for everyone *)
               end
               else
                 compact_shards store path ~full:false
                   ~selected:(Array.init (nshards store) (fun i -> i = k))
             with
             | () -> ()
             | exception e ->
               (* the rewrite never landed: go back out of service rather
                  than pretend the promotion stuck *)
               Health.degrade sh.shealth ("repair rewrite failed: " ^ Printexc.to_string e);
               refresh_unhealthy store;
               raise e
           end
           | _ -> ());
           {
             r_shard = k;
             r_was = was;
             r_restored = !restored;
             r_replayed = !replayed;
             r_lost = lost;
             r_ms = (Unix.gettimeofday () -. t0) *. 1000.;
           }))

let repair_all store = List.filter_map (repair store) (List.init (nshards store) Fun.id)

type stats = {
  live : int;
  gc_count : int;
  stabilise_count : int;
  journal_depth : int;
  pending_ops : int;
  journal_replayed : int;
  compactions : int;
  recovered_torn_tail : bool;
  quarantined : int;
  io_retries : int;
  unsynced_batches : int;
  unhealthy_shards : int;
}

let stats store =
  {
    live = Heap.size store.heap;
    gc_count = store.gc_count;
    stabilise_count = store.stabilise_count;
    journal_depth = wal_depth store;
    pending_ops = pending_total store;
    journal_replayed = store.replayed;
    compactions = store.compactions;
    recovered_torn_tail = store.recovered_torn;
    quarantined = quarantined_total store;
    io_retries = store.io_retries;
    unsynced_batches = store.unsynced;
    unhealthy_shards = store.unhealthy;
  }

(* -- per-shard introspection ---------------------------------------------- *)

type shard_info = {
  shard : int;
  objects : int;
  quarantined : int;
  journal_bytes : int;
  pending_ops : int;
  remembered : int;
  state : string; (* "healthy" | "degraded" | "offline" *)
}

let shard_info store =
  let n = nshards store in
  let objects = Array.make n 0 in
  Heap.iter
    (fun oid _ ->
      let k = shard_ix_oid store oid in
      objects.(k) <- objects.(k) + 1)
    store.heap;
  List.init n (fun k ->
      let sh = store.shards.(k) in
      {
        shard = k;
        objects = objects.(k);
        quarantined = Quarantine.size sh.sq;
        journal_bytes =
          (match sh.swal with
          | Some w -> Journal.position w - Journal.header_size
          | None -> 0);
        pending_ops = sh.spending_count;
        remembered = Oid.Set.cardinal sh.sremembered;
        state = Health.state_name (Health.state sh.shealth);
      })

(* -- transactions ---------------------------------------------------------- *)

let clear_pins store = store.pins <- []

let restore_contents store (restored : Image.contents) =
  bump_epoch store;
  Heap.replace_all store.heap ~from:restored.Image.heap;
  Roots.replace_all store.roots ~from:restored.Image.roots;
  Hashtbl.reset store.blobs;
  Hashtbl.iter (Hashtbl.replace store.blobs) restored.Image.blobs;
  Array.iter
    (fun sh ->
      Quarantine.replace_all sh.sq ~from:(Quarantine.create ());
      (* The rollback replaced objects wholesale; recorded checksums no
         longer describe the live entries. *)
      Oid.Table.reset sh.scrcs)
    store.shards;
  distribute_quarantine store restored.Image.quarantine

(* Run [f] with whole-store rollback: on an exception the heap, roots and
   blobs are restored to their state at entry (oids included) and the
   exception is returned.

   A journalling single-shard store aborts by recovery instead of by
   snapshot: the journal is truncated to its entry savepoint and the
   pre-transaction state is rebuilt from the image plus the journal plus
   the entry-time pending ops — O(committed delta), not O(store).  Stores
   the journal cannot describe (unbacked, unstabilised, dirtied by
   gc/direct heap surgery, or sharded — where entry state spans several
   files) pay a full-image snapshot. *)
let with_rollback store f =
  (* Rolling shared state back out from under a pinned snapshot would
     falsify it (and the versions/stamps describing it). *)
  if sessions_open store then
    invalid_arg
      "Store.with_rollback: open snapshot sessions would observe the rollback; commit or abort \
       them first";
  let journal_restore = nshards store = 1 && journalling store && (s0 store).swal <> None in
  store.rollback_depth <- store.rollback_depth + 1;
  let leave () = store.rollback_depth <- store.rollback_depth - 1 in
  if journal_restore then begin
    let sh = s0 store in
    let wal = Option.get sh.swal in
    let saved_pending = sh.spending in
    let saved_count = sh.spending_count in
    let mark = Journal.position wal in
    let mark_depth = Journal.depth wal in
    match f () with
    | result ->
      leave ();
      Ok result
    | exception e ->
      (* Anything the transaction managed to stabilise sits past the
         savepoint; cut it off, then rebuild entry-time state by the same
         path crash recovery takes. *)
      Journal.truncate_to wal ~pos:mark ~depth:mark_depth;
      let path = Option.get store.backing in
      let restored = Image.load path in
      (match Journal.read (Journal.path_for path) with
      | Some replay ->
        List.iter
          (fun (op, _) ->
            Journal.apply op restored.Image.heap restored.Image.roots restored.Image.blobs)
          replay.Journal.records
      | None -> ());
      List.iter
        (fun op -> Journal.apply op restored.Image.heap restored.Image.roots restored.Image.blobs)
        (List.rev saved_pending);
      restore_contents store restored;
      sh.spending <- saved_pending;
      sh.spending_count <- saved_count;
      store.needs_full <- false;
      leave ();
      Error e
  end
  else begin
    let snapshot = Image.encode (contents store) in
    let saved = Array.map (fun sh -> (sh.spending, sh.spending_count)) store.shards in
    match f () with
    | result ->
      leave ();
      Ok result
    | exception e ->
      restore_contents store (Image.decode snapshot);
      Array.iteri
        (fun k sh ->
          let pending, count = saved.(k) in
          sh.spending <- pending;
          sh.spending_count <- count)
        store.shards;
      leave ();
      Error e
  end

(* The commit barrier: on a backed store a committed delta must be
   durable before control returns — a journal append and fsync, or the
   first image write of a store that has none yet.  An unbacked store
   has nothing to be durable on. *)
let commit_barrier store = if store.backing <> None then stabilise store

(* The single-owner transaction: run [f] against the shared store with
   whole-store rollback on exception, then pay the commit barrier on
   success.  This is the commit/abort notion [Hyperprog.Transaction]
   wraps; it sees and mutates live state, so concurrent snapshot
   sessions are refused by [with_rollback]. *)
let atomically store f =
  match with_rollback store f with
  | Ok v ->
    commit_barrier store;
    Ok v
  | Error _ as e -> e

(* -- sessions: the handle-first surface ------------------------------------

   [Session.t] is the unit of isolation.  A session ([open_session]) pins
   the committed-write epoch at open, reads a byte-stable view of that
   instant (plus its own writes), buffers every write privately, and
   publishes them all at once at [Session.commit] — replayed through the
   store's normal guarded mutation path and made durable through the
   group-commit journal.  First committer wins: a commit whose write set
   overlaps anything committed after its snapshot raises the typed
   [Failure.Commit_conflict] and aborts, touching nothing. *)

module Session = struct
  type nonrec t = session

  let id s = s.s_id
  let store s = s.s_store
  let snapshot_epoch s = s.s_epoch
  let state s = s.s_state
  let is_open s = s.s_state = `Live
  let buffered_ops s = s.s_nops

  let check_live s ctx =
    match s.s_state with
    | `Live -> ()
    | `Committed ->
      invalid_arg (Printf.sprintf "Store.Session.%s: session %d already committed" ctx s.s_id)
    | `Aborted ->
      invalid_arg (Printf.sprintf "Store.Session.%s: session %d already aborted" ctx s.s_id)

  (* -- snapshot reads ----------------------------------------------------- *)

  let dangling oid =
    raise (Heap.Heap_error (Format.asprintf "dangling reference %a" Oid.pp oid))

  (* How a session sees one oid: its own overlay first (read-your-writes),
     then the version chains, then the live heap. *)
  let resolved s oid =
    match Oid.Table.find_opt s.s_overlay oid with
    | Some e -> Some e
    | None -> snapshot_entry s.s_store s.s_epoch oid

  let resolved_root s name =
    match Hashtbl.find_opt s.s_root_over name with
    | Some v -> v
    | None -> snapshot_root_value s.s_store s.s_epoch name

  let resolved_blob s key =
    match Hashtbl.find_opt s.s_blob_over key with
    | Some v -> v
    | None -> snapshot_blob_value s.s_store s.s_epoch key

  let get s oid =
    check_live s "get";
    Obs.incr s.s_store.obs Obs.Get;
    check_q s.s_store oid;
    match resolved s oid with
    | Some e -> e
    | None -> dangling oid

  let find s oid =
    check_live s "find";
    Obs.incr s.s_store.obs Obs.Get;
    if Quarantine.mem (shard_oid s.s_store oid).sq oid then None else resolved s oid

  let is_live s oid =
    check_live s "is_live";
    resolved s oid <> None

  let get_record s oid = Heap.entry_record oid (get s oid)
  let get_array s oid = Heap.entry_array oid (get s oid)
  let get_string s oid = Heap.entry_string oid (get s oid)
  let get_weak s oid = Heap.entry_weak oid (get s oid)
  let class_of s oid = Heap.entry_class (get s oid)
  let field s oid idx = Heap.entry_field oid (get s oid) idx
  let elem s oid idx = Heap.entry_elem oid (get s oid) idx
  let array_length s oid = Array.length (get_array s oid).Heap.elems

  let string_value s v =
    check_live s "string_value";
    match v with
    | Pvalue.Ref oid -> get_string s oid
    | v -> raise (Heap.Heap_error ("expected a string reference, got " ^ Pvalue.to_string v))

  let try_get s oid =
    check_live s "try_get";
    note_read s.s_store oid;
    Obs.incr s.s_store.obs Obs.Get;
    match Quarantine.find (shard_oid s.s_store oid).sq oid with
    | Some reason ->
      Obs.incr s.s_store.obs Obs.Quarantine_hit;
      Error (Failure.Quarantined { oid; reason })
    | None -> (
      match resolved s oid with
      | Some entry -> Ok entry
      | None -> Error (Failure.Dangling oid))

  let try_field s oid idx = field_result oid idx (try_get s oid)

  let root s name =
    check_live s "root";
    Obs.incr s.s_store.obs Obs.Root_lookup;
    resolved_root s name

  let root_names s =
    check_live s "root_names";
    let tbl = Hashtbl.create 32 in
    List.iter (fun n -> Hashtbl.replace tbl n ()) (Roots.names s.s_store.roots);
    Hashtbl.iter (fun n _ -> Hashtbl.replace tbl n ()) s.s_store.mvcc.root_versions;
    Hashtbl.iter (fun n _ -> Hashtbl.replace tbl n ()) s.s_root_over;
    Hashtbl.fold (fun n () acc -> if resolved_root s n <> None then n :: acc else acc) tbl []
    |> List.sort String.compare

  let blob s key =
    check_live s "blob";
    Obs.incr s.s_store.obs Obs.Get;
    resolved_blob s key

  let blob_keys s =
    check_live s "blob_keys";
    let tbl = Hashtbl.create 32 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace tbl k ()) s.s_store.blobs;
    Hashtbl.iter (fun k _ -> Hashtbl.replace tbl k ()) s.s_store.mvcc.blob_versions;
    Hashtbl.iter (fun k _ -> Hashtbl.replace tbl k ()) s.s_blob_over;
    Hashtbl.fold (fun k () acc -> if resolved_blob s k <> None then k :: acc else acc) tbl []
    |> List.sort String.compare

  (* -- buffered writes ---------------------------------------------------- *)

  let push_op s op =
    s.s_ops <- op :: s.s_ops;
    s.s_nops <- s.s_nops + 1

  (* A session write mutates a private copy of the object: the session's
     own allocation, or a copy-on-write of the visible entry (which also
     enrols the oid in the write set for conflict detection). *)
  let overlay_entry s oid =
    match Oid.Table.find_opt s.s_overlay oid with
    | Some e -> e
    | None -> (
      match snapshot_entry s.s_store s.s_epoch oid with
      | Some e ->
        let copy = Journal.copy_entry e in
        Oid.Table.replace s.s_overlay oid copy;
        s.s_written <- Oid.Set.add oid s.s_written;
        copy
      | None -> dangling oid)

  let set_field s oid idx v =
    check_live s "set_field";
    Obs.incr s.s_store.obs Obs.Set;
    check_q s.s_store oid;
    Heap.entry_set_field oid (overlay_entry s oid) idx v;
    push_op s (Journal.Set_field (oid, idx, v))

  let set_elem s oid idx v =
    check_live s "set_elem";
    Obs.incr s.s_store.obs Obs.Set;
    check_q s.s_store oid;
    Heap.entry_set_elem oid (overlay_entry s oid) idx v;
    push_op s (Journal.Set_elem (oid, idx, v))

  (* Session allocations reserve their oid from the shared allocator (so
     concurrent sessions and top-level allocs never collide) but the
     entry lives only in the overlay until commit.  An aborted session's
     reserved oids are simply never used — the allocator is monotone. *)
  let reserve_oid store =
    let n = Heap.next_oid store.heap in
    Heap.set_next_oid store.heap (n + 1);
    Oid.of_int n

  let session_alloc s label entry =
    check_live s "alloc";
    Obs.span s.s_store.obs Obs.Alloc ~label (fun () ->
        let oid = reserve_oid s.s_store in
        Oid.Table.replace s.s_overlay oid entry;
        s.s_allocated <- Oid.Set.add oid s.s_allocated;
        push_op s (Journal.Alloc (oid, entry));
        oid)

  let alloc_record s class_name fields =
    session_alloc s class_name (Heap.Record { Heap.class_name; fields })

  let alloc_array s elem_type elems =
    session_alloc s elem_type (Heap.Array { Heap.elem_type; elems })

  let alloc_string s str = session_alloc s "string" (Heap.Str str)
  let alloc_weak s target = session_alloc s "weak" (Heap.Weak { Heap.target })

  let set_root s name v =
    check_live s "set_root";
    Obs.incr s.s_store.obs Obs.Set;
    Hashtbl.replace s.s_root_over name (Some v);
    push_op s (Journal.Set_root (name, v))

  let remove_root s name =
    check_live s "remove_root";
    Obs.incr s.s_store.obs Obs.Set;
    Hashtbl.replace s.s_root_over name None;
    push_op s (Journal.Remove_root name)

  let set_blob s key data =
    check_live s "set_blob";
    Obs.incr s.s_store.obs Obs.Set;
    Hashtbl.replace s.s_blob_over key (Some data);
    push_op s (Journal.Set_blob (key, data))

  let remove_blob s key =
    check_live s "remove_blob";
    Obs.incr s.s_store.obs Obs.Set;
    Hashtbl.replace s.s_blob_over key None;
    push_op s (Journal.Remove_blob key)

  let write_set s =
    let keys =
      List.sort_uniq String.compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) s.s_root_over []
        @ Hashtbl.fold (fun k _ acc -> k :: acc) s.s_blob_over [])
    in
    (Oid.Set.elements s.s_written, keys)

  (* -- close-out: commit / abort ------------------------------------------ *)

  let unpin s final_state =
    let m = s.s_store.mvcc in
    s.s_state <- final_state;
    m.open_sessions <- List.filter (fun o -> o != s) m.open_sessions;
    if m.open_sessions = [] then begin
      (* no snapshot can observe old versions any more *)
      Oid.Table.reset m.versions;
      Oid.Table.reset m.vstamps;
      Hashtbl.reset m.root_versions;
      Hashtbl.reset m.root_stamps;
      Hashtbl.reset m.blob_versions;
      Hashtbl.reset m.blob_stamps
    end

  let drop_buffer s =
    Oid.Table.reset s.s_overlay;
    Hashtbl.reset s.s_root_over;
    Hashtbl.reset s.s_blob_over;
    s.s_ops <- [];
    s.s_nops <- 0

  let abort s =
    check_live s "abort";
    (* no journal residue by construction: nothing ever left the buffer *)
    drop_buffer s;
    unpin s `Aborted

  let conflicts s =
    let m = s.s_store.mvcc in
    let snap = s.s_epoch in
    let oids =
      Oid.Set.fold
        (fun oid acc ->
          match Oid.Table.find_opt m.vstamps oid with
          | Some e when e > snap -> oid :: acc
          | _ -> acc)
        s.s_written []
      |> List.sort Oid.compare
    in
    let key_conflicts stamps over =
      Hashtbl.fold
        (fun key _ acc ->
          match Hashtbl.find_opt stamps key with
          | Some e when e > snap -> key :: acc
          | _ -> acc)
        over []
    in
    let keys =
      List.sort_uniq String.compare
        (key_conflicts m.root_stamps s.s_root_over @ key_conflicts m.blob_stamps s.s_blob_over)
    in
    (oids, keys)

  (* Refuse the whole commit before touching shared state: shard health,
     quarantine and dangling targets are checked for every buffered op
     up front, so a refused commit leaves the heap and the journal
     untouched and the session live for a later retry. *)
  let validate_ops s =
    let store = s.s_store in
    List.iter
      (fun op ->
        match op with
        | Journal.Alloc (oid, _) -> guard_write_oid store oid
        | Journal.Set_field (oid, _, _) | Journal.Set_elem (oid, _, _) ->
          guard_write_oid store oid;
          if not (Oid.Set.mem oid s.s_allocated) then begin
            check_q store oid;
            if not (Heap.is_live store.heap oid) then dangling oid
          end
        | Journal.Set_root (key, _)
        | Journal.Remove_root key
        | Journal.Set_blob (key, _)
        | Journal.Remove_blob key -> guard_write_key store key)
      (List.rev s.s_ops)

  (* Publish one buffered op: capture the pre-image for the sessions that
     remain open, stamp the target with the commit epoch, mutate, and
     hand the op to the journal buffer exactly like a direct write. *)
  let apply_op store epoch op =
    (match op with
    | Journal.Alloc (oid, entry) ->
      capture_oid store epoch oid ~pre_image:false;
      Obs.incr store.obs Obs.Alloc;
      Heap.insert store.heap oid (Journal.copy_entry entry);
      invalidate_crc store oid
    | Journal.Set_field (oid, idx, v) ->
      capture_oid store epoch oid ~pre_image:true;
      Obs.incr store.obs Obs.Set;
      Heap.set_field store.heap oid idx v;
      invalidate_crc store oid
    | Journal.Set_elem (oid, idx, v) ->
      capture_oid store epoch oid ~pre_image:true;
      Obs.incr store.obs Obs.Set;
      Heap.set_elem store.heap oid idx v;
      invalidate_crc store oid
    | Journal.Set_root (key, v) ->
      capture_key store.mvcc.root_versions store.mvcc.root_stamps epoch key (fun () ->
          Roots.find store.roots key);
      Obs.incr store.obs Obs.Set;
      Roots.set store.roots key v
    | Journal.Remove_root key ->
      capture_key store.mvcc.root_versions store.mvcc.root_stamps epoch key (fun () ->
          Roots.find store.roots key);
      Obs.incr store.obs Obs.Set;
      Roots.remove store.roots key
    | Journal.Set_blob (key, data) ->
      capture_key store.mvcc.blob_versions store.mvcc.blob_stamps epoch key (fun () ->
          Hashtbl.find_opt store.blobs key);
      Obs.incr store.obs Obs.Set;
      Hashtbl.replace store.blobs key data
    | Journal.Remove_blob key ->
      capture_key store.mvcc.blob_versions store.mvcc.blob_stamps epoch key (fun () ->
          Hashtbl.find_opt store.blobs key);
      Obs.incr store.obs Obs.Set;
      Hashtbl.remove store.blobs key);
    if journalling store then record store op

  let commit s =
    check_live s "commit";
    let store = s.s_store in
    seal_epoch store;
    let oids, keys = conflicts s in
    if oids <> [] || keys <> [] then begin
      Obs.incr store.obs Obs.Conflict;
      let session = s.s_id in
      (* the first committer won: abort, then hand the caller the clash
         set so it can retry against the new state *)
      drop_buffer s;
      unpin s `Aborted;
      raise (Failure.Commit_conflict { session; oids; keys })
    end;
    validate_ops s;
    let ops = List.rev s.s_ops in
    Obs.span store.obs Obs.Session_commit
      ~label:(Printf.sprintf "session %d" s.s_id)
      (fun () ->
        (if ops <> [] then begin
           let epoch = store.mvcc.commit_seq + 1 in
           List.iter (apply_op store epoch) ops;
           store.mvcc.commit_seq <- epoch;
           (* committed writes invalidate side caches: the registry's
              getLink memo revalidates against this epoch *)
           bump_epoch store
         end);
        drop_buffer s;
        unpin s `Committed;
        if ops <> [] then commit_barrier store)

  (* -- snapshot introspection --------------------------------------------- *)

  let live_count s =
    check_live s "live_count";
    (* no entry is ever removed while sessions are open (GC is gated),
       so the visible set is a subset of the live heap *)
    let n = ref 0 in
    Heap.iter
      (fun oid _ -> if snapshot_entry s.s_store s.s_epoch oid <> None then incr n)
      s.s_store.heap;
    !n

  let stats s =
    check_live s "stats";
    { (stats s.s_store) with live = live_count s }

  (* The session's full visible state as store contents — the same shape
     [Store.contents] has, so [Image.encode] fingerprints a snapshot
     byte-stably however much the shared store moves on. *)
  let snapshot_contents s =
    check_live s "snapshot_contents";
    let store = s.s_store in
    let snap = s.s_epoch in
    let heap' = Heap.create () in
    let top = ref 0 in
    Heap.iter
      (fun oid _ ->
        match snapshot_entry store snap oid with
        | Some e ->
          Heap.insert heap' oid (Journal.copy_entry e);
          if Oid.to_int oid >= !top then top := Oid.to_int oid + 1
        | None -> ())
      store.heap;
    if !top > Heap.next_oid heap' then Heap.set_next_oid heap' !top;
    let roots' = Roots.create () in
    List.iter
      (fun n ->
        match snapshot_root_value store snap n with
        | Some v -> Roots.set roots' n v
        | None -> ())
      (let tbl = Hashtbl.create 32 in
       List.iter (fun n -> Hashtbl.replace tbl n ()) (Roots.names store.roots);
       Hashtbl.iter (fun n _ -> Hashtbl.replace tbl n ()) store.mvcc.root_versions;
       Hashtbl.fold (fun n () acc -> n :: acc) tbl []);
    let blobs' = Hashtbl.create 16 in
    let blob_keys =
      let tbl = Hashtbl.create 32 in
      Hashtbl.iter (fun k _ -> Hashtbl.replace tbl k ()) store.blobs;
      Hashtbl.iter (fun k _ -> Hashtbl.replace tbl k ()) store.mvcc.blob_versions;
      Hashtbl.fold (fun k () acc -> k :: acc) tbl []
    in
    List.iter
      (fun k ->
        match snapshot_blob_value store snap k with
        | Some data -> Hashtbl.replace blobs' k data
        | None -> ())
      blob_keys;
    let quarantine = Quarantine.create () in
    Array.iter
      (fun sh ->
        List.iter (fun (oid, r) -> Quarantine.add quarantine oid r) (Quarantine.to_list sh.sq))
      store.shards;
    { Image.heap = heap'; roots = roots'; blobs = blobs'; quarantine }
end

(* Pin a snapshot of the committed state as of now.  Any unsealed
   top-level writes are sealed first, so the new session's epoch cleanly
   separates "before open" from "after open". *)
let open_session store =
  let m = store.mvcc in
  seal_epoch store;
  let s =
    {
      s_id = m.next_session_id;
      s_store = store;
      s_epoch = m.commit_seq;
      s_overlay = Oid.Table.create 16;
      s_root_over = Hashtbl.create 8;
      s_blob_over = Hashtbl.create 8;
      s_ops = [];
      s_nops = 0;
      s_written = Oid.Set.empty;
      s_allocated = Oid.Set.empty;
      s_state = `Live;
    }
  in
  m.next_session_id <- m.next_session_id + 1;
  m.open_sessions <- s :: m.open_sessions;
  s
