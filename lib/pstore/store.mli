(** The persistent store facade (the paper's PJama analog).

    A store is a heap of objects, a set of named roots, and a blob table,
    with stabilisation to a backing file.  Programs (hyper-programs, class
    files) live in the same store as the data they manipulate.

    {b Two ways in.}  Code that owns a store alone calls the single-owner
    operations below ([get], [set_field], [set_root], ...), which read
    and write the shared state directly; {!atomically} brackets a batch
    of them with whole-store rollback.  Clients that overlap each take a
    {!Session.t} from {!open_session}: a snapshot-isolated MVCC session
    with byte-stable reads as of open and privately buffered writes,
    published atomically by {!Session.commit} with first-committer-wins
    conflict detection ({!Failure.Commit_conflict}). *)

type t

type store = t
(** Alias so the {!Session} signature can refer to the store type. *)

(** {1 Durability}

    Every backed store journals.  Mutations are buffered as write-ahead
    journal ops: stabilise appends and fsyncs just the delta since the
    last stabilise, and the full image is rewritten only at compaction
    points — the first stabilise, a journal over [compaction_limit]
    ([0] rewrites the image on every stabilise), or after changes the
    journal cannot express (a GC sweep, {!mark_dirty}, quarantine
    churn).  An unbacked store records nothing. *)

(** {1 Configuration}

    All store tunables in one record, applied atomically with
    {!configure} or at construction time via [?config] on {!create} and
    {!open_file}.  This record is the only way to retune a live store —
    the per-knob setters it replaced are gone. *)

module Config : sig
  type t = {
    compaction_limit : int;
        (** journal records tolerated before stabilise compacts; [0]
            writes a fresh image on every stabilise *)
    group_window : int;
        (** group commit: journalled stabilises per fsync.  [1] (the
            default) fsyncs every stabilise; [n > 1] coalesces each
            delta into one atomic batch record and fsyncs every n-th
            stabilise (and at compaction/close), trading bounded recent
            durability for throughput — a crash can lose up to [n - 1]
            whole batches, never part of one *)
    retry : Retry.policy option;
        (** transient-I/O retry, threaded through every I/O class
            (stabilise, image load/save, journal append, commit marker,
            compaction); [None] = fail fast *)
    breaker : int;
        (** circuit breaker: consecutive exhausted transient failures on
            one shard before it is demoted to degraded ([0] = never).
            Sharded stores only *)
    backing : string option;
        (** [Some p] points the store at a backing file; [None] leaves
            the current backing untouched (identity is not a tunable) *)
    trace_ring : int;  (** trace-ring capacity, in events *)
    tracing : bool;  (** latency histograms + trace ring on/off *)
    shards : int;
        (** shard count, fixed at store creation and persisted in the
            store manifest.  [1] (the default) keeps the legacy flat
            single-file layout; [n > 1] partitions objects by oid hash
            (roots and blobs by key hash) into [n] shards, each with its
            own image, journal, quarantine set and scrub cursor, so
            stabilise, scrub and GC mark run shard-wise on the domain
            pool.  {!configure} on an existing store must repeat the
            store's own count; {!open_file} always adopts the on-disk
            count. *)
  }

  val default : t
  (** Default compaction limit, group window 1, no retry, breaker
      threshold 3, backing untouched, {!Obs.default_ring_capacity} ring,
      tracing off. *)
end

val create : ?config:Config.t -> unit -> t
(** A fresh, empty store, unbacked unless [config] names a backing file.
    Its first stabilise writes the image and starts the journal. *)

val open_file : ?config:Config.t -> string -> t
(** Recover a store from a stabilised image.  If a write-ahead journal
    paired with the image exists it is replayed on top (truncating at the
    first torn record) and later stabilises append to it; an image with
    no journal (or a stale one) writes a fresh image and journal at its
    next stabilise.  A crash that left a complete-but-unrenamed image is
    promoted.  An explicit [config] is applied after recovery, so its
    tunables win over recovered state.

    On a sharded store, shard faults are contained: an unreadable shard
    image takes only that shard {e offline} (see {!health}; its slice of
    the store stays empty until {!repair}), and a salvage-heavy shard
    load (8 or more entries salvaged from its image) opens that shard
    {e degraded} — the other shards load and serve normally.
    @raise Image.Image_error on a corrupt single-shard image with
    nothing to recover. *)

val configure : t -> Config.t -> unit
(** Apply a whole configuration.  [backing = None] keeps the current
    backing file. *)

val config : t -> Config.t
(** The store's current configuration ([backing] is the current backing
    file, so [configure s (config s)] is the identity). *)

val close : t -> unit
(** Release the journal file handle, if any, and seal the observability
    state: a final counter snapshot is recorded ({!Obs.flush}) and the
    trace ring is emptied.  The store stays usable in memory; the next
    stabilise recreates the handle by compaction.  Idempotent. *)

val crash : t -> unit
(** Test support: simulate a process crash.  The journal descriptor is
    closed without flushing, so buffered-but-unsynced bytes are lost, and
    in-flight trace state is dropped without a final snapshot
    ({!Obs.drop}).  The in-memory store should be discarded and the image
    reopened.  Idempotent, and safe after {!close}. *)

val heap : t -> Heap.t
val roots : t -> Roots.t

val obs : t -> Obs.t
(** The store's observability state: operation counters (always on),
    latency histograms and the bounded trace ring (on when tracing is
    enabled via {!configure} or [Obs.set_enabled]). *)

val props : t -> Props.t
(** A typed property bag for per-store transient state attached by
    higher layers (memo tables, cached fingerprints).  Never stabilised;
    a reopened store starts empty. *)

val invalidation_epoch : t -> int
(** Side-cache invalidation stamp.  Bumped by every event that can
    change what a read observes without going through a higher layer's
    own API: quarantine add/clear (including the scrubber's), a GC
    sweep, transaction rollback, and {!mark_dirty}.  Caches attached via
    {!props} stamp entries with this epoch and flush on mismatch. *)

val shards : t -> int
(** The store's shard count (>= 1). *)

val shard_of : t -> Oid.t -> int
(** The shard an oid hashes to (always [0] on a single-shard store). *)

(** {1 Fault domains and shard health}

    On a sharded store each shard is a fault domain with a three-state
    health machine: [Healthy], [Degraded reason] (the circuit breaker
    tripped on repeated exhausted transient I/O failures, or the open
    had to salvage heavily around its image), or [Offline reason] (its
    image was unreadable at open).  A shard that is not healthy is
    read-only: reads keep serving from memory (counted as degraded
    reads), writes routed to it raise {!Failure.Shard_degraded}, and
    stabilise simply works around it — every other shard keeps full
    service.  {!repair} is the way back to healthy. *)

type shard_health = {
  h_shard : int;
  h_state : Health.state;
  h_failures : int;  (** consecutive exhausted transient I/O failures *)
  h_trips : int;  (** demotions so far (breaker trips + open demotions) *)
  h_degraded_reads : int;  (** reads served while not healthy *)
  h_refused_writes : int;  (** writes refused with [Shard_degraded] *)
  h_repairs : int;  (** successful repairs *)
}

val health : t -> shard_health list
(** Per-shard health, in shard order. *)

val healthy : t -> bool
(** Every shard is healthy (always true on a single-shard store). *)

val shard_healthy : t -> int -> bool

val degrade_shard : t -> int -> string -> unit
(** Operator override: demote a healthy shard to degraded (no-op on an
    already-demoted shard).  @raise Invalid_argument on a bad index. *)

val offline_shard : t -> int -> string -> unit
(** Operator override: take a shard offline (no-op if already offline). *)

type repair_report = {
  r_shard : int;
  r_was : Health.state;  (** the state the shard was repaired out of *)
  r_restored : int;  (** heap entries recovered from its on-disk image *)
  r_replayed : int;  (** journal ops re-applied on top of them *)
  r_lost : int;
      (** oids still referenced by survivors that stayed unrecoverable;
          they are quarantined with a "lost with its shard" reason *)
  r_ms : float;  (** wall-clock repair time, milliseconds *)
}

val repair : t -> int -> repair_report option
(** Repair one shard; [None] if it is already healthy.  A degraded
    shard's state was never lost — repair promotes it and rewrites its
    image (a partial compaction) so buffered mutations and quarantine
    changes land durably.  An offline shard is first rebuilt from
    whatever survives on disk: its image (salvage-tolerant), then its
    journal gated by the commit marker exactly like normal recovery but
    op-by-op lenient.  Cross-shard references into the shard that remain
    dead afterwards are quarantined as lost, and the allocator is kept
    clear of their oids.  If the durable rewrite fails the shard is
    re-demoted and the failure re-raised.
    @raise Invalid_argument on a bad shard index. *)

val repair_all : t -> repair_report list
(** Repair every unhealthy shard, in shard order. *)

val backing : t -> string option
val group_window : t -> int

val set_group_window : t -> int -> unit
(** See {!Config.t}[.group_window].
    @raise Invalid_argument if the window is < 1. *)

val mark_dirty : t -> unit
(** Tell the store its heap was mutated behind its back (direct record
    surgery, e.g. schema evolution's instance reconstruction): the next
    stabilise writes a full image rather than trusting the journal.
    @raise Invalid_argument while snapshot sessions are open — untracked
    surgery would tear their pinned views. *)

(** {1 Named roots} *)

val set_root : t -> string -> Pvalue.t -> unit
val root : t -> string -> Pvalue.t option
val remove_root : t -> string -> unit
val root_names : t -> string list

(** {1 Allocation and access} *)

val alloc_record : t -> string -> Pvalue.t array -> Oid.t
val alloc_array : t -> string -> Pvalue.t array -> Oid.t
val alloc_string : t -> string -> Oid.t
val alloc_weak : t -> Pvalue.t -> Oid.t

val get : t -> Oid.t -> Heap.entry
(** @raise Quarantine.Quarantined if the oid is quarantined.
    @raise Heap.Heap_error if it is dangling.  (So do the other accessors
    below; use {!try_get} / {!try_field} to salvage instead.) *)

val find : t -> Oid.t -> Heap.entry option
(** [None] for dangling {e and} quarantined oids. *)

val is_live : t -> Oid.t -> bool
val class_of : t -> Oid.t -> string
val get_record : t -> Oid.t -> Heap.record
val get_array : t -> Oid.t -> Heap.arr
val get_string : t -> Oid.t -> string
val get_weak : t -> Oid.t -> Heap.weak_cell
val field : t -> Oid.t -> int -> Pvalue.t
val set_field : t -> Oid.t -> int -> Pvalue.t -> unit
val elem : t -> Oid.t -> int -> Pvalue.t
val set_elem : t -> Oid.t -> int -> Pvalue.t -> unit
val array_length : t -> Oid.t -> int
val size : t -> int

val string_value : t -> Pvalue.t -> string
(** Dereference a value expected to be a string reference, through
    {!get_string}: a quarantined string raises [Quarantine.Quarantined].
    @raise Heap.Heap_error if the value is not a string reference. *)

(** {1 Salvage reads and quarantine}

    Corrupt or dangling objects are isolated, not fatal: reads of a
    quarantined oid raise the typed {!Quarantine.Quarantined} error, and
    the [try_]-style variants return the shared {!Failure.t} as data so
    callers can render broken-link placeholders with a single match. *)

val try_get : t -> Oid.t -> (Heap.entry, Failure.t) result

val try_field : t -> Oid.t -> int -> (Pvalue.t, Failure.t) result
(** Liveness, quarantine {e and} a bad field index are reported as
    [Error] ([Failure.Bad_index] for the latter). *)

val quarantine_oid : t -> Oid.t -> string -> unit
(** Isolate an object (the scrubber and the image salvage loader call
    this; it is also available to operators).  Forces a fresh image of
    the owning shard at the next compaction point (the whole image on a
    single-shard store), which persists the quarantine set. *)

val clear_quarantine : t -> Oid.t -> unit
(** Release an oid from quarantine (repair workflows). *)

val quarantine_reason : t -> Oid.t -> string option
val is_quarantined : t -> Oid.t -> bool

val quarantined : t -> (Oid.t * string) list
(** Sorted by oid. *)

(** {1 Scrubbing}

    The online scrubber: incremental, budgeted passes verifying
    per-object checksums (trust-on-first-scan) and reference health.
    See {!Scrub}. *)

val default_scrub_budget : int

val scrub : ?budget:int -> t -> Scrub.report
(** Scan at most [budget] (default {!default_scrub_budget}) objects,
    resuming where the last call stopped; quarantines objects whose
    recorded checksum no longer matches and targets of dangling
    references. *)

val scrub_progress : t -> Scrub.state

(** {1 Retry}

    Opt-in bounded retry with full-jitter backoff for transient I/O
    failures, threaded through every I/O class: the whole stabilise,
    per-shard image loads and saves, journal appends (made idempotent by
    truncating to a savepoint between attempts), the commit marker and
    compaction commits.  One policy covers every class; exhausted
    budgets feed the per-shard circuit breaker.  Off by default so
    crash-injection tests observe raw failures.  Configured via
    [Config.retry]. *)

val retry_policy : t -> Retry.policy option

(** {1 Blobs}

    Named byte strings for non-object state; the MiniJava runtime keeps its
    compiled class files here, making classes persistent. *)

val set_blob : t -> string -> string -> unit
val blob : t -> string -> string option
val remove_blob : t -> string -> unit
val blob_keys : t -> string list

(** {1 Pins}

    Transient strong roots contributed by a running VM (static fields,
    stack frames).  The GC honours them in addition to named roots. *)

val add_pin : t -> (unit -> Oid.t list) -> unit
val pinned_oids : t -> Oid.t list

(** {1 Garbage collection and stabilisation} *)

val gc : t -> Gc.stats
(** Mark-and-sweep from the named roots and pins.
    @raise Invalid_argument while snapshot sessions are open — they pin
    the object graph. *)

val reachable : t -> Oid.Set.t

val contents : t -> Image.contents
(** The store's heap, roots and blobs, viewed as image contents (shared,
    not copied).  [Image.encode (contents s)] is a deterministic
    fingerprint of the whole persistent state. *)

val stabilise : ?path:string -> t -> unit
(** Make the store durable at [path] (or the backing file): append the
    mutation delta to the write-ahead journal as one atomic batch record
    and fsync (every [group_window]-th stabilise when group commit is
    on), or write a fresh image atomically and restart the journal at a
    compaction point.  A [path] other than the current backing file
    re-points the store and writes a full image there.
    @raise Invalid_argument if no path is available, or if a compaction
    is required inside {!with_rollback}. *)

type stats = {
  live : int;  (** live heap objects *)
  gc_count : int;
  stabilise_count : int;
  journal_depth : int;  (** records in the write-ahead journal *)
  pending_ops : int;  (** mutations buffered but not yet stabilised *)
  journal_replayed : int;  (** records replayed when this store was opened *)
  compactions : int;
  recovered_torn_tail : bool;  (** open_file dropped a torn journal tail *)
  quarantined : int;  (** objects currently quarantined *)
  io_retries : int;  (** stabilise retries absorbed by the retry policy *)
  unsynced_batches : int;
      (** group-committed batches written but not yet fsynced *)
  unhealthy_shards : int;  (** shards currently degraded or offline *)
}

val stats : t -> stats

(** {1 Per-shard introspection} *)

type shard_info = {
  shard : int;
  objects : int;  (** live heap objects hashing to this shard *)
  quarantined : int;
  journal_bytes : int;  (** bytes in this shard's journal body (0 if closed) *)
  pending_ops : int;  (** mutations buffered for this shard *)
  remembered : int;
      (** remembered-set size: live oids here referenced from other
          shards, as of the last {!gc} *)
  state : string;  (** health state name: ["healthy" | "degraded" | "offline"] *)
}

val shard_info : t -> shard_info list
(** One entry per shard, in shard order (a single entry on a
    single-shard store).  Costs one heap iteration. *)

(** {1 Transactions} *)

val clear_pins : t -> unit
(** Drop all registered pins (used when discarding the VM that installed
    them, e.g. on transaction abort). *)

val with_rollback : t -> (unit -> 'a) -> ('a, exn) result
(** Run [f] with whole-store rollback: on an exception the heap, roots
    and blobs are restored to their state at entry (oids included).

    On a backed single-shard store whose journal describes it (no GC
    sweep or {!mark_dirty} since its last image) the abort path is
    recovery: the journal is truncated to its entry savepoint and the
    entry state is rebuilt from image + journal + entry-time pending ops
    — O(delta) rather than one full store snapshot, and any records the
    transaction stabilised are cut off so the on-disk journal replays to
    the pre-transaction state.  Other stores pay the full-image snapshot.
    @raise Invalid_argument while snapshot sessions are open — a
    whole-store rollback would rewrite state under their snapshots. *)

val atomically : t -> (unit -> 'a) -> ('a, exn) result
(** The single-owner transaction: run the thunk against the shared store
    under {!with_rollback}, then pay the commit barrier on success
    (stabilise a backed store).  This is what
    {!Hyperprog.Transaction.transact} wraps.
    @raise Invalid_argument (from [with_rollback]) while snapshot
    sessions are open. *)

(** {1 Sessions}

    The handle-based concurrency surface.  A session ({!open_session})
    gives one logical client an isolated view of the store:

    - {b snapshot reads} — everything the session reads is the committed
      state as of open, byte-stable however much the shared store moves
      on underneath (MVCC pre-image chains, kept only while at least one
      session is open, so a store with no sessions pays one list check
      per mutation and nothing more);
    - {b read-your-writes} — the session's own buffered writes shadow its
      snapshot;
    - {b atomic publication} — {!Session.commit} validates the whole
      buffer against shard health and quarantine, then replays it
      through the store's normal guarded mutation path and the
      group-commit journal, so a committed session is exactly as durable
      as the same writes made directly;
    - {b first-committer-wins} — if any object or root/blob key this
      session wrote was committed by someone else after this session's
      snapshot, commit raises {!Failure.Commit_conflict} carrying the
      clashing oids and keys, and the session aborts having touched
      nothing.

    GC, [with_rollback] and [mark_dirty] refuse to run while snapshot
    sessions are open (they would invalidate pinned views); commit or
    abort every session first. *)

module Session : sig
  type t
  (** A session handle.  Not thread-safe itself: one session belongs to
      one logical client; {e different} sessions on one store are how
      clients overlap. *)

  val id : t -> int
  (** Session ids are per-store, starting at 1. *)

  val store : t -> store

  val snapshot_epoch : t -> int
  (** The commit epoch this session reads as of, pinned at open. *)

  val state : t -> [ `Live | `Committed | `Aborted ]
  val is_open : t -> bool

  val buffered_ops : t -> int
  (** Writes buffered and not yet committed. *)

  (** {2 Reads}

      Same contracts as the single-owner operations of the same name
      ([get] raises on dangling/quarantined, [find] returns [None],
      [try_get]/[try_field] return {!Failure.t} as data, ...), evaluated
      against the session's snapshot plus its own buffered writes.
      @raise Invalid_argument on a committed or aborted session. *)

  val get : t -> Oid.t -> Heap.entry
  val find : t -> Oid.t -> Heap.entry option
  val is_live : t -> Oid.t -> bool
  val class_of : t -> Oid.t -> string
  val get_record : t -> Oid.t -> Heap.record
  val get_array : t -> Oid.t -> Heap.arr
  val get_string : t -> Oid.t -> string
  val get_weak : t -> Oid.t -> Heap.weak_cell
  val field : t -> Oid.t -> int -> Pvalue.t
  val elem : t -> Oid.t -> int -> Pvalue.t
  val array_length : t -> Oid.t -> int
  val string_value : t -> Pvalue.t -> string
  val try_get : t -> Oid.t -> (Heap.entry, Failure.t) result
  val try_field : t -> Oid.t -> int -> (Pvalue.t, Failure.t) result
  val root : t -> string -> Pvalue.t option
  val root_names : t -> string list
  val blob : t -> string -> string option
  val blob_keys : t -> string list

  (** {2 Writes}

      Every session write lands in a private buffer (copy-on-write
      overlay for heap objects) and is invisible to every other session
      until {!commit}.  Allocations reserve their oid from the shared
      allocator immediately — so sessions never collide on oids — but
      the entry stays private until commit; an aborted session's
      reserved oids are simply never used. *)

  val set_field : t -> Oid.t -> int -> Pvalue.t -> unit
  val set_elem : t -> Oid.t -> int -> Pvalue.t -> unit
  val alloc_record : t -> string -> Pvalue.t array -> Oid.t
  val alloc_array : t -> string -> Pvalue.t array -> Oid.t
  val alloc_string : t -> string -> Oid.t
  val alloc_weak : t -> Pvalue.t -> Oid.t
  val set_root : t -> string -> Pvalue.t -> unit
  val remove_root : t -> string -> unit
  val set_blob : t -> string -> string -> unit
  val remove_blob : t -> string -> unit

  val write_set : t -> Oid.t list * string list
  (** The oids (pre-existing objects mutated; ascending) and root/blob
      keys (sorted) this session has written — the set conflict
      detection will check at commit. *)

  (** {2 Commit and abort} *)

  val commit : t -> unit
  (** Publish the session's buffered writes atomically and close the
      session.  On a backed store a commit that published anything
      stabilises before it returns, so the writes are durable.
      @raise Failure.Commit_conflict if first-committer-wins detection
      refuses the commit; the session is aborted first, having changed
      nothing.
      @raise Failure.Shard_degraded (or [Quarantine.Quarantined] /
      [Heap.Heap_error]) if up-front validation refuses an op; the
      session {e stays live} — nothing was published — so the caller can
      repair and retry the commit.
      @raise Invalid_argument on an already-closed session. *)

  val abort : t -> unit
  (** Discard every buffered write and close the session.  No journal
      residue by construction: nothing ever left the buffer.
      @raise Invalid_argument on an already-closed session. *)

  (** {2 Introspection}

      Like the reads, these refuse a closed session: each raises
      [Invalid_argument] once the session is committed or aborted,
      rather than answering from the live heap. *)

  val live_count : t -> int
  (** Objects visible to this session's snapshot. *)

  val stats : t -> stats
  (** Store stats with [live] replaced by this session's
      {!live_count} — counts reflect the snapshot, not the dirty
      buffer. *)

  val snapshot_contents : t -> Image.contents
  (** The session's full visible state (snapshot + own writes) as fresh,
      unshared image contents; [Image.encode] of it is a byte-stable
      fingerprint of the snapshot however much the shared store has
      moved on. *)
end

val open_session : t -> Session.t
(** Pin a snapshot session on the committed state as of now. *)

val open_session_count : t -> int
(** The sessions currently open (neither committed nor aborted). *)
