(** Sharded-store metadata: shard assignment hashing, shard file naming,
    the manifest file that replaces the flat image at the store path, and
    the store-level commit marker for cross-shard atomic stabilise.

    On-disk layout of an [N]-shard store at [path]:
    {v
      path             manifest (magic "HPJMANIF"): N, marker epoch,
                       per-shard image epochs
      path.s<k>.<e>    shard k's image at epoch e (ordinary v2 image)
      path.s<k>.<e>.wal   shard k's journal
      path.marker.<m>  commit marker m
    v}

    Single-shard stores keep the legacy flat layout ([path] is the image
    itself); [Store.open_file] sniffs the magic to pick the loader. *)

type t = {
  nshards : int;
  marker_epoch : int;  (** current marker file index; [-1] before the first compaction *)
  epochs : int array;  (** current image epoch of each shard *)
}

val magic : string

(** {1 Shard assignment} *)

val shard_of_oid : count:int -> Oid.t -> int
(** Multiplicative-hash shard assignment; total over oids, stable across
    sessions (it is persisted implicitly by which image holds an oid). *)

val shard_of_key : count:int -> string -> int
(** Shard assignment for root and blob names. *)

(** {1 File naming} *)

val shard_image : string -> int -> int -> string
val shard_wal : string -> int -> int -> string
val marker_path : string -> int -> string

(** {1 Manifest I/O} *)

val save : ?durable:bool -> string -> t -> unit
(** Atomically replace the manifest (tmp + fsync + rename + dir fsync) —
    the commit point of shard-image compaction. *)

val load : string -> t
(** @raise Codec.Decode_error if unreadable or not a manifest. *)

val is_manifest : string -> bool
(** Does the file start with the manifest magic (vs a legacy image)? *)

val cleanup_stale : string -> t -> unit
(** Best-effort deletion of shard/marker files from superseded epochs.
    Errors are ignored: stale files are unreferenced and harmless. *)

(** {1 Commit marker}

    An append-only file of checksummed records, each carrying one
    store-level stabilise sequence number.  A sequence number is
    committed iff a marker record carrying it is durable; the marker
    record is only written after every participating shard journal has
    been fsynced, which is what makes a multi-shard stabilise
    all-or-nothing under crashes. *)

module Marker : sig
  type t

  val create : string -> t
  (** Truncate and write the marker header, fsynced. *)

  val append : t -> int -> unit
  (** Append a committed-sequence record.  Not durable until {!sync}. *)

  val sync : t -> unit

  val position : t -> int
  (** Current end offset: a savepoint for {!truncate_to}. *)

  val truncate_to : t -> pos:int -> unit
  (** Discard records after a savepoint (failed-stabilise rollback). *)

  val close : t -> unit

  val crash : t -> unit
  (** Close without flushing, losing buffered bytes (test support). *)

  type replay = {
    committed : int;  (** last good sequence number; [0] if none *)
    valid_bytes : int;  (** end offset of the last good record *)
  }

  val read : string -> replay option
  (** Lenient scan, stopping at the first torn record.  [None] if the
      file is missing or its header is unreadable. *)

  val open_for_append : string -> valid_bytes:int -> t
  (** Reopen, physically truncating any torn tail first. *)
end
