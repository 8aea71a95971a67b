(** Transactions over the live system (paper Section 7).

    A transaction runs its body against a fresh VM over the shared store.
    On success the store keeps the effects and the transaction's VM
    becomes the current one; on abort the store is restored to its
    pre-transaction image — classes, data and hyper-programs revert
    together — and a fresh VM is booted from the restored state.

    The commit/abort machinery lives in the store layer: {!transact} is
    [Store.atomically] (whole-store rollback, then the journalled commit
    barrier on success) plus the VM lifecycle.  The snapshot-isolated
    multi-client form is [Store.open_session] / [Store.Session.commit];
    this module is the single-owner form over the shared store, and it
    refuses to run while snapshot sessions are open (a whole-store
    rollback would rewrite state under their snapshots). *)

open Pstore
open Minijava

type 'a outcome =
  | Committed of 'a * Rt.t  (** the result and the VM to continue with *)
  | Aborted of exn * Rt.t  (** the failure and a VM over the restored store *)

val fresh_vm : Store.t -> Rt.t
(** Boot a VM for the store's current state, replacing earlier VMs' pins
    and installing the hyper-programming runtime. *)

val transact : Store.t -> (Rt.t -> 'a) -> 'a outcome
(** Run the body atomically ([Store.atomically]): on a backed
    store a successful transaction ends with the commit barrier — the
    delta is fsynced to the write-ahead journal, so commits survive a
    crash without a full image write.  An abort truncates the journal to
    its pre-transaction savepoint.
    @raise Invalid_argument (from the store) while snapshot sessions are
    open. *)

val evolve :
  ?converter:string ->
  ?mode:Dynamic_compiler.mode ->
  Store.t ->
  class_name:string ->
  new_source:string ->
  unit ->
  Evolution.result outcome
(** The paper's live-evolution scenario: schema evolution in a separate
    transaction; a failing recompilation or converter rolls back every
    store effect. *)
