(** Top-level alias for the store's handle-first session surface.

    [Pstore.Session] is {!Store.Session} re-exported under a shorter
    path, plus the scoped helper {!with_session}.  Every session is a
    snapshot session opened by {!open_}; see the {!Store} interface for
    the full semantics: snapshot isolation, buffered writes,
    first-committer-wins commit. *)

include module type of Store.Session with type t = Store.Session.t

val open_ : Store.t -> t
(** [Store.open_session]: pin a snapshot session on the committed state
    as of now. *)

val with_session : Store.t -> (t -> 'a) -> 'a
(** Open a session, run the body, then commit — or abort if the body
    raises (the exception is re-raised).  A body that already committed
    or aborted its session is left alone.  [Failure.Commit_conflict]
    from the final commit propagates to the caller, the session having
    been aborted. *)
