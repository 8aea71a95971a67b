(* Top-level alias for the handle-first surface: [Pstore.Session] reads
   better at call sites than [Pstore.Store.Session].  Everything lives
   in [Store] (the session machinery is inseparable from the store
   internals); this module just re-exports it. *)

include Store.Session

let open_ = Store.open_session

let with_session store f =
  let s = Store.open_session store in
  match f s with
  | v ->
    if is_open s then commit s;
    v
  | exception e ->
    if is_open s then abort s;
    raise e
