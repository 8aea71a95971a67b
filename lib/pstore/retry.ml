(* Bounded retry with full-jitter exponential backoff for transient I/O
   failures.

   Only exceptions that plausibly denote a transient environmental
   failure are retried: injected faults (the test stand-in for flaky
   media), [Sys_error] and [Unix_error] (EINTR/EAGAIN storms, a full
   disk that drains).  Logic errors — [Invalid_argument], decode errors,
   integrity violations — propagate immediately: retrying them would
   only repeat the bug.

   Backoff is full jitter: each delay is drawn uniformly from
   [0, min (max_delay, base_delay * 2^n)], so a herd of retriers does
   not re-collide on the same schedule, and the cap bounds the sleep
   whatever the retry count.  [deadline] bounds the whole run: once the
   elapsed time plus the next delay would cross it, the retry budget is
   treated as exhausted even if attempts remain.

   Every retried operation must be idempotent under re-execution.
   Callers make non-idempotent I/O (journal appends) idempotent by
   truncating back to a savepoint from [on_retry] before the next
   attempt.  [on_exhausted] fires once when the budget runs out — the
   store's circuit breaker counts these per shard and demotes a shard
   whose failures keep exhausting the budget.

   Stats are atomics and the label table is mutex-guarded: sharded
   stores run retries from pool domains. *)

type policy = {
  retries : int; (* extra attempts after the first failure *)
  base_delay : float; (* seconds; doubles per retry (before jitter) *)
  max_delay : float; (* backoff cap *)
  jitter : bool; (* full jitter: draw uniformly from [0, capped delay] *)
  deadline : float; (* seconds for the whole run; [infinity] = unbounded *)
}

let default_policy =
  { retries = 3; base_delay = 0.001; max_delay = 0.05; jitter = true; deadline = 1.0 }

(* The I/O classes a store threads its retry policy through.  One policy
   covers them all; the class labels the per-label retry counters. *)
type io_class =
  | Stabilise
  | Image_load
  | Image_save
  | Journal_append
  | Journal_replay
  | Marker
  | Scrub
  | Compaction

let class_name = function
  | Stabilise -> "stabilise"
  | Image_load -> "image-load"
  | Image_save -> "image-save"
  | Journal_append -> "journal-append"
  | Journal_replay -> "journal-replay"
  | Marker -> "marker"
  | Scrub -> "scrub"
  | Compaction -> "compaction"

let all_classes =
  [ Stabilise; Image_load; Image_save; Journal_append; Journal_replay; Marker; Scrub; Compaction ]

type stats = {
  attempts : int;
  retries : int;
  absorbed : int; (* operations that failed then eventually succeeded *)
  exhausted : int; (* operations that failed even after all retries *)
}

let attempts_c = Atomic.make 0
let retries_c = Atomic.make 0
let absorbed_c = Atomic.make 0
let exhausted_c = Atomic.make 0

(* Per-label retry counters, for `shell health`.  Guarded: pool domains
   retry concurrently. *)
let labels_m = Mutex.create ()
let by_label : (string, int) Hashtbl.t = Hashtbl.create 8

let stats () =
  {
    attempts = Atomic.get attempts_c;
    retries = Atomic.get retries_c;
    absorbed = Atomic.get absorbed_c;
    exhausted = Atomic.get exhausted_c;
  }

let reset_stats () =
  Atomic.set attempts_c 0;
  Atomic.set retries_c 0;
  Atomic.set absorbed_c 0;
  Atomic.set exhausted_c 0;
  Mutex.lock labels_m;
  Hashtbl.reset by_label;
  Mutex.unlock labels_m

let counters () =
  Mutex.lock labels_m;
  let l = Hashtbl.fold (fun label n acc -> (label, n) :: acc) by_label [] in
  Mutex.unlock labels_m;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let bump_label label =
  Mutex.lock labels_m;
  Hashtbl.replace by_label label (1 + Option.value ~default:0 (Hashtbl.find_opt by_label label));
  Mutex.unlock labels_m

let transient = function
  | Faults.Fault_injected _ | Sys_error _ | Unix.Unix_error _ -> true
  | _ -> false

let delay_for policy n =
  let cap = Float.min policy.max_delay (policy.base_delay *. (2. ** float_of_int n)) in
  if cap <= 0. then 0. else if policy.jitter then Random.float cap else cap

let run ?(policy = default_policy) ?(on_retry = fun _ _ -> ()) ?(on_exhausted = fun _ -> ())
    ?obs ~label f =
  let started = Unix.gettimeofday () in
  let give_up e =
    if transient e then begin
      Atomic.incr exhausted_c;
      (try on_exhausted e with _ -> ())
    end;
    raise e
  in
  let rec attempt n =
    Atomic.incr attempts_c;
    match f () with
    | v ->
      if n > 0 then Atomic.incr absorbed_c;
      v
    | exception e when transient e && n < policy.retries ->
      let delay = delay_for policy n in
      (* The deadline bounds the whole run: if sleeping would cross it,
         the budget is exhausted now, not one nap later. *)
      if Unix.gettimeofday () -. started +. delay > policy.deadline then give_up e
      else begin
        Atomic.incr retries_c;
        (match obs with Some o -> Obs.incr o Obs.Retry | None -> ());
        bump_label label;
        (* A broken retry observer must not turn a retryable failure
           into a fatal one. *)
        (try on_retry (n + 1) e with _ -> ());
        if delay > 0. then Unix.sleepf delay;
        attempt (n + 1)
      end
    | exception e -> give_up e
  in
  attempt 0
