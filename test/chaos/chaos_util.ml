(* Shared plumbing for the chaos suites: scratch directories, a
   zero-delay retry policy (schedules inject hundreds of faults, so
   backoff must cost nothing), sharded store configs with the circuit
   breaker armed, and shard-addressed key generation. *)

open Pstore
include Test_support.Support

let with_dir f = with_dir ~prefix:"chaos" f
let sp = Printf.sprintf

(* Full retry budget, no sleeping, no deadline: chaos asserts on the
   attempt accounting, not the backoff timing. *)
let fast_policy =
  {
    Retry.retries = 3;
    base_delay = 0.;
    max_delay = 0.;
    jitter = false;
    deadline = infinity;
  }

let chaos_config ?(shards = 4) ?(breaker = 2) ?(retry = Some fast_policy)
    ?(compaction_limit = 32) path =
  {
    Store.Config.default with
    Store.Config.compaction_limit;
    backing = Some path;
    retry;
    breaker;
    shards;
  }

(* A root/blob key that hashes to shard [k] of [count]. *)
let key_for ?(tag = "k") ~count k =
  let rec go i =
    let name = sp "%s%d-%d" tag k i in
    if Manifest.shard_of_key ~count name = k then name else go (i + 1)
  in
  go 0

(* Transient-looking failures: everything the retry layer classifies as
   retryable, which is also everything a chaos fault can surface as. *)
let transient = function
  | Faults.Fault_injected _ | Sys_error _ | Unix.Unix_error _ -> true
  | _ -> false
