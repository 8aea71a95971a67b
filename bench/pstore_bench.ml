(* Store-operation benchmark with a machine-readable trajectory: each
   section measures one store op class (ops/sec plus p50/p99 of the
   per-sample ns/op distribution) and the results are written to
   BENCH_pstore.json so runs can be compared over time.

   The file follows the lib/trajectory contract (percentile rule,
   section summary, required keys): it is read back through
   [Trajectory.verify_written] after writing, and bench/bench_gate.ml
   compares it against the committed baseline (exit 0 ok, 1 regression,
   2 malformed input).  The run hard-fails if the tracing-disabled
   instrumentation overhead on the hottest read path exceeds a generous
   bound — the observability layer must stay invisible while tracing is
   off.

   `--smoke` shrinks every budget so the whole thing is a ~1 s slice
   suitable for the @bench-smoke alias. *)

open Pstore
open Hyperprog

(* ---------------------------------------------------------------------- *)
(* Sampling                                                                *)
(* ---------------------------------------------------------------------- *)

(* Time [f] in batches for [budget_s] seconds.  The batch size is
   calibrated so one batch costs a couple of milliseconds, which keeps
   the clock read out of the measured op and yields enough batches for
   stable percentiles. *)
let measure ~budget_s ~name f =
  for _ = 1 to 3 do
    f ()
  done;
  let t0 = Unix.gettimeofday () in
  f ();
  let once = Unix.gettimeofday () -. t0 in
  let iters = max 1 (min 10_000 (int_of_float (0.002 /. Float.max once 1e-9))) in
  let samples = ref [] in
  let start = Unix.gettimeofday () in
  let deadline = start +. budget_s in
  while !samples = [] || Unix.gettimeofday () < deadline do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    samples := (dt /. float_of_int iters *. 1e9) :: !samples
  done;
  let elapsed_s = Unix.gettimeofday () -. start in
  let s =
    Trajectory.section ~ops:(List.length !samples * iters) ~elapsed_s ~name !samples
  in
  Printf.printf "  %-20s %14.0f ops/s   p50 %10.1f ns   p99 %10.1f ns   (%d x %d)\n%!"
    s.name s.ops_per_sec s.p50_ns s.p99_ns s.count iters;
  s

(* ---------------------------------------------------------------------- *)
(* Sections: one per store op class                                        *)
(* ---------------------------------------------------------------------- *)

(* Remove the store and every derived file (flat: .wal/.tmp; sharded:
   .s<k>.<e>[.wal], .marker.<m>) — the sharded layout's file names carry
   epochs, so a prefix sweep is the only robust cleanup. *)
let in_temp_store f =
  let path = Filename.temp_file "bench_pstore" ".img" in
  Sys.remove path;
  let cleanup () =
    let dir = Filename.dirname path and base = Filename.basename path in
    Array.iter
      (fun name ->
        let prefixed =
          String.length name > String.length base
          && String.sub name 0 (String.length base + 1) = base ^ "."
        in
        if name = base || prefixed then
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (Sys.readdir dir)
  in
  Fun.protect ~finally:cleanup (fun () -> f path)

let sections ~budget_s =
  Printf.printf "\n== pstore: store operation trajectory ==\n%!";
  let store = Store.create () in
  let n = 1024 in
  let oids =
    Array.init n (fun i ->
        Store.alloc_record store "Bench" [| Pvalue.Int (Int32.of_int i); Pvalue.Null |])
  in
  Store.set_root store "bench" (Pvalue.Ref oids.(0));
  let cursor = ref 0 in
  let next () =
    cursor := (!cursor + 1) land (n - 1);
    Array.unsafe_get oids !cursor
  in
  (* sequenced lets: list elements would evaluate right-to-left *)
  let get = measure ~budget_s ~name:"get" (fun () -> ignore (Store.field store (next ()) 0)) in
  let set =
    measure ~budget_s ~name:"set" (fun () -> Store.set_field store (next ()) 1 Pvalue.Null)
  in
  let alloc =
    measure ~budget_s ~name:"alloc" (fun () ->
        ignore (Store.alloc_record store "Bench" [| Pvalue.Int 0l; Pvalue.Null |]))
  in
  let root =
    measure ~budget_s ~name:"root-lookup" (fun () -> ignore (Store.root store "bench"))
  in
  let core = [ get; set; alloc; root ] in
  (* registry getLink: the paper's Figure 7 retrieval, through the full
     instrumented path — memoised (the default), then with the memo off,
     so the repeated-retrieval speedup is recorded in the trajectory *)
  let get_link, get_link_cold =
    let _store, vm, persons = Workloads.vm_with_persons 2 in
    let hp =
      Workloads.marry_example vm (List.nth persons 0) (List.nth persons 1)
    in
    Store.set_root Minijava.Rt.(vm.store) "hp" (Pvalue.Ref hp);
    let uid = Registry.add_hp vm ~password:Registry.built_in_password hp in
    let bench name =
      measure ~budget_s ~name (fun () ->
          ignore
            (Registry.get_link vm ~password:Registry.built_in_password ~hp:uid ~link:1))
    in
    let warm = bench "get-link" in
    Registry.set_memo_enabled vm false;
    let cold = bench "get-link-cold" in
    (warm, cold)
  in
  (* dynamic compilation of an already-seen source: compile-cache hit
     (decode + relink) vs the real compiler *)
  let compile_hot, compile_cold =
    let _store, vm = Workloads.fresh_vm () in
    (* a non-trivial unit (40 methods), so the section compares decode +
       relink against real lexing/parsing/codegen rather than stub costs *)
    let src =
      let b = Buffer.create 2048 in
      Buffer.add_string b "public class BenchC {\n";
      for i = 0 to 39 do
        Buffer.add_string b
          (Printf.sprintf
             "  public static int m%d(int x) { return x * %d + %d; }\n" i
             (i + 1) (i * 3))
      done;
      Buffer.add_string b "  public static int v() { return m0(1); }\n}\n";
      Buffer.contents b
    in
    ignore (Dynamic_compiler.compile_strings vm ~names:[ "BenchC" ] [ src ]);
    let bench name =
      measure ~budget_s ~name (fun () ->
          ignore (Dynamic_compiler.compile_strings vm ~names:[] [ src ]))
    in
    let hot = bench "compile-hot" in
    Compile_cache.set_enabled vm false;
    let cold = bench "compile-cold" in
    (hot, cold)
  in
  (* journalled stabilise: one mutation per op, delta append + fsync *)
  let stabilise =
    in_temp_store (fun path ->
        let s = Workloads.store_with_objects 1000 in
        Store.stabilise ~path s;
        let tick = ref 0 in
        let r =
          measure ~budget_s ~name:"stabilise-journal" (fun () ->
              incr tick;
              Store.set_root s "tick" (Pvalue.Int (Int32.of_int !tick));
              Store.stabilise s)
        in
        Store.close s;
        r)
  in
  (* a small transaction (three mutations) stabilised per op: one batch
     record each, fsynced every stabilise (window 1) vs amortised over a
     group-commit window *)
  let stabilise_txn ~window ~name =
    in_temp_store (fun path ->
        let s = Workloads.store_with_objects 1000 in
        Store.set_group_window s window;
        Store.stabilise ~path s;
        let oid = Store.alloc_record s "T" [| Pvalue.Int 0l; Pvalue.Null |] in
        Store.set_root s "t" (Pvalue.Ref oid);
        Store.stabilise s;
        let tick = ref 0 in
        let r =
          measure ~budget_s ~name (fun () ->
              incr tick;
              Store.set_field s oid 0 (Pvalue.Int (Int32.of_int !tick));
              Store.set_root s "tick" (Pvalue.Int (Int32.of_int !tick));
              Store.set_blob s "tickb" (string_of_int !tick);
              Store.stabilise s)
        in
        Store.close s;
        r)
  in
  let stabilise_batch = stabilise_txn ~window:1 ~name:"stabilise-batch" in
  let stabilise_grouped = stabilise_txn ~window:8 ~name:"stabilise-grouped" in
  (* sharded scrub: steady-state verification steps over a primed store.
     On a multi-core host the per-shard scrubbers run on pool domains;
     the sections record the scaling trajectory either way. *)
  let scrub_par ~shards ~name =
    let s =
      Store.create ~config:{ Store.Config.default with Store.Config.shards } ()
    in
    let n = 2048 in
    let oids =
      Array.init n (fun i ->
          Store.alloc_record s "Node"
            [| Pvalue.Int (Int32.of_int i); Pvalue.Null |])
    in
    Store.set_root s "bulk" (Pvalue.Ref oids.(0));
    ignore (Store.scrub ~budget:n s : Scrub.report) (* prime every CRC *);
    measure ~budget_s ~name (fun () ->
        ignore (Store.scrub ~budget:256 s : Scrub.report))
  in
  let scrub_par_1 = scrub_par ~shards:1 ~name:"scrub-par-1" in
  let scrub_par_2 = scrub_par ~shards:2 ~name:"scrub-par-2" in
  let scrub_par_4 = scrub_par ~shards:4 ~name:"scrub-par-4" in
  (* sharded stabilise: the same hot-shard update burst at 1/2/4 shards.
     The store's bytes are spread evenly over the oid/key space while the
     mutation stream is confined to records the 4-shard hash puts in
     shard 0 (which is also shard 0 of the 2- and 1-shard assignments:
     h mod 4 = 0 implies h mod 2 = 0).  compaction_limit 0 makes every
     stabilise pay its compaction, so the section measures the dominant
     stabilise cost at scale — image rewrite bytes.  A sharded store
     localises the rewrite to the hot shard (~1/N of the bytes); the
     single-shard store rewrites the world.  stabilise-par-1 is the
     single-shard grouped baseline the ISSUE 7 acceptance ratio is
     taken against. *)
  let stabilise_par ~shards ~name =
    in_temp_store (fun path ->
        let s =
          Store.create ~config:{ Store.Config.default with Store.Config.shards } ()
        in
        let n = 1024 in
        let payload = String.make 4096 'x' in
        let oids =
          Array.init n (fun i ->
              Store.alloc_record s "Pad"
                [| Pvalue.Int (Int32.of_int i); Pvalue.Null |])
        in
        Array.iteri
          (fun i _ -> Store.set_blob s (Printf.sprintf "pad%d" i) payload)
          oids;
        Store.set_root s "bulk" (Pvalue.Ref oids.(0));
        let hot =
          Array.of_seq
            (Seq.filter
               (fun o -> Manifest.shard_of_oid ~count:4 o = 0)
               (Array.to_seq oids))
        in
        Store.set_group_window s 8;
        Store.configure s { (Store.config s) with Store.Config.compaction_limit = 0 };
        Store.stabilise ~path s;
        let tick = ref 0 in
        let r =
          measure ~budget_s ~name (fun () ->
              incr tick;
              let o = hot.(!tick mod Array.length hot) in
              Store.set_field s o 0 (Pvalue.Int (Int32.of_int !tick));
              Store.set_field s o 1 (Pvalue.Int (Int32.of_int !tick));
              Store.stabilise s)
        in
        Store.close s;
        r)
  in
  let stabilise_par_1 = stabilise_par ~shards:1 ~name:"stabilise-par-1" in
  let stabilise_par_2 = stabilise_par ~shards:2 ~name:"stabilise-par-2" in
  let stabilise_par_4 = stabilise_par ~shards:4 ~name:"stabilise-par-4" in
  let speedup label (fast : Trajectory.section) (slow : Trajectory.section) =
    Printf.printf "  %-38s %6.1fx  (%s vs %s)\n%!" label
      (fast.ops_per_sec /. Float.max slow.ops_per_sec 1e-9)
      fast.name slow.name
  in
  Printf.printf "\n== pstore: hot-path cache speedups ==\n%!";
  speedup "repeated getLink (memoised)" get_link get_link_cold;
  speedup "repeated compile (cached)" compile_hot compile_cold;
  speedup "batched-transaction stabilise (grouped)" stabilise_grouped stabilise_batch;
  speedup "hot-shard stabilise (4 shards)" stabilise_par_4 stabilise_par_1;
  speedup "hot-shard stabilise (2 shards)" stabilise_par_2 stabilise_par_1;
  core
  @ [
      get_link;
      get_link_cold;
      compile_hot;
      compile_cold;
      stabilise;
      stabilise_batch;
      stabilise_grouped;
      stabilise_par_1;
      stabilise_par_2;
      stabilise_par_4;
      scrub_par_1;
      scrub_par_2;
      scrub_par_4;
    ]

(* ---------------------------------------------------------------------- *)
(* The overhead assertion                                                  *)
(* ---------------------------------------------------------------------- *)

type overhead = {
  baseline_ns : float;
  instrumented_ns : float;
  ratio : float;
  limit : float;
  ok : bool;
}

(* Compare the instrumented hot read (Store.field, tracing off) against
   the same work without the observability layer: the quarantine check
   plus the raw heap read, i.e. what the pre-instrumentation field read
   did.  Best-of-k interleaved rounds, so scheduler noise hits both
   sides alike.  The hard bound is deliberately generous (2x) — the
   point is to catch an accidental clock read or allocation sneaking
   onto the disabled path, not to referee nanoseconds; an absolute
   slack of a few ns per op also passes, since a sub-clock-resolution
   delta on a ~100 ns op is noise, not overhead. *)
let overhead_check ~smoke () =
  Printf.printf "\n== pstore: tracing-disabled overhead ==\n%!";
  let store = Store.create () in
  let oid = Store.alloc_record store "Bench" [| Pvalue.Int 1l |] in
  let heap = Store.heap store in
  let baseline () =
    (match Store.quarantine_reason store oid with Some _ -> () | None -> ());
    ignore (Heap.field heap oid 0)
  in
  let instrumented () = ignore (Store.field store oid 0) in
  let iters = if smoke then 50_000 else 200_000 in
  let rounds = if smoke then 3 else 5 in
  let once f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9
  in
  ignore (once baseline);
  ignore (once instrumented);
  let best_base = ref infinity and best_instr = ref infinity in
  for _ = 1 to rounds do
    best_base := Float.min !best_base (once baseline);
    best_instr := Float.min !best_instr (once instrumented)
  done;
  let limit = 2.0 in
  let ratio = !best_instr /. Float.max !best_base 1e-9 in
  let ok = ratio <= limit || !best_instr -. !best_base <= 25.0 in
  Printf.printf
    "  raw field read %8.1f ns   instrumented (tracing off) %8.1f ns   ratio %.2fx (bound %.1fx)  %s\n%!"
    !best_base !best_instr ratio limit
    (if ok then "ok" else "FAILED");
  { baseline_ns = !best_base; instrumented_ns = !best_instr; ratio; limit; ok }

(* ---------------------------------------------------------------------- *)
(* JSON out                                                                *)
(* ---------------------------------------------------------------------- *)

let render_json ~smoke sections overhead =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"benchmark\": \"pstore\",\n";
  Buffer.add_string buf "  \"schema_version\": 1,\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf "  \"sections\": [\n";
  List.iteri
    (fun i (s : Trajectory.section) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s\", \"ops_per_sec\": %.1f, \"p50_ns\": %.1f, \
            \"p99_ns\": %.1f, \"samples\": %d, \"iters_per_sample\": %d }%s\n"
           (Trajectory.json_escape s.name) s.ops_per_sec s.p50_ns s.p99_ns s.count
           (s.ops / s.count)
           (if i < List.length sections - 1 then "," else "")))
    sections;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"tracing_overhead\": { \"baseline_ns\": %.1f, \"instrumented_ns\": %.1f, \
        \"ratio\": %.3f, \"limit\": %.1f, \"ok\": %b }\n"
       overhead.baseline_ns overhead.instrumented_ns overhead.ratio overhead.limit
       overhead.ok);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ---------------------------------------------------------------------- *)

let output_file = "BENCH_pstore.json"

(* Run the store trajectory; returns false if the overhead bound or the
   emitted file's validation failed (the caller exits nonzero). *)
let run ~smoke () =
  let budget_s = if smoke then 0.12 else 0.5 in
  let sections = sections ~budget_s in
  let overhead = overhead_check ~smoke () in
  let oc = open_out output_file in
  output_string oc (render_json ~smoke sections overhead);
  close_out oc;
  match Trajectory.verify_written ~kind:"pstore" output_file sections with
  | Error e ->
    Printf.printf "  %s INVALID: %s\n%!" output_file (Trajectory.error_to_string e);
    false
  | Ok () ->
    Printf.printf "  wrote %s (%d sections, validated)\n%!" output_file
      (List.length sections);
    overhead.ok
