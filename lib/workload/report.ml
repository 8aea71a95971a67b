(* The BENCH_macro.json emitter.

   Same contract as bench/pstore_bench.ml's BENCH_pstore.json, owned by
   lib/trajectory (percentile rule, section summary, required keys): a
   machine-readable trajectory, read back through the shared reader
   after writing so a malformed emitter can never silently pollute the
   committed baseline, and consumed by bench/bench_gate.ml for the p50
   regression gate (exit 0 ok, 1 regression, 2 malformed input).

   Sections are end-to-end op classes (one hpjava subprocess each:
   process start to exit), so the latencies here are what a user at a
   prompt actually waits — dominated by store open + boot, which is
   precisely the whole-system cost micro-benchmarks cannot see.  Two
   exceptions: the [session-commit] section is the in-process latency of
   [Store.Session.commit] parsed from shell transcripts, and the
   top-level [commit_conflicts] counts commits refused
   first-committer-wins.  The [recovery] object records the
   injected-crash outcome: how long the first
   reopen-plus-integrity-check took and how much debris it found. *)

type recovery = {
  injected : bool;
  killed : bool;
  crashed_class : string;
  kill_byte : int;
  recovery_ms : float;
  repair_ms : float;  (* the post-recovery `repair all` operator session *)
  degraded_ops : int;  (* operations that hit demoted shards *)
  quarantined_after : int;
  lost_roots : int;
}

type t = {
  smoke : bool;
  seed : int;
  users : int;
  total_ops : int;
  elapsed_s : float;
  sustained_ops_per_sec : float;
  commit_conflicts : int;
      (* session commits refused first-committer-wins across the play *)
  sections : Trajectory.section list;
  recovery : recovery;
  net : Netload.result option;
      (* the many-client server slice: its RTT classes ride in [sections]
         as net-* entries, its headline counts in the "net" object *)
}

let no_recovery =
  {
    injected = false;
    killed = false;
    crashed_class = "";
    kill_byte = 0;
    recovery_ms = 0.;
    repair_ms = 0.;
    degraded_ops = 0;
    quarantined_after = 0;
    lost_roots = 0;
  }

(* -- building from a play --------------------------------------------------- *)

(* One section per op class present in the play.  The process killed by
   the crash injector is excluded — its truncated lifetime is not a
   latency.  Order: by first appearance, so the file is stable across
   runs of the same scenario. *)
let sections_of_play (play : Scenario.play) =
  let killed (e : Scenario.exec) =
    match play.Scenario.crash with
    | Some c -> c.Scenario.step_index = e.Scenario.index && c.Scenario.killed
    | None -> false
  in
  let samples =
    List.filter_map
      (fun (e : Scenario.exec) ->
        if killed e then None
        else
          Some
            ( Scenario.op_class e.Scenario.step.Scenario.op,
              e.Scenario.result.Subproc.elapsed_s *. 1e9 ))
      play.Scenario.execs
  in
  let classes =
    List.fold_left (fun acc (c, _) -> if List.mem c acc then acc else c :: acc) [] samples
  in
  List.rev_map
    (fun cls ->
      Trajectory.section ~name:cls
        (List.filter_map (fun (c, ns) -> if c = cls then Some ns else None) samples))
    classes

(* Unlike the subprocess-lifetime sections above, [session-commit] is an
   IN-PROCESS latency: the shell times [Store.Session.commit] itself
   (validate + conflict check + journalled apply), parsed out of the
   shell transcripts.  Absent when the play ran no session scripts. *)
let session_commit_section (play : Scenario.play) =
  match play.Scenario.commit_us with
  | [] -> []
  | us -> [ Trajectory.section ~name:"session-commit" (List.map (fun u -> u *. 1e3) us) ]

let net_sections_of_load (load : Netload.result) =
  List.filter_map
    (fun (op, ns) -> if ns = [] then None else Some (Trajectory.section ~name:op ns))
    load.Netload.samples

let of_play ~smoke (play : Scenario.play) =
  let recovery =
    match play.Scenario.crash with
    | None -> no_recovery
    | Some c ->
      {
        injected = true;
        killed = c.Scenario.killed;
        crashed_class = c.Scenario.crashed_class;
        kill_byte = c.Scenario.kill_byte;
        recovery_ms = c.Scenario.recovery_s *. 1e3;
        repair_ms = c.Scenario.repair_s *. 1e3;
        degraded_ops = c.Scenario.degraded_ops;
        quarantined_after = c.Scenario.quarantined_after;
        lost_roots = List.length c.Scenario.lost_roots;
      }
  in
  let total_ops = List.length play.Scenario.execs in
  {
    smoke;
    seed = play.Scenario.scenario.Scenario.seed;
    users = play.Scenario.scenario.Scenario.users;
    total_ops;
    elapsed_s = play.Scenario.elapsed_s;
    sustained_ops_per_sec = float_of_int total_ops /. Float.max play.Scenario.elapsed_s 1e-9;
    commit_conflicts = play.Scenario.commit_conflicts;
    sections = sections_of_play play @ session_commit_section play;
    recovery;
    net = None;
  }

(* -- JSON out ---------------------------------------------------------------- *)

let render t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"benchmark\": \"macro\",\n";
  add "  \"schema_version\": 1,\n";
  add "  \"smoke\": %b,\n" t.smoke;
  add "  \"seed\": %d,\n" t.seed;
  add "  \"users\": %d,\n" t.users;
  add "  \"total_ops\": %d,\n" t.total_ops;
  add "  \"elapsed_s\": %.3f,\n" t.elapsed_s;
  add "  \"sustained_ops_per_sec\": %.2f,\n" t.sustained_ops_per_sec;
  add "  \"commit_conflicts\": %d,\n" t.commit_conflicts;
  add "  \"sections\": [\n";
  List.iteri
    (fun i (s : Trajectory.section) ->
      add
        "    { \"name\": \"%s\", \"count\": %d, \"ops_per_sec\": %.2f, \"p50_ns\": %.1f, \
         \"p99_ns\": %.1f }%s\n"
        (Trajectory.json_escape s.name) s.count s.ops_per_sec s.p50_ns s.p99_ns
        (if i < List.length t.sections - 1 then "," else ""))
    t.sections;
  add "  ],\n";
  add
    "  \"recovery\": { \"injected\": %b, \"killed\": %b, \"crashed_class\": \"%s\", \
     \"kill_byte\": %d, \"recovery_ms\": %.2f, \"repair_ms\": %.2f, \"degraded_ops\": %d, \
     \"quarantined_after\": %d, \"lost_roots\": %d }\n"
    t.recovery.injected t.recovery.killed (Trajectory.json_escape t.recovery.crashed_class)
    t.recovery.kill_byte t.recovery.recovery_ms t.recovery.repair_ms t.recovery.degraded_ops
    t.recovery.quarantined_after t.recovery.lost_roots;
  (match t.net with
  | None -> add "  ,\"net\": null\n"
  | Some n ->
    add
      "  ,\"net\": { \"clients\": %d, \"rounds\": %d, \"connections\": %d, \
       \"connections_per_sec\": %.2f, \"commits\": %d, \"conflicts\": %d, \"errors\": %d }\n"
      n.Netload.clients n.Netload.rounds n.Netload.connections (Netload.connections_per_sec n)
      n.Netload.commits n.Netload.conflicts n.Netload.errors);
  add "}\n";
  Buffer.contents buf

let write ~path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc (render t));
  Trajectory.verify_written ~kind:"macro" path t.sections
