(* The macro-workload benchmark driver: whole-system throughput through
   the real binary.

   Plays a seeded mixed-session scenario (many simulated users:
   compile / instantiate / run / link-following hyper-programs / browse
   / evolve / publish / gc / shell sessions) against bin/hpjava as a
   subprocess, SIGKILLs one seed-chosen mutating step mid-stabilise via
   HPJAVA_KILL_AT_BYTE, and emits BENCH_macro.json: sustained ops/sec,
   per-op-class end-to-end p50/p99, in-process session-commit latency
   with the first-committer-wins conflict count, and post-crash
   recovery time.  The
   file is read back through lib/trajectory after writing and gated
   against the committed baseline by bench_gate (see the
   @bench-macro-smoke alias).

     macro_main [--smoke] [--seed N] [--users N] [--ops N] [--shards N] [--no-crash]

   Any failure prints the exact --seed replay line. *)

let output_file = "BENCH_macro.json"

let print_sections =
  List.iter (fun (s : Trajectory.section) ->
      Printf.printf "  %-12s %4d ops   %8.2f ops/s   p50 %8.1f ms   p99 %8.1f ms\n%!" s.name s.count
        s.ops_per_sec (s.p50_ns /. 1e6) (s.p99_ns /. 1e6))

let () =
  let smoke = ref false in
  let seed = ref 1 in
  let users = ref 3 in
  let ops = ref (-1) in
  let shards = ref 1 in
  let crash = ref true in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--no-crash" :: rest ->
      crash := false;
      parse rest
    | flag :: v :: rest when List.mem flag [ "--seed"; "--users"; "--ops"; "--shards" ] -> begin
      match int_of_string_opt v with
      | Some n ->
        (match flag with
        | "--seed" -> seed := n
        | "--users" -> users := n
        | "--shards" -> shards := n
        | _ -> ops := n);
        parse rest
      | None ->
        Printf.eprintf "macro_main: %s expects an integer, got %s\n" flag v;
        exit 2
    end
    | flag :: _ ->
      Printf.eprintf
        "usage: macro_main [--smoke] [--seed N] [--users N] [--ops N] [--shards N] [--no-crash]\n";
      Printf.eprintf "macro_main: unknown argument %s\n" flag;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !ops < 0 then ops := if !smoke then 28 else 120;
  if !smoke then users := min !users 2;
  let bin = Workload.Subproc.locate () in
  let scenario = Workload.Scenario.generate ~seed:!seed ~users:!users ~ops:!ops in
  let replay = Workload.Scenario.replay_line scenario in
  let candidates = Workload.Scenario.crash_candidates scenario in
  let crash_at =
    if !crash && candidates <> [] then
      Some (List.nth candidates (!seed * 7919 mod List.length candidates))
    else None
  in
  (* a low kill byte lands inside the step's first journal append, so
     the SIGKILL reliably tears a write mid-stabilise *)
  let kill_byte = 32 + (!seed * 131 mod 480) in
  Printf.printf "== macro: %d users x %d steps (seed %d%s)%s ==\n%!" !users
    (List.length scenario.Workload.Scenario.steps) !seed
    (if !shards > 1 then Printf.sprintf ", %d shards" !shards else "")
    (match crash_at with
    | Some i -> Printf.sprintf ", SIGKILL at step %d byte %d" i kill_byte
    | None -> ", no crash injection");
  Workload.Subproc.with_temp_dir ~prefix:"bench_macro" @@ fun dir ->
  let play =
    Workload.Scenario.play ?crash_at ~kill_byte ~shards:!shards ~bin ~dir scenario
  in
  let failed = Workload.Scenario.failures play in
  if failed <> [] then begin
    List.iter
      (fun (e : Workload.Scenario.exec) ->
        Printf.eprintf "step %d (%s) failed:\n%s\n" e.Workload.Scenario.index
          (Workload.Scenario.op_class e.Workload.Scenario.step.Workload.Scenario.op)
          (Workload.Subproc.describe e.Workload.Scenario.result))
      failed;
    Printf.eprintf "macro: %d of %d steps failed — %s\n" (List.length failed)
      (List.length play.Workload.Scenario.execs) replay;
    exit 1
  end;
  (match play.Workload.Scenario.crash with
  | None -> ()
  | Some c ->
    Printf.printf
      "  crash: %s step SIGKILLed mid-stabilise (byte %d, killed=%b)\n\
      \  recovery: %.1f ms, quarantined %d, lost durable roots %d\n\
      \  repair: %.1f ms (`repair all` session), %d degraded ops\n%!"
      c.Workload.Scenario.crashed_class c.Workload.Scenario.kill_byte c.Workload.Scenario.killed
      (c.Workload.Scenario.recovery_s *. 1e3)
      c.Workload.Scenario.quarantined_after
      (List.length c.Workload.Scenario.lost_roots)
      (c.Workload.Scenario.repair_s *. 1e3)
      c.Workload.Scenario.degraded_ops;
    if not c.Workload.Scenario.check_ok then begin
      Printf.eprintf "macro: post-crash integrity check FAILED — %s\n" replay;
      exit 1
    end;
    if c.Workload.Scenario.lost_roots <> [] then begin
      Printf.eprintf "macro: durable roots lost beyond the loss window (%s) — %s\n"
        (String.concat ", " c.Workload.Scenario.lost_roots)
        replay;
      exit 1
    end);
  let report = Workload.Report.of_play ~smoke:!smoke play in
  print_sections report.Workload.Report.sections;
  Printf.printf "  sustained: %.2f ops/s over %.2f s (%d ops)\n%!"
    report.Workload.Report.sustained_ops_per_sec report.Workload.Report.elapsed_s
    report.Workload.Report.total_ops;
  Printf.printf "  sessions: %d commit%s, %d conflict%s (first committer wins)\n%!"
    (List.length play.Workload.Scenario.commit_us)
    (if List.length play.Workload.Scenario.commit_us = 1 then "" else "s")
    play.Workload.Scenario.commit_conflicts
    (if play.Workload.Scenario.commit_conflicts = 1 then "" else "s");
  (* every scenario embeds at least one two-session race over a shared
     root, so a play that records no conflict means the snapshot layer
     (or the transcript parsing) broke *)
  if play.Workload.Scenario.commit_conflicts < 1 then begin
    Printf.eprintf "macro: expected at least one session commit conflict, saw none — %s\n" replay;
    exit 1
  end;
  (* The served slice: a fresh store under `hpjava serve`, K in-process
     wire clients racing edits on one root.  Connection figures land in
     the `net` object; per-request RTT classes join `sections` and are
     gated like every other op class. *)
  let net_clients = if !smoke then 4 else 8 in
  let net_rounds = if !smoke then 3 else 10 in
  let net_dir = Filename.concat dir "netstore" in
  let socket = Filename.concat dir "net.sock" in
  let init = Workload.Subproc.run ~bin [ "init"; net_dir; "--journalled" ] in
  if not (Workload.Subproc.ok init) then begin
    Printf.eprintf "macro: net slice store init failed:\n%s\n— %s\n"
      (Workload.Subproc.describe init) replay;
    exit 1
  end;
  let server = Workload.Subproc.spawn ~bin [ "serve"; net_dir; "--socket"; socket ] in
  if not (Workload.Subproc.wait_output ~timeout_s:30. server "listening on") then begin
    Printf.eprintf "macro: `hpjava serve` never came up:\n%s\n— %s\n"
      (Workload.Subproc.describe (Workload.Subproc.terminate server))
      replay;
    exit 1
  end;
  let load =
    match Workload.Netload.run ~socket ~clients:net_clients ~rounds:net_rounds () with
    | load ->
      ignore (Workload.Subproc.terminate server);
      load
    | exception e ->
      Printf.eprintf "macro: netload failed: %s\nserver transcript:\n%s\n— %s\n"
        (Printexc.to_string e)
        (Workload.Subproc.describe (Workload.Subproc.terminate server))
        replay;
      exit 1
  in
  Printf.printf
    "  net: %d clients x %d rounds — %d connections (%.1f conn/s), %d commits, %d conflicts, %d \
     errors\n\
     %!"
    load.Workload.Netload.clients load.Workload.Netload.rounds load.Workload.Netload.connections
    (Workload.Netload.connections_per_sec load)
    load.Workload.Netload.commits load.Workload.Netload.conflicts load.Workload.Netload.errors;
  print_sections (Workload.Report.net_sections_of_load load);
  (* K clients contending one root every round: anything less than one
     conflict per round means the server stopped detecting races *)
  if load.Workload.Netload.conflicts < net_rounds * (net_clients - 1) then begin
    Printf.eprintf "macro: expected >= %d wire commit conflicts, saw %d — %s\n"
      (net_rounds * (net_clients - 1))
      load.Workload.Netload.conflicts replay;
    exit 1
  end;
  if load.Workload.Netload.errors > 0 then begin
    Printf.eprintf "macro: %d wire requests answered with typed errors — %s\n"
      load.Workload.Netload.errors replay;
    exit 1
  end;
  let report =
    {
      report with
      Workload.Report.sections =
        report.Workload.Report.sections @ Workload.Report.net_sections_of_load load;
      net = Some load;
    }
  in
  match Workload.Report.write ~path:output_file report with
  | Ok () -> Printf.printf "  wrote %s (%d sections, validated)\n%!" output_file
               (List.length report.Workload.Report.sections)
  | Error e ->
    Printf.eprintf "macro: %s INVALID: %s — %s\n" output_file (Trajectory.error_to_string e)
      replay;
    exit 1
