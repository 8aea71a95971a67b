(* Bench regression gate for the @bench-smoke and @bench-macro-smoke
   aliases, and the baseline self-check in the default runtest.

   Usage: bench_gate FRESH.json BASELINE.json

   Works for both trajectory files (BENCH_pstore.json from the micro
   bench, BENCH_macro.json from the macro-workload harness).  Both files
   go through the same reader and schema check (lib/trajectory: one
   balanced object, the required keys and sections of its benchmark
   kind, at least one section, every p50 a number and every throughput
   positive; the baseline must be of the fresh file's kind).  Then the
   p50 of every section present in BOTH files is compared: a section
   fails when the fresh run is more than [Trajectory.tolerance] (2x)
   slower and above the 1 ms noise floor.  Sections new to the fresh run
   are reported but never gate — the baseline grows when they are
   committed.  The 2x bound is deliberately loose: smoke budgets are
   small, so the gate catches order-of-magnitude regressions (a lost
   cache, an extra fsync, a recovery that re-reads the world), not
   noise.

   Exit codes: 0 ok, 1 a section regressed, 2 malformed input (either
   file) or bad usage. *)

let () =
  let fresh, baseline =
    match Sys.argv with
    | [| _; f; b |] -> (f, b)
    | _ ->
      prerr_endline "usage: bench_gate FRESH.json BASELINE.json";
      exit 2
  in
  let verdict = Trajectory.gate ~fresh ~baseline in
  (match verdict with
  | Trajectory.Malformed (path, e) ->
    Printf.eprintf "bench gate: %s: %s\n" path (Trajectory.error_to_string e)
  | Trajectory.Compared { kind; rows; dropped } ->
    Printf.printf "== bench gate: %s and %s schema ok (%s) ==\n" fresh baseline kind;
    Printf.printf "== bench gate: p50 vs committed baseline (tolerance %.1fx) ==\n"
      Trajectory.tolerance;
    List.iter
      (fun (r : Trajectory.row) ->
        match r.base_p50 with
        | None ->
          Printf.printf "  %-20s %12.1f ns   (new section, not gated)\n" r.row_name r.fresh_p50
        | Some base ->
          Printf.printf "  %-20s %12.1f ns   baseline %12.1f ns   %5.2fx  %s\n" r.row_name
            r.fresh_p50 base
            (r.fresh_p50 /. Float.max base 1e-9)
            (if r.regressed then "FAIL" else "ok"))
      rows;
    List.iter (Printf.printf "  %-20s missing from the fresh run (not gated)\n") dropped;
    let failures = List.length (List.filter (fun (r : Trajectory.row) -> r.regressed) rows) in
    if failures > 0 then
      Printf.eprintf "bench gate: %d op class(es) regressed more than %.1fx in p50\n" failures
        Trajectory.tolerance
    else print_endline "bench gate: ok");
  exit (Trajectory.exit_code verdict)
