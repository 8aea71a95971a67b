(* Trajectory: the percentile rule, section summary, JSON escaping, the
   BENCH-file reader and the bench gate's verdicts — including on the
   two committed baselines. *)

open Helpers

let baselines = [ ("pstore", "../BENCH_pstore.json"); ("macro", "../BENCH_macro.json") ]
let check_float msg = Alcotest.(check (float 1e-9)) msg

(* [s] cut at every occurrence of [sep]. *)
let split_on sep s =
  let n = String.length sep and len = String.length s in
  let rec go from i acc =
    if i + n > len then List.rev (String.sub s from (len - from) :: acc)
    else if String.sub s i n = sep then go (i + n) (i + n) (String.sub s from (i - from) :: acc)
    else go from (i + 1) acc
  in
  go 0 0 []

let replace_all s sep by = String.concat by (split_on sep s)

(* [json] with the number after every ["key": ] (only the first when
   [~all:false]) replaced by [value]. *)
let rewrite ?(all = true) json key value =
  let pat = Printf.sprintf "\"%s\": " key in
  match split_on pat json with
  | [] -> json
  | head :: rest ->
    let swap i piece =
      if all || i = 0 then begin
        let k = ref 0 in
        while String.contains "0123456789.-+eE" piece.[!k] do
          incr k
        done;
        value ^ String.sub piece !k (String.length piece - !k)
      end
      else piece
    in
    String.concat pat (head :: List.mapi swap rest)

let expect_error what expected = function
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error e -> check_output what expected (Trajectory.error_to_string e)

let percentile_nearest_rank () =
  let p = Trajectory.percentile in
  let upto n = Array.init n (fun i -> float_of_int (i + 1)) in
  check_float "n=0" 0. (p [||] 0.5);
  check_float "n=1 p50" 7. (p [| 7. |] 0.5);
  check_float "n=1 p99" 7. (p [| 7. |] 0.99);
  check_float "n=20 p50" 10. (p (upto 20) 0.5);
  (* rank ceil(0.99 * 20) = 20: below 100 samples p99 is just the max *)
  check_float "n=20 p99 is the max" 20. (p (upto 20) 0.99);
  check_float "n=100 p50" 50. (p (upto 100) 0.5);
  check_float "n=100 p99 below the max" 99. (p (upto 100) 0.99)

let section_summary () =
  let s = Trajectory.section ~name:"x" [ 2e9; 1e9 ] in
  check_int "count" 2 s.count;
  check_float "ops/s: one op per sample, back to back" (2. /. 3.) s.ops_per_sec;
  check_float "p50" 1e9 s.p50_ns;
  check_float "p99" 2e9 s.p99_ns;
  let b = Trajectory.section ~ops:10 ~elapsed_s:2. ~name:"batched" [ 5.; 1.; 3. ] in
  check_int "batched ops" 10 b.ops;
  check_float "batched ops/s" 5. b.ops_per_sec;
  check_float "batched p50" 3. b.p50_ns

let json_escape () =
  check_output "quote, backslash, newline, control byte" {|a\"b\\c\nd\u0001|}
    (Trajectory.json_escape "a\"b\\c\nd\001")

let structural_errors () =
  let pstore = read_file "../BENCH_pstore.json" and macro = read_file "../BENCH_macro.json" in
  let parse = Trajectory.parse in
  expect_error "unclosed" "unbalanced JSON structure"
    (parse {|{"benchmark": "pstore", "sections": [|});
  expect_error "mismatched closer" "unbalanced JSON structure" (parse {|{"sections": [}]|});
  expect_error "unterminated string" "unbalanced JSON structure" (parse {|{"name": "get}|});
  expect_error "trailing garbage" "unbalanced JSON structure" (parse (pstore ^ "}"));
  expect_error "unknown kind" {|unknown benchmark kind "other"|}
    (parse (replace_all pstore {|"pstore"|} {|"other"|}));
  expect_error "pstore without tracing_overhead" {|missing key "tracing_overhead"|}
    (parse (replace_all pstore {|"tracing_overhead"|} {|"overhead"|}));
  expect_error "pstore without a scaling section" {|missing section "scrub-par-4"|}
    (parse (replace_all pstore {|"scrub-par-4"|} {|"scrub-par-5"|}));
  expect_error "macro without net" {|missing key "net"|}
    (parse (replace_all macro {|"net":|} {|"wire":|}));
  expect_error "macro read as pstore" {|benchmark kind mismatch: "macro", expected "pstore"|}
    (parse ~kind:"pstore" macro);
  expect_error "no sections" "no sections"
    (parse
       {|{"benchmark": "pstore", "schema_version": 1, "sections": [], "tracing_overhead": {},
          "ops_per_sec": 1, "p50_ns": 1, "p99_ns": 1}|})

let baselines_read_back () =
  List.iter
    (fun (kind, path) ->
      match Trajectory.read ~kind path with
      | Error e -> Alcotest.failf "%s: %s" path (Trajectory.error_to_string e)
      | Ok t ->
        let raw = read_file path in
        check_int (path ^ ": every section read")
          (List.length (split_on {|{ "name": |} raw) - 1)
          (List.length t.sections);
        List.iter
          (fun (name, ops, _) ->
            check_bool (path ^ ": " ^ name ^ " as written") true
              (contains raw (Printf.sprintf {|{ "name": "%s",|} name));
            check_bool (path ^ ": " ^ name ^ " throughput") true (ops > 0.))
          t.sections)
    baselines

let verdict_of ~fresh ~baseline =
  let v = Trajectory.gate ~fresh ~baseline in
  let blamed = match v with Trajectory.Malformed (p, _) -> p | Compared _ -> "" in
  (Trajectory.exit_code v, blamed, v)

let gate_verdicts () =
  with_dir ~prefix:"gate" (fun dir ->
      let pstore = read_file "../BENCH_pstore.json" in
      let file name data =
        let p = Filename.concat dir name in
        write_file p data;
        p
      in
      List.iter
        (fun (_, path) ->
          let code, _, _ = verdict_of ~fresh:path ~baseline:path in
          check_int (path ^ " against itself") 0 code)
        baselines;
      let truncated = file "truncated.json" (String.sub pstore 0 300) in
      let code, blamed, _ = verdict_of ~fresh:"../BENCH_pstore.json" ~baseline:truncated in
      check_int "truncated baseline: malformed" 2 code;
      check_output "truncated baseline is the file blamed" truncated blamed;
      let bad_p50 = file "bad_p50.json" (rewrite ~all:false pstore "p50_ns" {|"fast"|}) in
      let code, blamed, v = verdict_of ~fresh:bad_p50 ~baseline:"../BENCH_pstore.json" in
      check_int "non-numeric p50: malformed" 2 code;
      check_output "non-numeric p50 blames the fresh file" bad_p50 blamed;
      (match v with
      | Malformed (_, e) ->
        check_output "non-numeric p50 error" {|section 0: no readable "p50_ns"|}
          (Trajectory.error_to_string e)
      | Compared _ -> ());
      let zero = file "zero.json" (rewrite pstore "ops_per_sec" "0.0") in
      let code, blamed, _ = verdict_of ~fresh:zero ~baseline:"../BENCH_pstore.json" in
      check_int "zero throughput: malformed" 2 code;
      check_output "zero throughput blames the fresh file" zero blamed;
      let code, blamed, _ =
        verdict_of ~fresh:"../BENCH_pstore.json" ~baseline:"../BENCH_macro.json"
      in
      check_int "kind mismatch: malformed" 2 code;
      check_output "kind mismatch blames the baseline" "../BENCH_macro.json" blamed;
      let missing = Filename.concat dir "absent.json" in
      let code, _, _ = verdict_of ~fresh:missing ~baseline:"../BENCH_pstore.json" in
      check_int "missing file: malformed" 2 code;
      (* every p50 at 1 s: far beyond 2x and above the noise floor *)
      let slow = file "slow.json" (rewrite pstore "p50_ns" "1000000000.0") in
      let code, _, _ = verdict_of ~fresh:slow ~baseline:"../BENCH_pstore.json" in
      check_int "2x slower above the floor: regression" 1 code;
      (* every p50 at 0.1 ms: a huge ratio for the ns-scale sections, but
         under the 1 ms floor nothing gates *)
      let noisy = file "noisy.json" (rewrite pstore "p50_ns" "100000.0") in
      let code, _, _ = verdict_of ~fresh:noisy ~baseline:"../BENCH_pstore.json" in
      check_int "slower under the noise floor: ok" 0 code)

let suite =
  [
    test "percentile is nearest-rank" percentile_nearest_rank;
    test "section summary from raw ns samples" section_summary;
    test "json_escape" json_escape;
    test "structural and schema errors are typed" structural_errors;
    test "committed baselines read back" baselines_read_back;
    test "gate verdicts" gate_verdicts;
  ]

let props = []
