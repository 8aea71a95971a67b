(* The one measurement/report module: percentile rule, section summary,
   JSON escaping, and the trajectory-file reader and gate.  Both
   trajectory files are written by our own emitters in a fixed layout,
   so the reader scans for keys rather than parsing JSON in general —
   but it never trusts the layout: every lookup that can miss returns an
   error instead of raising. *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

type section = {
  name : string;
  count : int;
  ops : int;
  ops_per_sec : float;
  p50_ns : float;
  p99_ns : float;
}

let section ?ops ?elapsed_s ~name samples =
  let ns = Array.of_list samples in
  Array.sort compare ns;
  let count = Array.length ns in
  let ops = Option.value ops ~default:count in
  let elapsed_s =
    Option.value elapsed_s ~default:(Array.fold_left (fun acc x -> acc +. (x /. 1e9)) 0. ns)
  in
  {
    name;
    count;
    ops;
    ops_per_sec = float_of_int ops /. Float.max elapsed_s 1e-9;
    p50_ns = percentile ns 0.50;
    p99_ns = percentile ns 0.99;
  }

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* -- scanning ------------------------------------------------------------- *)

(* Index just past the first [pat] in [json]. *)
let find json pat =
  let n = String.length pat in
  let rec go i =
    if i + n > String.length json then None
    else if String.sub json i n = pat then Some (i + n)
    else go (i + 1)
  in
  go 0

let skip chars json i =
  let i = ref i in
  while !i < String.length json && String.contains chars json.[!i] do
    incr i
  done;
  !i

let ws = " \t\r\n"

(* Index just past the bracket closing the one that opens at [i]:
   string contents are skipped and each closer must match its opener.
   [None] when the input ends first or a closer does not match. *)
let close_of json i =
  let rec go i stack in_string =
    if i >= String.length json then None
    else
      let c = json.[i] in
      if in_string then
        if c = '\\' then go (i + 2) stack true else go (i + 1) stack (c <> '"')
      else
        match (c, stack) with
        | '"', _ -> go (i + 1) stack true
        | '{', _ -> go (i + 1) ('}' :: stack) false
        | '[', _ -> go (i + 1) (']' :: stack) false
        | ('}' | ']'), top :: rest when c = top ->
          if rest = [] then Some (i + 1) else go (i + 1) rest false
        | ('}' | ']'), _ -> None
        | _ -> go (i + 1) stack false
  in
  go i [] false

(* Exactly one object, nothing but whitespace around it. *)
let balanced json =
  let i = skip ws json 0 in
  i < String.length json
  && json.[i] = '{'
  && match close_of json i with Some j -> skip ws json j = String.length json | None -> false

(* Start of the value of the first ["key"] in [json]. *)
let value_at json key =
  match find json ("\"" ^ key ^ "\"") with
  | None -> None
  | Some i ->
    let i = skip ws json i in
    if i < String.length json && json.[i] = ':' then Some (skip ws json (i + 1)) else None

(* The raw text of the string literal starting at [i]. *)
let string_at json i =
  let rec go j =
    if j >= String.length json then None
    else
      match json.[j] with
      | '\\' -> go (j + 2)
      | '"' -> Some (String.sub json (i + 1) (j - i - 1))
      | _ -> go (j + 1)
  in
  if i < String.length json && json.[i] = '"' then go (i + 1) else None

let number_at json i =
  let j = skip "0123456789.-+eE" json i in
  if j = i then None else float_of_string_opt (String.sub json i (j - i))

(* -- the file contract ---------------------------------------------------- *)

type t = { kind : string; sections : (string * float * float) list }

type error =
  | Unreadable of string
  | Unbalanced
  | Unknown_kind of string
  | Wrong_kind of { expected : string; found : string }
  | Missing_key of string
  | Missing_section of string
  | Bad_section of int * string
  | No_sections
  | Non_positive_throughput of string

let error_to_string = function
  | Unreadable e -> "unreadable: " ^ e
  | Unbalanced -> "unbalanced JSON structure"
  | Unknown_kind k -> Printf.sprintf "unknown benchmark kind %S" k
  | Wrong_kind { expected; found } ->
    Printf.sprintf "benchmark kind mismatch: %S, expected %S" found expected
  | Missing_key k -> Printf.sprintf "missing key %S" k
  | Missing_section s -> Printf.sprintf "missing section %S" s
  | Bad_section (i, what) -> Printf.sprintf "section %d: %s" i what
  | No_sections -> "no sections"
  | Non_positive_throughput s -> Printf.sprintf "section %S: ops_per_sec is not positive" s

let common_keys = [ "benchmark"; "schema_version"; "sections"; "ops_per_sec"; "p50_ns"; "p99_ns" ]

(* What each kind's consumers rely on: top-level keys and named sections.
   A pstore trajectory carries the tracing-overhead object and the
   sharded-stabilise/scrub scaling sections; a macro trajectory the
   sustained throughput, the crash-recovery object, the session-conflict
   counter and the served slice. *)
let required = function
  | "pstore" -> Some ([ "tracing_overhead" ], [ "stabilise-par-4"; "scrub-par-4" ])
  | "macro" ->
    Some
      ( [
          "sustained_ops_per_sec";
          "recovery";
          "recovery_ms";
          "repair_ms";
          "degraded_ops";
          "quarantined_after";
          "commit_conflicts";
          "total_ops";
          "net";
          "connections_per_sec";
        ],
        [] )
  | _ -> None

let ( let* ) = Result.bind
let has name = List.exists (fun (n, _, _) -> n = name)

let section_of index obj =
  let field key at =
    match Option.bind (value_at obj key) (at obj) with
    | Some v -> Ok v
    | None -> Error (Bad_section (index, Printf.sprintf "no readable %S" key))
  in
  let* name = field "name" string_at in
  let* ops_per_sec = field "ops_per_sec" number_at in
  let* p50 = field "p50_ns" number_at in
  if ops_per_sec > 0. then Ok (name, ops_per_sec, p50) else Error (Non_positive_throughput name)

let sections_of json =
  let rec objects i index acc =
    let i = skip (ws ^ ",") json i in
    if i >= String.length json then Error Unbalanced
    else if json.[i] = ']' then Ok (List.rev acc)
    else if json.[i] <> '{' then Error (Bad_section (index, "not an object"))
    else
      match close_of json i with
      | None -> Error Unbalanced
      | Some j ->
        let* s = section_of index (String.sub json i (j - i)) in
        objects j (index + 1) (s :: acc)
  in
  match value_at json "sections" with
  | Some i when i < String.length json && json.[i] = '[' -> objects (i + 1) 0 []
  | _ -> Error (Missing_key "sections")

let parse ?kind json =
  let* () = if balanced json then Ok () else Error Unbalanced in
  let found = Option.value (Option.bind (value_at json "benchmark") (string_at json)) ~default:"" in
  let* keys, names = Option.to_result (required found) ~none:(Unknown_kind found) in
  let* () =
    match kind with
    | Some expected when expected <> found -> Error (Wrong_kind { expected; found })
    | _ -> Ok ()
  in
  let absent k = find json ("\"" ^ k ^ "\"") = None in
  let* () =
    match List.find_opt absent (common_keys @ keys) with
    | Some k -> Error (Missing_key k)
    | None -> Ok ()
  in
  let* sections = sections_of json in
  let* () = if sections = [] then Error No_sections else Ok () in
  match List.find_opt (fun n -> not (has n sections)) names with
  | Some n -> Error (Missing_section n)
  | None -> Ok { kind = found; sections }

let read ?kind path =
  match In_channel.with_open_bin path In_channel.input_all with
  | json -> parse ?kind json
  | exception Sys_error e -> Error (Unreadable e)

let verify_written ~kind path sections =
  let* t = read ~kind path in
  match List.find_opt (fun s -> not (has (json_escape s.name) t.sections)) sections with
  | Some s -> Error (Missing_section s.name)
  | None -> Ok ()

(* -- the gate ------------------------------------------------------------- *)

let tolerance = 2.0
let noise_floor_ns = 1e6

type row = { row_name : string; fresh_p50 : float; base_p50 : float option; regressed : bool }

type verdict =
  | Malformed of string * error
  | Compared of { kind : string; rows : row list; dropped : string list }

let gate ~fresh ~baseline =
  match read fresh with
  | Error e -> Malformed (fresh, e)
  | Ok f -> (
    match read ~kind:f.kind baseline with
    | Error e -> Malformed (baseline, e)
    | Ok b ->
      let row (name, _, p50) =
        let base =
          List.find_map (fun (n, _, bp) -> if n = name then Some bp else None) b.sections
        in
        let regressed =
          match base with
          | Some bp -> p50 /. Float.max bp 1e-9 > tolerance && p50 > noise_floor_ns
          | None -> false
        in
        { row_name = name; fresh_p50 = p50; base_p50 = base; regressed }
      in
      let dropped =
        List.filter_map (fun (n, _, _) -> if has n f.sections then None else Some n) b.sections
      in
      Compared { kind = f.kind; rows = List.map row f.sections; dropped })

let exit_code = function
  | Malformed _ -> 2
  | Compared { rows; _ } -> if List.exists (fun r -> r.regressed) rows then 1 else 0
