(** The measurement contract shared by every latency figure the repo
    reports and by both [BENCH_*.json] trajectory files.

    One percentile rule ([Obs.latency], the store bench, the macro
    harness), one section summary, one string escaper for the emitters,
    and one total reader that accepts or rejects a trajectory file.  The
    emitters read their own file back through {!read} after writing it;
    [bench/bench_gate.ml] reads both the fresh file and the committed
    baseline through it before comparing p50s with {!gate}. *)

val percentile : float array -> float -> float
(** [percentile sorted p] is the nearest-rank [p]-quantile ([0 < p <= 1])
    of an ascending array: the element at rank [ceil (p * n)].  [0.] when
    the array is empty.  Below 100 samples [percentile s 0.99] is the
    maximum, so a p99 only means something above that count. *)

(** One op class of a trajectory file. *)
type section = {
  name : string;
  count : int;  (** samples *)
  ops : int;  (** operations timed across all samples *)
  ops_per_sec : float;
  p50_ns : float;
  p99_ns : float;
}

val section : ?ops:int -> ?elapsed_s:float -> name:string -> float list -> section
(** Summarise raw nanosecond samples (any order).  Throughput is
    [ops / elapsed_s]; [ops] defaults to the sample count and [elapsed_s]
    to the samples' sum, i.e. one operation per sample timed back to
    back. *)

val json_escape : string -> string
(** Escape a string for the inside of a JSON string literal. *)

(** {1 Reading a trajectory file} *)

type t = {
  kind : string;  (** the ["benchmark"] field: ["pstore"] or ["macro"] *)
  sections : (string * float * float) list;
      (** [(name, ops_per_sec, p50_ns)] in file order; names as written
          between the quotes (escapes left in place) *)
}

type error =
  | Unreadable of string  (** the file could not be opened or read *)
  | Unbalanced  (** not one object with balanced brackets and strings *)
  | Unknown_kind of string
  | Wrong_kind of { expected : string; found : string }
  | Missing_key of string  (** a key this kind's consumers rely on *)
  | Missing_section of string  (** a section this kind must carry *)
  | Bad_section of int * string  (** 0-based index, what is wrong *)
  | No_sections
  | Non_positive_throughput of string  (** section name *)

val error_to_string : error -> string

val parse : ?kind:string -> string -> (t, error) result
(** Check a trajectory's text and extract its sections.  Total: every
    defect is an [Error], never an exception.  Accepts only a single
    balanced JSON object of a known kind ([kind], when given, must
    match) carrying that kind's required keys and sections, with at
    least one section, every section having a string [name], a numeric
    [p50_ns] and a positive [ops_per_sec]. *)

val read : ?kind:string -> string -> (t, error) result
(** {!parse} the contents of a file. *)

val verify_written : kind:string -> string -> section list -> (unit, error) result
(** An emitter's self-check: {!read} the file it just wrote and find
    every section it wrote there by name. *)

(** {1 The regression gate} *)

val tolerance : float
(** [2.0]: a section regresses when its fresh p50 exceeds the baseline's
    by more than this factor and is above {!noise_floor_ns}. *)

val noise_floor_ns : float
(** [1e6] (1 ms): sub-millisecond sections (wire RTTs, in-process
    commits) are scheduler noise at smoke sample counts, so they never
    gate. *)

type row = {
  row_name : string;
  fresh_p50 : float;
  base_p50 : float option;  (** [None]: new section, not gated *)
  regressed : bool;
}

type verdict =
  | Malformed of string * error  (** the offending file and its defect *)
  | Compared of { kind : string; rows : row list; dropped : string list }
      (** one row per fresh section; [dropped] are baseline sections the
          fresh run lacks (not gated) *)

val gate : fresh:string -> baseline:string -> verdict
(** Read both files (same checks for each; the baseline must be of the
    fresh file's kind) and compare p50s section by section. *)

val exit_code : verdict -> int
(** [0] all within tolerance, [1] some section regressed, [2] a file is
    malformed. *)
