(** Binary encoding primitives used by the store image format and the
    MiniJava class-file format.  All multi-byte integers are little-endian;
    strings are length-prefixed. *)

type writer
type reader

exception Decode_error of string

val decode_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Decode_error} with a formatted message. *)

val writer : unit -> writer
val contents : writer -> string

val reset : writer -> unit
(** Empty the writer for reuse, keeping its internal buffer — for hot
    paths that would otherwise allocate a fresh writer per item. *)

val reader : string -> reader

val reader_sub : string -> int -> int -> reader
(** [reader_sub s off len] reads only the [len] bytes of [s] starting at
    [off], without copying them: reads past [off + len] fail as at the
    end of input.
    @raise Invalid_argument if the range is not within [s]. *)

val remaining : reader -> int
val at_end : reader -> bool

val put_u8 : writer -> int -> unit
val put_bool : writer -> bool -> unit
val put_i32 : writer -> int32 -> unit
val put_int : writer -> int -> unit
val put_i64 : writer -> int64 -> unit
val put_f64 : writer -> float -> unit
val put_string : writer -> string -> unit
val put_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val put_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val put_option : writer -> (writer -> 'a -> unit) -> 'a option -> unit

val put_bytes : writer -> string -> unit
(** Raw bytes, no length prefix. *)

val get_bytes : reader -> int -> string
(** Raw bytes, no length prefix. *)

val get_u8 : reader -> int
val get_bool : reader -> bool
val get_i32 : reader -> int32
val get_int : reader -> int
val get_i64 : reader -> int64
val get_f64 : reader -> float
val get_string : reader -> string
val get_list : reader -> (reader -> 'a) -> 'a list
val get_array : reader -> (reader -> 'a) -> 'a array
val get_option : reader -> (reader -> 'a) -> 'a option

val crc32 : string -> int32
(** CRC-32 checksum (IEEE 802.3 polynomial, reflected, initial value and
    final xor [0xffffffff]) of a byte string — the checksum of zlib and
    of every image trailer, image/journal frame and wire frame.
    [crc32 s = crc32_sub s 0 (String.length s)].  A table-driven
    slicing-by-8 kernel over an unboxed [int]: allocation-free apart from
    the result. *)

val crc32_sub : string -> int -> int -> int32
(** [crc32_sub s off len] is [crc32 (String.sub s off len)] without the
    copy — for callers that checksum a range of a larger buffer (an image
    body ahead of its trailer, a journal record inside the file).
    @raise Invalid_argument if the range is not within [s]. *)

(** {1 Checksummed frames}

    [int length][u32 crc32(payload)][payload] — the framing shared by
    per-object image records and write-ahead journal records. *)

val put_frame : writer -> string -> unit

val get_frame : reader -> string
(** Read a frame and verify its checksum.
    @raise Decode_error on truncation or checksum mismatch. *)

val checked_frame : reader -> (string, string) result
(** Like {!get_frame}, but a checksum mismatch is returned as [Error]
    with the reader advanced past the frame, so salvage loops can skip
    the corrupt frame and keep reading.
    @raise Decode_error if the frame structure itself is unreadable. *)
