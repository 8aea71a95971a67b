(** The store heap: a table from {!Oid.t} to objects.

    Object kinds: records (class instances), arrays, immutable strings and
    weak cells.  Records have mutable class name and field array so schema
    evolution can update instances in place without changing their oid. *)

exception Heap_error of string

type record = {
  mutable class_name : string;
  mutable fields : Pvalue.t array;
}

type arr = {
  elem_type : string;  (** element type descriptor, e.g. ["Person"] or ["int"] *)
  elems : Pvalue.t array;
}

type weak_cell = { mutable target : Pvalue.t }

type entry =
  | Record of record
  | Array of arr
  | Str of string
  | Weak of weak_cell

type t

val create : unit -> t
val size : t -> int

val next_oid : t -> int
val set_next_oid : t -> int -> unit

val insert : t -> Oid.t -> entry -> unit
(** Used when rebuilding a heap from a stabilised image.
    @raise Heap_error if the oid is already live. *)

val alloc : t -> entry -> Oid.t
val alloc_record : t -> string -> Pvalue.t array -> Oid.t
val alloc_array : t -> string -> Pvalue.t array -> Oid.t
val alloc_string : t -> string -> Oid.t
val alloc_weak : t -> Pvalue.t -> Oid.t

val find : t -> Oid.t -> entry option
val is_live : t -> Oid.t -> bool

val get : t -> Oid.t -> entry
(** @raise Heap_error on a dangling oid. *)

val get_record : t -> Oid.t -> record
val get_array : t -> Oid.t -> arr
val get_string : t -> Oid.t -> string
val get_weak : t -> Oid.t -> weak_cell

val class_of : t -> Oid.t -> string
(** Class descriptor of an object: class name for records, [ty ^ "[]"] for
    arrays, ["java.lang.String"] for strings. *)

val field : t -> Oid.t -> int -> Pvalue.t
val set_field : t -> Oid.t -> int -> Pvalue.t -> unit
val elem : t -> Oid.t -> int -> Pvalue.t
val set_elem : t -> Oid.t -> int -> Pvalue.t -> unit
val array_length : t -> Oid.t -> int

(** {2 Entry-level accessors}

    The decoding behind the oid-based accessors above, for
    callers that resolved the entry themselves (a snapshot session's
    view).  The [Oid.t] only labels the error.
    @raise Heap_error on a kind mismatch or an index out of range, with
    the same text as the oid-based function. *)

val entry_record : Oid.t -> entry -> record
val entry_array : Oid.t -> entry -> arr
val entry_string : Oid.t -> entry -> string
val entry_weak : Oid.t -> entry -> weak_cell

val entry_class : entry -> string
(** As {!class_of}. *)

val entry_container : entry -> string
(** The container name a bad field index is reported against: the class
    name, [ty ^ "[]"], ["string"] or ["weak cell"]. *)

val entry_field : Oid.t -> entry -> int -> Pvalue.t
val entry_set_field : Oid.t -> entry -> int -> Pvalue.t -> unit
val entry_elem : Oid.t -> entry -> int -> Pvalue.t
val entry_set_elem : Oid.t -> entry -> int -> Pvalue.t -> unit

val remove : t -> Oid.t -> unit
val iter : (Oid.t -> entry -> unit) -> t -> unit
val fold : (Oid.t -> entry -> 'a -> 'a) -> t -> 'a -> 'a
val oids : t -> Oid.t list

val strong_refs : entry -> Oid.t list
(** Oids directly referenced by an entry.  Weak cells contribute none:
    their target is reachable only if some strong path also reaches it. *)

val replace_all : t -> from:t -> unit
(** Replace this heap's entire contents with another's (used by
    transaction rollback). *)
