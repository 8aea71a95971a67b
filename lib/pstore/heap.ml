(* The store heap: a table from oid to object.  Four object kinds suffice
   for the whole system: records (class instances), arrays, immutable
   strings, and weak cells (used by the hyper-program registry, Figure 7 of
   the paper).  Records keep their class name and field array mutable so
   that schema evolution can update instances in place, preserving oids and
   therefore hyper-link validity. *)

exception Heap_error of string

let heap_error fmt = Format.kasprintf (fun s -> raise (Heap_error s)) fmt

type record = {
  mutable class_name : string;
  mutable fields : Pvalue.t array;
}

type arr = {
  elem_type : string;
  elems : Pvalue.t array;
}

type weak_cell = { mutable target : Pvalue.t }

type entry =
  | Record of record
  | Array of arr
  | Str of string
  | Weak of weak_cell

type t = {
  table : entry Oid.Table.t;
  mutable next : int;
}

let create () = { table = Oid.Table.create 1024; next = 1 }

let size heap = Oid.Table.length heap.table

let fresh_oid heap =
  let oid = Oid.of_int heap.next in
  heap.next <- heap.next + 1;
  oid

let next_oid heap = heap.next

let set_next_oid heap n = heap.next <- n

let insert heap oid entry =
  if Oid.Table.mem heap.table oid then heap_error "insert: oid %a already live" Oid.pp oid;
  Oid.Table.replace heap.table oid entry

let alloc heap entry =
  let oid = fresh_oid heap in
  Oid.Table.replace heap.table oid entry;
  oid

let alloc_record heap class_name fields = alloc heap (Record { class_name; fields })
let alloc_array heap elem_type elems = alloc heap (Array { elem_type; elems })
let alloc_string heap s = alloc heap (Str s)
let alloc_weak heap target = alloc heap (Weak { target })

let find heap oid = Oid.Table.find_opt heap.table oid

let is_live heap oid = Oid.Table.mem heap.table oid

let get heap oid =
  match find heap oid with
  | Some entry -> entry
  | None -> heap_error "dangling reference %a" Oid.pp oid

(* -- entry-level accessors: one decoding, one set of error texts, shared
   by the oid-based functions below and by the store's snapshot readers
   (which resolve an entry through their own view first). *)

let entry_record oid = function
  | Record r -> r
  | Array _ | Str _ | Weak _ -> heap_error "%a is not a record" Oid.pp oid

let entry_array oid = function
  | Array a -> a
  | Record _ | Str _ | Weak _ -> heap_error "%a is not an array" Oid.pp oid

let entry_string oid = function
  | Str s -> s
  | Record _ | Array _ | Weak _ -> heap_error "%a is not a string" Oid.pp oid

let entry_weak oid = function
  | Weak c -> c
  | Record _ | Array _ | Str _ -> heap_error "%a is not a weak cell" Oid.pp oid

let entry_class = function
  | Record r -> r.class_name
  | Array a -> a.elem_type ^ "[]"
  | Str _ -> "java.lang.String"
  | Weak _ -> "pstore.WeakReference"

let entry_container = function
  | Record r -> r.class_name
  | Array a -> a.elem_type ^ "[]"
  | Str _ -> "string"
  | Weak _ -> "weak cell"

let field_slot oid entry idx =
  let r = entry_record oid entry in
  if idx < 0 || idx >= Array.length r.fields then
    heap_error "field index %d out of range for %a (%s)" idx Oid.pp oid r.class_name;
  r.fields

let elem_slot oid entry idx =
  let a = entry_array oid entry in
  if idx < 0 || idx >= Array.length a.elems then
    heap_error "array index %d out of bounds (length %d)" idx (Array.length a.elems);
  a.elems

let entry_field oid entry idx = (field_slot oid entry idx).(idx)
let entry_set_field oid entry idx v = (field_slot oid entry idx).(idx) <- v
let entry_elem oid entry idx = (elem_slot oid entry idx).(idx)
let entry_set_elem oid entry idx v = (elem_slot oid entry idx).(idx) <- v

let get_record heap oid = entry_record oid (get heap oid)
let get_array heap oid = entry_array oid (get heap oid)
let get_string heap oid = entry_string oid (get heap oid)
let get_weak heap oid = entry_weak oid (get heap oid)
let class_of heap oid = entry_class (get heap oid)
let field heap oid idx = entry_field oid (get heap oid) idx
let set_field heap oid idx v = entry_set_field oid (get heap oid) idx v
let elem heap oid idx = entry_elem oid (get heap oid) idx
let set_elem heap oid idx v = entry_set_elem oid (get heap oid) idx v
let array_length heap oid = Array.length (get_array heap oid).elems

let remove heap oid = Oid.Table.remove heap.table oid

let iter f heap = Oid.Table.iter f heap.table

let fold f heap init = Oid.Table.fold f heap.table init

let oids heap = Oid.Table.fold (fun oid _ acc -> oid :: acc) heap.table []

(* Direct references held by one entry; weak cells contribute nothing,
   which is exactly what makes them weak for the garbage collector. *)
let strong_refs entry =
  let refs_of_values vs =
    Array.to_seq vs
    |> Seq.filter_map (function Pvalue.Ref oid -> Some oid | _ -> None)
    |> List.of_seq
  in
  match entry with
  | Record r -> refs_of_values r.fields
  | Array a -> refs_of_values a.elems
  | Str _ -> []
  | Weak _ -> []

(* Replace this heap's entire contents with another's (transaction
   rollback support). *)
let replace_all dst ~from =
  Oid.Table.reset dst.table;
  Oid.Table.iter (fun oid entry -> Oid.Table.replace dst.table oid entry) from.table;
  dst.next <- from.next
