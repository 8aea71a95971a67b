(* Stabilisation: the whole store (heap, roots, blobs, quarantine) is
   serialised into a single image and written atomically (temp file +
   rename).  Oids are preserved verbatim so hyper-links survive a
   close/reopen.

   Format v2 checksums every object individually: each heap entry is a
   [length][crc32][payload] frame (the same framing the write-ahead
   journal uses, via {!Codec.put_frame}), and the tail section (roots,
   blobs, quarantine) is one more such frame.  A whole-image CRC trailer
   still identifies the image for journal pairing.  The per-entry frames
   are what make salvage possible: when the whole-image checksum fails,
   [decode] walks the entry frames, quarantines exactly the objects whose
   frames are corrupt, and loads everything else — one flipped bit costs
   one object, not the store.

   Blobs are named byte strings used by higher layers for non-object
   state; the MiniJava runtime stores its compiled class files there,
   which is what makes classes persistent. *)

exception Image_error of string

let image_error fmt = Format.kasprintf (fun s -> raise (Image_error s)) fmt

let magic = "HPJSTORE"
let version = 2

type contents = {
  heap : Heap.t;
  roots : Roots.t;
  blobs : (string, string) Hashtbl.t;
  quarantine : Quarantine.t;
}

(* -- per-object wire format ----------------------------------------------- *)

let encode_entry_into w entry =
  let open Codec in
  match entry with
  | Heap.Record r ->
    put_u8 w 0;
    put_string w r.Heap.class_name;
    put_array w Pvalue.encode r.Heap.fields
  | Heap.Array a ->
    put_u8 w 1;
    put_string w a.Heap.elem_type;
    put_array w Pvalue.encode a.Heap.elems
  | Heap.Str s ->
    put_u8 w 2;
    put_string w s
  | Heap.Weak cell ->
    put_u8 w 3;
    Pvalue.encode w cell.Heap.target

let encode_entry_payload entry =
  let w = Codec.writer () in
  encode_entry_into w entry;
  Codec.contents w

(* The per-object checksum: what the image frames store and the online
   scrubber recomputes.  The encode buffer is reused — one per domain,
   since sharded scrubbers recompute CRCs from pool workers — so a
   budgeted scrub step allocates per-object payload bytes, not a fresh
   4 KiB buffer per object visited. *)
let crc_scratch = Domain.DLS.new_key (fun () -> Codec.writer ())

let entry_crc entry =
  let w = Domain.DLS.get crc_scratch in
  Codec.reset w;
  encode_entry_into w entry;
  Codec.crc32 (Codec.contents w)

let decode_entry_payload payload =
  let open Codec in
  let r = reader payload in
  let entry =
    match get_u8 r with
    | 0 ->
      let class_name = get_string r in
      let fields = get_array r Pvalue.decode in
      Heap.Record { Heap.class_name; fields }
    | 1 ->
      let elem_type = get_string r in
      let elems = get_array r Pvalue.decode in
      Heap.Array { Heap.elem_type; elems }
    | 2 -> Heap.Str (get_string r)
    | 3 -> Heap.Weak { Heap.target = Pvalue.decode r }
    | n -> Codec.decode_error "Image: invalid entry kind %d" n
  in
  if not (at_end r) then Codec.decode_error "Image: trailing bytes in entry";
  entry

let encode_entry w entry = Codec.put_frame w (encode_entry_payload entry)
let decode_entry r = decode_entry_payload (Codec.get_frame r)

(* -- whole-image format ---------------------------------------------------- *)

let encode { heap; roots; blobs; quarantine } =
  let open Codec in
  let w = writer () in
  put_bytes w magic;
  put_u8 w version;
  put_i64 w (Int64.of_int (Heap.next_oid heap));
  (* Heap entries, sorted by oid for deterministic images. *)
  let entries =
    Heap.fold (fun oid entry acc -> (oid, entry) :: acc) heap []
    |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)
  in
  put_int w (List.length entries);
  List.iter
    (fun (oid, entry) ->
      put_i64 w (Int64.of_int (Oid.to_int oid));
      encode_entry w entry)
    entries;
  (* The tail (roots, blobs, quarantine) rides in its own frame so a
     salvage load can still trust it when entry payloads are corrupt. *)
  let tail = writer () in
  let root_bindings =
    Roots.fold (fun name v acc -> (name, v) :: acc) roots []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  put_int tail (List.length root_bindings);
  List.iter
    (fun (name, v) ->
      put_string tail name;
      Pvalue.encode tail v)
    root_bindings;
  let blob_bindings =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) blobs []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  put_int tail (List.length blob_bindings);
  List.iter
    (fun (k, v) ->
      put_string tail k;
      put_string tail v)
    blob_bindings;
  let quarantined = Quarantine.to_list quarantine in
  put_int tail (List.length quarantined);
  List.iter
    (fun (oid, reason) ->
      put_i64 tail (Int64.of_int (Oid.to_int oid));
      put_string tail reason)
    quarantined;
  put_frame w (contents tail);
  let body = contents w in
  let trailer = writer () in
  put_i32 trailer (crc32 body);
  body ^ Codec.contents trailer

let decode_with_salvage data =
  let open Codec in
  if String.length data < String.length magic + 1 + 4 then image_error "truncated image";
  (* the body is read and checksummed in place: no copy of the image *)
  let body_len = String.length data - 4 in
  let stored_crc = get_i32 (reader_sub data body_len 4) in
  let actual_crc = crc32_sub data 0 body_len in
  let checksum_ok = Int32.equal stored_crc actual_crc in
  let fail_checksum () =
    image_error "checksum mismatch: stored %ld, computed %ld" stored_crc actual_crc
  in
  (* On a whole-image mismatch we attempt salvage: per-entry frames
     localise the damage.  Salvage is accepted only if it actually finds
     corrupt entry frames and the tail frame still verifies; corruption
     anywhere else (header, oid fields, tail) means nothing can be
     trusted, and the original checksum error is raised. *)
  let quarantine = Quarantine.create () in
  let salvaged = ref 0 in
  try
    let r = reader_sub data 0 body_len in
    let file_magic = get_bytes r (String.length magic) in
    if not (String.equal file_magic magic) then
      if checksum_ok then image_error "bad magic %S" file_magic else fail_checksum ();
    let file_version = get_u8 r in
    if file_version <> version then
      if checksum_ok then image_error "unsupported image version %d" file_version
      else fail_checksum ();
    let next = Int64.to_int (get_i64 r) in
    let heap = Heap.create () in
    let n_entries = get_int r in
    for _ = 1 to n_entries do
      let oid = Oid.of_int (Int64.to_int (get_i64 r)) in
      match checked_frame r with
      | Ok payload -> begin
        match decode_entry_payload payload with
        | entry -> Heap.insert heap oid entry
        | exception Codec.Decode_error msg ->
          Quarantine.add quarantine oid ("undecodable object: " ^ msg);
          incr salvaged
      end
      | Error msg ->
        Quarantine.add quarantine oid ("storage " ^ msg);
        incr salvaged
    done;
    Heap.set_next_oid heap next;
    let tail = reader (get_frame r) in
    let roots = Roots.create () in
    let n_roots = get_int tail in
    for _ = 1 to n_roots do
      let name = get_string tail in
      Roots.set roots name (Pvalue.decode tail)
    done;
    let blobs = Hashtbl.create 16 in
    let n_blobs = get_int tail in
    for _ = 1 to n_blobs do
      let k = get_string tail in
      let v = get_string tail in
      Hashtbl.replace blobs k v
    done;
    let n_quarantined = get_int tail in
    for _ = 1 to n_quarantined do
      let oid = Oid.of_int (Int64.to_int (get_i64 tail)) in
      let reason = get_string tail in
      if not (Quarantine.mem quarantine oid) then Quarantine.add quarantine oid reason
    done;
    if not (at_end r) then image_error "%d trailing bytes after image" (remaining r);
    if (not checksum_ok) && !salvaged = 0 then fail_checksum ();
    ({ heap; roots; blobs; quarantine }, !salvaged)
  with Codec.Decode_error _ when not checksum_ok -> fail_checksum ()

let decode data = fst (decode_with_salvage data)

(* The CRC that [encode] appended: identifies this image so a journal can
   name the exact snapshot it extends. *)
let crc_of_encoded data =
  if String.length data < 4 then image_error "truncated image";
  Codec.get_i32 (Codec.reader_sub data (String.length data - 4) 4)

(* Crash-atomic save: write a temp file, fsync it, rename it over the
   target, then fsync the directory so the rename itself is durable.
   Rename alone is not crash-atomic on ext4: the new name can be lost on
   power failure if the directory entry was never flushed. *)
let save ?(durable = true) ?obs path contents =
  let data = encode contents in
  let write () =
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    (try
       Faults.output_string oc data;
       if durable then Faults.fsync_channel oc;
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Faults.rename tmp path;
    if durable then Faults.fsync_dir (Filename.dirname path);
    crc_of_encoded data
  in
  match obs with
  | None -> write ()
  | Some o ->
    Obs.span o Obs.Image_save ~bytes:(String.length data)
      ~label:(Filename.basename path) write

(* A load that also reports how many entries the decoder had to salvage
   around: the sharded open uses the count to judge whether a shard's
   image was damaged enough to demote the shard (salvage-heavy open). *)
type load_report = {
  lr_contents : contents;
  lr_crc : int32;
  lr_salvaged : int;
}

let load_report ?obs path =
  let read () =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let data =
      try really_input_string ic len
      with e ->
        close_in_noerr ic;
        raise e
    in
    close_in ic;
    let contents, salvaged = decode_with_salvage data in
    { lr_contents = contents; lr_crc = crc_of_encoded data; lr_salvaged = salvaged }
  in
  match obs with
  | None -> read ()
  | Some o -> Obs.span o Obs.Image_load ~label:(Filename.basename path) read

let load_with_crc ?obs path =
  let r = load_report ?obs path in
  (r.lr_contents, r.lr_crc)

let load path = fst (load_with_crc path)

(* One shard's view of whole-store contents: entries, roots, blobs and
   quarantined oids selected by the shard predicates.  Heap entries are
   shared by reference — a slice is a transient encode/save input, never
   a second live store.  [next_oid] is the global counter: every shard
   image must be able to restore it alone. *)
let slice ~keep_oid ~keep_key { heap; roots; blobs; quarantine } =
  let h = Heap.create () in
  Heap.iter (fun oid e -> if keep_oid oid then Heap.insert h oid e) heap;
  Heap.set_next_oid h (Heap.next_oid heap);
  let r = Roots.create () in
  Roots.iter (fun name v -> if keep_key name then Roots.set r name v) roots;
  let b = Hashtbl.create 16 in
  Hashtbl.iter (fun k v -> if keep_key k then Hashtbl.replace b k v) blobs;
  let q = Quarantine.create () in
  List.iter
    (fun (oid, reason) -> if keep_oid oid then Quarantine.add q oid reason)
    (Quarantine.to_list quarantine);
  { heap = h; roots = r; blobs = b; quarantine = q }
