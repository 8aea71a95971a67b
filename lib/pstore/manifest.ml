(* Sharded-store metadata: the manifest file, shard file naming, oid/key
   hashing, and the store-level commit marker.

   A sharded store replaces the single image at [path] with a small
   manifest naming the shard count and the current epoch of every shard
   image.  Shard files live next to it:

     path             the manifest (magic "HPJMANIF")
     path.s<k>.<e>    shard [k]'s image at epoch [e]
     path.s<k>.<e>.wal   its journal
     path.marker.<m>  the commit marker

   Epochs make image replacement atomic without renaming over live
   files: a compaction writes the new images at epoch [e+1], then
   atomically renames the manifest — the single commit point — and only
   then deletes the stale epoch's files.  A crash before the rename
   leaves the old manifest naming the old (complete) files.

   The marker is the cross-shard commit point for journalled batches:
   each stabilise appends its batch to every dirty shard journal stamped
   with one store-level sequence number, and the sequence is committed
   only once a marker record carrying it is fsynced AFTER those journal
   fsyncs.  Recovery replays per-shard batches only up to the marker's
   last sequence, so a crash between per-shard appends rolls the whole
   stabilise back.  Compactions that rewrite every shard rotate to a
   fresh marker file (sequence numbers restart at 0). *)

let magic = "HPJMANIF"

type t = {
  nshards : int;
  marker_epoch : int;  (* -1 before the first compaction *)
  epochs : int array;  (* current image epoch per shard *)
}

(* -- hashing -------------------------------------------------------------- *)

(* Knuth multiplicative hash: consecutive oids (allocation order) spread
   evenly instead of striping, so one session's objects don't all land
   in one shard. *)
let shard_of_oid ~count oid =
  if count <= 1 then 0 else Oid.to_int oid * 2654435761 land max_int mod count

let shard_of_key ~count key =
  if count <= 1 then 0 else Hashtbl.hash key mod count

(* -- file naming ---------------------------------------------------------- *)

let shard_image path k e = Printf.sprintf "%s.s%d.%d" path k e
let shard_wal path k e = shard_image path k e ^ ".wal"
let marker_path path m = Printf.sprintf "%s.marker.%d" path m

(* -- manifest I/O --------------------------------------------------------- *)

let encode m =
  let open Codec in
  let w = writer () in
  put_bytes w magic;
  let body =
    let b = writer () in
    put_u8 b 1 (* version *);
    put_int b m.nshards;
    put_int b m.marker_epoch;
    put_list b put_int (Array.to_list m.epochs);
    contents b
  in
  put_frame w body;
  contents w

let decode data =
  let open Codec in
  if
    String.length data < String.length magic
    || not (String.equal (String.sub data 0 (String.length magic)) magic)
  then decode_error "Manifest: bad magic"
  else begin
    let r = reader (String.sub data (String.length magic) (String.length data - String.length magic)) in
    let body = reader (get_frame r) in
    (match get_u8 body with
    | 1 -> ()
    | v -> decode_error "Manifest: unsupported version %d" v);
    let nshards = get_int body in
    let marker_epoch = get_int body in
    let epochs = Array.of_list (get_list body get_int) in
    if nshards < 1 || Array.length epochs <> nshards then
      decode_error "Manifest: inconsistent shard count";
    { nshards; marker_epoch; epochs }
  end

(* Same atomic protocol as [Image.save]: temp file, fsync, rename,
   directory fsync.  The rename IS the sharded store's commit point. *)
let save ?(durable = true) path m =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Faults.output_string oc (encode m);
     if durable then Faults.fsync_channel oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  Faults.rename tmp path;
  if durable then Faults.fsync_dir (Filename.dirname (if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Is the file at [path] a shard manifest (vs a legacy flat image)? *)
let is_manifest path =
  (not (Sys.file_exists path))
  |> function
  | true -> false
  | false -> (
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try String.equal (really_input_string ic (String.length magic)) magic
        with End_of_file -> false))

let load path = decode (read_file path)

(* Best-effort removal of files from superseded epochs / markers.  Stale
   files are harmless (nothing references them), so errors are ignored. *)
let cleanup_stale path m =
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  let keep = Hashtbl.create 16 in
  Array.iteri
    (fun k e ->
      Hashtbl.replace keep (Filename.basename (shard_image path k e)) ();
      Hashtbl.replace keep (Filename.basename (shard_wal path k e)) ())
    m.epochs;
  if m.marker_epoch >= 0 then
    Hashtbl.replace keep (Filename.basename (marker_path path m.marker_epoch)) ();
  let is_shard_file name =
    (* base ^ ".s<k>.<e>"[".wal"] or base ^ ".marker.<m>" *)
    String.length name > String.length base
    && String.sub name 0 (String.length base) = base
    && (let rest = String.sub name (String.length base) (String.length name - String.length base) in
        let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
        match String.split_on_char '.' rest with
        | [ ""; s; e ] when String.length s > 1 && s.[0] = 's' ->
          is_digits (String.sub s 1 (String.length s - 1)) && is_digits e
        | [ ""; s; e; "wal" ] when String.length s > 1 && s.[0] = 's' ->
          is_digits (String.sub s 1 (String.length s - 1)) && is_digits e
        | [ ""; "marker"; m ] -> is_digits m
        | _ -> false)
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        if is_shard_file name && not (Hashtbl.mem keep name) then
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      names

(* -- commit marker -------------------------------------------------------- *)

module Marker = struct
  let magic = "HPJMARK1"

  type t = { oc : out_channel }

  let frame_seq seq =
    let open Codec in
    let w = writer () in
    let body =
      let b = writer () in
      put_i64 b (Int64.of_int seq);
      contents b
    in
    put_frame w body;
    contents w

  let create path =
    let oc = open_out_bin path in
    (try
       Faults.output_string oc magic;
       Faults.fsync_channel oc
     with e ->
       close_out_noerr oc;
       raise e);
    { oc }

  let append t seq = Faults.output_string t.oc (frame_seq seq)
  let sync t = Faults.fsync_channel t.oc

  let position t =
    flush t.oc;
    pos_out t.oc

  let truncate_to t ~pos =
    flush t.oc;
    Unix.ftruncate (Unix.descr_of_out_channel t.oc) pos;
    seek_out t.oc pos

  let close t = close_out_noerr t.oc
  let crash t = try Unix.close (Unix.descr_of_out_channel t.oc) with _ -> ()

  type replay = {
    committed : int;  (* last good sequence number; 0 if none *)
    valid_bytes : int;
  }

  (* Lenient, like journal recovery: stop at the first torn record. *)
  let read path =
    if not (Sys.file_exists path) then None
    else begin
      let data = read_file path in
      let len = String.length data in
      let hlen = String.length magic in
      if len < hlen || not (String.equal (String.sub data 0 hlen) magic) then None
      else begin
        let committed = ref 0 in
        let pos = ref hlen in
        let valid = ref hlen in
        let stop = ref false in
        (try
           while (not !stop) && !pos + 8 <= len do
             let r = Codec.reader_sub data !pos 8 in
             let payload_len = Codec.get_int r in
             let crc = Codec.get_i32 r in
             if payload_len < 0 || !pos + 8 + payload_len > len then stop := true
             else if not (Int32.equal (Codec.crc32_sub data (!pos + 8) payload_len) crc) then
               stop := true
             else begin
               let payload = Codec.reader_sub data (!pos + 8) payload_len in
               committed := Int64.to_int (Codec.get_i64 payload);
               pos := !pos + 8 + payload_len;
               valid := !pos
             end
           done
         with Codec.Decode_error _ -> ());
        Some { committed = !committed; valid_bytes = !valid }
      end
    end

  (* Seek rather than O_APPEND — see Journal.open_for_append: [pos_out]
     on an append-mode channel reads 0 until the first write, which would
     corrupt the rollback savepoints taken right after a reopen. *)
  let open_for_append path ~valid_bytes =
    Unix.truncate path valid_bytes;
    let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
    seek_out oc valid_bytes;
    { oc }
end
