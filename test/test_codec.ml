(* Codec: binary primitives, round trips, CRC-32, error handling. *)

open Pstore
open Helpers

let roundtrip_ints () =
  let w = Codec.writer () in
  Codec.put_i32 w 0l;
  Codec.put_i32 w Int32.min_int;
  Codec.put_i32 w Int32.max_int;
  Codec.put_i32 w (-1l);
  Codec.put_i64 w Int64.min_int;
  Codec.put_i64 w Int64.max_int;
  Codec.put_i64 w 0x0102030405060708L;
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check int32) "zero" 0l (Codec.get_i32 r);
  Alcotest.(check int32) "min" Int32.min_int (Codec.get_i32 r);
  Alcotest.(check int32) "max" Int32.max_int (Codec.get_i32 r);
  Alcotest.(check int32) "-1" (-1l) (Codec.get_i32 r);
  Alcotest.(check int64) "min64" Int64.min_int (Codec.get_i64 r);
  Alcotest.(check int64) "max64" Int64.max_int (Codec.get_i64 r);
  Alcotest.(check int64) "bytes" 0x0102030405060708L (Codec.get_i64 r);
  check_bool "exhausted" true (Codec.at_end r)

let roundtrip_strings () =
  let w = Codec.writer () in
  Codec.put_string w "";
  Codec.put_string w "hello";
  Codec.put_string w (String.make 10000 'x');
  Codec.put_string w "embedded \x00 nul";
  let r = Codec.reader (Codec.contents w) in
  check_output "empty" "" (Codec.get_string r);
  check_output "hello" "hello" (Codec.get_string r);
  check_int "long" 10000 (String.length (Codec.get_string r));
  check_output "nul" "embedded \x00 nul" (Codec.get_string r)

let roundtrip_floats () =
  let w = Codec.writer () in
  List.iter (Codec.put_f64 w) [ 0.; -0.; 1.5; Float.max_float; Float.min_float; infinity; neg_infinity ];
  let r = Codec.reader (Codec.contents w) in
  List.iter
    (fun expected -> Alcotest.(check (float 0.)) "f64" expected (Codec.get_f64 r))
    [ 0.; -0.; 1.5; Float.max_float; Float.min_float; infinity; neg_infinity ];
  (* NaN round-trips bit-exactly. *)
  let w2 = Codec.writer () in
  Codec.put_f64 w2 Float.nan;
  let r2 = Codec.reader (Codec.contents w2) in
  check_bool "nan" true (Float.is_nan (Codec.get_f64 r2))

let roundtrip_containers () =
  let w = Codec.writer () in
  Codec.put_list w Codec.put_int [ 1; 2; 3 ];
  Codec.put_array w Codec.put_string [| "a"; "b" |];
  Codec.put_option w Codec.put_int None;
  Codec.put_option w Codec.put_int (Some 42);
  Codec.put_bool w true;
  Codec.put_bool w false;
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.get_list r Codec.get_int);
  Alcotest.(check (array string)) "array" [| "a"; "b" |] (Codec.get_array r Codec.get_string);
  Alcotest.(check (option int)) "none" None (Codec.get_option r Codec.get_int);
  Alcotest.(check (option int)) "some" (Some 42) (Codec.get_option r Codec.get_int);
  check_bool "true" true (Codec.get_bool r);
  check_bool "false" false (Codec.get_bool r)

let truncated_input_fails () =
  let w = Codec.writer () in
  Codec.put_i64 w 1L;
  let data = Codec.contents w in
  let r = Codec.reader (String.sub data 0 4) in
  (match Codec.get_i64 r with
  | _ -> Alcotest.fail "expected decode error"
  | exception Codec.Decode_error _ -> ());
  let r2 = Codec.reader "\xff\xff\xff\x7f" in
  (match Codec.get_string r2 with
  | _ -> Alcotest.fail "expected decode error on oversized string length"
  | exception Codec.Decode_error _ -> ())

let bad_bool_fails () =
  let r = Codec.reader "\x07" in
  match Codec.get_bool r with
  | _ -> Alcotest.fail "expected decode error"
  | exception Codec.Decode_error _ -> ()

let crc32_known_values () =
  (* Standard test vector: crc32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "vector" 0xCBF43926l (Codec.crc32 "123456789");
  Alcotest.(check int32) "empty" 0l (Codec.crc32 "");
  check_bool "differs" true (Codec.crc32 "a" <> Codec.crc32 "b")

(* The plain bytewise CRC-32 the slicing-by-8 kernel must agree with:
   reflected IEEE polynomial, one shift per bit, no table. *)
let reference_crc32 s off len =
  let c = ref 0xffffffff in
  for i = off to off + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xffffffff)

let random_string ~seed n =
  let rng = Random.State.make [| seed |] in
  String.init n (fun _ -> Char.chr (Random.State.int rng 256))

(* Every length 0-64 at every offset 0-7 covers the 8-byte main loop,
   its bytewise tail, and unaligned starts; all 256 one-byte strings
   cover every table-0 entry; 1 MiB of seeded noise covers the rest. *)
let crc32_matches_reference () =
  let buf = random_string ~seed:7 (64 + 8) in
  for off = 0 to 7 do
    for len = 0 to 64 do
      let expect = reference_crc32 buf off len in
      let name = Printf.sprintf "off %d len %d" off len in
      Alcotest.(check int32) (name ^ " sub") expect (Codec.crc32_sub buf off len);
      Alcotest.(check int32) (name ^ " whole") expect (Codec.crc32 (String.sub buf off len))
    done
  done;
  for b = 0 to 255 do
    let s = String.make 1 (Char.chr b) in
    Alcotest.(check int32) (Printf.sprintf "byte %d" b) (reference_crc32 s 0 1) (Codec.crc32 s)
  done;
  let big = random_string ~seed:42 (1 lsl 20) in
  let expect = reference_crc32 big 0 (String.length big) in
  Alcotest.(check int32) "1 MiB" expect (Codec.crc32 big);
  Alcotest.(check int32) "1 MiB sub" expect (Codec.crc32_sub big 0 (String.length big))

let crc32_sub_rejects_bad_ranges () =
  List.iter
    (fun (off, len) ->
      match Codec.crc32_sub "abcd" off len with
      | _ -> Alcotest.failf "range (%d, %d) of a 4-byte string accepted" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, -1); (0, 5); (4, 1); (5, 0) ];
  Alcotest.(check int32) "empty range at the end" 0l (Codec.crc32_sub "abcd" 4 0)

(* On-disk compatibility: a fixed image encodes to the same trailer CRC
   (and length) as it did under the bytewise Int32 kernel every existing
   store was written with. *)
let image_trailer_crc_is_pinned () =
  let heap = Heap.create () in
  let oid = Oid.of_int in
  Heap.insert heap (oid 1) (Heap.Str "persistent");
  Heap.insert heap (oid 2)
    (Heap.Record { Heap.class_name = "Person"; fields = [| Pvalue.Ref (oid 1); Pvalue.Int 42l |] });
  Heap.insert heap (oid 3)
    (Heap.Array { Heap.elem_type = "int"; elems = [| Pvalue.Int 1l; Pvalue.Int (-2l) |] });
  Heap.set_next_oid heap 4;
  let roots = Roots.create () in
  Roots.set roots "p" (Pvalue.Ref (oid 2));
  let blobs = Hashtbl.create 1 in
  Hashtbl.replace blobs "class:Person" (String.init 100 (fun i -> Char.chr (i * 37 land 0xff)));
  let quarantine = Quarantine.create () in
  Quarantine.add quarantine (oid 3) "pinned";
  let data = Image.encode { Image.heap; roots; blobs; quarantine } in
  check_int "image length" 311 (String.length data);
  let trailer = Codec.get_i32 (Codec.reader_sub data (String.length data - 4) 4) in
  Alcotest.(check int32) "trailer crc" 0x2f01758bl trailer;
  ignore (Image.decode data)

(* Every strict prefix of an encoded value must fail with Decode_error —
   never an unhandled exception, never a silently wrong value. *)
let pvalue_truncation_at_every_offset () =
  let samples =
    [
      Pvalue.Null;
      Pvalue.Bool true;
      Pvalue.byte (-5);
      Pvalue.short 300;
      Pvalue.char 0xFFFF;
      Pvalue.Int Int32.min_int;
      Pvalue.Long 0x0102030405060708L;
      Pvalue.Float 1.5;
      Pvalue.Double (-0.25);
      Pvalue.Ref (Pstore.Oid.of_int 123456);
    ]
  in
  List.iter
    (fun v ->
      let w = Codec.writer () in
      Pvalue.encode w v;
      let data = Codec.contents w in
      for len = 0 to String.length data - 1 do
        match Pvalue.decode (Codec.reader (String.sub data 0 len)) with
        | v' ->
          Alcotest.failf "prefix %d of %s decoded as %s" len (Pvalue.to_string v)
            (Pvalue.to_string v')
        | exception Codec.Decode_error _ -> ()
      done;
      check_bool "full data decodes" true
        (Pvalue.equal v (Pvalue.decode (Codec.reader data))))
    samples

(* The same property for a whole image, updated for the v2 salvage
   loader: any truncation still fails outright, and any single-bit
   corruption is either fatal (header, framing, tail) or localised —
   decode succeeds with at least one object quarantined.  No flip goes
   silently unnoticed. *)
let image_truncation_and_corruption () =
  let store = fresh_store () in
  let s = Store.alloc_string store "payload" in
  let r = Store.alloc_record store "C" [| Pvalue.Ref s; Pvalue.Int 7l |] in
  Store.set_root store "r" (Pvalue.Ref r);
  Store.set_blob store "b" "blob";
  let data = Image.encode (Store.contents store) in
  for len = 0 to String.length data - 1 do
    match Image.decode (String.sub data 0 len) with
    | _ -> Alcotest.failf "truncation to %d bytes decoded" len
    | exception (Image.Image_error _ | Codec.Decode_error _) -> ()
  done;
  for off = 0 to String.length data - 1 do
    let corrupt = Bytes.of_string data in
    Bytes.set corrupt off (Char.chr (Char.code (Bytes.get corrupt off) lxor 0x01));
    match Image.decode (Bytes.unsafe_to_string corrupt) with
    | salvaged ->
      if Quarantine.is_empty salvaged.Image.quarantine then
        Alcotest.failf "bit flip at offset %d went undetected" off
    | exception (Image.Image_error _ | Codec.Decode_error _) -> ()
  done;
  ignore (Image.decode data)

(* Salvage precision: a flip inside one entry's payload quarantines
   exactly that object and nothing else; the rest of the image (sibling
   objects, roots, blobs) loads intact. *)
let image_salvage_is_precise () =
  let store = fresh_store () in
  let victim = Store.alloc_string store "sentinel-victim-payload" in
  let sibling = Store.alloc_string store "sibling" in
  Store.set_root store "sib" (Pvalue.Ref sibling);
  Store.set_blob store "b" "blob";
  let data = Image.encode (Store.contents store) in
  let needle = "sentinel-victim-payload" in
  let off =
    let rec find i =
      if i + String.length needle > String.length data then
        Alcotest.fail "sentinel not found in image"
      else if String.equal (String.sub data i (String.length needle)) needle then i
      else find (i + 1)
    in
    find 0
  in
  let corrupt = Bytes.of_string data in
  Bytes.set corrupt off (Char.chr (Char.code (Bytes.get corrupt off) lxor 0xff));
  let salvaged = Image.decode (Bytes.unsafe_to_string corrupt) in
  check_int "exactly one quarantined" 1 (Quarantine.size salvaged.Image.quarantine);
  check_bool "victim quarantined" true (Quarantine.mem salvaged.Image.quarantine victim);
  (match Heap.find salvaged.Image.heap sibling with
  | Some (Heap.Str s) -> check_output "sibling intact" "sibling" s
  | _ -> Alcotest.fail "sibling lost in salvage");
  check_bool "root intact" true
    (match Roots.find salvaged.Image.roots "sib" with
    | Some (Pvalue.Ref oid) -> Oid.equal oid sibling
    | _ -> false);
  check_bool "blob intact" true (Hashtbl.find_opt salvaged.Image.blobs "b" = Some "blob")

let suite =
  [
    test "integer round trips" roundtrip_ints;
    test "string round trips" roundtrip_strings;
    test "float round trips" roundtrip_floats;
    test "container round trips" roundtrip_containers;
    test "truncated input fails cleanly" truncated_input_fails;
    test "invalid boolean byte fails" bad_bool_fails;
    test "crc32 known values" crc32_known_values;
    test "crc32 matches a bytewise reference" crc32_matches_reference;
    test "crc32_sub rejects bad ranges" crc32_sub_rejects_bad_ranges;
    test "image trailer crc is pinned" image_trailer_crc_is_pinned;
    test "pvalue truncation at every offset" pvalue_truncation_at_every_offset;
    test "image truncation and corruption detected" image_truncation_and_corruption;
    test "image salvage is precise" image_salvage_is_precise;
  ]

(* Property: any sequence of puts reads back identically. *)
let prop_roundtrip =
  let gen =
    QCheck2.Gen.(
      list
        (oneof
           [
             map (fun n -> `I32 n) int32;
             map (fun n -> `I64 n) int64;
             map (fun s -> `Str s) string;
             map (fun b -> `Bool b) bool;
             map (fun n -> `U8 (abs n mod 256)) int;
           ]))
  in
  QCheck2.Test.make ~name:"codec round-trips arbitrary put sequences" ~count:200 gen
    (fun items ->
      let w = Codec.writer () in
      List.iter
        (function
          | `I32 n -> Codec.put_i32 w n
          | `I64 n -> Codec.put_i64 w n
          | `Str s -> Codec.put_string w s
          | `Bool b -> Codec.put_bool w b
          | `U8 n -> Codec.put_u8 w n)
        items;
      let r = Codec.reader (Codec.contents w) in
      List.for_all
        (function
          | `I32 n -> Codec.get_i32 r = n
          | `I64 n -> Codec.get_i64 r = n
          | `Str s -> Codec.get_string r = s
          | `Bool b -> Codec.get_bool r = b
          | `U8 n -> Codec.get_u8 r = n)
        items
      && Codec.at_end r)

(* Property: an arbitrary Pvalue.t survives encode/decode, and every
   strict prefix of its encoding raises Decode_error. *)
let prop_pvalue_roundtrip =
  let gen =
    QCheck2.Gen.(
      oneof
        [
          return Pvalue.Null;
          map (fun b -> Pvalue.Bool b) bool;
          map (fun n -> Pvalue.byte (n mod 128)) int;
          map (fun n -> Pvalue.short (n mod 32768)) int;
          map (fun n -> Pvalue.char (abs (n mod 65536))) int;
          map (fun n -> Pvalue.Int n) int32;
          map (fun n -> Pvalue.Long n) int64;
          map (fun f -> Pvalue.Float (if Float.is_nan f then 0. else f)) float;
          map (fun f -> Pvalue.Double (if Float.is_nan f then 0. else f)) float;
          map (fun n -> Pvalue.Ref (Pstore.Oid.of_int (n land max_int))) int;
        ])
  in
  QCheck2.Test.make ~name:"pvalue encode/decode identity" ~count:500 gen (fun v ->
      let w = Codec.writer () in
      Pvalue.encode w v;
      let data = Codec.contents w in
      let r = Codec.reader data in
      let v' = Pvalue.decode r in
      let prefixes_fail = ref true in
      for len = 0 to String.length data - 1 do
        (match Pvalue.decode (Codec.reader (String.sub data 0 len)) with
        | _ -> prefixes_fail := false
        | exception Codec.Decode_error _ -> ())
      done;
      Pvalue.equal v v' && Codec.at_end r && !prefixes_fail)

let props =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_pvalue_roundtrip;
  ]
