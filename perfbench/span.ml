(* Causal spans recorded around calls into the system's layers.

   Every span is named <layer>.<function>, carries its own id, the id of
   the span that caused it and the request it belongs to.  Spans are kept
   in memory and written out when the run ends (Chrome trace-event JSON,
   viewable in Perfetto or about:tracing).  Recording is a switch: with
   it off, [call] is a direct call of the thunk, which is how the traced
   and the untraced mirror runs differ. *)

type t = {
  name : string;
  id : int;
  parent : int;  (* 0 = a request span *)
  req : int;
  t0 : float;
  mutable t1 : float;
}

let on = ref false
let recorded : t list ref = ref []
let next_id = ref 1
let stack : (int * int) list ref = ref [] (* (span id, request id), innermost first *)

let reset () =
  recorded := [];
  next_id := 1;
  stack := []

(* Monotonic, nanosecond-resolution seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The clock is read first on entry and last on exit, so the span's own
   bookkeeping is charged to the span it records, not to its parent's
   self time. *)
let enter ~parent ~req name ?rename f =
  let t0 = now () in
  let id = !next_id in
  incr next_id;
  stack := (id, req) :: !stack;
  let finish () =
    stack := List.tl !stack;
    let name = match rename with Some r -> r name | None -> name in
    let s = { name; id; parent; req; t0; t1 = t0 } in
    recorded := s :: !recorded;
    s.t1 <- now ()
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* A request: the root of one span tree. *)
let request ~req name f = if !on then enter ~parent:0 ~req name f else f ()

(* A layer call inside the current request.  [rename] may relabel the
   span once the call has returned (a commit that compacted). *)
let call ?rename name f =
  if not !on then f ()
  else
    match !stack with
    | (parent, req) :: _ -> enter ~parent ~req name ?rename f
    | [] -> enter ~parent:0 ~req:0 name ?rename f

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
let duration s = s.t1 -. s.t0
let all () = List.rev !recorded

(* Self time of every span: its duration minus what its children cover. *)
let self_times spans =
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_sum s.parent
          (duration s +. Option.value (Hashtbl.find_opt child_sum s.parent) ~default:0.))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value (Hashtbl.find_opt child_sum s.id) ~default:0.))
    spans

(* Share of each request span covered by its direct children. *)
let coverage spans =
  let self = self_times spans in
  List.filter_map
    (fun (s, self) ->
      if s.parent = 0 && duration s > 0. then Some (1. -. (self /. duration s)) else None)
    self

let write_chrome path spans =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name (layer s.name)
        ((s.t0 -. base) *. 1e6)
        (duration s *. 1e6)
        (s.req mod 64) s.id s.parent s.req)
    spans;
  output_string oc "]}\n"
