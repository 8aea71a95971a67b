(* Closed-loop clients and the checks on every answer they get.

   A client sends its next request only once the previous answer is in.
   The same client code drives the real server (over its Unix socket) and
   the traced in-process mirror: only the transport differs. *)

module Client = Server.Client
module Protocol = Server.Protocol
module Frame = Server.Frame
module Subproc = Workload.Subproc

(* -- accounting ----------------------------------------------------------- *)

type acc = {
  mutable samples : (string * float) list;  (* op class, latency in ms *)
  mutable attempted : int;
  mutable failed : int;
  mutable commit_attempts : int;
  mutable commits : int;  (* acknowledged *)
  mutable conflicts : int;
  mutable errors : string list;  (* the first few failures, for the log *)
}

let new_acc () =
  { samples = []; attempted = 0; failed = 0; commit_attempts = 0; commits = 0; conflicts = 0; errors = [] }

let merge accs =
  let m = new_acc () in
  List.iter
    (fun a ->
      m.samples <- a.samples @ m.samples;
      m.attempted <- m.attempted + a.attempted;
      m.failed <- m.failed + a.failed;
      m.commit_attempts <- m.commit_attempts + a.commit_attempts;
      m.commits <- m.commits + a.commits;
      m.conflicts <- m.conflicts + a.conflicts;
      m.errors <- a.errors @ m.errors)
    accs;
  m

let fail acc what =
  acc.failed <- acc.failed + 1;
  if List.length acc.errors < 8 then acc.errors <- what :: acc.errors

(* One operation: counted as attempted, timed, and counted as failed if
   it raises.  The caller checks the answer and calls [fail] on a wrong
   one. *)
let op acc cls f =
  acc.attempted <- acc.attempted + 1;
  let t0 = Span.now () in
  let finish () = acc.samples <- (cls, (Span.now () -. t0) *. 1e3) :: acc.samples in
  match f () with
  | r ->
    finish ();
    Some r
  | exception e ->
    finish ();
    fail acc (cls ^ ": " ^ Printexc.to_string e);
    None

let latencies acc cls = List.filter_map (fun (c, ms) -> if c = cls then Some ms else None) acc.samples
let all_latencies acc = List.map snd acc.samples

let contains = Subproc.contains

(* -- transports ------------------------------------------------------------ *)

type link = {
  rpc : Protocol.request -> Protocol.response;
  close : unit -> unit;
}

type transport = {
  connect : unit -> link;
  page : int -> string;  (* the dashboard page /hp/<uid>, raw HTTP answer *)
}

(* Samples taken by the real transport, shared by the client threads. *)
type wire_stats = {
  lock : Mutex.t;
  mutable connect_ms : float list;  (* socket connect, wire and HTTP *)
  keep : bool;  (* keep every answer, to count response bytes afterwards *)
  mutable answers : Protocol.response list ref list;  (* one list per connection *)
}

let new_wire_stats ?(keep = false) () = { lock = Mutex.create (); connect_ms = []; keep; answers = [] }

(* Bytes of the response frames the server wrote on the kept
   connections.  The frames are encoded again here, after the run, so
   the timed requests carry none of this work. *)
let response_bytes ws =
  List.fold_left
    (fun n answers ->
      List.fold_left (fun n r -> n + String.length (Frame.encode (Protocol.encode_response r))) n !answers)
    0 ws.answers

let locked ws f =
  Mutex.lock ws.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock ws.lock) f

let timed_connect ws fd addr =
  let t0 = Span.now () in
  Unix.connect fd addr;
  let ms = (Span.now () -. t0) *. 1e3 in
  locked ws (fun () -> ws.connect_ms <- ms :: ws.connect_ms)

let http_get ws socket path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  timed_connect ws fd (Unix.ADDR_UNIX socket);
  Frame.really_write fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec read () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      read ()
  in
  read ();
  Buffer.contents buf

let real ws socket =
  let connect () =
    let t0 = Span.now () in
    let c = Client.connect (Client.unix_addr socket) in
    let ms = (Span.now () -. t0) *. 1e3 in
    locked ws (fun () -> ws.connect_ms <- ms :: ws.connect_ms);
    let rpc =
      if not ws.keep then Client.rpc c
      else begin
        let answers = ref [] in
        locked ws (fun () -> ws.answers <- answers :: ws.answers);
        fun req ->
          let r = Client.rpc c req in
          answers := r :: !answers;
          r
      end
    in
    { rpc; close = (fun () -> Client.close c) }
  in
  { connect; page = (fun uid -> http_get ws socket (Printf.sprintf "/hp/%d" uid)) }

let mirror srv =
  {
    connect =
      (fun () ->
        let c = Mirror.connect srv in
        { rpc = Mirror.rpc c; close = ignore });
    page = Mirror.page srv;
  }

(* Run [clients] closed loops until [deadline] (monotonic seconds) or
   until [budget] operations were attempted in total.  Against the real
   server each client is a thread with one request outstanding; against
   the in-process mirror (~threads:false) the clients take turns, one
   step each, so a seed replays the same interleaving. *)
let run_clients ?(threads = true) ~clients ~deadline ~budget step =
  let accs = Array.init clients (fun _ -> new_acc ()) in
  let attempted () = Array.fold_left (fun n a -> n + a.attempted) 0 accs in
  let go () = Span.now () < deadline && attempted () < budget in
  let guarded i f = try f () with e -> fail accs.(i) ("client: " ^ Printexc.to_string e) in
  if threads then begin
    let body i = guarded i (fun () -> while go () do step i accs.(i) done) in
    List.iter Thread.join (List.init clients (fun i -> Thread.create body i))
  end
  else begin
    let turn = ref 0 in
    guarded 0 (fun () ->
        while go () do
          step (!turn mod clients) accs.(!turn mod clients);
          incr turn
        done)
  end;
  Array.to_list accs

(* -- answers --------------------------------------------------------------- *)

let describe = Protocol.describe_response

(* "... -> hyper-program UID (@OID); ..." *)
let edit_answer text =
  match Workload.Netload.uid_of_edit_answer text with
  | None -> None
  | Some uid -> (
    match String.index_opt text '@' with
    | None -> None
    | Some i ->
      let j = ref (i + 1) in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
        incr j
      done;
      Option.map (fun oid -> (uid, oid)) (int_of_string_opt (String.sub text (i + 1) (!j - i - 1))))

let lines text = List.length (String.split_on_char '\n' (String.trim text))

(* -- wire-write ------------------------------------------------------------- *)

(* Rounds per private root before the name is reused; one in four
   rounds targets the shared root instead. *)
let private_roots = 16
let shared_root = "shared"

type writer = {
  conn : int;
  rng : Random.State.t;
  mutable round : int;
  acked : (string, int) Hashtbl.t;  (* private root -> oid of the last acknowledged commit *)
  mutable shared_acked : int list;  (* oids ever acknowledged on the shared root *)
  links : (int * int, string * Gen.link) Hashtbl.t;  (* (uid, link) -> get-link answer, declared link *)
}

let writer ~seed conn =
  { conn; rng = Gen.rng seed (100 + conn); round = 0; acked = Hashtbl.create 16; shared_acked = []; links = Hashtbl.create 64 }

(* edit -> commit (one retry after a lost race) -> get-link on the new
   program -> browse roots.  The get-link takes the program's links in
   turn from round to round, so object and primitive links alternate. *)
let write_round w link acc =
  let r = w.round in
  w.round <- r + 1;
  let shared = Random.State.int w.rng 4 = 0 in
  let root = if shared then shared_root else Printf.sprintf "c%d_%d" w.conn (r mod private_roots) in
  let rec attempt retried =
    let source, links = Gen.write_source w.rng ~conn:w.conn ~round:r in
    match op acc "edit" (fun () -> link.rpc (Protocol.Edit { root; source })) with
    | None -> None
    | Some (Protocol.Ok_text text) -> begin
      match edit_answer text with
      | None ->
        fail acc ("edit: unparsable answer " ^ text);
        None
      | Some (uid, oid) -> (
        acc.commit_attempts <- acc.commit_attempts + 1;
        match op acc "commit" (fun () -> link.rpc Protocol.Commit) with
        | None -> None
        | Some (Protocol.Ok_text _) ->
          acc.commits <- acc.commits + 1;
          if shared then w.shared_acked <- oid :: w.shared_acked else Hashtbl.replace w.acked root oid;
          Some (uid, oid, links)
        | Some (Protocol.Conflict _) ->
          acc.conflicts <- acc.conflicts + 1;
          if retried then None else attempt true
        | Some other ->
          fail acc ("commit: " ^ describe other);
          None)
    end
    | Some other ->
      fail acc ("edit: " ^ describe other);
      None
  in
  match attempt false with
  | None -> ()
  | Some (uid, oid, links) ->
    (* The answer names the link's object; its value is checked against
       [links] once the run is over (see hpbench's check_links). *)
    let l = r mod List.length links in
    (match op acc "get_link" (fun () -> link.rpc (Protocol.Get_link { hp = uid; link = l })) with
    | Some (Protocol.Ok_text v) when String.length v > 1 && v.[0] = '@' ->
      Hashtbl.replace w.links (uid, l) (v, List.nth links l)
    | Some other -> fail acc ("get_link: " ^ describe other)
    | None -> ());
    (match op acc "browse" (fun () -> link.rpc (Protocol.Browse Protocol.Roots)) with
    | Some (Protocol.Ok_text text) ->
      (* A private root must show this commit; the shared one may already
         show the other client's. *)
      let expect = if shared then shared_root else Printf.sprintf "%-24s @%d" root oid in
      if not (contains text expect) then fail acc ("browse: roots lack " ^ expect)
    | Some other -> fail acc ("browse: " ^ describe other)
    | None -> ())

(* After a restart: every acknowledged commit's root and every recorded
   get-link answer must read back unchanged.  Returns the number of lost
   commits. *)
let read_back writers link acc =
  let lost = ref 0 in
  let root_is name ok =
    match op acc "readback" (fun () -> link.rpc (Protocol.Browse (Protocol.Root name))) with
    | Some (Protocol.Ok_text text) when ok text -> ()
    | Some other ->
      incr lost;
      fail acc (Printf.sprintf "readback %s: %s" name (describe other))
    | None -> incr lost
  in
  List.iter
    (fun w ->
      Hashtbl.iter (fun root oid -> root_is root (fun t -> t = Printf.sprintf "%s = @%d" root oid)) w.acked;
      Hashtbl.iter
        (fun (hp, l) (v, _) ->
          match op acc "readback" (fun () -> link.rpc (Protocol.Get_link { hp; link = l })) with
          | Some (Protocol.Ok_text v') when v' = v -> ()
          | Some other -> fail acc (Printf.sprintf "readback link %d/%d: %s" hp l (describe other))
          | None -> ())
        w.links)
    writers;
  let shared = List.concat_map (fun w -> w.shared_acked) writers in
  if shared <> [] then
    root_is shared_root (fun t -> List.exists (fun oid -> t = Printf.sprintf "%s = @%d" shared_root oid) shared);
  !lost

(* -- wire-read --------------------------------------------------------------- *)

(* The read mix, in percent of requests, and the skew of get-link over
   the link set.  No measurement of real use records these; they are
   assumptions, fixed so that every run means the same.  Get-link
   dominates because the getLink memo is what this workload is for; the
   four browse kinds share one fifth evenly; one request in ten is a
   dashboard page.  With a skew of 0.9 (link i has weight 1/(i+1)^0.9)
   the 512 hottest of the 2048 links draw 77% of the get-links, so the
   512-entry memo matters but cannot hold the working set. *)
let get_link_pct = 70
let browse_pct = 20
let link_skew = 0.9

(* One connection.  The server answers one request at a time, so with
   two a get-link would wait behind the other client's census or page:
   its latency would measure that queue, not the link, and it would
   swing with how the host schedules the three threads. *)
let readers = 1

type catalogue = {
  uids : int array;  (* program i's registry uid *)
  oids : int array;  (* program i's oid (root r<i>) *)
  declared : Gen.link array;  (* link k = i * links + j, as program i's source declares it *)
  expected : string array;  (* get-link answer for link k, checked against [declared] *)
  root_count : int;
  skew : Gen.skew;
}

let read_root i = Printf.sprintf "r%d" i

(* Register the programs through one connection and commit them.
   Returns their uids, their oids and every link they declare. *)
let populate ~seed link =
  let rng = Gen.rng seed 1 in
  let n = Gen.read_programs in
  let uids = Array.make n 0 and oids = Array.make n 0 and declared = ref [] in
  for i = 0 to n - 1 do
    let source, links = Gen.read_source rng i in
    declared := List.rev_append links !declared;
    match link.rpc (Protocol.Edit { root = read_root i; source }) with
    | Protocol.Ok_text text -> (
      match edit_answer text with
      | Some (uid, oid) ->
        uids.(i) <- uid;
        oids.(i) <- oid
      | None -> failwith ("populate: " ^ text))
    | other -> failwith ("populate: " ^ describe other)
  done;
  (match link.rpc Protocol.Commit with
  | Protocol.Ok_text _ -> ()
  | other -> failwith ("populate commit: " ^ describe other));
  (uids, oids, Array.of_list (List.rev !declared))

(* The answers the registered links give, read once after set-up; the
   caller checks them against [declared] in process. *)
let catalogue ~seed link (uids, oids, declared) =
  let n = Array.length uids and l = Gen.read_links in
  let expected =
    Array.init (n * l) (fun k ->
        match link.rpc (Protocol.Get_link { hp = uids.(k / l); link = k mod l }) with
        | Protocol.Ok_text v when String.length v > 1 && v.[0] = '@' -> v
        | other -> failwith ("catalogue: " ^ describe other))
  in
  let root_count =
    match link.rpc (Protocol.Browse Protocol.Roots) with
    | Protocol.Ok_text t -> lines t
    | other -> failwith ("catalogue: " ^ describe other)
  in
  { uids; oids; declared; expected; root_count; skew = Gen.skew (Gen.rng seed 2) ~n:(n * l) ~s:link_skew }

(* One request of the read mix. *)
let read_step cat ~page rng link acc =
  let u = Random.State.int rng 100 in
  let check cls req ok =
    match op acc cls (fun () -> link.rpc req) with
    | Some (Protocol.Ok_text t) when ok t -> ()
    | Some other -> fail acc (cls ^ ": " ^ describe other)
    | None -> ()
  in
  let l = Gen.read_links in
  let any_program () = Random.State.int rng (Array.length cat.uids) in
  if u < get_link_pct then begin
    let k = Gen.pick rng cat.skew in
    check "get_link" (Protocol.Get_link { hp = cat.uids.(k / l); link = k mod l }) (String.equal cat.expected.(k))
  end
  else if u < get_link_pct + browse_pct then begin
    match (u - get_link_pct) * 4 / browse_pct with
    | 0 -> check "browse" (Protocol.Browse Protocol.Roots) (fun t -> lines t = cat.root_count)
    | 1 ->
      let i = any_program () in
      check "browse" (Protocol.Browse (Protocol.Root (read_root i))) (String.equal (Printf.sprintf "%s = @%d" (read_root i) cat.oids.(i)))
    | 2 -> check "browse" (Protocol.Browse Protocol.Programs) (fun t -> lines t = Array.length cat.uids)
    | _ -> check "browse" (Protocol.Browse Protocol.Census) (fun t -> contains t "Person")
  end
  else begin
    let i = any_program () in
    match op acc "page" (fun () -> page cat.uids.(i)) with
    | Some text ->
      if not (contains text "HTTP/1.0 200" && contains text (Printf.sprintf "R%d" i)) then
        fail acc (Printf.sprintf "page %d: unexpected answer" cat.uids.(i))
    | None -> ()
  end

(* -- cli ----------------------------------------------------------------------- *)

(* The seeded command sequence.  Two thirds of the commands are
   read-only and one third writes, as the benchmark's specification
   asks.  Within each group the commands keep the relative weights the
   macro-workload generator (lib/workload/scenario.ml, [generate]) gives
   them: roots, browse, census, print-hp and source one slot each, check
   half a slot; run-hp three slots, compile two, new two.  Go stands in
   for the generator's run-hp.  Each command comes with strings its
   stdout must contain. *)
let query_weights = [ (`Roots, 2); (`Browse, 2); (`Census, 2); (`Print_hp, 2); (`Source, 2); (`Check, 1) ]
let write_weights = [ (`Go, 3); (`Compile, 2); (`New, 2) ]

let weighted rng choices =
  let rec pick n = function
    | [ (c, _) ] -> c
    | (c, w) :: rest -> if n < w then c else pick (n - w) rest
    | [] -> invalid_arg "weighted"
  in
  pick (Random.State.int rng (List.fold_left (fun n (_, w) -> n + w) 0 choices)) choices

let cli_commands ~seed ~dir =
  let rng = Gen.rng seed 3 in
  let expected = Array.init Gen.go_pool (fun i -> snd (Gen.go_program (Gen.rng seed (1000 + i)) i)) in
  let file name = Filename.concat dir name in
  let next step =
    let open Mirror in
    if Random.State.int rng 3 < 2 then
      match weighted rng query_weights with
      | `Roots -> (Roots, [ "hyper.registry"; "p0" ])
      | `Browse -> (Browse, [ "p0" ])
      | `Census -> (Census, [ "Person" ])
      | `Print_hp ->
        let k = Random.State.int rng Gen.query_programs in
        (Print_hp (Printf.sprintf "hp:q%d" k), [ Printf.sprintf "//! class: Q%d" k ])
      | `Source -> (Source "Person", [ "public class Person" ])
      | `Check -> (Check, [ "integrity ok" ])
    else
      match weighted rng write_weights with
      | `Go ->
        let i = Random.State.int rng Gen.go_pool in
        (Go (file (Printf.sprintf "G%d.hp" i)), expected.(i))
      | `Compile ->
        let k = Random.State.int rng Gen.helper_classes in
        (Compile (file (Printf.sprintf "H%d.java" k)), [ Printf.sprintf "compiled H%d" k ])
      | `New ->
        let root = Printf.sprintf "n%d" step and arg = Printf.sprintf "v%d" step in
        (New { cls = "Person"; root; arg }, [ Printf.sprintf "%s = Person(%s)" root arg ])
  in
  next

let cli_class = function
  | Mirror.Go _ -> "go"
  | Mirror.Compile _ | Mirror.New _ -> "write"
  | _ -> "query"

let check_output acc cmd expect out =
  List.iter
    (fun s -> if not (contains out s) then fail acc (Printf.sprintf "%s: output lacks %S" (cli_class cmd) s))
    expect
