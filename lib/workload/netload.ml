(* Many-client network load against a live `hpjava serve`.

   Drives K in-process wire-protocol clients (Server.Client) over one
   Unix socket, so the measured RTTs are pure request/answer cost —
   connect+hello, browse, edit, commit, get-link — with none of the
   process-start overhead the subprocess scenarios deliberately include.
   Every round contends all K clients on the same root, so with K >= 2
   each round is guaranteed to produce first-committer-wins conflicts:
   the conflict count is an assertion, not a curiosity. *)

module Client = Server.Client
module Protocol = Server.Protocol

type result = {
  clients : int;
  rounds : int;
  connections : int;
  connect_total_s : float;  (* wall time spent in connect+hello *)
  samples : (string * float list) list;  (* op class -> RTT ns, first-use order *)
  commits : int;
  conflicts : int;  (* typed conflict frames answered (first committer wins) *)
  errors : int;  (* typed error frames answered *)
  elapsed_s : float;
}

let connections_per_sec r =
  float_of_int r.connections /. Float.max r.connect_total_s 1e-9

(* A tiny hyper-source with one primitive link, unique per (client,
   round) so every edit registers a fresh program. *)
let source ~client ~round =
  Printf.sprintf
    "//! class: Net%d_%d\n//! link 0: int %d\npublic class Net%d_%d {\n  // value #<0>\n}\n"
    client round
    ((client * 1000) + round)
    client round

(* The uid out of the edit answer ("... -> hyper-program N (@M); ..."). *)
let uid_of_edit_answer text =
  let pat = "hyper-program " in
  let n = String.length pat in
  let rec find i =
    if i + n > String.length text then None
    else if String.sub text i n = pat then begin
      let stop = ref (i + n) in
      while !stop < String.length text && text.[!stop] >= '0' && text.[!stop] <= '9' do
        incr stop
      done;
      int_of_string_opt (String.sub text (i + n) (!stop - (i + n)))
    end
    else find (i + 1)
  in
  find 0

let run ~socket ~clients ~rounds () =
  let t_start = Unix.gettimeofday () in
  let order = ref [] in
  let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 8 in
  let record op ns =
    match Hashtbl.find_opt samples op with
    | Some b -> b := ns :: !b
    | None ->
      Hashtbl.add samples op (ref [ ns ]);
      order := op :: !order
  in
  let timed op f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    record op ((Unix.gettimeofday () -. t0) *. 1e9);
    r
  in
  let commits = ref 0 and conflicts = ref 0 and errors = ref 0 in
  let count = function
    | Protocol.Refused _ -> incr errors
    | _ -> ()
  in
  let t_conn = Unix.gettimeofday () in
  let conns =
    List.init clients (fun _ ->
        timed "net-connect" (fun () -> Client.connect (Client.unix_addr socket)))
  in
  let connect_total_s = Unix.gettimeofday () -. t_conn in
  let link_target = ref None in
  for round = 0 to rounds - 1 do
    (* Everyone edits the same root under the snapshots pinned after the
       previous round; then the commits race in turn — the first wins,
       every later one gets the typed conflict (and a fresh session). *)
    List.iteri
      (fun i c ->
        let answer =
          timed "net-edit" (fun () ->
              Client.rpc c
                (Protocol.Edit { root = "shared"; source = source ~client:i ~round }))
        in
        count answer;
        match answer with
        | Protocol.Ok_text text ->
          if !link_target = None then link_target := uid_of_edit_answer text
        | _ -> ())
      conns;
    List.iter
      (fun c ->
        let answer = timed "net-commit" (fun () -> Client.rpc c Protocol.Commit) in
        count answer;
        match answer with
        | Protocol.Ok_text _ -> incr commits
        | Protocol.Conflict _ -> incr conflicts
        | _ -> ())
      conns;
    List.iter
      (fun c -> count (timed "net-roots" (fun () -> Client.rpc c (Protocol.Browse Protocol.Roots))))
      conns;
    match !link_target with
    | None -> ()
    | Some hp ->
      List.iter
        (fun c ->
          count (timed "net-get-link" (fun () -> Client.rpc c (Protocol.Get_link { hp; link = 0 }))))
        conns
  done;
  List.iter Client.close conns;
  {
    clients;
    rounds;
    connections = clients;
    connect_total_s;
    samples = List.rev_map (fun op -> (op, !(Hashtbl.find samples op))) !order;
    commits = !commits;
    conflicts = !conflicts;
    errors = !errors;
    elapsed_s = Unix.gettimeofday () -. t_start;
  }
