(* Shared plumbing for the E2E suites: sandbox directories and the
   subprocess assertion helpers (test/support/subprocess.ml).  Every
   test here talks to bin/hpjava as a black-box subprocess. *)

include Test_support.Support
include Test_support.Subprocess

let with_dir f = with_dir ~prefix:"e2e" f

(* A sandbox with a store made by `hpjava init <init_args> STORE`;
   returns the store path and a place to drop source files. *)
let with_store ?(init_args = [ "--journalled" ]) f =
  with_dir @@ fun dir ->
  let store = Filename.concat dir "store.hpj" in
  expect_ok (hpjava ([ "init" ] @ init_args @ [ store ]));
  f ~dir ~store

let write_src ~dir name source =
  let path = Filename.concat dir name in
  write_file path source;
  path

(* The full suite is time-boxed by default; E2E_FULL=1 unlocks the long
   randomized sweeps (the @e2e-full alias). *)
let full_mode () = Sys.getenv_opt "E2E_FULL" = Some "1"
