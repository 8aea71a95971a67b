(* Seeded inputs: hyper-sources, class sources and the skewed link
   chooser.  Everything the program receives is generated here from the
   run's seed; nothing else varies between two runs with one seed. *)

let rng seed stream = Random.State.make [| seed; stream; 0x6870 |]

(* The persistent objects every starting store holds: roots p0..p3, each
   a Person, the targets of the object links below. *)
let people = 4
let person_source =
  "public class Person {\n  private String name;\n  public Person(String n) { name = n; }\n\
  \  public String toString() { return \"Person(\" + name + \")\"; }\n}\n"

let person_root k = Printf.sprintf "p%d" k
let person_name k = Printf.sprintf "name%d" k

(* A link as a generated source declares it; [spec] is its "//! link"
   text.  The benchmark checks get-link answers against these values. *)
type link = Int of int | Long of int | Double of float | Root of int  (* person k *)

let spec = function
  | Int n -> Printf.sprintf "int %d" n
  | Long n -> Printf.sprintf "long %d" n
  | Double x -> Printf.sprintf "double %.2f" x
  | Root k -> Printf.sprintf "root %s" (person_root k)

let header links = String.concat "" (List.mapi (fun j l -> Printf.sprintf "//! link %d: %s\n" j (spec l)) links)

(* wire-write: a fresh program per edit with primitive and object links.
   Returns the source and its links. *)
let write_source rng ~conn ~round =
  let cls = Printf.sprintf "W%d_%d" conn round in
  let n = Random.State.int rng 100000 in
  let p = Random.State.int rng people in
  let links = [ Int n; Root p; Double (float_of_int (n mod 97) +. 0.5) ] in
  ( Printf.sprintf
      "//! class: %s\n%spublic class %s {\n  public static void main(String[] args) {\n\
      \    System.println(\"v=\" + (#<0> + 1) + \" \" + #<1>.toString() + \" d=\" + #<2>);\n  }\n}\n"
      cls (header links) cls,
    links )

(* wire-read: the pre-populated programs, [read_links] links each. *)
let read_programs = 256
let read_links = 8

let read_source rng i =
  let cls = Printf.sprintf "R%d" i in
  let link j =
    match j mod 4 with
    | 0 -> Int (Random.State.int rng 1_000_000)
    | 1 -> Root (Random.State.int rng people)
    | 2 -> Double (float_of_int (Random.State.int rng 1000) +. 0.25)
    | _ -> Long (Random.State.int rng 1_000_000_000)
  in
  let links = List.init read_links link in
  let uses =
    String.concat " + \" \" + "
      (List.init read_links (fun j -> if j mod 4 = 1 then Printf.sprintf "#<%d>.toString()" j else Printf.sprintf "#<%d>" j))
  in
  ( Printf.sprintf
      "//! class: %s\n%spublic class %s {\n  public static void main(String[] args) {\n\
      \    System.println(\"\" + %s);\n  }\n}\n"
      cls (header links) cls uses,
    links )

(* cli: the Go pool.  Even members have primitive links only (their
   textual form is stable, so the compile cache can answer them); odd
   members link a persistent object, whose textual form embeds a fresh
   registry uid on every translation.  Returns the source and the lines
   the run must print. *)
let go_pool = 48

let go_program rng i =
  let cls = Printf.sprintf "G%d" i in
  let a = Random.State.int rng 10000 in
  if i mod 2 = 0 then begin
    let b = Random.State.int rng 10000 and d = Random.State.int rng 100 in
    ( Printf.sprintf
        "//! class: %s\n//! link 0: int %d\n//! link 1: int %d\n//! link 2: double %d.5\n\
         public class %s {\n  public static void main(String[] args) {\n\
        \    System.println(\"%s sum=\" + (#<0> + #<1>) + \" d=\" + #<2>);\n  }\n}\n"
        cls a b d cls cls,
      [ Printf.sprintf "%s sum=%d d=%d.5" cls (a + b) d; Printf.sprintf "ran %s.main" cls ] )
  end
  else begin
    let p = Random.State.int rng people in
    ( Printf.sprintf
        "//! class: %s\n//! link 0: int %d\n//! link 1: root %s\n\
         public class %s {\n  public static void main(String[] args) {\n\
        \    System.println(\"%s v=\" + (#<0> * 2) + \" o=\" + #<1>.toString());\n  }\n}\n"
        cls a (person_root p) cls cls,
      [
        Printf.sprintf "%s v=%d o=Person(%s)" cls (a * 2) (person_name p);
        Printf.sprintf "ran %s.main" cls;
      ] )
  end

(* cli: stored programs for print-hp, and small classes for compile. *)
let query_programs = 4

let query_source k =
  Printf.sprintf
    "//! class: Q%d\n//! link 0: int %d\n//! link 1: root %s\npublic class Q%d {\n\
    \  public static void main(String[] args) {\n\
    \    System.println(\"q\" + #<0> + #<1>.toString());\n  }\n}\n"
    k (k * 7) (person_root (k mod people)) k

let helper_classes = 8
let helper_source k = Printf.sprintf "public class H%d {\n  public static int f() { return %d; }\n}\n" k k

(* A skewed chooser over [n] items: item i has weight 1/(i+1)^s, behind a
   seeded permutation so the hot items are not the first registered. *)
type skew = { cdf : float array; perm : int array }

let skew rng ~n ~s =
  let w = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  { cdf; perm }

let pick rng sk =
  let u = Random.State.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length sk.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sk.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  sk.perm.(!lo)
