(* Order statistics over latency samples.

   Percentiles interpolate linearly between closest ranks (the same rule
   as Python's statistics.quantiles with method="inclusive"), so a
   reported value is never just "the maximum" when enough samples exist. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* [q] in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

(* The highest percentile, capped at p99, that leaves at least ten
   samples beyond it: p99 needs 1000 samples, a 400-sample run reports
   p97.5.  Returns (quantile, value). *)
let tail xs =
  let n = List.length xs in
  let q = if n <= 10 then 0.5 else Float.min 0.99 (1. -. (10. /. float_of_int n)) in
  (q, quantile xs q)

let sum xs = List.fold_left ( +. ) 0. xs
