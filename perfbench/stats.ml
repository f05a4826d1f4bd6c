(* Order statistics over float samples. *)

(* Linear interpolation between closest ranks of an ascending array; [nan]
   on no samples. *)
let quantile_sorted q a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let sorted_array a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let quantile q xs = quantile_sorted q (sorted_array (Array.of_list xs))
let median xs = quantile 0.5 xs
