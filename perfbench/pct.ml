(* Order statistics over float samples. Percentiles use the nearest-rank
   definition, so "k samples beyond p" is exact: the p-th percentile of n
   sorted samples is the one at rank ceil(p * n), and n - ceil(p * n)
   samples lie strictly beyond that rank. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let rank ~n p = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let percentile a p =
  let n = Array.length a in
  if n = 0 then 0. else (sorted a).(rank ~n p - 1)

let median a = percentile a 0.5

(* first and third quartile, nearest-rank *)
let quartiles a = (percentile a 0.25, percentile a 0.75)

(* The tail percentiles a report may use, highest first. A higher one
   (p99.9) would always rest on 10 to 99 samples once it qualifies, and
   such a thin tail moves by a fifth from seed to seed. *)
let tail_candidates = [ ("p99", 0.99); ("p90", 0.9) ]

(* [tail a] is the highest candidate percentile with at least ten
   samples beyond it, with its name. Below 100 samples not even p90 has
   ten beyond it; the maximum is reported then, named "max". *)
let tail a =
  let n = Array.length a in
  match
    List.find_opt (fun (_, p) -> n - rank ~n p >= 10) tail_candidates
  with
  | Some (name, p) -> (name, percentile a p)
  | None -> ("max", percentile a 1.0)
