let geomean = function
  | [] -> invalid_arg "Summary.geomean: empty"
  | xs ->
    let n = List.length xs in
    let log_sum =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Summary.geomean: non-positive element";
          acc +. log x)
        0.0 xs
    in
    exp (log_sum /. float_of_int n)

let mean = function
  | [] -> invalid_arg "Summary.mean: empty"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let speedup_percent ~baseline ~cycles = ((baseline /. cycles) -. 1.0) *. 100.0

let per_kilo ~count ~total =
  if total = 0 then 0.0 else float_of_int count /. float_of_int total *. 1000.0
