let mean xs =
  assert (Array.length xs > 0);
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let geomean xs =
  assert (Array.length xs > 0);
  let acc = Array.fold_left (fun acc x -> assert (x > 0.0); acc +. log x) 0.0 xs in
  exp (acc /. float_of_int (Array.length xs))

let variance xs =
  let m = mean xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
  /. float_of_int (Array.length xs)

let stddev xs = sqrt (variance xs)

let minimum xs = Array.fold_left min xs.(0) xs
let maximum xs = Array.fold_left max xs.(0) xs

let percentile xs p =
  assert (Array.length xs > 0 && p >= 0.0 && p <= 100.0);
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile xs 50.0

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let summarize xs =
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = minimum xs;
    max = maximum xs;
    median = median xs;
  }
