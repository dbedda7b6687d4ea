let percentile xs p =
  if Float.is_nan p || p < 0. || p > 100. then
    invalid_arg "Stats.percentile: p must be in [0, 100]";
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    sorted.(idx)
  end
