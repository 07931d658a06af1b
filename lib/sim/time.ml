type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec s = int_of_float (Float.round (s *. 1e9))
let minutes n = n * 60_000_000_000
let to_sec t = float_of_int t /. 1e9
let to_ms t = float_of_int t /. 1e6
let add a b = a + b
let diff a b = a - b
let max (a : t) b = Stdlib.max a b
let min (a : t) b = Stdlib.min a b
let compare (a : t) b = Stdlib.compare a b

let ticks t ~shift = t asr shift

let of_rate ~bits ~bps =
  if bps <= 0.0 then invalid_arg "Time.of_rate: non-positive rate";
  int_of_float (Float.round (float_of_int bits /. bps *. 1e9))

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dns" t
  else if a < 1_000_000 then Format.fprintf fmt "%.2fus" (float_of_int t /. 1e3)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.2fms" (to_ms t)
  else Format.fprintf fmt "%.3fs" (to_sec t)

let to_string t = Format.asprintf "%a" pp t
