(* Streaming statistics: one log-linear latency histogram and named
   counters.

   The histogram keeps count, sum, min and max exactly, plus one fixed
   array of bucket counts. Every value below 64 gets a bucket of its own;
   above that, every power of two [2^e, 2^(e+1)) is cut into 32 equal
   sub-buckets of width 2^(e-5), so a bucket is never wider than 1/32 of
   its lower bound. Values at or above 2^40 share the last bucket. *)

let sub_bits = 5

let sub = 1 lsl sub_bits

let cap_bits = 40

(* 1152 buckets: one per value below 64, then 32 per power of two from
   2^6 up to 2^40. *)
let nbuckets = (cap_bits - sub_bits + 1) lsl sub_bits

type histogram = {
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
  buckets : int array;
}

let histogram () =
  {
    count = 0;
    sum = 0;
    min_v = max_int;
    max_v = min_int;
    buckets = Array.make nbuckets 0;
  }

(* Position of the highest set bit of [v > 0], in six fixed steps. *)
let msb v =
  let n = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then (n := !n + 32; v := !v lsr 32);
  if !v lsr 16 <> 0 then (n := !n + 16; v := !v lsr 16);
  if !v lsr 8 <> 0 then (n := !n + 8; v := !v lsr 8);
  if !v lsr 4 <> 0 then (n := !n + 4; v := !v lsr 4);
  if !v lsr 2 <> 0 then (n := !n + 2; v := !v lsr 2);
  if !v lsr 1 <> 0 then n := !n + 1;
  !n

(* For [v >= sub] with top bit [e], the shift [s = e - 5] leaves
   [v lsr s] in [[32, 64)]; [(s lsl 5) + (v lsr s)] is then contiguous
   with the exact buckets below and grows by 32 per power of two. *)
let bucket_of v =
  if v < sub then max 0 v
  else if v lsr cap_bits <> 0 then nbuckets - 1
  else
    let s = msb v - sub_bits in
    (s lsl sub_bits) + (v lsr s)

(* Bucket [i] covers [[lo, hi)] ns. *)
let bucket_bounds i =
  if i < sub then (i, i + 1)
  else
    let s = (i lsr sub_bits) - 1 and m = i land (sub - 1) + sub in
    (m lsl s, (m + 1) lsl s)

let add h ns =
  let v = Int64.to_int ns in
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v;
  let i = bucket_of v in
  h.buckets.(i) <- h.buckets.(i) + 1

let count h = h.count

let sum h = float_of_int h.sum

let mean h =
  if h.count = 0 then 0. else float_of_int h.sum /. float_of_int h.count

let min_value h = if h.count = 0 then 0. else float_of_int h.min_v

let max_value h = if h.count = 0 then 0. else float_of_int h.max_v

let buckets h =
  let out = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.buckets.(i) > 0 then
      let lo, hi = bucket_bounds i in
      out := (Int64.of_int lo, Int64.of_int hi, h.buckets.(i)) :: !out
  done;
  !out

(* The one quantile rule. The nearest rank [round(p/100 * (n-1))] of
   the sorted samples is located in the buckets; ranks 0 and n-1 are the
   exact min and max, any other rank reports the middle of its bucket's
   integer range, clamped to [[min, max]]. *)
let quantile ~count ~min ~max bucket_list p =
  if count = 0 then 0.
  else
    let r = int_of_float ((p /. 100. *. float_of_int (count - 1)) +. 0.5) in
    let r = Int.max 0 (Int.min (count - 1) r) in
    if r = 0 then min
    else if r = count - 1 then max
    else
      let rec go seen = function
        | [] -> max
        | (lo, hi, n) :: rest ->
          if seen + n > r then
            let mid = (Int64.to_float lo +. Int64.to_float hi -. 1.) /. 2. in
            Float.min max (Float.max min mid)
          else go (seen + n) rest
      in
      go 0 bucket_list

let percentile h p =
  quantile ~count:h.count ~min:(min_value h) ~max:(max_value h) (buckets h) p

type counter = { mutable n : int }

let counter () = { n = 0 }

let incr c = c.n <- c.n + 1

let incr_by c k = c.n <- c.n + k

let get c = c.n

(* A set of named counters, used by cells and benches for event accounting. *)
type registry = (string, counter) Hashtbl.t

let registry () : registry = Hashtbl.create 32

let find (r : registry) name =
  match Hashtbl.find_opt r name with
  | Some c -> c
  | None ->
    let c = counter () in
    Hashtbl.replace r name c;
    c

let bump ?(by = 1) r name = incr_by (find r name) by

let value r name = match Hashtbl.find_opt r name with Some c -> c.n | None -> 0

let to_list (r : registry) =
  Hashtbl.fold (fun k c acc -> (k, c.n) :: acc) r []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
