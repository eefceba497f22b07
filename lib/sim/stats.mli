(** Measurement helpers: one latency histogram, counters and
    named-counter registries, shared by the kernel instrumentation and the
    benches. *)

(** {2 Latency histograms}

    A log-linear histogram over nanosecond values. Count, sum, min and
    max are exact. Every value below 64 ns has a bucket of its own; above
    that each power of two is split into 32 equal sub-buckets, up to
    2{^40} ns (about 18 minutes). Values at or above 2{^40} ns share the
    last bucket. The bucket array is fixed (1152 ints), however many
    values are added, and the bucket index is found in constant time.

    {b Quantile rule and error bound.} [percentile] and [quantile] pick
    the nearest rank [r = round(p/100 * (n-1))] of the [n] values. Rank 0
    is the exact min and rank [n-1] the exact max. Any other rank reports
    the middle of the integer range of the bucket that holds it, clamped
    to [[min, max]]. For values below 2{^40} ns the estimate is therefore
    within 1/64 of the exact nearest-rank value (half a sub-bucket, inside
    the 1/32 sub-bucket width). Values below 64 ns and a constant series
    are exact. Bucket lists of histograms can be merged by adding the
    counts of equal buckets, and the rule gives the same bound over the
    merged list. *)

type histogram

val histogram : unit -> histogram

(** Record a nanosecond value. *)
val add : histogram -> int64 -> unit

val count : histogram -> int

val sum : histogram -> float

(** 0 when empty, as are [min_value] and [max_value]. *)
val mean : histogram -> float

val min_value : histogram -> float

val max_value : histogram -> float

(** Non-empty buckets as [(lo_ns, hi_ns, count)], ascending; a bucket
    holds the values in [[lo_ns, hi_ns)]. *)
val buckets : histogram -> (int64 * int64 * int) list

(** [percentile h 99.] is p99 in nanoseconds, by the rule above; 0 when
    [h] is empty. Equal to [quantile] over [h]'s own [buckets]. *)
val percentile : histogram -> float -> float

(** The same rule over an exported or merged bucket list with its total
    [count] and exact [min] and [max]. *)
val quantile :
  count:int -> min:float -> max:float -> (int64 * int64 * int) list -> float -> float

type counter

val counter : unit -> counter

val incr : counter -> unit

val incr_by : counter -> int -> unit

val get : counter -> int

(** Named counters for kernel event accounting. *)
type registry

val registry : unit -> registry

val find : registry -> string -> counter

val bump : ?by:int -> registry -> string -> unit

val value : registry -> string -> int

val to_list : registry -> (string * int) list
