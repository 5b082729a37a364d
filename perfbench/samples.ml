(* Raw samples and the statistics reported from them.

   Every percentile is read off all of the run's raw samples, sorted,
   with linear interpolation between the two closest ranks (position
   p * (n - 1)), so a 1% change in the underlying latencies moves the
   reported value by about 1% — no histogram buckets in between.

   Samples are nanoseconds kept as 32-bit integers in fixed-size chunks
   outside the OCaml heap.  The store is part of peak_rss_mb on the
   in-process workloads, and it grows with the number of operations a
   run completes; 4 bytes a sample, added a chunk at a time, keep that
   share small (under 5 MB for a million samples) and never double it at
   once. *)

open Bigarray

let chunk_size = 65_536

type chunk = (int32, int32_elt, c_layout) Array1.t

type t = {
  mutable full : chunk list;
  mutable cur : chunk;
  mutable fill : int;
  mutable n : int;
  mutable sum : int;
}

let new_chunk () : chunk = Array1.create int32 c_layout chunk_size
let create () = { full = []; cur = new_chunk (); fill = 0; n = 0; sum = 0 }

(* A sample above 2^31 - 1 ns (2.1 s) is stored as that; no timed
   operation of the benchmark comes near it. *)
let add t v =
  if t.fill = chunk_size then begin
    t.full <- t.cur :: t.full;
    t.cur <- new_chunk ();
    t.fill <- 0
  end;
  Array1.set t.cur t.fill (Int32.of_int (min v 0x7fff_ffff));
  t.fill <- t.fill + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v

let count t = t.n
let mean t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n

let sorted t =
  let s = Array.make t.n 0. and i = ref 0 in
  List.iter
    (fun (c, len) ->
      for k = 0 to len - 1 do
        s.(!i) <- Int32.to_float (Array1.get c k);
        incr i
      done)
    ((t.cur, t.fill) :: List.map (fun c -> (c, chunk_size)) t.full);
  Array.sort Float.compare s;
  s

let interpolate (s : float array) p =
  let n = Array.length s in
  if n = 0 then 0.
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1) else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let quantile t p = interpolate (sorted t) p

(* Quantile [p] of a handful of floats (set-ups, reopens). *)
let quartile l p =
  match l with
  | [] -> 0.
  | l ->
      let s = Array.of_list l in
      Array.sort Float.compare s;
      interpolate s p

let median l = quartile l 0.5

(* A latency series and the wall time its operations took: throughput is
   operations over that wall time, percentiles come from every sample. *)
module Series = struct
  type nonrec t = { lat : t; mutable wall : int }

  let create () = { lat = create (); wall = 0 }
  let add s ns = add s.lat ns
  let add_wall s ns = s.wall <- s.wall + ns
  let count s = s.lat.n
  let mean s = mean s.lat
  let tput s = if s.wall = 0 then 0. else float_of_int s.lat.n /. (float_of_int s.wall /. 1e9)

  (* p50, p90 and p99 from one sort.  The p99 is a tail only with at
     least ten samples beyond it, i.e. 1,000 samples; every series of
     every workload holds more, and [Report] prints the count beside it. *)
  let percentiles s =
    let a = sorted s.lat in
    (interpolate a 0.5, interpolate a 0.9, interpolate a 0.99)
end
