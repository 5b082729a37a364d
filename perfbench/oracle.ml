(* The benchmark's own answer key: a brute-force scan over the generated
   versions, sharing no code with the indices it checks.

   A version [(key, value, [t_start, t_end))] lies in the half-open query
   rectangle [[klo, khi) x [tlo, thi)] when its key is in range and its
   lifetime intersects the window: [t_start < thi && tlo < t_end].
   Versions are kept sorted by key, so a query scans only its key slice. *)

type t = { keys : int array; starts : int array; ends : int array; values : int array }

let create (records : Workload.Generator.record list) =
  let a =
    Array.of_list
      (List.filter (fun (r : Workload.Generator.record) -> r.t_start < r.t_end) records)
  in
  Array.sort
    (fun (a : Workload.Generator.record) b ->
      match Int.compare a.key b.key with 0 -> Int.compare a.t_start b.t_start | c -> c)
    a;
  {
    keys = Array.map (fun (r : Workload.Generator.record) -> r.key) a;
    starts = Array.map (fun (r : Workload.Generator.record) -> r.t_start) a;
    ends = Array.map (fun (r : Workload.Generator.record) -> r.t_end) a;
    values = Array.map (fun (r : Workload.Generator.record) -> r.value) a;
  }

(* First index whose key is >= [k]. *)
let lower_bound t k =
  let lo = ref 0 and hi = ref (Array.length t.keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let sum_count t ~klo ~khi ~tlo ~thi =
  let n = Array.length t.keys in
  let s = ref 0 and c = ref 0 in
  if klo < khi && tlo < thi then begin
    let i = ref (lower_bound t klo) in
    while !i < n && t.keys.(!i) < khi do
      if t.starts.(!i) < thi && tlo < t.ends.(!i) then begin
        s := !s + t.values.(!i);
        incr c
      end;
      incr i
    done
  end;
  (!s, !c)

(* Versions that had begun before instant [t]: what COUNT over the whole
   key space and the window [[0, t)] must return. *)
let started_before t time =
  Array.fold_left (fun acc s -> if s < time then acc + 1 else acc) 0 t.starts
