(* rtabench: the repository benchmark.

     rtabench --workload NAME --seed N --seconds S --trace 0|1 --rta-cli PATH

   One closed-loop client drives the public API on one of four workloads
   (see README.md): [ingest] (Durable insert/delete, checkpoints, reopens),
   [query_hot] and [query_cold] (Rta.sum_count on an mmap-backed warehouse
   with a pool that holds every page, or only 64), and [served_mixed] (one
   pipelined connection to an [rta_cli serve] process).  Inputs come from
   the seed; every run checks its answers against a brute-force scan of
   the generated versions ({!Oracle}) and a few algebraic properties.  The
   last line of standard output is the JSON result; the exit code is 1 if
   a check or an operation failed. *)

module Gen = Workload.Generator
module Qg = Workload.Query_gen
module Rng = Workload.Rng
module Io = Storage.Io_stats
open Sysutil

(* --- Inputs ------------------------------------------------------------------ *)

(* The paper's stream shape (uniform keys, long-lived versions, ~100
   versions per key, key space 1e9, time space 1e8) at [versions]
   versions. *)
let spec ~seed ~versions =
  { (Gen.scaled Gen.paper_spec (float_of_int versions /. 1e6)) with seed }

type inputs = { events : Gen.event array; oracle : Oracle.t; gen_s : float }

let generate spec =
  let t0 = now_ns () in
  let events = Array.of_list (Gen.events spec) in
  let oracle = Oracle.create (Gen.records spec) in
  { events; oracle; gen_s = secs (now_ns () - t0) }

(* Query mix: QRS cycles through 0.01%, 0.1%, 1% and 10% of the key-time
   space (square in relative terms, R/I = 1); in each group of eight, the
   first four windows end at [upto] (the latest instant written) and the
   next four lie wherever they fall inside [[0, upto)]. *)
let qrs_mix = [| 1e-4; 1e-3; 1e-2; 1e-1 |]

let make_rect rng ~max_key ~upto i =
  let r = Qg.rectangle rng ~max_key ~max_time:upto ~qrs:qrs_mix.(i mod 4) ~r_over_i:1.0 in
  if i / 4 mod 2 = 0 then { r with Qg.tlo = upto - (r.thi - r.tlo); thi = upto } else r

let make_rects ~seed ~max_key ~upto n =
  let rng = Rng.create ~seed in
  Array.init n (fun i -> make_rect rng ~max_key ~upto i)

(* --- Checks ------------------------------------------------------------------ *)

type ask = klo:int -> khi:int -> tlo:int -> thi:int -> int * int

(* Answers against the scan, COUNT over everything written, and SUM over a
   key range split at a random point against SUM over the whole range. *)
let check_answers (rep : Report.t) ~what ~oracle ~(ask : ask) ~upto ~seed rects =
  Array.iter
    (fun (r : Qg.rect) ->
      let got = ask ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi in
      let want = Oracle.sum_count oracle ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi in
      Report.check rep (got = want) "%s: sum_count %a = (%d,%d), scan says (%d,%d)" what
        (fun () r -> Format.asprintf "%a" Qg.pp r) r (fst got) (snd got) (fst want)
        (snd want))
    rects;
  let max_key = Gen.paper_spec.max_key in
  let _, count = ask ~klo:0 ~khi:max_key ~tlo:0 ~thi:upto in
  let versions = Oracle.started_before oracle upto in
  Report.check rep (count = versions) "%s: COUNT over everything = %d, versions = %d" what
    count versions;
  let rng = Rng.create ~seed:(seed + 7) in
  Array.iteri
    (fun i (r : Qg.rect) ->
      if i < 64 && r.khi - r.klo >= 2 then begin
        let k = Rng.int_in rng ~lo:(r.klo + 1) ~hi:r.khi in
        let s1, c1 = ask ~klo:r.klo ~khi:k ~tlo:r.tlo ~thi:r.thi in
        let s2, c2 = ask ~klo:k ~khi:r.khi ~tlo:r.tlo ~thi:r.thi in
        let s, c = ask ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi in
        Report.check rep
          (s1 + s2 = s && c1 + c2 = c)
          "%s: split at %d gives (%d,%d)+(%d,%d), whole (%d,%d)" what k s1 c1 s2 c2 s c
      end)
    rects

let apply_rta rta = function
  | Gen.Insert { key; value; at } -> Rta.insert rta ~key ~value ~at
  | Gen.Delete { key; at } -> Rta.delete rta ~key ~at

(* Mean microseconds of [n] calls of [lkst] and [lklt] alternately. *)
let time_points rta ~seed ~max_key ~at n =
  let rng = Rng.create ~seed in
  let t0 = now_ns () in
  for i = 1 to n do
    let key = Rng.int rng max_key and at = at rng in
    ignore (if i land 1 = 0 then Rta.lkst rta ~key ~at else Rta.lklt rta ~key ~at)
  done;
  float_of_int (now_ns () - t0) /. 1e3 /. float_of_int n

let tree_shape (rep : Report.t) rta ~seed =
  let max_key = Rta.max_key rta and now = Rta.now rta in
  Report.set rep "mvsbt.point_now_us"
    (time_points rta ~seed ~max_key ~at:(fun _ -> now) 4000);
  Report.set rep "mvsbt.point_hist_us"
    (time_points rta ~seed:(seed + 1) ~max_key ~at:(fun rng -> Rng.int rng now) 4000);
  Report.set rep "mvsbt.pages" (float_of_int (Rta.page_count rta));
  Report.set rep "mvsbt.height" (float_of_int (Rta.height rta));
  Report.set rep "mvsbt.roots" (float_of_int (Rta.root_count rta))

(* Counter deltas over a stretch of queries against one warehouse. *)
type qcounters = { mutable touches : int; mutable reads : int; mutable readaheads : int }

let qcounters () = { touches = 0; reads = 0; readaheads = 0 }

let with_counters c rta f =
  let st = Rta.stats rta in
  let t0 = Rta.page_touches rta and r0 = Io.reads st and a0 = Io.readaheads st in
  let v = f () in
  c.touches <- c.touches + Rta.page_touches rta - t0;
  c.reads <- c.reads + Io.reads st - r0;
  c.readaheads <- c.readaheads + Io.readaheads st - a0;
  v

let set_query_layers (rep : Report.t) c ~queries =
  if queries > 0 then begin
    let per n = float_of_int n /. float_of_int queries in
    Report.set rep "mvsbt.touches_per_query" (per c.touches);
    Report.set rep "storage.misses_per_query" (per c.reads);
    Report.set rep "storage.readaheads_per_query" (per c.readaheads);
    if c.touches > 0 then
      Report.set rep "storage.hit_ratio"
        (1. -. (float_of_int c.reads /. float_of_int c.touches))
  end

let overhead_pct ~untraced ~traced =
  if untraced <= 0. || traced <= 0. then 0. else (1. -. (traced /. untraced)) *. 100.

(* --- ingest ------------------------------------------------------------------ *)

(* Each round loads a fresh engine (defaults: Memory working set, WAL
   fsync every 32 appends) with the whole stream, checkpoints at fixed
   update counts, leaves the tail after the last checkpoint in the WAL,
   closes, and reopens [reopens] times, checking every reopened engine.
   Rounds repeat until the time is up; a traced run alternates untraced
   and traced rounds.  Set-up (generate the stream and the scan) runs
   [ingest_setups] times. *)
let ingest_versions = 25_000
let checkpoint_every = 20_000
let reopens = 3
let verify_queries = 200
let ingest_setups = 7
let rss_rounds = 3

let ingest (rep : Report.t) ~seed ~seconds ~trace ~dir =
  let spec = spec ~seed ~versions:ingest_versions in
  let e = rep.e in
  let inputs = ref None in
  for i = 1 to ingest_setups do
    let t0 = now_ns () in
    fresh_dir dir;
    let inp = generate spec in
    e.setup_s <- secs (now_ns () - t0) :: e.setup_s;
    if i = ingest_setups then inputs := Some inp
  done;
  let { events; oracle; _ } = Option.get !inputs in
  Report.set rep "workload.gen_s" (Samples.median e.setup_s);
  let n = Array.length events in
  let upto = Gen.event_time events.(n - 1) + 1 in
  let rects = make_rects ~seed:(seed + 3) ~max_key:spec.max_key ~upto verify_queries in
  let ckpt = Samples.create () in
  let sync_yes = Samples.create () and sync_no = Samples.create () in
  let replayed = ref 0 and fsyncs = ref 0 and wal_bytes = ref 0 in
  let qc = qcounters () in
  let tput = [| (0, 0); (0, 0) |] (* updates, ns: untraced, traced *) in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let round = ref 0 in
  let last_path = ref "" in
  while !round < (if trace then 2 else 1) || now_ns () < deadline do
    let traced = trace && !round land 1 = 1 in
    let rdir = Filename.concat dir (Printf.sprintf "r%d" !round) in
    fresh_dir rdir;
    let path = Filename.concat rdir "wh" in
    let wal_stats = Wal.Stats.create () in
    let eng = Durable.open_ ~wal_stats ~max_key:spec.max_key ~path () in
    let acked = ref 0 in
    let t_round = now_ns () in
    Array.iteri
      (fun i ev ->
        let f0 = Wal.Stats.fsyncs wal_stats in
        let t0 = now_ns () in
        let r =
          match ev with
          | Gen.Insert { key; value; at } -> Durable.insert eng ~key ~value ~at
          | Gen.Delete { key; at } -> Durable.delete eng ~key ~at
        in
        let dt = now_ns () - t0 in
        Report.op rep (Result.is_ok r);
        if Result.is_ok r then incr acked;
        Samples.Series.add e.upd dt;
        if traced then
          Samples.add (if Wal.Stats.fsyncs wal_stats > f0 then sync_yes else sync_no) dt;
        if (i + 1) mod checkpoint_every = 0 && i + 1 < n then begin
          let t0 = now_ns () in
          let r = Durable.checkpoint eng in
          Samples.add ckpt (now_ns () - t0);
          Report.op rep (Result.is_ok r)
        end)
      events;
    let wall = now_ns () - t_round in
    Samples.Series.add_wall e.upd wall;
    let k = if traced then 1 else 0 in
    tput.(k) <- (fst tput.(k) + n, snd tput.(k) + wall);
    fsyncs := !fsyncs + Wal.Stats.fsyncs wal_stats;
    wal_bytes := !wal_bytes + Wal.Stats.bytes wal_stats;
    Durable.close eng;
    for _ = 1 to reopens do
      let t0 = now_ns () in
      let eng = Durable.open_ ~max_key:spec.max_key ~path () in
      let dt = now_ns () - t0 in
      Report.op rep true;
      e.recover_s <- secs dt :: e.recover_s;
      replayed := !replayed + Durable.replayed_on_open eng;
      let rta = Durable.warehouse eng in
      Report.check rep (Rta.n_updates rta = !acked) "ingest: reopened n_updates %d, acked %d"
        (Rta.n_updates rta) !acked;
      let t_q = now_ns () in
      let answers =
        with_counters qc rta (fun () ->
            Array.map
              (fun (r : Qg.rect) ->
                let t0 = now_ns () in
                let a = Durable.sum_count eng ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi in
                Samples.Series.add e.qry (now_ns () - t0);
                Report.op rep true;
                a)
              rects)
      in
      Samples.Series.add_wall e.qry (now_ns () - t_q);
      let lookup = Hashtbl.create 256 in
      Array.iteri (fun i r -> Hashtbl.replace lookup r answers.(i)) rects;
      let ask ~klo ~khi ~tlo ~thi =
        match Hashtbl.find_opt lookup { Qg.klo; khi; tlo; thi } with
        | Some a -> a
        | None -> Durable.sum_count eng ~klo ~khi ~tlo ~thi
      in
      check_answers rep ~what:"ingest" ~oracle ~ask ~upto ~seed rects;
      Durable.close eng
    done;
    e.store_bytes <- du rdir;
    e.store_updates <- !acked;
    if !last_path <> "" then rm_rf (Filename.dirname !last_path);
    last_path := path;
    incr round;
    (* Collect the round's engines before the next one, so the peak RSS
       is one round's working set rather than the GC's timing. *)
    Gc.compact ();
    (* The peak after a fixed number of rounds: the runtime keeps the heap
       it freed, so the process's resident size creeps up round after
       round (52 MB after one, 60 MB after thirteen), and a whole-run peak
       would grow with the rounds a run completes, i.e. with throughput. *)
    if !round <= rss_rounds then e.rss_kb <- vm_hwm_kb None
  done;
  let reopened = List.length e.recover_s in
  let updates = !round * n in
  Report.set rep "durable.update_us" (Samples.Series.mean e.upd /. 1e3);
  Report.set rep "durable.checkpoint_ms" (Samples.mean ckpt /. 1e6);
  Report.set rep "durable.recover_replayed" (float_of_int !replayed /. float_of_int reopened);
  Report.set rep "wal.fsyncs_per_update" (float_of_int !fsyncs /. float_of_int updates);
  Report.set rep "wal.bytes_per_update" (float_of_int !wal_bytes /. float_of_int updates);
  Report.set rep "wal.sync_us" ((Samples.mean sync_yes -. Samples.mean sync_no) /. 1e3);
  Report.set rep "wal.replay_rate"
    (float_of_int !replayed /. List.fold_left ( +. ) 0. e.recover_s);
  Report.set rep "storage.store_bytes" (float_of_int e.store_bytes);
  set_query_layers rep qc ~queries:(Samples.Series.count e.qry);
  if trace then begin
    (* The same stream into a WAL-less in-memory warehouse: the gap to
       durable.update_us is the log's share. *)
    let rta = Rta.create ~max_key:spec.max_key () in
    let t0 = now_ns () in
    Array.iter (apply_rta rta) events;
    Report.set rep "rta.update_us" (float_of_int (now_ns () - t0) /. 1e3 /. float_of_int n);
    let eng = Durable.open_ ~max_key:spec.max_key ~path:!last_path () in
    tree_shape rep (Durable.warehouse eng) ~seed;
    Durable.close eng;
    let rate (u, ns) = if ns = 0 then 0. else float_of_int u /. secs ns in
    Report.set rep "bench.trace_overhead_pct"
      (overhead_pct ~untraced:(rate tput.(0)) ~traced:(rate tput.(1)))
  end

(* --- query_hot / query_cold -------------------------------------------------- *)

(* The warehouse: 50k versions (100k updates) on the mmap page store.  It
   is built with a pool that holds every page, flushed, and reopened with
   the workload's pool: [big_pool] pages for query_hot, 64 for query_cold
   (per MVSBT).  Set-up (generate, build, flush, reopen [query_reopens]
   times, warm) runs [query_setups] times; the builds give the update
   metrics, the reopens the recover time. *)
let query_versions = 50_000
let big_pool = 4096
let query_setups = 5
let cold_pool = 64
let query_reopens = 10
let n_rects = 8192
let chunk = 256
let mvsbt_config = Mvsbt.default_config ~b:(4096 / 24)
let page_size = (max 4096 (Rta.min_page_size mvsbt_config) + 4095) / 4096 * 4096

let run_pass rta rects =
  Array.iter
    (fun (r : Qg.rect) -> ignore (Rta.sum_count rta ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi))
    rects

let query_workload (rep : Report.t) ~hot ~seed ~seconds ~trace ~dir =
  let spec = spec ~seed ~versions:query_versions in
  let e = rep.e in
  let pool = if hot then big_pool else cold_pool in
  let last = ref None in
  let gen = ref [] in
  for i = 1 to query_setups do
    (match !last with Some (_, p, _, _) -> rm_rf (Filename.dirname p) | None -> ());
    last := None;
    Gc.full_major ();
    let t0 = now_ns () in
    let sdir = Filename.concat dir (Printf.sprintf "s%d" i) in
    fresh_dir sdir;
    let path = Filename.concat sdir "wh" in
    let inp = generate spec in
    gen := inp.gen_s :: !gen;
    let rta =
      Rta.create_durable ~config:mvsbt_config ~page_size ~store:Storage.Store_kind.Mmap
        ~pool_capacity:big_pool ~max_key:spec.max_key ~path ()
    in
    let t_build = now_ns () in
    Array.iter
      (fun ev ->
        let t0 = now_ns () in
        apply_rta rta ev;
        Samples.Series.add e.upd (now_ns () - t0);
        Report.op rep true)
      inp.events;
    (* The final flush is set-up time, not update time. *)
    Samples.Series.add_wall e.upd (now_ns () - t_build);
    Rta.flush rta;
    let reopen () =
      let t_open = now_ns () in
      let rta =
        Rta.reopen_durable ~pool_capacity:pool ~page_size ~store:Storage.Store_kind.Mmap
          ~path ()
      in
      e.recover_s <- secs (now_ns () - t_open) :: e.recover_s;
      rta
    in
    for _ = 2 to query_reopens do
      ignore (reopen ())
    done;
    let rta = reopen () in
    let upto = Rta.now rta + 1 in
    let rects = make_rects ~seed:(seed + 3) ~max_key:spec.max_key ~upto n_rects in
    (* Warm: the hot pool takes in every page the rectangles touch; the
       cold one only needs to fill its 64 pages. *)
    run_pass rta (if hot then rects else Array.sub rects 0 512);
    e.setup_s <- secs (now_ns () - t0) :: e.setup_s;
    last := Some (rta, path, rects, inp)
  done;
  Gc.full_major ();
  let rta, path, rects, inp = Option.get !last in
  Report.set rep "workload.gen_s" (Samples.median !gen);
  Report.set rep "rta.update_us" (Samples.Series.mean e.upd /. 1e3);
  let first = Array.make n_rects (-1, -1) in
  let seen = Array.make n_rects false in
  let qc = qcounters () in
  let traced_q = ref 0 in
  let tput = [| (0, 0); (0, 0) |] in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let i = ref 0 and c = ref 0 in
  while !c < (if trace then 2 else 1) || now_ns () < deadline do
    let traced = trace && !c land 1 = 1 in
    let body () =
      for _ = 1 to chunk do
        let j = !i mod n_rects in
        let r = rects.(j) in
        let t0 = now_ns () in
        let a = Rta.sum_count rta ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi in
        Samples.Series.add e.qry (now_ns () - t0);
        Report.op rep true;
        if seen.(j) then
          Report.check rep (a = first.(j)) "query: answer to rect %d changed between passes" j
        else begin
          first.(j) <- a;
          seen.(j) <- true
        end;
        incr i
      done
    in
    let t_c = now_ns () in
    if traced then begin
      with_counters qc rta body;
      traced_q := !traced_q + chunk
    end
    else body ();
    let wall = now_ns () - t_c in
    Samples.Series.add_wall e.qry wall;
    let k = if traced then 1 else 0 in
    tput.(k) <- (fst tput.(k) + chunk, snd tput.(k) + wall);
    incr c
  done;
  e.rss_kb <- vm_hwm_kb None;
  e.store_bytes <- du (Filename.dirname path);
  e.store_updates <- Rta.n_updates rta;
  (* Every 4th timed answer against the scan, plus the properties. *)
  let answered = min !i n_rects in
  let sample = Array.init ((answered + 3) / 4) (fun k -> rects.(4 * k)) in
  let timed = Hashtbl.create n_rects in
  Array.iteri (fun j r -> if seen.(j) then Hashtbl.replace timed r first.(j)) rects;
  let ask ~klo ~khi ~tlo ~thi =
    match Hashtbl.find_opt timed { Qg.klo; khi; tlo; thi } with
    | Some a -> a
    | None -> Rta.sum_count rta ~klo ~khi ~tlo ~thi
  in
  check_answers rep
    ~what:(if hot then "query_hot" else "query_cold")
    ~oracle:inp.oracle ~ask ~upto:(Rta.now rta + 1) ~seed sample;
  Report.set rep "storage.store_bytes" (float_of_int e.store_bytes);
  if trace then begin
    set_query_layers rep qc ~queries:!traced_q;
    tree_shape rep rta ~seed;
    (* storage.fault_us: the same rectangles on a fully resident handle;
       the difference in mean query time, per miss. *)
    if not hot then begin
      let res =
        Rta.reopen_durable ~pool_capacity:big_pool ~page_size ~store:Storage.Store_kind.Mmap
          ~path ()
      in
      run_pass res rects;
      let t0 = now_ns () in
      run_pass res rects;
      let resident = float_of_int (now_ns () - t0) /. float_of_int n_rects in
      let misses = float_of_int qc.reads /. float_of_int !traced_q in
      if misses > 0. then
        Report.set rep "storage.fault_us" ((Samples.Series.mean e.qry -. resident) /. misses /. 1e3)
    end;
    let rate (q, ns) = if ns = 0 then 0. else float_of_int q /. secs ns in
    Report.set rep "bench.trace_overhead_pct"
      (overhead_pct ~untraced:(rate tput.(0)) ~traced:(rate tput.(1)))
  end

(* --- served_mixed ------------------------------------------------------------ *)

(* One connection to an [rta_cli serve] process (single engine, Unix
   socket, defaults otherwise).  Each round starts a server on a fresh
   log, preloads [preload] updates, then sends the next [round_updates]
   updates in bursts of [window]: a burst's updates go out in one write,
   the client waits for all their acknowledgements, and then sends one
   range query alone, over time already acknowledged, so its answer is
   fixed.  [window] is 64: the server's default [--max-batch] (the most
   writes one group commit covers) and [netbench]'s default [--window].
   One query per burst keeps the traffic mostly updates (64 to 1) and
   lets every query see the tree the previous commit changed; since
   nothing is queued ahead of it, a query's latency is its own round
   trip and evaluation, apart from the updates' queueing.  The ratio is
   a choice, not a measured mix: README.md gives its limits.  The round
   then drains the server and restarts it on its log [restarts] times
   (recover_s: spawn to first answered ping).  Rounds repeat until the
   time is up.  Set-up (generate the stream, start a server, preload)
   runs [served_setups] times; the last server serves the first round. *)
let served_versions = 60_000
let preload = 4096
let round_updates = 100_032
let window = 64
let restarts = 2
let served_setups = 5

let connect ~pid ~sock =
  let deadline = Unix.gettimeofday () +. 120. in
  let rec go () =
    match Client.connect_unix ~timeout:60. ~path:sock () with
    | cli -> cli
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "served_mixed: server exited before accepting connections");
        Unix.sleepf 0.0005;
        go ()
  in
  let cli = go () in
  if not (Client.ping cli) then failwith "served_mixed: server did not answer ping";
  cli

let start_server ~rta_cli ~dir ~max_key =
  let wal = Filename.concat dir "wh" and sock = Filename.concat dir "s.sock" in
  let pid =
    spawn rta_cli
      [ "serve"; "--wal"; wal; "--socket"; sock; "--max-key"; string_of_int max_key ]
      ~log:(Filename.concat dir "serve.log")
  in
  (pid, connect ~pid ~sock)

let stop_server (rep : Report.t) (pid, cli) =
  let r = Client.shutdown cli in
  Client.close cli;
  let clean = await_exit pid in
  Report.check rep (r = Wire.Ack && clean) "served_mixed: server did not drain and exit 0"

(* Send a burst of requests in one write, as a pipelining client that
   coalesces its writes does: the server reads the whole burst at once, so
   its writes go into one group commit. *)
let send_burst cli frames =
  let b = Bytes.concat Bytes.empty frames in
  let fd = Client.fd cli in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let request_of_event = function
  | Gen.Insert { key; value; at } -> Wire.Insert { key; value; at }
  | Gen.Delete { key; at } -> Wire.Delete { key; at }

let served_updates cli =
  match Client.stats cli with Some s -> s.Wire.updates | None -> -1

(* Per-phase (sum ms, count) from the server's observe document. *)
let phase_sums cli =
  let module J = Telemetry.Json in
  let doc =
    match Option.map J.of_string (Client.observe cli) with Some (Ok j) -> j | _ -> J.Null
  in
  let num = function Some (J.Int i) -> float_of_int i | Some (J.Float f) -> f | _ -> 0. in
  List.map
    (fun p ->
      match Option.bind (J.member "phases" doc) (J.member p) with
      | Some h -> (num (J.member "sum_ms" h), num (J.member "count" h))
      | None -> (0., 0.))
    Report.phases

(* Start a server in [dir] and preload the head of the stream, pipelined. *)
let start_preloaded (rep : Report.t) ~rta_cli ~dir ~max_key events =
  fresh_dir dir;
  let ((_, cli) as srv) = start_server ~rta_cli ~dir ~max_key in
  for burst = 0 to (preload / window) - 1 do
    send_burst cli
      (List.init window (fun k ->
           Wire.encode_request (request_of_event events.((burst * window) + k))));
    for _ = 1 to window do
      Report.check rep (Client.recv cli = Wire.Ack) "served_mixed: preload refused"
    done
  done;
  srv

type served_acc = {
  lat_plain : Samples.t;  (** Untraced requests' latency (traced runs). *)
  lat_traced : Samples.t;
  phases : (float * float) array;
  mutable batches : int;
  mutable writes : int;
  mutable syncs : int;
}

(* One measured round against a preloaded server; returns the updates
   the server holds. *)
let served_round (rep : Report.t) acc ~trace ~seed ~spec ~oracle ~events (pid, cli) =
  let e = rep.e in
  let phases0 = if trace then phase_sums cli else [] in
  let stats0 = Client.stats cli in
  let asked = ref [] and answers = ref [] in
  let acked = ref preload and next = ref preload in
  let rng = Rng.create ~seed:(seed + 5) in
  for burst = 0 to (round_updates / window) - 1 do
    (* Odd bursts are traced: their requests carry a trace id. *)
    let traced = trace && burst land 1 = 1 in
    let trace_id k = if traced then Some (Int64.of_int ((burst * (window + 1)) + k + 1)) else None in
    let lat = if traced then acc.lat_traced else acc.lat_plain in
    let frames =
      List.init window (fun k ->
          Wire.encode_request ?trace:(trace_id k) (request_of_event events.(!next + k)))
    in
    let t_burst = now_ns () in
    send_burst cli frames;
    for _ = 1 to window do
      let resp = Client.recv cli in
      let dt = now_ns () - t_burst in
      Samples.Series.add e.upd dt;
      Samples.add lat dt;
      Report.op rep (resp = Wire.Ack);
      if resp = Wire.Ack then incr acked
    done;
    Samples.Series.add_wall e.upd (now_ns () - t_burst);
    next := !next + window;
    let r = make_rect rng ~max_key:spec.Gen.max_key ~upto:(Gen.event_time events.(!next)) burst in
    let t0 = now_ns () in
    Client.send ?trace:(trace_id window) cli
      (Wire.Query { agg = Wire.Sum; klo = r.klo; khi = r.khi; tlo = r.tlo; thi = r.thi });
    let resp = Client.recv cli in
    let dt = now_ns () - t0 in
    Samples.Series.add e.qry dt;
    Samples.Series.add_wall e.qry dt;
    Samples.add lat dt;
    (match resp with
    | Wire.Agg { sum; count } ->
        Report.op rep true;
        asked := r :: !asked;
        answers := (sum, count) :: !answers
    | _ -> Report.op rep false)
  done;
  (* Every 4th query against the scan, then the properties on the
     quiescent server. *)
  let asked = Array.of_list (List.rev !asked) and answers = Array.of_list (List.rev !answers) in
  let sample = Array.init ((Array.length asked + 3) / 4) (fun k -> asked.(4 * k)) in
  Array.iteri
    (fun k (r : Qg.rect) ->
      let want = Oracle.sum_count oracle ~klo:r.klo ~khi:r.khi ~tlo:r.tlo ~thi:r.thi in
      Report.check rep (answers.(4 * k) = want)
        "served_mixed: query %d answered differently from the scan" (4 * k))
    sample;
  let ask ~klo ~khi ~tlo ~thi =
    match Client.query cli ~agg:Wire.Sum ~klo ~khi ~tlo ~thi with
    | Wire.Agg { sum; count } -> (sum, count)
    | _ -> (-1, -1)
  in
  check_answers rep ~what:"served_mixed" ~oracle ~ask
    ~upto:(Gen.event_time events.(!next))
    ~seed
    (Array.sub sample 0 (min 64 (Array.length sample)));
  let updates = served_updates cli in
  Report.check rep (updates = !acked) "served_mixed: server counts %d updates, %d acknowledged"
    updates !acked;
  e.rss_kb <- max e.rss_kb (vm_hwm_kb (Some pid));
  if trace then begin
    (match (stats0, Client.stats cli) with
    | Some s0, Some s1 ->
        acc.batches <- acc.batches + s1.Wire.batches - s0.Wire.batches;
        acc.writes <- acc.writes + s1.Wire.batched_writes - s0.Wire.batched_writes;
        acc.syncs <- acc.syncs + s1.Wire.wal_syncs - s0.Wire.wal_syncs;
        Report.set rep "mvsbt.pages" (float_of_int s1.Wire.pages)
    | _ -> ());
    List.iteri
      (fun i ((s0, c0), (s1, c1)) ->
        let s, c = acc.phases.(i) in
        acc.phases.(i) <- (s +. s1 -. s0, c +. c1 -. c0))
      (List.combine phases0 (phase_sums cli));
    let pings = Samples.create () in
    for _ = 1 to 400 do
      let t0 = now_ns () in
      Report.check rep (Client.ping cli) "served_mixed: ping unanswered";
      Samples.add pings (now_ns () - t0)
    done;
    Report.set rep "server.ping_rtt_us" (Samples.quantile pings 0.5 /. 1e3)
  end;
  !acked

let served (rep : Report.t) ~seed ~seconds ~trace ~dir ~rta_cli =
  let spec = spec ~seed ~versions:served_versions in
  let max_key = spec.max_key in
  let e = rep.e in
  let server = ref None and inputs = ref None in
  let gen = ref [] in
  for i = 1 to served_setups do
    Option.iter (stop_server rep) !server;
    let sdir = Filename.concat dir (Printf.sprintf "r%d" (i - served_setups)) in
    rm_rf (Filename.concat dir (Printf.sprintf "r%d" (i - served_setups - 1)));
    let t0 = now_ns () in
    let inp = generate spec in
    gen := inp.gen_s :: !gen;
    server := Some (start_preloaded rep ~rta_cli ~dir:sdir ~max_key inp.events);
    e.setup_s <- secs (now_ns () - t0) :: e.setup_s;
    inputs := Some inp
  done;
  Report.set rep "workload.gen_s" (Samples.median !gen);
  let { events; oracle; _ } = Option.get !inputs in
  assert (Array.length events > preload + round_updates);
  let acc =
    {
      lat_plain = Samples.create ();
      lat_traced = Samples.create ();
      phases = Array.make (List.length Report.phases) (0., 0.);
      batches = 0;
      writes = 0;
      syncs = 0;
    }
  in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let round = ref 0 in
  while !round < (if trace then 2 else 1) || now_ns () < deadline do
    let rdir = Filename.concat dir (Printf.sprintf "r%d" !round) in
    let srv =
      match !server with
      | Some s -> s
      | None -> start_preloaded rep ~rta_cli ~dir:rdir ~max_key events
    in
    server := None;
    let acked = served_round rep acc ~trace ~seed ~spec ~oracle ~events srv in
    stop_server rep srv;
    let engine_file name = String.length name >= 2 && String.sub name 0 2 = "wh" in
    e.store_bytes <- du ~keep:engine_file rdir;
    e.store_updates <- acked;
    Report.set rep "wal.bytes_per_update"
      (float_of_int (du ~keep:(fun f -> f = "wh.wal") rdir) /. float_of_int acked);
    for _ = 1 to restarts do
      let t0 = now_ns () in
      let ((_, cli) as srv) = start_server ~rta_cli ~dir:rdir ~max_key in
      e.recover_s <- secs (now_ns () - t0) :: e.recover_s;
      Report.op rep true;
      let updates = served_updates cli in
      Report.check rep (updates = acked)
        "served_mixed: restarted server has %d updates, %d acked" updates acked;
      stop_server rep srv
    done;
    rm_rf rdir;
    incr round
  done;
  Report.set rep "storage.store_bytes" (float_of_int e.store_bytes);
  if trace then begin
    let per a b = if b > 0 then float_of_int a /. float_of_int b else 0. in
    Report.set rep "server.batch_size" (per acc.writes acc.batches);
    Report.set rep "server.fsyncs_per_update" (per acc.syncs acc.writes);
    Report.set rep "wal.fsyncs_per_update" (per acc.syncs acc.writes);
    List.iteri
      (fun i p ->
        let s, c = acc.phases.(i) in
        if c > 0. then Report.set rep ("server.phase." ^ p ^ "_us") (s /. c *. 1e3))
      Report.phases;
    Report.set rep "bench.trace_overhead_pct"
      (overhead_pct
         ~untraced:(1. /. Samples.mean acc.lat_plain)
         ~traced:(1. /. Samples.mean acc.lat_traced))
  end

(* --- Driver ------------------------------------------------------------------ *)

let workloads = [ "ingest"; "query_hot"; "query_cold"; "served_mixed" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rta_cli = ref "" in
  let args =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 print per-layer (1) or end-to-end (0) metrics");
      ("--rta-cli", Arg.Set_string rta_cli, "PATH the rta_cli executable (served_mixed)");
    ]
  in
  let usage = "rtabench --workload NAME --seed N --seconds S --trace 0|1 --rta-cli PATH" in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline usage;
    exit 2
  end;
  let rep = Report.create () in
  let trace = !trace = 1 and seconds = !seconds and seed = !seed in
  let dir = Filename.concat ".perfbench_run" !workload in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error _ -> ())
    (fun () ->
      match !workload with
      | "ingest" -> ingest rep ~seed ~seconds ~trace ~dir
      | "query_hot" -> query_workload rep ~hot:true ~seed ~seconds ~trace ~dir
      | "query_cold" -> query_workload rep ~hot:false ~seed ~seconds ~trace ~dir
      | _ -> served rep ~seed ~seconds ~trace ~dir ~rta_cli:!rta_cli);
  (* A failed check or operation fails the run, after its report. *)
  if not (Report.print rep ~trace) then exit 1
