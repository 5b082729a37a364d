(* What a run measured, and how it is printed.

   End-to-end figures come from raw samples ({!Samples}); per-layer
   figures are a fixed table of named metrics that each workload fills in
   as far as its layers are exercised (a layer a workload never reaches
   reads 0).  The last line of standard output is one JSON object:
   end-to-end metrics in an untraced run, per-layer metrics in a traced
   one. *)

type e2e = {
  upd : Samples.Series.t;  (** Per-update latency, ns, and the wall time they took. *)
  qry : Samples.Series.t;  (** Per-query latency, ns. *)
  mutable recover_s : float list;
  mutable setup_s : float list;
  mutable rss_kb : int;
  mutable store_bytes : int;
  mutable store_updates : int;  (** Updates the stored bytes hold. *)
}

let e2e () =
  {
    upd = Samples.Series.create ();
    qry = Samples.Series.create ();
    recover_s = [];
    setup_s = [];
    rss_kb = 0;
    store_bytes = 0;
    store_updates = 0;
  }

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  e : e2e;
  layer : (string, float) Hashtbl.t;
}

(* Per-layer metrics, in print order, with their units. *)
let phases =
  [ "decode"; "admission_wait"; "queue_wait"; "batch_build"; "wal_append"; "fsync";
    "apply"; "reply_flush" ]

let layer_units =
  [
    ("workload.gen_s", "s");
    ("durable.update_us", "us");
    ("durable.checkpoint_ms", "ms");
    ("durable.recover_replayed", "count");
    ("wal.fsyncs_per_update", "count");
    ("wal.bytes_per_update", "B");
    ("wal.sync_us", "us");
    ("wal.replay_rate", "1/s");
    ("rta.update_us", "us");
    ("mvsbt.point_now_us", "us");
    ("mvsbt.point_hist_us", "us");
    ("mvsbt.touches_per_query", "count");
    ("mvsbt.pages", "count");
    ("mvsbt.height", "count");
    ("mvsbt.roots", "count");
    ("storage.misses_per_query", "count");
    ("storage.hit_ratio", "ratio");
    ("storage.fault_us", "us");
    ("storage.readaheads_per_query", "count");
    ("storage.store_bytes", "B");
    ("server.batch_size", "count");
    ("server.fsyncs_per_update", "count");
    ("server.ping_rtt_us", "us");
  ]
  @ List.map (fun p -> ("server.phase." ^ p ^ "_us", "us")) phases
  @ [ ("bench.trace_overhead_pct", "%") ]

let create () =
  let layer = Hashtbl.create 64 in
  List.iter (fun (n, _) -> Hashtbl.replace layer n 0.) layer_units;
  { attempted = 0; failed = 0; correct = true; e = e2e (); layer }

let set t name v =
  if not (Hashtbl.mem t.layer name) then invalid_arg ("Report.set: unknown metric " ^ name);
  Hashtbl.replace t.layer name v

let check t ok fmt =
  if ok then Printf.ifprintf () fmt
  else
    Printf.ksprintf
      (fun msg ->
        t.correct <- false;
        prerr_endline ("check failed: " ^ msg))
      fmt

(* One attempted operation and whether it succeeded. *)
let op t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let us ns = ns /. 1e3

(* name, value, unit, samples *)
let end_to_end t =
  let e = t.e in
  let module S = Samples.Series in
  (* Updates report p90, queries p99: see README.md, "Steadiness". *)
  let upd50, upd90, _ = S.percentiles e.upd and qry50, _, qry99 = S.percentiles e.qry in
  let nu = S.count e.upd and nq = S.count e.qry in
  [
    ("update_tput", S.tput e.upd, "1/s", nu);
    ("update_p50_us", us upd50, "us", nu);
    ("update_p90_us", us upd90, "us", nu);
    ("query_tput", S.tput e.qry, "1/s", nq);
    ("query_p50_us", us qry50, "us", nq);
    ("query_p99_us", us qry99, "us", nq);
    ("recover_s", Samples.median e.recover_s, "s", List.length e.recover_s);
    ("setup_s", Samples.median e.setup_s, "s", List.length e.setup_s);
    ("peak_rss_mb", float_of_int e.rss_kb /. 1024., "MB", 1);
    ( "store_bytes_per_update",
      (if e.store_updates = 0 then 0.
       else float_of_int e.store_bytes /. float_of_int e.store_updates),
      "B",
      e.store_updates );
  ]

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Print the report, and return whether the run passed: no check and no
   operation failed. *)
let print t ~trace =
  let e2e = end_to_end t in
  List.iter
    (fun (n, v, u, samples) -> Printf.printf "%-24s %14.4f %-6s samples=%d\n" n v u samples)
    e2e;
  List.iter
    (fun (n, u) -> Printf.printf "  %-34s %14.4f %s\n" n (Hashtbl.find t.layer n) u)
    layer_units;
  Printf.printf "attempted=%d failed=%d correct=%b\n" t.attempted t.failed t.correct;
  let metrics =
    if trace then List.map (fun (n, u) -> (n, Hashtbl.find t.layer n, u)) layer_units
    else List.map (fun (n, v, u, _) -> (n, v, u)) e2e
  in
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    t.correct t.attempted t.failed body;
  t.correct && t.failed = 0
