(* Clock, files and processes for the benchmark. *)

let now_ns () = Int64.to_int (Telemetry.Tracer.now_ns ())
let secs ns = float_of_int ns /. 1e9

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path

external allocated_bytes : string -> int = "perfbench_allocated_bytes"

(* Bytes on disk (allocated blocks, as du counts them) of the regular
   files under [path] whose names satisfy [keep]. *)
let rec du ?(keep = fun _ -> true) path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc n -> acc + du ~keep (Filename.concat path n))
        0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; _ } ->
      if keep (Filename.basename path) then allocated_bytes path else 0
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* Peak resident set (VmHWM) of a process, in kB; [pid] None is this one. *)
let vm_hwm_kb pid =
  let file =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in file with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v

(* Child processes still running; killed at exit if a run dies early. *)
let children : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let st = go () in
  children := List.filter (( <> ) pid) !children;
  st

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (reap pid) with Unix.Unix_error _ -> ())
        !children)

let spawn prog args ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let inp = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) inp out out in
  Unix.close out;
  Unix.close inp;
  children := pid :: !children;
  pid

(* Wait for [pid] to exit on its own for up to [grace] seconds, then kill
   it.  Returns whether it exited with status 0 unprompted. *)
let await_exit ?(grace = 60.) pid =
  let deadline = Unix.gettimeofday () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.002;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (reap pid);
        false
    | _, st ->
        children := List.filter (( <> ) pid) !children;
        st = Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()
