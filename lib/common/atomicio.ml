(* The temp file must live in the same directory as the target:
   rename(2) is only atomic within a filesystem. The pid suffix keeps
   concurrent writers (e.g. two fleet drills sharing a metrics dir)
   from trampling each other's temp files; the rename still serializes
   them to last-writer-wins, which is the pre-existing semantics of a
   plain open_out. *)
let tmp_path path = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())

let commit ?(fsync = true) path tmp oc =
  (match
     flush oc;
     if fsync then Unix.fsync (Unix.descr_of_out_channel oc)
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  match Sys.rename tmp path with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write_channel path f =
  let tmp = tmp_path path in
  let oc = open_out_bin tmp in
  (match f oc with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  commit path tmp oc

let write ?fsync path data =
  let tmp = tmp_path path in
  let oc = open_out_bin tmp in
  (match output_string oc data with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  commit ?fsync path tmp oc

let read path = In_channel.with_open_bin path In_channel.input_all
