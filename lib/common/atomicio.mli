(** Crash-atomic file writes.

    Every durable artifact this codebase produces (machine snapshots,
    the AOT code depot, metrics/bench JSON) goes through {!write}:
    the bytes land in a temporary file in the destination directory,
    are fsync'd, and only then renamed over the target. A crash at any
    point leaves either the old file or the new one — never a torn
    half-write that poisons the next reader. {!read} is the matching
    whole-file reader. *)

val write : ?fsync:bool -> string -> string -> unit
(** [write path data]: write [data] to [path] atomically
    (temp file + optional fsync + rename). [fsync] defaults to [true];
    pass [false] for throwaway outputs where durability across a power
    cut does not matter but torn writes still must not be visible.
    Raises [Sys_error] / [Unix.Unix_error] on I/O failure, after
    removing the temporary file (best effort). *)

val write_channel : string -> (out_channel -> unit) -> unit
(** [write_channel path f]: stream into a temp file via [f], then
    commit with fsync + rename — {!write} for producers that emit
    incrementally instead of building the whole string first. *)

val read : string -> string
(** [read path]: the whole file, read in binary mode; the channel is
    closed on every path. Raises [Sys_error] when the file cannot be
    read — callers map that to their own typed error. *)
