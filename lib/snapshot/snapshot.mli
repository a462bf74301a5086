(** Crash-consistent machine snapshots: a schema over
    {!Repro_common.Container} with magic ["DBTSNAP\x01"] and format
    version 2.

    A snapshot is a {!Repro_common.Container.t}: build and read its
    sections with the container's table ([add], [find], ...) and
    payload codecs ({!Repro_common.Container.Enc}/[Dec]). The
    machine-core sections (["cpu"], ["env"], ["host"], ["ram"],
    ["tlb"], ["timer"], ["uart"], ["syscon"], ["inject"] when the
    machine has a fault injector, ["stats"]) are produced and consumed
    here; engine-level sections (mode, translation-cache records,
    cache control, ruleset health, degrade floor, resume cursor,
    journal) are layered on by [Repro_dbt.System]. *)

exception Corrupt of string
(** A semantic problem in an already-loaded snapshot: missing or
    malformed section payload, shape mismatch against the machine
    being restored into. The same exception as
    {!Repro_common.Container.Corrupt}. *)

exception Load_error of { section : string; reason : string }
(** Container-integrity failure while {e loading} raw bytes
    ({!of_string} / {!load_file}): truncation, bad magic, version
    skew, a checksum mismatch. [section] names the innermost section
    being decoded when the damage surfaced — ["container"] when it
    lies outside any section (header, framing, the whole-body
    checksum). Loading raises nothing else, whatever the input
    bytes. *)

val format_version : int

type t = Repro_common.Container.t

val to_string : t -> string
(** Serialize to the checksummed container format. *)

val of_string : string -> t
(** Parse and validate magic, version, every per-section checksum and
    the whole-body checksum. The ["ram"] section comes back paged.
    Raises {!Load_error} (and nothing else) on any failure, naming the
    damaged section. *)

val save_file : string -> t -> unit
(** Crash-atomic: write-to-temp + fsync + rename
    ({!Repro_common.Atomicio}) — a crash leaves the previous file (or
    none), never a torn snapshot. *)

val load_file : string -> t
(** Raises {!Load_error} also when the file cannot be read
    ([section = "container"]). *)

(** {2 Machine-core capture}

    These cover everything below the translation cache: architectural
    CPU (current view, banked registers, CP15, FPSCR), the lazy-flag
    env array, host register file and EFLAGS, guest RAM, softMMU TLB,
    the three devices, the fault injector's PRNG cursor and counters,
    and the statistics block.

    Guest RAM goes through the page dirty map of
    {!Repro_x86.Ctx.t}: the ["ram"] section is held as
    {!Repro_x86.Ctx.page_bytes} pages
    ({!Repro_common.Container.add_pages}) that a capture shares with
    the machine's [clean] pages and with every other capture, copying
    only the pages written since the last capture or restore. On disk
    it is the flat RAM image. *)

val capture_machine : Repro_tcg.Runtime.t -> t -> unit
(** Append the machine-core sections to [t]. *)

val restore_machine : Repro_tcg.Runtime.t -> t -> unit
(** Write a capture back into a machine created with the same shape
    (RAM size, injector presence). Engine-transient runtime fields
    (pending code write, TB override, fault producers) are reset to
    their between-TB defaults. Raises {!Corrupt} on shape mismatch —
    including a snapshot that carries injector state restored into a
    machine without an injector, or vice versa. *)

val restore_ram : Repro_x86.Ctx.t -> t -> int
(** The ["ram"] part of {!restore_machine}: copy back only the pages
    that are dirty or whose [clean] string is not the snapshot's own,
    then adopt the snapshot's pages as [clean]. Returns the number of
    pages copied. Raises {!Corrupt} when the section's size or page
    layout differs from the machine's. *)
