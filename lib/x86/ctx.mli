(** Host execution context: the machine state emitted code runs on.

    The context owns the three address spaces emitted code can touch
    (guest-state [Env] array, guest physical [Ram], softMMU [Tlb]
    array) plus the 16-register file and EFLAGS. It sits below
    {!Prog} so that a finalized program can hold its compiled
    operations ([Ctx.t -> int] closures); {!Exec} re-exports it as
    [Exec.t]. *)

open Repro_common

type t = {
  regs : int array;  (** 16 host registers, 32-bit values *)
  mutable cf : bool;
  mutable zf : bool;
  mutable sf : bool;
  mutable o_f : bool;
  env : int array;
  ram : Bytes.t;
  dirty : Bytes.t;
      (** One byte per {!page_bytes} page of [ram], nonzero when the
          page may differ from its [clean] string. Every RAM writer
          ([write_ram*] here, [Repro_machine.Bus.write*]) marks it. *)
  clean : string array;
      (** One immutable string per page. Invariant: every page whose
          [dirty] byte is 0 equals its [clean] string. Snapshot capture
          refreshes the dirty pages and shares the array's strings;
          restore adopts the snapshot's. *)
  tlb : int array;
  stats : Stats.t;
  mutable helper : t -> int -> int;
      (** [helper ctx id] runs helper [id] and returns the rax value.
          May raise [Exec.Helper_stop]. Must charge its modelled cost
          via [stats]. *)
  mutable poison_counter : int;
}

val page_bytes : int
(** The dirty-map granule: 4 KiB. *)

val pages : int -> int
(** [pages ram_size]: how many pages cover [ram_size] bytes. *)

val create : ?env_slots:int -> ?ram_size:int -> ?tlb_words:int -> unit -> t
(** Defaults: 64 env slots, 1 MiB RAM, 3×256 TLB words. RAM starts
    zeroed with a clear dirty map, every [clean] page one shared zero
    string (the last page is shorter when [ram_size] is not a page
    multiple). The [helper] field starts as a function that fails. *)

val mark : Bytes.t -> int -> unit
(** [mark dirty addr] flags the page holding RAM byte [addr]. Call it
    only after a bounds-checked write of that byte: the index is not
    checked again. *)

val get_flags_word : t -> Word32.t
(** EFLAGS packed in ARM NZCV layout (SF→31, ZF→30, CF→29, OF→28) —
    what [Savef] stores. *)

val set_flags_word : t -> Word32.t -> unit
val read_ram32 : t -> int -> Word32.t
val write_ram32 : t -> int -> Word32.t -> unit
val read_ram8 : t -> int -> int
val write_ram8 : t -> int -> int -> unit
val read_ram16 : t -> int -> int
val write_ram16 : t -> int -> int -> unit

val poison_caller_saved : t -> unit
(** What a helper return does to the register file: every register
    except rbp/rsp gets a deterministic 0xBAD... value, so translated
    code that fails to coordinate guest CPU state breaks loudly in
    differential tests instead of silently working. *)
