(** The host-code executor.

    {!run} executes a finalized {!Prog.t}: per retired instruction it
    charges [stats] under the instruction's tag, checks fuel, then
    calls the operation {!Prog.finalize} compiled for it. There is no
    instruction decoding at run time. The execution context is
    {!Ctx.t}, re-exported here with its fields. Helper calls dispatch
    to OCaml closures; on return every register except rbp/rsp is
    poisoned with a deterministic garbage value, so translated code
    that fails to coordinate guest CPU state breaks loudly in
    differential tests instead of silently working. *)

open Repro_common

type t = Ctx.t = {
  regs : int array;  (** 16 host registers, 32-bit values *)
  mutable cf : bool;
  mutable zf : bool;
  mutable sf : bool;
  mutable o_f : bool;
  env : int array;
  ram : Bytes.t;
  dirty : Bytes.t;  (** see {!Ctx.t} *)
  clean : string array;
  tlb : int array;
  stats : Stats.t;
  mutable helper : t -> int -> int;
      (** [helper ctx id] runs helper [id] and returns the rax value.
          May raise {!Helper_stop}. Must charge its modelled cost via
          [stats]. *)
  mutable poison_counter : int;
}

exception Helper_stop of { code : int; arg : int }
(** Raised by helpers to abort TB execution (guest exception entry,
    interrupt delivery, machine halt). The engine interprets [code]. *)

exception Fuel_exhausted of { spent : int }
(** Raised by {!run} when a TB executes more than [fuel] countable
    host instructions — a runaway host loop (only reachable through
    corrupted emitted code; well-formed TBs are finite). Typed so the
    engine's livelock watchdog can catch it and roll back to a
    checkpoint instead of killing the process. *)

val create : ?env_slots:int -> ?ram_size:int -> ?tlb_words:int -> unit -> t
(** Defaults: 64 env slots, 1 MiB RAM, 3×256 TLB words. The [helper]
    field starts as a function that fails. *)

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

type outcome =
  | Exited of int  (** TB finished through exit slot [n] *)
  | Stopped of { code : int; arg : int }  (** a helper raised {!Helper_stop} *)

val run : t -> Prog.t -> fuel:int -> outcome
(** Execute a finalized program from its first instruction. Each
    retired (non-pseudo) instruction is charged to its tag, and the
    fuel check made, before its effect; a helper call is charged
    before the helper runs; [Count] markers are free. Raises
    {!Fuel_exhausted} once more than [fuel] countable instructions
    have been charged (runaway-loop guard), and [Failure] on a taken
    jump to an unbound label or when control runs past the last
    instruction. *)

val poison_caller_saved : t -> unit
(** What a helper return does to the register file (exposed for the
    engine, which performs the same clobbering when control returns to
    it between TBs). *)
