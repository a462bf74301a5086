(** Host-code builder and finalized translation-block programs.

    Emission is append-only with fresh local labels. {!finalize}
    produces an immutable program and compiles it, once, into the form
    {!Exec.run} executes: one [Ctx.t -> int] closure per non-label
    instruction, specialised by operand shape, segment, width and
    condition code, with labels resolved to operation indices and tags
    to charge indices. Each operation returns the index of the next
    one; exit slot [s] comes back as [-1 - s]. *)

type builder

val builder : unit -> builder

val emit : builder -> ?tag:Insn.tag -> Insn.t -> unit
(** Append one instruction ([tag] defaults to [Tag_compute]). *)

val emit_all : builder -> ?tag:Insn.tag -> Insn.t list -> unit

val repatch_last_retire : builder -> (int -> int) -> unit
(** Rewrite the attribution payload of the most recently emitted
    [Count (Cnt_guest_insn _)] in place (a no-op if none was emitted).
    Lets a fallback path re-attribute the current guest instruction
    after its retirement counter has already been placed. *)

val fresh_label : builder -> int
(** Allocate a label id (place it with [emit (Label id)]). *)

val bind_label : builder -> int -> unit
(** Shorthand for [emit (Label id)]. *)

val length : builder -> int
(** Number of countable (non-pseudo) instructions emitted so far. *)

type t = private {
  code : Insn.t array;  (** the instructions, labels included *)
  tags : Insn.tag array;  (** stats category of each [code] entry *)
  ops : (Ctx.t -> int) array;
      (** compiled operations, one per non-label instruction, plus a
          trailing one that fails with the fell-off-the-end message *)
  charge : Bytes.t;
      (** per operation: {!Stats.tag_index} of the tag a retired
          instruction is charged to, or ['\255'] for the zero-cost
          [Count] markers and the trailing operation *)
}

val finalize : builder -> t

val rewrite : t -> (builder -> Insn.tag -> Insn.t -> unit) -> t
(** [rewrite p f] rebuilds [p] through a fresh builder: labels are
    copied, and every other instruction is handed to [f] with its tag
    to re-emit as it likes. The builder's {!fresh_label} starts past
    every label of [p]. Used to derive the fault-injected variants of
    a program without mutating it. *)

val pp : Format.formatter -> t -> unit
val static_count : t -> int
(** Countable (non-pseudo) instructions in the program. *)

val is_pseudo : Insn.t -> bool
(** Labels and counters execute at zero cost. *)
