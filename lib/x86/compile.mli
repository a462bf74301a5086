(** Compilation of host instructions into closures, once per TB.

    {!Prog.finalize} calls {!insn} for every non-label instruction;
    {!Exec.run} then only charges, checks fuel and calls the result.
    Operand shape (register, immediate, memory with or without
    base/index), segment, width and condition code are resolved here;
    everything that can fail at run time (misaligned word access to
    Env/Tlb, a write to an immediate, a taken jump to an unbound label)
    still fails only when the instruction executes. *)

type op = Ctx.t -> int
(** Runs one instruction and returns the index of the next operation,
    or [-1 - s] to leave the TB through exit slot [s]. *)

val insn : Insn.t -> next:int -> target:(int -> int) -> op
(** [insn i ~next ~target] compiles [i], whose fall-through successor
    is operation [next]; [target l] is the operation index of label
    [l], negative if [l] is unbound. Exit slots must be non-negative
    (a negative one fails when executed). Raises [Invalid_argument]
    on a [Label]. *)

val fell_off : op
(** Fails with ["Exec: fell off the end of a TB (missing Exit)"]. *)
