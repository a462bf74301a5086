open Repro_common

type op = Ctx.t -> int

(* Every operation returns the index of the next operation to run;
   exit slot [s] is returned as [-1 - s]. Operand shapes, segments,
   widths and condition codes are decided here, once per TB, so a
   compiled operation does no decoding when it runs. Faults stay
   where the instruction-at-a-time semantics put them: misaligned
   word accesses assert, writes to immediates raise and unbound
   labels fail only when the instruction actually executes. *)

let fell_off (_ : Ctx.t) : int = failwith "Exec: fell off the end of a TB (missing Exit)"
let undefined_label l = failwith (Printf.sprintf "Exec: undefined label %d" l)
let write_to_immediate () = invalid_arg "write to immediate"

(* ---------- memory operands ---------- *)

let address (m : Insn.mem) : Ctx.t -> int =
  let disp = m.Insn.disp and scale = m.Insn.scale in
  match (m.Insn.base, m.Insn.index) with
  | None, None ->
    let a = Word32.mask disp in
    fun _ -> a
  | Some b, None -> fun c -> Word32.mask (c.Ctx.regs.(b) + disp)
  | None, Some x -> fun c -> Word32.mask ((c.Ctx.regs.(x) * scale) + disp)
  | Some b, Some x ->
    fun c -> Word32.mask (c.Ctx.regs.(b) + (c.Ctx.regs.(x) * scale) + disp)

(* the word array behind an Env or Tlb operand *)
let words (c : Ctx.t) env = if env then c.Ctx.env else c.Ctx.tlb

(* Word slot of a register-free, aligned Env/Tlb address: the common
   [env_slot] shape needs neither address arithmetic nor a check. *)
let const_slot (m : Insn.mem) =
  match (m.Insn.base, m.Insn.index) with
  | None, None when Word32.mask m.Insn.disp land 3 = 0 -> Some (Word32.mask m.Insn.disp lsr 2)
  | _ -> None

let load32 (m : Insn.mem) : Ctx.t -> int =
  match (m.Insn.seg, const_slot m, m.Insn.base, m.Insn.index) with
  | Insn.Ram, _, Some b, None ->
    let d = m.Insn.disp in
    fun c -> Ctx.read_ram32 c (Word32.mask (c.Ctx.regs.(b) + d))
  | Insn.Ram, _, _, _ ->
    let a = address m in
    fun c -> Ctx.read_ram32 c (a c)
  | Insn.Env, Some s, _, _ -> fun c -> c.Ctx.env.(s)
  | Insn.Tlb, Some s, _, _ -> fun c -> c.Ctx.tlb.(s)
  | (Insn.Env | Insn.Tlb), None, Some b, None ->
    let env = m.Insn.seg = Insn.Env and d = m.Insn.disp in
    fun c ->
      let a = Word32.mask (c.Ctx.regs.(b) + d) in
      assert (a land 3 = 0);
      (words c env).(a lsr 2)
  | (Insn.Env | Insn.Tlb), None, _, _ ->
    let env = m.Insn.seg = Insn.Env and a = address m in
    fun c ->
      let a = a c in
      assert (a land 3 = 0);
      (words c env).(a lsr 2)

(* [v] arrives masked *)
let store32 (m : Insn.mem) : Ctx.t -> int -> unit =
  match (m.Insn.seg, const_slot m, m.Insn.base, m.Insn.index) with
  | Insn.Ram, _, Some b, None ->
    let d = m.Insn.disp in
    fun c v -> Ctx.write_ram32 c (Word32.mask (c.Ctx.regs.(b) + d)) v
  | Insn.Ram, _, _, _ ->
    let a = address m in
    fun c v -> Ctx.write_ram32 c (a c) v
  | Insn.Env, Some s, _, _ -> fun c v -> c.Ctx.env.(s) <- v
  | Insn.Tlb, Some s, _, _ -> fun c v -> c.Ctx.tlb.(s) <- v
  | (Insn.Env | Insn.Tlb), None, Some b, None ->
    let env = m.Insn.seg = Insn.Env and d = m.Insn.disp in
    fun c v ->
      let a = Word32.mask (c.Ctx.regs.(b) + d) in
      assert (a land 3 = 0);
      (words c env).(a lsr 2) <- v
  | (Insn.Env | Insn.Tlb), None, _, _ ->
    let env = m.Insn.seg = Insn.Env and a = address m in
    fun c v ->
      let a = a c in
      assert (a land 3 = 0);
      (words c env).(a lsr 2) <- v

(* Sub-word accesses: RAM is byte-addressed; an Env/Tlb access reads
   or merges the low bits of the containing word (no alignment
   check). *)
let load_narrow ~bits (m : Insn.mem) : Ctx.t -> int =
  let a = address m in
  match m.Insn.seg with
  | Insn.Ram ->
    if bits = 8 then fun c -> Ctx.read_ram8 c (a c) else fun c -> Ctx.read_ram16 c (a c)
  | Insn.Env | Insn.Tlb ->
    let env = m.Insn.seg = Insn.Env and mask = (1 lsl bits) - 1 in
    fun c -> (words c env).(a c lsr 2) land mask

let store_narrow ~bits (m : Insn.mem) : Ctx.t -> int -> unit =
  let a = address m in
  match m.Insn.seg with
  | Insn.Ram ->
    if bits = 8 then fun c v -> Ctx.write_ram8 c (a c) v
    else fun c v -> Ctx.write_ram16 c (a c) v
  | Insn.Env | Insn.Tlb ->
    let env = m.Insn.seg = Insn.Env in
    fun c v ->
      let w = words c env and s = a c lsr 2 in
      w.(s) <- Word32.insert w.(s) ~lo:0 ~len:bits v

(* ---------- operands ---------- *)

let read32 : Insn.operand -> Ctx.t -> int = function
  | Insn.Reg r -> fun c -> c.Ctx.regs.(r)
  | Insn.Imm n ->
    let v = Word32.mask n in
    fun _ -> v
  | Insn.Mem m -> load32 m

let write32 : Insn.operand -> Ctx.t -> int -> unit = function
  | Insn.Reg r -> fun c v -> c.Ctx.regs.(r) <- Word32.mask v
  | Insn.Mem m ->
    let st = store32 m in
    fun c v -> st c (Word32.mask v)
  | Insn.Imm _ -> fun _ _ -> write_to_immediate ()

let read_narrow ~bits : Insn.operand -> Ctx.t -> int =
  let mask = (1 lsl bits) - 1 in
  function
  | Insn.Reg r -> fun c -> c.Ctx.regs.(r) land mask
  | Insn.Imm n ->
    let v = n land mask in
    fun _ -> v
  | Insn.Mem m -> load_narrow ~bits m

let write_narrow ~bits : Insn.operand -> Ctx.t -> int -> unit = function
  | Insn.Reg r -> fun c v -> c.Ctx.regs.(r) <- Word32.insert c.Ctx.regs.(r) ~lo:0 ~len:bits v
  | Insn.Mem m -> store_narrow ~bits m
  | Insn.Imm _ -> fun _ _ -> write_to_immediate ()

(* ---------- flags and arithmetic ---------- *)

let set_sz (c : Ctx.t) r =
  c.Ctx.zf <- r = 0;
  c.Ctx.sf <- Word32.is_negative r

let set_logic (c : Ctx.t) r =
  c.Ctx.zf <- r = 0;
  c.Ctx.sf <- Word32.is_negative r;
  c.Ctx.cf <- false;
  c.Ctx.o_f <- false

let alu_add (c : Ctx.t) a b =
  let r = Word32.add a b in
  c.Ctx.cf <- Word32.carry_of_add a b ~carry_in:false;
  c.Ctx.o_f <- Word32.overflow_of_add a b r;
  set_sz c r;
  r

let alu_adc (c : Ctx.t) a b =
  let cin = c.Ctx.cf in
  let r = Word32.mask (a + b + if cin then 1 else 0) in
  c.Ctx.cf <- Word32.carry_of_add a b ~carry_in:cin;
  c.Ctx.o_f <- Word32.overflow_of_add a b r;
  set_sz c r;
  r

let alu_sub (c : Ctx.t) a b =
  let r = Word32.sub a b in
  c.Ctx.cf <- Word32.borrow_of_sub a b ~borrow_in:false;
  c.Ctx.o_f <- Word32.overflow_of_sub a b r;
  set_sz c r;
  r

let alu_sbb (c : Ctx.t) a b =
  let bin = c.Ctx.cf in
  let r = Word32.mask (a - b - if bin then 1 else 0) in
  c.Ctx.cf <- Word32.borrow_of_sub a b ~borrow_in:bin;
  c.Ctx.o_f <- Word32.overflow_of_sub a b r;
  set_sz c r;
  r

let alu_and c a b =
  let r = a land b in
  set_logic c r;
  r

let alu_or c a b =
  let r = a lor b in
  set_logic c r;
  r

let alu_xor c a b =
  let r = a lxor b in
  set_logic c r;
  r

(* [Cmp] and [Test] are [Sub] and [And] without the write-back. *)
let alu_fn : Insn.alu_op -> Ctx.t -> int -> int -> int = function
  | Insn.Add -> alu_add
  | Insn.Adc -> alu_adc
  | Insn.Sub | Insn.Cmp -> alu_sub
  | Insn.Sbb -> alu_sbb
  | Insn.And | Insn.Test -> alu_and
  | Insn.Or -> alu_or
  | Insn.Xor -> alu_xor

let alu op dst src next : op =
  let f = alu_fn op in
  match (op, dst, src) with
  | (Insn.Cmp | Insn.Test), Insn.Reg d, Insn.Reg s ->
    fun c ->
      ignore (f c c.Ctx.regs.(d) c.Ctx.regs.(s));
      next
  | (Insn.Cmp | Insn.Test), Insn.Reg d, Insn.Imm n ->
    let v = Word32.mask n in
    fun c ->
      ignore (f c c.Ctx.regs.(d) v);
      next
  | (Insn.Cmp | Insn.Test), _, _ ->
    let rd = read32 dst and rs = read32 src in
    fun c ->
      let a = rd c in
      ignore (f c a (rs c));
      next
  | _, Insn.Reg d, Insn.Reg s ->
    fun c ->
      c.Ctx.regs.(d) <- Word32.mask (f c c.Ctx.regs.(d) c.Ctx.regs.(s));
      next
  | _, Insn.Reg d, Insn.Imm n ->
    let v = Word32.mask n in
    fun c ->
      c.Ctx.regs.(d) <- Word32.mask (f c c.Ctx.regs.(d) v);
      next
  | _, Insn.Reg d, Insn.Mem m ->
    let ld = load32 m in
    fun c ->
      let a = c.Ctx.regs.(d) in
      c.Ctx.regs.(d) <- Word32.mask (f c a (ld c));
      next
  | _, (Insn.Mem _ | Insn.Imm _), _ ->
    let rd = read32 dst and rs = read32 src and wr = write32 dst in
    fun c ->
      let a = rd c in
      let b = rs c in
      wr c (f c a b);
      next

let shl (c : Ctx.t) v n =
  let r = Word32.shift_left v n in
  c.Ctx.cf <- Word32.bit v (32 - n);
  c.Ctx.o_f <- false;
  set_sz c r;
  r

let shr (c : Ctx.t) v n =
  let r = Word32.shift_right_logical v n in
  c.Ctx.cf <- Word32.bit v (n - 1);
  c.Ctx.o_f <- false;
  set_sz c r;
  r

let sar (c : Ctx.t) v n =
  let r = Word32.shift_right_arith v n in
  c.Ctx.cf <- Word32.bit v (n - 1);
  c.Ctx.o_f <- false;
  set_sz c r;
  r

(* x86 ror updates only CF (and OF for 1-bit); SF/ZF preserved. *)
let ror (c : Ctx.t) v n =
  let r = Word32.rotate_right v n in
  c.Ctx.cf <- Word32.bit r 31;
  r

let shift_fn : Insn.shift_op -> Ctx.t -> int -> int -> int = function
  | Insn.Shl -> shl
  | Insn.Shr -> shr
  | Insn.Sar -> sar
  | Insn.Ror -> ror

(* A zero count leaves flags and destination alone; the destination
   is still read, as a memory operand's checks demand. *)
let shift op dst amount next : op =
  let f = shift_fn op and rd = read32 dst in
  match (amount, dst) with
  | Insn.Sh_imm k, _ when k land 31 = 0 ->
    fun c ->
      ignore (rd c);
      next
  | Insn.Sh_imm k, Insn.Reg r ->
    let n = k land 31 in
    fun c ->
      c.Ctx.regs.(r) <- Word32.mask (f c c.Ctx.regs.(r) n);
      next
  | Insn.Sh_imm k, _ ->
    let n = k land 31 and wr = write32 dst in
    fun c ->
      wr c (f c (rd c) n);
      next
  | Insn.Sh_cl, _ ->
    let wr = write32 dst in
    fun c ->
      let v = rd c in
      let n = c.Ctx.regs.(Insn.rcx) land 31 in
      if n <> 0 then wr c (f c v n);
      next

(* ---------- conditions ---------- *)

let cond : Insn.cc -> Ctx.t -> bool = function
  | Insn.E -> fun c -> c.Ctx.zf
  | Insn.NE -> fun c -> not c.Ctx.zf
  | Insn.B -> fun c -> c.Ctx.cf
  | Insn.AE -> fun c -> not c.Ctx.cf
  | Insn.S -> fun c -> c.Ctx.sf
  | Insn.NS -> fun c -> not c.Ctx.sf
  | Insn.O -> fun c -> c.Ctx.o_f
  | Insn.NO -> fun c -> not c.Ctx.o_f
  | Insn.A -> fun c -> (not c.Ctx.cf) && not c.Ctx.zf
  | Insn.BE -> fun c -> c.Ctx.cf || c.Ctx.zf
  | Insn.GE -> fun c -> c.Ctx.sf = c.Ctx.o_f
  | Insn.L -> fun c -> c.Ctx.sf <> c.Ctx.o_f
  | Insn.G -> fun c -> (not c.Ctx.zf) && c.Ctx.sf = c.Ctx.o_f
  | Insn.LE -> fun c -> c.Ctx.zf || c.Ctx.sf <> c.Ctx.o_f

(* Conditional branches are the executor's most frequent control
   transfer: each condition code gets its own closure. *)
let jcc cc target next : op =
  match cc with
  | Insn.E -> fun c -> if c.Ctx.zf then target else next
  | Insn.NE -> fun c -> if c.Ctx.zf then next else target
  | Insn.B -> fun c -> if c.Ctx.cf then target else next
  | Insn.AE -> fun c -> if c.Ctx.cf then next else target
  | Insn.S -> fun c -> if c.Ctx.sf then target else next
  | Insn.NS -> fun c -> if c.Ctx.sf then next else target
  | Insn.O -> fun c -> if c.Ctx.o_f then target else next
  | Insn.NO -> fun c -> if c.Ctx.o_f then next else target
  | Insn.A -> fun c -> if (not c.Ctx.cf) && not c.Ctx.zf then target else next
  | Insn.BE -> fun c -> if c.Ctx.cf || c.Ctx.zf then target else next
  | Insn.GE -> fun c -> if c.Ctx.sf = c.Ctx.o_f then target else next
  | Insn.L -> fun c -> if c.Ctx.sf <> c.Ctx.o_f then target else next
  | Insn.G -> fun c -> if (not c.Ctx.zf) && c.Ctx.sf = c.Ctx.o_f then target else next
  | Insn.LE -> fun c -> if c.Ctx.zf || c.Ctx.sf <> c.Ctx.o_f then target else next

(* ---------- instructions ---------- *)

let mov_narrow ~bits dst src next : op =
  let rs = read_narrow ~bits src and wr = write_narrow ~bits dst in
  fun c ->
    wr c (rs c);
    next

let counter (cnt : Insn.counter) next : op =
  match cnt with
  | Insn.Cnt_guest_insn attr ->
    fun c ->
      Stats.retire c.Ctx.stats attr;
      next
  | Insn.Cnt_sync_op ->
    fun c ->
      let s = c.Ctx.stats in
      s.Stats.sync_ops <- s.Stats.sync_ops + 1;
      next
  | Insn.Cnt_mmu_access ->
    fun c ->
      let s = c.Ctx.stats in
      s.Stats.mmu_accesses <- s.Stats.mmu_accesses + 1;
      next
  | Insn.Cnt_irq_poll ->
    fun c ->
      let s = c.Ctx.stats in
      s.Stats.irq_polls <- s.Stats.irq_polls + 1;
      next

(* [target l] is the operation index label [l] resolves to, or a
   negative value for an unbound label. *)
let insn (i : Insn.t) ~next ~target : op =
  match i with
  | Insn.Label _ -> invalid_arg "Compile.insn: labels are not operations"
  | Insn.Count cnt -> counter cnt next
  | Insn.Mov { width = Insn.W32; dst = Insn.Reg d; src = Insn.Reg s } ->
    fun c ->
      c.Ctx.regs.(d) <- Word32.mask c.Ctx.regs.(s);
      next
  | Insn.Mov { width = Insn.W32; dst = Insn.Reg d; src = Insn.Imm n } ->
    let v = Word32.mask n in
    fun c ->
      c.Ctx.regs.(d) <- v;
      next
  | Insn.Mov { width = Insn.W32; dst = Insn.Reg d; src = Insn.Mem m } ->
    let ld = load32 m in
    fun c ->
      c.Ctx.regs.(d) <- Word32.mask (ld c);
      next
  | Insn.Mov { width = Insn.W32; dst = Insn.Mem m; src = Insn.Reg s } ->
    let st = store32 m in
    fun c ->
      st c (Word32.mask c.Ctx.regs.(s));
      next
  | Insn.Mov { width = Insn.W32; dst; src } ->
    let rs = read32 src and wr = write32 dst in
    fun c ->
      wr c (rs c);
      next
  | Insn.Mov { width = Insn.W16; dst; src } -> mov_narrow ~bits:16 dst src next
  | Insn.Mov { width = Insn.W8; dst; src } -> mov_narrow ~bits:8 dst src next
  | Insn.Movzx8 { dst; src } ->
    let rs = read_narrow ~bits:8 src in
    fun c ->
      c.Ctx.regs.(dst) <- rs c;
      next
  | Insn.Movzx16 { dst; src } ->
    let rs = read_narrow ~bits:16 src in
    fun c ->
      c.Ctx.regs.(dst) <- rs c;
      next
  | Insn.Movsx8 { dst; src } ->
    let rs = read_narrow ~bits:8 src in
    fun c ->
      c.Ctx.regs.(dst) <- Word32.mask (Word32.sign_extend ~width:8 (rs c));
      next
  | Insn.Movsx16 { dst; src } ->
    let rs = read_narrow ~bits:16 src in
    fun c ->
      c.Ctx.regs.(dst) <- Word32.mask (Word32.sign_extend ~width:16 (rs c));
      next
  | Insn.Lea { dst; addr } -> (
    let disp = addr.Insn.disp in
    match (addr.Insn.base, addr.Insn.index) with
    | Some b, None ->
      fun c ->
        c.Ctx.regs.(dst) <- Word32.mask (c.Ctx.regs.(b) + disp);
        next
    | _ ->
      let a = address addr in
      fun c ->
        c.Ctx.regs.(dst) <- a c;
        next)
  | Insn.Alu { op; dst; src } -> alu op dst src next
  | Insn.Neg o ->
    let rd = read32 o and wr = write32 o in
    fun c ->
      let v = rd c in
      let r = Word32.neg v in
      c.Ctx.cf <- v <> 0;
      c.Ctx.o_f <- v = 0x8000_0000;
      set_sz c r;
      wr c r;
      next
  | Insn.Not o ->
    let rd = read32 o and wr = write32 o in
    fun c ->
      wr c (Word32.lognot (rd c));
      next
  | Insn.Imul { dst; src } ->
    (* Model simplification: imul defines SF/ZF, clears CF/OF. *)
    let rs = read32 src in
    fun c ->
      let b = rs c in
      let r = Word32.mul c.Ctx.regs.(dst) b in
      c.Ctx.regs.(dst) <- r;
      set_logic c r;
      next
  | Insn.Shift { op; dst; amount } -> shift op dst amount next
  | Insn.Setcc { cc; dst } ->
    let p = cond cc in
    fun c ->
      c.Ctx.regs.(dst) <- (if p c then 1 else 0);
      next
  | Insn.Cmovcc { cc; dst; src } ->
    let p = cond cc and rs = read32 src in
    fun c ->
      if p c then c.Ctx.regs.(dst) <- rs c;
      next
  | Insn.Jcc { cc; target = l } ->
    let t = target l in
    if t < 0 then
      let p = cond cc in
      fun c -> if p c then undefined_label l else next
    else jcc cc t next
  | Insn.Jmp l ->
    let t = target l in
    if t < 0 then fun _ -> undefined_label l else fun _ -> t
  | Insn.Savef r ->
    fun c ->
      c.Ctx.regs.(r) <- Ctx.get_flags_word c;
      next
  | Insn.Loadf r ->
    fun c ->
      Ctx.set_flags_word c c.Ctx.regs.(r);
      next
  | Insn.Call_helper { id } ->
    fun c ->
      let s = c.Ctx.stats in
      s.Stats.helper_calls <- s.Stats.helper_calls + 1;
      let ret = c.Ctx.helper c id in
      Ctx.poison_caller_saved c;
      c.Ctx.regs.(Insn.rax) <- Word32.mask ret;
      next
  | Insn.Exit { slot } ->
    if slot < 0 then fun _ -> invalid_arg "Exec: negative exit slot"
    else
      let r = -1 - slot in
      fun _ -> r
