(* Seeded generator of well-formed host programs for the executor
   identity test.

   Each case builds a random translation-block program that touches
   every instruction constructor, every operand shape (register,
   immediate, memory in each segment with every base/index/scale
   combination), all three widths and all fourteen condition codes,
   forward and backward jumps, counters, helper calls and exits. It
   runs the program on a randomised context and reduces the final
   machine (outcome, registers, flags, env, TLB, RAM and
   [Stats.to_array]) to one digest. Golden digests live in
   [Exec_golden]. Only the stable public surface of [Prog], [Exec] and
   [Stats] is used, so the same file runs against any executor. *)

module X = Repro_x86.Insn
module Prog = Repro_x86.Prog
module Exec = Repro_x86.Exec
module Stats = Repro_x86.Stats
module Prng = Repro_common.Prng

let env_slots = 64
let ram_size = 4096
let tlb_words = 96

(* rsp is the loop counter of backward jumps: nothing else writes it
   (helper returns poison every register but rbp/rsp). *)
let loop_reg = X.rsp
let dst_regs = [| 0; 1; 2; 3; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 |]
let low_pool = [| 0; 1; 2; 3; 5; 6; 7 |]
let high_pool = [| 8; 9; 10; 11; 12; 13; 14; 15 |]
let all_tags = Array.of_list X.all_tags
let all_ccs = X.[| E; NE; B; AE; S; NS; O; NO; A; BE; GE; L; G; LE |]
let alu_ops = X.[| Add; Adc; Sub; Sbb; And; Or; Xor; Cmp; Test |]
let shift_ops = X.[| Shl; Shr; Sar; Ror |]

type g = {
  rng : Prng.t;
  b : Prog.builder;
  seen : (string, unit) Hashtbl.t;  (* coverage keys *)
}

let see g k = Hashtbl.replace g.seen k ()
let int g n = Prng.int g.rng n
let pick g a = Prng.pick g.rng a
let emit g i = Prog.emit g.b ~tag:(pick g all_tags) i
let mov_imm g r v = emit g (X.Mov { width = X.W32; dst = X.Reg r; src = X.Imm v })

let cc g =
  let c = pick g all_ccs in
  see g ("cc:" ^ X.cc_name c);
  c

let imm g =
  match int g 3 with
  | 0 -> Prng.word g.rng
  | 1 -> int g 64
  | _ -> -(1 + int g 300)  (* masking of negative immediates *)

let seg_name = function X.Env -> "env" | X.Ram -> "ram" | X.Tlb -> "tlb"

(* A memory operand whose effective address lands in range, with the
   base/index registers loaded just before the instruction. [wide]
   accesses to Env/Tlb must be 4-byte aligned; narrow ones and RAM
   need not be. Registers come from [pool] so two memory operands of
   one instruction never share a setup register. *)
let mem g ~wide ~pool =
  let seg = pick g [| X.Env; X.Ram; X.Tlb |] in
  let limit =
    match seg with X.Env -> env_slots * 4 | X.Ram -> ram_size | X.Tlb -> tlb_words * 4
  in
  let addr =
    if wide && seg <> X.Ram then 4 * int g (limit / 4)
    else if wide then int g (limit - 3)
    else int g (limit - 1)
  in
  let shape = int g 4 in
  let scale = pick g [| 1; 2; 4; 8 |] in
  let n = Array.length pool in
  let bi = int g n in
  let base_r = pool.(bi) and index_r = pool.((bi + 1 + int g (n - 1)) mod n) in
  let iv = int g 8 and bv = addr + int g 2000 in
  let m =
    match shape with
    | 0 -> { X.seg; base = None; index = None; scale = 1; disp = addr }
    | 1 ->
      mov_imm g base_r bv;
      { X.seg; base = Some base_r; index = None; scale = 1; disp = addr - bv }
    | 2 ->
      mov_imm g index_r iv;
      { X.seg; base = None; index = Some index_r; scale; disp = addr - (iv * scale) }
    | _ ->
      mov_imm g base_r bv;
      mov_imm g index_r iv;
      { X.seg; base = Some base_r; index = Some index_r; scale;
        disp = addr - bv - (iv * scale) }
  in
  see g
    (Printf.sprintf "mem:%s:%s:%d" (seg_name seg)
       (match shape with 0 -> "disp" | 1 -> "base" | 2 -> "index" | _ -> "base+index")
       (if shape >= 2 then scale else 1));
  m

let src g ~wide ~pool =
  match int g 3 with
  | 0 -> see g "src:reg"; X.Reg (int g 16)
  | 1 -> see g "src:imm"; X.Imm (imm g)
  | _ -> see g "src:mem"; X.Mem (mem g ~wide ~pool)

let dst g ~wide ~pool =
  if Prng.bool g.rng then begin
    see g "dst:reg";
    X.Reg (pick g dst_regs)
  end
  else begin
    see g "dst:mem";
    X.Mem (mem g ~wide ~pool)
  end

(* two-operand instruction: operands draw setup registers from
   disjoint pools *)
let dst_src g ~wide =
  let s = src g ~wide ~pool:high_pool in
  let d = dst g ~wide ~pool:low_pool in
  (d, s)

let width_name = function X.W8 -> "W8" | X.W16 -> "W16" | X.W32 -> "W32"

let simple g =
  match int g 16 with
  | 0 | 1 ->
    let width = pick g [| X.W8; X.W16; X.W32 |] in
    see g ("mov:" ^ width_name width);
    let d, s = dst_src g ~wide:(width = X.W32) in
    (match d with
    | X.Mem m -> see g (Printf.sprintf "mov:%s:wr:%s" (width_name width) (seg_name m.X.seg))
    | X.Reg _ | X.Imm _ -> ());
    (match s with
    | X.Mem m -> see g (Printf.sprintf "mov:%s:rd:%s" (width_name width) (seg_name m.X.seg))
    | X.Reg _ | X.Imm _ -> ());
    emit g (X.Mov { width; dst = d; src = s })
  | 2 ->
    let d = pick g dst_regs in
    let s = src g ~wide:false ~pool:high_pool in
    (match s with
    | X.Mem m -> see g ("ext:rd:" ^ seg_name m.X.seg)
    | X.Reg _ | X.Imm _ -> ());
    (match int g 4 with
    | 0 -> see g "movzx8"; emit g (X.Movzx8 { dst = d; src = s })
    | 1 -> see g "movzx16"; emit g (X.Movzx16 { dst = d; src = s })
    | 2 -> see g "movsx8"; emit g (X.Movsx8 { dst = d; src = s })
    | _ -> see g "movsx16"; emit g (X.Movsx16 { dst = d; src = s }))
  | 3 ->
    see g "lea";
    let opt () = if Prng.bool g.rng then Some (int g 16) else None in
    let addr =
      { X.seg = pick g [| X.Env; X.Ram; X.Tlb |]; base = opt (); index = opt ();
        scale = pick g [| 1; 2; 4; 8 |]; disp = imm g }
    in
    emit g (X.Lea { dst = pick g dst_regs; addr })
  | 4 | 5 | 6 ->
    let k = int g (Array.length alu_ops) in
    let op = alu_ops.(k) in
    see g (Printf.sprintf "alu:%d" k);
    let d, s = dst_src g ~wide:true in
    emit g (X.Alu { op; dst = d; src = s })
  | 7 ->
    let d = dst g ~wide:true ~pool:low_pool in
    if Prng.bool g.rng then (see g "neg"; emit g (X.Neg d))
    else (see g "not"; emit g (X.Not d))
  | 8 ->
    see g "imul";
    let s = src g ~wide:true ~pool:high_pool in
    emit g (X.Imul { dst = pick g dst_regs; src = s })
  | 9 ->
    let k = int g (Array.length shift_ops) in
    let op = shift_ops.(k) in
    see g (Printf.sprintf "shift:%d" k);
    let amount =
      if Prng.bool g.rng then (see g "shift:cl"; X.Sh_cl)
      else (see g "shift:imm"; X.Sh_imm (int g 40))
    in
    let d = dst g ~wide:true ~pool:low_pool in
    emit g (X.Shift { op; dst = d; amount })
  | 10 ->
    see g "setcc";
    let c = cc g in
    emit g (X.Setcc { cc = c; dst = pick g dst_regs })
  | 11 ->
    see g "cmovcc";
    let c = cc g in
    let s = src g ~wide:true ~pool:high_pool in
    emit g (X.Cmovcc { cc = c; dst = pick g dst_regs; src = s })
  | 12 ->
    if Prng.bool g.rng then (see g "savef"; emit g (X.Savef (pick g dst_regs)))
    else (see g "loadf"; emit g (X.Loadf (int g 16)))
  | 13 | 14 ->
    let c =
      match int g 4 with
      | 0 -> see g "count:guest"; X.Cnt_guest_insn (int g 6)
      | 1 -> see g "count:sync"; X.Cnt_sync_op
      | 2 -> see g "count:mmu"; X.Cnt_mmu_access
      | _ -> see g "count:irq"; X.Cnt_irq_poll
    in
    emit g (X.Count c)
  | _ ->
    (* helper 3 stops the TB; keep it rare so most cases run on *)
    let id = if int g 12 = 0 then 3 else int g 3 in
    see g (Printf.sprintf "helper:%d" id);
    emit g (X.Call_helper { id })

(* Code the executor must skip without complaint: a write to an
   immediate and a misaligned Env access. *)
let dead g =
  see g "dead";
  match int g 2 with
  | 0 -> emit g (X.Mov { width = X.W32; dst = X.Imm 5; src = X.Reg (int g 16) })
  | _ ->
    emit g
      (X.Mov { width = X.W32; dst = X.Reg 0;
               src = X.Mem { X.seg = X.Env; base = None; index = None; scale = 1; disp = 6 } })

let rec snippet g ~depth ~in_loop =
  match int g 12 with
  | 0 when depth < 2 ->
    (* forward conditional jump over a nested block *)
    see g "jcc:fwd";
    let l = Prog.fresh_label g.b in
    emit g (X.Jcc { cc = cc g; target = l });
    for _ = 0 to int g 3 do snippet g ~depth:(depth + 1) ~in_loop done;
    Prog.bind_label g.b l
  | 1 when depth < 2 ->
    (* unconditional forward jump over dead code *)
    see g "jmp:fwd";
    let l = Prog.fresh_label g.b in
    emit g (X.Jmp l);
    dead g;
    for _ = 0 to int g 2 do snippet g ~depth:(depth + 1) ~in_loop done;
    Prog.bind_label g.b l
  | 2 when depth = 0 && not in_loop ->
    (* bounded backward loop on the reserved counter *)
    see g "jcc:back";
    mov_imm g loop_reg (1 + int g 4);
    let top = Prog.fresh_label g.b in
    Prog.bind_label g.b top;
    for _ = 0 to 1 + int g 4 do snippet g ~depth:1 ~in_loop:true done;
    emit g (X.Alu { op = X.Sub; dst = X.Reg loop_reg; src = X.Imm 1 });
    if Prng.bool g.rng then emit g (X.Jcc { cc = X.NE; target = top })
    else begin
      (* exit the loop through a forward jump, re-enter with jmp *)
      see g "jmp:back";
      let out = Prog.fresh_label g.b in
      emit g (X.Jcc { cc = X.E; target = out });
      emit g (X.Jmp top);
      Prog.bind_label g.b out
    end
  | 3 ->
    (* mid-program conditional exit *)
    see g "exit:mid";
    let l = Prog.fresh_label g.b in
    emit g (X.Jcc { cc = cc g; target = l });
    emit g (X.Exit { slot = int g 4 });
    Prog.bind_label g.b l
  | _ -> simple g

(* Deterministic helpers: 0 and 1 compute and touch memory, 2 writes
   RAM and charges a modelled body cost, 3 stops the TB. *)
let helper (c : Exec.t) id =
  let a0 = c.Exec.regs.(X.rdi) and a1 = c.Exec.regs.(X.rsi) in
  match id with
  | 0 -> a0 + (3 * a1) + 1
  | 1 ->
    c.Exec.env.(a0 land 63) <- a1;
    a0 lxor 0x5A5A
  | 2 ->
    Stats.charge_tag c.Exec.stats X.Tag_glue 3;
    c.Exec.stats.Stats.helper_insns <- c.Exec.stats.Stats.helper_insns + 3;
    Exec.write_ram8 c (a0 land (ram_size - 1)) a1;
    c.Exec.tlb.(a1 land (tlb_words - 1)) <- a0;
    c.Exec.poison_counter
  | _ -> raise (Exec.Helper_stop { code = 7; arg = a0 land 0xFFFF })

let fresh_ctx rng =
  let c = Exec.create ~env_slots ~ram_size ~tlb_words () in
  for r = 0 to 15 do c.Exec.regs.(r) <- Prng.word rng done;
  Exec.set_flags_word c (Prng.word rng);
  for i = 0 to env_slots - 1 do c.Exec.env.(i) <- Prng.word rng done;
  for i = 0 to tlb_words - 1 do c.Exec.tlb.(i) <- Prng.word rng done;
  for i = 0 to ram_size - 1 do Exec.write_ram8 c i (Prng.int rng 256) done;
  c.Exec.helper <- helper;
  c

let generate ?seen seed =
  let g =
    {
      rng = Prng.create ~seed:(0x5EED0000 + seed);
      b = Prog.builder ();
      seen = (match seen with Some s -> s | None -> Hashtbl.create 64);
    }
  in
  for _ = 0 to 20 + int g 40 do snippet g ~depth:0 ~in_loop:false done;
  emit g (X.Exit { slot = int g 4 });
  see g "exit:end";
  let fuel = if seed mod 8 = 7 then 5 + int g 80 else 100_000 in
  (Prog.finalize g.b, fuel, g.rng)

let hex_words a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%x") a))

(* Outcome string and state digest of one generated case. *)
let run_case seed =
  let prog, fuel, rng = generate seed in
  let c = fresh_ctx rng in
  let outcome =
    match Exec.run c prog ~fuel with
    | Exec.Exited s -> Printf.sprintf "exit %d" s
    | Exec.Stopped { code; arg } -> Printf.sprintf "stop %d %d" code arg
    | exception Exec.Fuel_exhausted { spent } -> Printf.sprintf "fuel %d" spent
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf outcome;
  Buffer.add_string buf (hex_words c.Exec.regs);
  Buffer.add_string buf (Printf.sprintf "|%x|%d|" (Exec.get_flags_word c) c.Exec.poison_counter);
  Buffer.add_string buf (hex_words c.Exec.env);
  Buffer.add_string buf (hex_words c.Exec.tlb);
  Buffer.add_bytes buf c.Exec.ram;
  Buffer.add_string buf (hex_words (Stats.to_array c.Exec.stats));
  (outcome, Digest.to_hex (Digest.string (Buffer.contents buf)))

let cases = 240
