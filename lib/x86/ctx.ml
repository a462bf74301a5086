open Repro_common

type t = {
  regs : int array;
  mutable cf : bool;
  mutable zf : bool;
  mutable sf : bool;
  mutable o_f : bool;
  env : int array;
  ram : Bytes.t;
  tlb : int array;
  stats : Stats.t;
  mutable helper : t -> int -> int;
  mutable poison_counter : int;
}

let create ?(env_slots = 64) ?(ram_size = 1 lsl 20) ?(tlb_words = 768) () =
  {
    regs = Array.make 16 0;
    cf = false;
    zf = false;
    sf = false;
    o_f = false;
    env = Array.make env_slots 0;
    ram = Bytes.make ram_size '\000';
    tlb = Array.make tlb_words 0;
    stats = Stats.create ();
    helper = (fun _ _ -> failwith "Exec: no helper dispatcher installed");
    poison_counter = 0;
  }

let get_flags_word t =
  let b cond bit = if cond then 1 lsl bit else 0 in
  b t.sf 31 lor b t.zf 30 lor b t.cf 29 lor b t.o_f 28

let set_flags_word t w =
  t.sf <- Word32.bit w 31;
  t.zf <- Word32.bit w 30;
  t.cf <- Word32.bit w 29;
  t.o_f <- Word32.bit w 28

let read_ram32 t addr =
  Char.code (Bytes.get t.ram addr)
  lor (Char.code (Bytes.get t.ram (addr + 1)) lsl 8)
  lor (Char.code (Bytes.get t.ram (addr + 2)) lsl 16)
  lor (Char.code (Bytes.get t.ram (addr + 3)) lsl 24)

let write_ram32 t addr v =
  Bytes.set t.ram addr (Char.chr (v land 0xFF));
  Bytes.set t.ram (addr + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set t.ram (addr + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set t.ram (addr + 3) (Char.chr ((v lsr 24) land 0xFF))

let read_ram8 t addr = Char.code (Bytes.get t.ram addr)
let write_ram8 t addr v = Bytes.set t.ram addr (Char.chr (v land 0xFF))

let read_ram16 t addr =
  Char.code (Bytes.get t.ram addr) lor (Char.code (Bytes.get t.ram (addr + 1)) lsl 8)

let write_ram16 t addr v =
  Bytes.set t.ram addr (Char.chr (v land 0xFF));
  Bytes.set t.ram (addr + 1) (Char.chr ((v lsr 8) land 0xFF))

(* Deterministic, obviously-wrong values: coordination bugs surface as
   0xBAD... register contents in differential tests. Registers other
   than rsp (4) and rbp (5) take the next 14 counter values in
   register order. This runs on every helper return, so it is two
   straight loops rather than a per-register test. *)
let poison_caller_saved t =
  let p = 0xBAD0000 + t.poison_counter in
  for r = Insn.rax to Insn.rbx do
    t.regs.(r) <- Word32.mask (p + r + 1)
  done;
  for r = Insn.rsi to Insn.r15 do
    t.regs.(r) <- Word32.mask (p + r - 1)
  done;
  t.poison_counter <- t.poison_counter + 14
