open Repro_common

type t = {
  regs : int array;
  mutable cf : bool;
  mutable zf : bool;
  mutable sf : bool;
  mutable o_f : bool;
  env : int array;
  ram : Bytes.t;
  dirty : Bytes.t;
  clean : string array;
  tlb : int array;
  stats : Stats.t;
  mutable helper : t -> int -> int;
  mutable poison_counter : int;
}

let page_bits = 12
let page_bytes = 1 lsl page_bits
let pages ram_size = (ram_size + page_bytes - 1) / page_bytes

let create ?(env_slots = 64) ?(ram_size = 1 lsl 20) ?(tlb_words = 768) () =
  let n = pages ram_size in
  let zero = String.make page_bytes '\000' in
  let last = String.make (ram_size - ((n - 1) * page_bytes)) '\000' in
  {
    regs = Array.make 16 0;
    cf = false;
    zf = false;
    sf = false;
    o_f = false;
    env = Array.make env_slots 0;
    ram = Bytes.make ram_size '\000';
    dirty = Bytes.make n '\000';
    clean = Array.init n (fun i -> if i = n - 1 then last else zero);
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

(* Called after a bounds-checked write of [ram.[addr]], so the page
   index is in range. Unmodelled: no [Stats] charge. *)
let mark dirty addr = Bytes.unsafe_set dirty (addr lsr page_bits) '\001'

(* One bounds-checked store: an out-of-range access raises before
   writing anything, so no byte can change without its page marked. *)
let write_ram32 t addr v =
  Bytes.set_int32_le t.ram addr (Int32.of_int v);
  mark t.dirty addr;
  mark t.dirty (addr + 3)

let read_ram8 t addr = Char.code (Bytes.get t.ram addr)

let write_ram8 t addr v =
  Bytes.set t.ram addr (Char.chr (v land 0xFF));
  mark t.dirty addr

let read_ram16 t addr =
  Char.code (Bytes.get t.ram addr) lor (Char.code (Bytes.get t.ram (addr + 1)) lsl 8)

let write_ram16 t addr v =
  Bytes.set_uint16_le t.ram addr (v land 0xFFFF);
  mark t.dirty addr;
  mark t.dirty (addr + 1)

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
