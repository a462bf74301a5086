(* Machine snapshots: the "DBTSNAP" schema over [Repro_common.Container].
   The machine-core capture covers everything below the translation
   cache, which [Repro_dbt.System] layers on as further sections of the
   same container. *)

module Rt = Repro_tcg.Runtime
module Exec = Repro_x86.Exec
module Ctx = Repro_x86.Ctx
module Stats = Repro_x86.Stats
module Cpu = Repro_arm.Cpu
module Bus = Repro_machine.Bus
module Devices = Repro_machine.Devices
module Tlb = Repro_mmu.Mmu.Tlb
module Fi = Repro_faultinject.Faultinject
module Container = Repro_common.Container
module Enc = Container.Enc
module Dec = Container.Dec

let magic = "DBTSNAP\x01"
let format_version = 2

exception Corrupt = Container.Corrupt
exception Load_error of { section : string; reason : string }

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type t = Container.t

let to_string t = Container.encode ~magic ~version:format_version t

(* Loading is total over arbitrary byte strings: every failure mode —
   truncation, bit flips, bad lengths, version skew — surfaces as
   [Load_error] naming the innermost section being decoded. *)
let of_string s =
  try
    Container.decode
      ~paged:[ ("ram", Ctx.page_bytes) ]
      ~magic ~version:format_version s
  with Container.Malformed { section; reason } ->
    raise (Load_error { section; reason })

let save_file path t = Repro_common.Atomicio.write path (to_string t)

let load_file path =
  match Repro_common.Atomicio.read path with
  | s -> of_string s
  | exception Sys_error e ->
    raise (Load_error { section = "container"; reason = e })

(* ---- machine-core capture ---- *)

let ints a =
  let b = Enc.create () in
  Enc.int_array b a;
  Enc.contents b

(* Guest RAM through the dirty map (see {!Ctx.t}): capture refreshes
   the [clean] string of each page written since and shares all of
   them, so consecutive checkpoints differ physically in exactly the
   pages dirtied between them. *)
let capture_ram (ctx : Ctx.t) =
  let clean = ctx.Ctx.clean in
  Bytes.iteri
    (fun i d ->
      if d <> '\000' then begin
        let off = i * Ctx.page_bytes in
        clean.(i) <- Bytes.sub_string ctx.Ctx.ram off (String.length clean.(i));
        Bytes.set ctx.Ctx.dirty i '\000'
      end)
    ctx.Ctx.dirty;
  Array.copy clean

(* A page needs copying back when it was written since its [clean]
   string was taken, or when that string is not the snapshot's own
   page (a different checkpoint's, or a decoded snapshot's). The
   snapshot's pages are then adopted, never written to. *)
let restore_ram (ctx : Ctx.t) t =
  let ram = ctx.Ctx.ram and clean = ctx.Ctx.clean in
  let len = Container.length t "ram" in
  if len <> Bytes.length ram then
    corrupt "ram: %d bytes, machine has %d" len (Bytes.length ram);
  let pages = Container.find_pages t "ram" ~page_bytes:Ctx.page_bytes in
  if
    Array.length pages <> Array.length clean
    || not
         (Array.for_all2
            (fun p c -> String.length p = String.length c)
            pages clean)
  then corrupt "ram: page layout differs from the machine's";
  let copied = ref 0 in
  Array.iteri
    (fun i page ->
      if Bytes.get ctx.Ctx.dirty i <> '\000' || clean.(i) != page then begin
        Bytes.blit_string page 0 ram (i * Ctx.page_bytes) (String.length page);
        clean.(i) <- page;
        Bytes.set ctx.Ctx.dirty i '\000';
        incr copied
      end)
    pages;
  !copied

let capture_machine (rt : Rt.t) t =
  let ctx = rt.Rt.ctx in
  let add = Container.add t in
  add "cpu" (ints (Cpu.save_words rt.Rt.cpu));
  add "env" (ints (Array.copy ctx.Exec.env));
  let host = Enc.create () in
  Enc.int_array host ctx.Exec.regs;
  Enc.bool host ctx.Exec.cf;
  Enc.bool host ctx.Exec.zf;
  Enc.bool host ctx.Exec.sf;
  Enc.bool host ctx.Exec.o_f;
  Enc.int host ctx.Exec.poison_counter;
  add "host" (Enc.contents host);
  Container.add_pages t "ram" (capture_ram ctx);
  add "tlb" (ints (Tlb.save ctx.Exec.tlb));
  add "timer" (ints (Devices.Timer.export rt.Rt.bus.Bus.timer));
  let uart = Enc.create () in
  Enc.string uart (Devices.Uart.output rt.Rt.bus.Bus.uart);
  add "uart" (Enc.contents uart);
  let syscon = Enc.create () in
  (match Devices.Syscon.halted rt.Rt.bus.Bus.syscon with
  | None -> Enc.bool syscon false
  | Some code ->
    Enc.bool syscon true;
    Enc.int syscon code);
  add "syscon" (Enc.contents syscon);
  (match rt.Rt.inject with
  | None -> ()
  | Some inj ->
    let b = Enc.create () in
    Enc.i64_array b (Fi.export inj);
    add "inject" (Enc.contents b));
  add "stats" (ints (Stats.to_array (Rt.stats rt)))

let restore_machine (rt : Rt.t) t =
  let ctx = rt.Rt.ctx in
  let whole name f = Dec.whole ~name (Container.find t name) f in
  let dec_ints name = whole name Dec.int_array in
  (try Cpu.load_words rt.Rt.cpu (dec_ints "cpu")
   with Invalid_argument e -> corrupt "cpu: %s" e);
  let env = dec_ints "env" in
  if Array.length env <> Array.length ctx.Exec.env then
    corrupt "env: %d slots, machine has %d" (Array.length env)
      (Array.length ctx.Exec.env);
  Array.blit env 0 ctx.Exec.env 0 (Array.length env);
  whole "host" (fun host ->
      let regs = Dec.int_array host in
      if Array.length regs <> Array.length ctx.Exec.regs then
        corrupt "host: %d registers, machine has %d" (Array.length regs)
          (Array.length ctx.Exec.regs);
      Array.blit regs 0 ctx.Exec.regs 0 (Array.length regs);
      ctx.Exec.cf <- Dec.bool host;
      ctx.Exec.zf <- Dec.bool host;
      ctx.Exec.sf <- Dec.bool host;
      ctx.Exec.o_f <- Dec.bool host;
      ctx.Exec.poison_counter <- Dec.int host);
  ignore (restore_ram ctx t);
  (try Tlb.restore ctx.Exec.tlb (dec_ints "tlb")
   with Invalid_argument e -> corrupt "tlb: %s" e);
  (try Devices.Timer.import rt.Rt.bus.Bus.timer (dec_ints "timer")
   with Invalid_argument e -> corrupt "timer: %s" e);
  Devices.Uart.import rt.Rt.bus.Bus.uart (whole "uart" Dec.string);
  Devices.Syscon.import rt.Rt.bus.Bus.syscon
    (whole "syscon" (fun d -> if Dec.bool d then Some (Dec.int d) else None));
  (match (rt.Rt.inject, Container.find_opt t "inject") with
  | None, None -> ()
  | Some inj, Some _ -> (
    try Fi.import inj (whole "inject" Dec.i64_array)
    with Invalid_argument e -> corrupt "inject: %s" e)
  | Some _, None -> corrupt "machine has a fault injector, snapshot has none"
  | None, Some _ -> corrupt "snapshot has injector state, machine has none");
  (try Stats.load_array (Rt.stats rt) (dec_ints "stats")
   with Invalid_argument e -> corrupt "stats: %s" e);
  (* engine-transient runtime fields: between-TB defaults *)
  rt.Rt.pending_code_write <- false;
  rt.Rt.suppress_code_write <- false;
  rt.Rt.tb_override <- None;
  rt.Rt.corrupt_override <- None;
  rt.Rt.fault_producers <- [||]
