open Repro_common
module Bus = Repro_machine.Bus
module Mem = Repro_arm.Mem
module Cpu = Repro_arm.Cpu

let page_size = 4096
let page_mask = 0xFFFFF000

let l1_entry ~l2_base = (l2_base land page_mask) lor 1

let l2_entry ~pa ~writable ~user =
  (pa land page_mask) lor 1
  lor (if writable then 2 else 0)
  lor if user then 4 else 0

type entry = { page_pa : Word32.t; writable : bool; user : bool }

let walk bus ~ttbr vaddr =
  let l1_index = (vaddr lsr 22) land 0x3FF in
  let l1_addr = (ttbr land page_mask) + (4 * l1_index) in
  match Bus.read32 bus l1_addr with
  | Error () -> Error Mem.Bus
  | Ok l1 ->
    if l1 land 1 = 0 then Error Mem.Translation
    else
      let l2_index = (vaddr lsr 12) land 0x3FF in
      let l2_addr = (l1 land page_mask) + (4 * l2_index) in
      (match Bus.read32 bus l2_addr with
      | Error () -> Error Mem.Bus
      | Ok l2 ->
        if l2 land 1 = 0 then Error Mem.Translation
        else
          Ok
            {
              page_pa = l2 land page_mask;
              writable = l2 land 2 <> 0;
              user = l2 land 4 <> 0;
            })

let check_perms entry ~access ~privileged =
  if (not privileged) && not entry.user then Error Mem.Permission
  else
    match access with
    | Mem.Store -> if entry.writable then Ok () else Error Mem.Permission
    | Mem.Load | Mem.Fetch -> Ok ()

module Tlb = struct
  let entries = 256
  let stride_words = 4
  let words = 2 * entries * stride_words
  let bank_offset_words ~privileged = if privileged then entries * stride_words else 0
  let index vaddr = (vaddr lsr 12) land (entries - 1)

  let set_base_words ~privileged vaddr =
    bank_offset_words ~privileged + (index vaddr * stride_words)

  let invalid_tag = 0xFFFFFFFF

  let flush tlb = Array.fill tlb 0 (Array.length tlb) invalid_tag

  let fill tlb ~privileged ~vaddr entry =
    if privileged || entry.user then begin
      let base = set_base_words ~privileged vaddr in
      let tag = vaddr land page_mask in
      tlb.(base) <- tag;
      tlb.(base + 1) <- (if entry.writable then tag else invalid_tag);
      tlb.(base + 2) <- entry.page_pa
    end

  (* Snapshot support: the softMMU array is plain data, so a copy is a
     complete, bit-exact capture of every cached translation and
     write-protection tag. *)
  let save tlb = Array.copy tlb

  let restore tlb saved =
    if Array.length saved <> Array.length tlb then
      invalid_arg "Tlb.restore: size mismatch";
    Array.blit saved 0 tlb 0 (Array.length tlb)

  let clear_write_tag tlb vaddr =
    List.iter
      (fun privileged ->
        let base = set_base_words ~privileged vaddr in
        if tlb.(base) = vaddr land page_mask || tlb.(base + 1) = vaddr land page_mask
        then tlb.(base + 1) <- invalid_tag)
      [ false; true ]

  let probe tlb ~privileged ~write vaddr =
    let base = set_base_words ~privileged vaddr in
    let tag = vaddr land page_mask in
    let stored = if write then tlb.(base + 1) else tlb.(base) in
    if stored = tag then tlb.(base + 2) lor (vaddr land (page_size - 1)) else -1
end

let translate bus cpu vaddr ~access ~privileged =
  if not (Cpu.mmu_enabled cpu) then Ok vaddr
  else
    match walk bus ~ttbr:(Cpu.get_ttbr cpu) vaddr with
    | Error kind -> Error { Mem.vaddr; access; kind }
    | Ok entry -> (
      match check_perms entry ~access ~privileged with
      | Error kind -> Error { Mem.vaddr; access; kind }
      | Ok () -> Ok (entry.page_pa lor (vaddr land (page_size - 1))))

let iface ?inject bus cpu : Mem.iface =
  (* With an injector armed, a walk result can come back corrupted; the
     corruption is detected (modelled table-entry parity) and the walk
     is simply redone — guest-invisible, cost-only. *)
  let xlate vaddr ~access ~privileged =
    let r = translate bus cpu vaddr ~access ~privileged in
    match inject with
    | Some inj
      when Cpu.mmu_enabled cpu
           && Repro_faultinject.Faultinject.fire inj
                Repro_faultinject.Faultinject.Walk_corrupt ->
      translate bus cpu vaddr ~access ~privileged
    | _ -> r
  in
  let load width ~privileged vaddr =
    let aligned =
      match width with
      | Mem.W8 -> true
      | Mem.W16 -> vaddr land 1 = 0
      | Mem.W32 -> vaddr land 3 = 0
    in
    if not aligned then Error { Mem.vaddr; access = Mem.Load; kind = Mem.Alignment }
    else
      match xlate vaddr ~access:Mem.Load ~privileged with
      | Error f -> Error f
      | Ok paddr -> (
        let r =
          match width with
          | Mem.W8 -> Result.map (fun b -> b) (Bus.read8 bus paddr)
          | Mem.W16 -> (
            (* RAM-backed halves; devices are word-addressed, so a
               halfword MMIO access surfaces as a bus error *)
            match (Bus.read8 bus paddr, Bus.read8 bus (paddr + 1)) with
            | Ok lo, Ok hi -> Ok (lo lor (hi lsl 8))
            | Error (), _ | _, Error () -> Error ())
          | Mem.W32 -> Bus.read32 bus paddr
        in
        match r with
        | Ok v -> Ok v
        | Error () -> Error { Mem.vaddr; access = Mem.Load; kind = Mem.Bus })
  in
  let store width ~privileged vaddr v =
    let aligned =
      match width with
      | Mem.W8 -> true
      | Mem.W16 -> vaddr land 1 = 0
      | Mem.W32 -> vaddr land 3 = 0
    in
    if not aligned then Error { Mem.vaddr; access = Mem.Store; kind = Mem.Alignment }
    else
      match xlate vaddr ~access:Mem.Store ~privileged with
      | Error f -> Error f
      | Ok paddr -> (
        let r =
          match width with
          | Mem.W8 -> Bus.write8 bus paddr v
          | Mem.W16 -> (
            match Bus.write8 bus paddr (v land 0xFF) with
            | Ok () -> Bus.write8 bus (paddr + 1) ((v lsr 8) land 0xFF)
            | Error () -> Error ())
          | Mem.W32 -> Bus.write32 bus paddr v
        in
        match r with
        | Ok () -> Ok ()
        | Error () -> Error { Mem.vaddr; access = Mem.Store; kind = Mem.Bus })
  in
  let fetch ~privileged vaddr =
    if vaddr land 3 <> 0 then
      Error { Mem.vaddr; access = Mem.Fetch; kind = Mem.Alignment }
    else
      match xlate vaddr ~access:Mem.Fetch ~privileged with
      | Error f -> Error f
      | Ok paddr -> (
        match Bus.read32 bus paddr with
        | Ok v -> Ok v
        | Error () -> Error { Mem.vaddr; access = Mem.Fetch; kind = Mem.Bus })
  in
  { Mem.load; store; fetch; flush_tlb = (fun () -> ()) }
