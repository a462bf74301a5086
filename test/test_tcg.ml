open Repro_arm
module T = Repro_tcg
module Bus = Repro_machine.Bus
module Stats = Repro_x86.Stats

(* Shared scaffolding: assemble a program, load it into both the
   QEMU-mode DBT machine and the reference machine, run both to halt,
   and compare guest-visible state. *)

let syscon = Bus.syscon_base

(* Standard epilogue: store r11 to the system controller to power off. *)
let emit_halt asm =
  Asm.mov32 asm 10 syscon;
  Asm.str asm 11 10 0

let assemble program =
  let asm = Asm.create () in
  program asm;
  emit_halt asm;
  Asm.assemble asm

let run_dbt ?(max_insns = 300_000) words =
  let rt = T.Runtime.create () in
  T.Helpers.install rt;
  T.Runtime.load_image rt 0 words;
  let cache = T.Tb.Cache.create () in
  let res =
    T.Engine.run rt cache ~translate:T.Translator_qemu.translate
      ~max_guest_insns:max_insns ()
  in
  (rt, res)

let run_ref ?(max_steps = 300_000) words =
  let m = T.Ref_machine.create () in
  T.Ref_machine.load_image m 0 words;
  let outcome, steps = T.Ref_machine.run m ~max_steps in
  (m, outcome, steps)

let check_halted_dbt (res : T.Engine.result) =
  match res.T.Engine.reason with
  | `Halted _ -> ()
  | `Insn_limit | `Livelock _ | `Deadline -> Alcotest.fail "DBT engine hit the instruction limit"

let compare_state (rt : T.Runtime.t) (m : T.Ref_machine.t) =
  let dbt = Cpu.to_snapshot rt.T.Runtime.cpu in
  let ref_ = Cpu.to_snapshot m.T.Ref_machine.cpu in
  for r = 0 to 12 do
    Alcotest.(check int)
      (Printf.sprintf "r%d" r)
      ref_.Cpu.regs.(r) dbt.Cpu.regs.(r)
  done;
  Alcotest.(check string) "flags"
    (Format.asprintf "%a" Cond.pp_flags (Cond.flags_of_word ref_.Cpu.cpsr))
    (Format.asprintf "%a" Cond.pp_flags (Cond.flags_of_word dbt.Cpu.cpsr))

let differential ?(max_insns = 300_000) program =
  let _, words = assemble program in
  let rt, res = run_dbt ~max_insns words in
  check_halted_dbt res;
  let m, outcome, _steps = run_ref ~max_steps:max_insns words in
  (match outcome with
  | T.Ref_machine.Halted _ -> ()
  | T.Ref_machine.Step_limit -> Alcotest.fail "reference hit the step limit"
  | T.Ref_machine.Decode_error e -> Alcotest.failf "reference decode error: %s" e);
  compare_state rt m;
  (rt, m)

(* --- Tests --- *)

let test_trivial_halt () =
  let _, words = assemble (fun a -> Asm.mov a 11 0) in
  let rt, res = run_dbt words in
  check_halted_dbt res;
  Alcotest.(check bool) "executed a few guest insns" true
    ((T.Runtime.stats rt).Stats.guest_insns >= 3)

(* An unbounded reference run must still run: [max_int] steps once
   overflowed the iteration guard and stopped after 0 steps. *)
let test_ref_unbounded () =
  let _, words =
    assemble (fun a ->
        Asm.mov a 0 10;
        Asm.mov a 11 0)
  in
  match run_ref ~max_steps:max_int words with
  | _, T.Ref_machine.Halted _, steps ->
    Alcotest.(check bool) "retired the program" true (steps >= 4)
  | _, (T.Ref_machine.Step_limit | T.Ref_machine.Decode_error _), _ ->
    Alcotest.fail "max_int steps must run the image to its halt"

let test_arith_differential () =
  ignore
    (differential (fun a ->
         Asm.mov a 0 10;
         Asm.mov a 1 3;
         Asm.add_r a ~s:true 2 0 1;
         Asm.sub_r a ~s:true 3 0 1;
         Asm.mul a 4 0 1;
         Asm.and_r a 5 0 1;
         Asm.orr_r a 6 0 1;
         Asm.eor_r a 7 0 1;
         Asm.mov32 a 8 0xFFFFFFFF;
         Asm.add_r a ~s:true 9 8 8;
         Asm.emit a
           (Insn.make
              (Insn.Dp
                 { op = Insn.ADC; s = true; rd = 11; rn = 0;
                   op2 = Insn.imm_operand_exn 0 }))))

let test_conditional_differential () =
  ignore
    (differential (fun a ->
         Asm.mov a 0 5;
         Asm.cmp a 0 5;
         Asm.mov a ~cond:Cond.EQ 1 1;
         Asm.mov a ~cond:Cond.NE 2 2;
         Asm.cmp a 0 9;
         Asm.mov a ~cond:Cond.LT 3 3;
         Asm.mov a ~cond:Cond.GE 4 4;
         Asm.mov a ~cond:Cond.HI 5 5;
         Asm.mov a ~cond:Cond.LS 6 6;
         Asm.mov a 11 0))

let test_loop_differential () =
  (* Sum 1..100 with a conditional backward branch. *)
  ignore
    (differential (fun a ->
         Asm.mov a 0 0;
         Asm.mov a 1 100;
         Asm.label a "loop";
         Asm.add_r a 0 0 1;
         Asm.sub a ~s:true 1 1 1;
         Asm.branch_to a ~cond:Cond.NE "loop";
         Asm.mov_r a 11 0))

let test_memory_differential () =
  ignore
    (differential (fun a ->
         Asm.mov32 a 0 0x10000;
         Asm.mov32 a 1 0xDEADBEEF;
         Asm.str a 1 0 0;
         Asm.ldr a 2 0 0;
         Asm.str a ~width:Insn.Byte 2 0 100;
         Asm.ldr a ~width:Insn.Byte 3 0 100;
         Asm.str a ~index:Insn.Pre_indexed 1 0 4;
         Asm.str a ~index:Insn.Post_indexed 1 0 4;
         Asm.ldr a 4 0 (-4);
         Asm.mov32 a Insn.sp 0x20000;
         Asm.push a (Asm.reg_mask [ 1; 2; 3 ]);
         Asm.mov a 1 0;
         Asm.mov a 2 0;
         Asm.mov a 3 0;
         Asm.pop a (Asm.reg_mask [ 1; 2; 3 ]);
         Asm.mov a 11 0))

let test_bl_bx_differential () =
  ignore
    (differential (fun a ->
         Asm.mov a 0 0;
         Asm.branch_to a ~link:true "f";
         Asm.add a 0 0 100;
         Asm.branch_to a "end";
         Asm.label a "f";
         Asm.add a 0 0 1;
         Asm.bx a Insn.lr;
         Asm.label a "end";
         Asm.mov_r a 11 0))

let test_system_insns_differential () =
  ignore
    (differential (fun a ->
         Asm.mov32 a 0 0xF0000001;
         Asm.vmsr a 0;
         Asm.vmrs a 1;
         Asm.vmrs a 15;
         Asm.mov a ~cond:Cond.MI 2 1;
         Asm.mrs a 3;
         Asm.mov32 a 4 0x4000;
         Asm.mcr a ~crn:2 4;
         Asm.mrc a ~crn:2 5;
         Asm.mov a 11 0))

let test_svc_roundtrip_differential () =
  ignore
    (differential (fun a ->
         Asm.branch_to a "start";
         Asm.udf a 1;
         Asm.branch_to a "svc_handler";
         Asm.udf a 3;
         Asm.udf a 4;
         Asm.udf a 5;
         Asm.udf a 6;
         Asm.label a "start";
         Asm.mov a 0 5;
         Asm.svc a 1;
         Asm.add a 0 0 1;
         Asm.svc a 2;
         Asm.mov a 11 0;
         Asm.branch_to a "halt";
         Asm.label a "svc_handler";
         Asm.add a 0 0 10;
         Asm.emit a
           (Insn.make
              (Insn.Dp
                 { op = Insn.MOV; s = true; rd = 15; rn = 0;
                   op2 = Insn.Reg_shift_imm { rm = 14; kind = Insn.LSL; amount = 0 } }));
         Asm.label a "halt"))

let test_chaining_happens () =
  let _, words =
    assemble (fun a ->
        Asm.mov a 0 0;
        Asm.mov a 1 200;
        Asm.label a "loop";
        Asm.add_r a 0 0 1;
        Asm.sub a ~s:true 1 1 1;
        Asm.branch_to a ~cond:Cond.NE "loop";
        Asm.mov_r a 11 0)
  in
  let rt, res = run_dbt words in
  check_halted_dbt res;
  let s = T.Runtime.stats rt in
  Alcotest.(check bool) "most jumps chained" true
    (s.Stats.chained_jumps > 10 * s.Stats.engine_returns)

let test_expansion_ratio_sane () =
  let _, words =
    assemble (fun a ->
        Asm.mov a 0 0;
        Asm.mov a 1 1000;
        Asm.mov32 a 2 0x10000;
        Asm.label a "loop";
        Asm.add_r a 0 0 1;
        Asm.str a 0 2 0;
        Asm.ldr a 3 2 0;
        Asm.sub a ~s:true 1 1 1;
        Asm.branch_to a ~cond:Cond.NE "loop";
        Asm.mov_r a 11 0)
  in
  let rt, res = run_dbt words in
  check_halted_dbt res;
  let s = T.Runtime.stats rt in
  let ratio = Stats.host_per_guest s in
  (* The paper's Fig. 15: QEMU system mode ≈ 17.4 host insns per guest
     insn. The exact value depends on the mix; sanity-bound it. *)
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f within [6, 40]" ratio)
    true
    (ratio > 6. && ratio < 40.)

let test_envspec_flag_forms () =
  (* The packed (x86-canonical) and parsed flag forms must agree for
     every NZCV value, and the lazy parse must be observation-free:
     flags_word is identical before and after parsing. *)
  for nzcv = 0 to 15 do
    let w = nzcv lsl 28 in
    Alcotest.(check int) "of∘to = id" w
      (T.Envspec.of_canonical (T.Envspec.to_canonical w));
    Alcotest.(check int) "to∘of = id" w
      (T.Envspec.to_canonical (T.Envspec.of_canonical w));
    let env = Array.make T.Envspec.n_slots 0 in
    env.(T.Envspec.ccr_packed) <- T.Envspec.to_canonical w;
    env.(T.Envspec.ccr_tag) <- 1;
    Alcotest.(check int) "flags_word reads packed" w (T.Envspec.flags_word env);
    let cost = T.Envspec.parse_packed env in
    Alcotest.(check bool) "parse charged" true (cost > 0);
    Alcotest.(check int) "tag cleared" 0 env.(T.Envspec.ccr_tag);
    Alcotest.(check int) "flags_word unchanged" w (T.Envspec.flags_word env);
    Alcotest.(check int) "N slot" (nzcv lsr 3) env.(T.Envspec.cc_n);
    Alcotest.(check int) "Z slot" ((nzcv lsr 2) land 1) env.(T.Envspec.cc_z);
    Alcotest.(check int) "C slot" ((nzcv lsr 1) land 1) env.(T.Envspec.cc_c);
    Alcotest.(check int) "V slot" (nzcv land 1) env.(T.Envspec.cc_v);
    Alcotest.(check int) "second parse free" 0 (T.Envspec.parse_packed env);
    (* set_flags_both agrees with the parse *)
    let env2 = Array.make T.Envspec.n_slots 0 in
    T.Envspec.set_flags_both env2 w;
    Alcotest.(check int) "set_flags_both tag" 0 env2.(T.Envspec.ccr_tag);
    List.iter
      (fun slot -> Alcotest.(check int) "slots agree" env.(slot) env2.(slot))
      [ T.Envspec.cc_n; T.Envspec.cc_z; T.Envspec.cc_c; T.Envspec.cc_v ];
    Alcotest.(check int) "packed agrees" env.(T.Envspec.ccr_packed)
      env2.(T.Envspec.ccr_packed)
  done

let test_cost_scale () =
  let nominal = T.Costs.engine_dispatch () in
  T.Costs.set_scale_pct 200;
  Fun.protect
    ~finally:(fun () -> T.Costs.set_scale_pct 100)
    (fun () ->
      Alcotest.(check int) "scaled accessor" (2 * nominal) (T.Costs.engine_dispatch ());
      Alcotest.(check int) "get_scale_pct" 200 (T.Costs.get_scale_pct ()));
  Alcotest.(check int) "restored" nominal (T.Costs.engine_dispatch ());
  (match T.Costs.set_scale_pct 0 with
  | () -> Alcotest.fail "scale 0 must be rejected"
  | exception Invalid_argument _ -> ());
  (* semantics are scale-invariant; only the modelled cost moves *)
  let _, words =
    assemble (fun a ->
        Asm.mov a 0 0;
        Asm.mov a 1 50;
        Asm.mov32 a 2 0x10000;
        Asm.label a "loop";
        Asm.str a 1 2 0;
        Asm.ldr a 3 2 0;
        Asm.add_r a 0 0 3;
        Asm.sub a ~s:true 1 1 1;
        Asm.branch_to a ~cond:Cond.NE "loop";
        Asm.mov_r a 11 0)
  in
  let host_at pct =
    T.Costs.set_scale_pct pct;
    Fun.protect
      ~finally:(fun () -> T.Costs.set_scale_pct 100)
      (fun () ->
        let rt, res = run_dbt words in
        check_halted_dbt res;
        let s = T.Runtime.stats rt in
        (s.Stats.host_insns, Cpu.to_snapshot rt.T.Runtime.cpu))
  in
  let h100, snap100 = host_at 100 in
  let h200, snap200 = host_at 200 in
  Alcotest.(check bool)
    (Printf.sprintf "scaled run costs more (%d vs %d)" h200 h100)
    true (h200 > h100);
  Alcotest.(check bool) "identical final state" true
    (snap100.Cpu.regs = snap200.Cpu.regs)

let prop_random_block_differential =
  QCheck.Test.make ~count:60 ~name:"random plain blocks: DBT = interpreter"
    (Gen.arbitrary_plain_block 20)
    (fun insns ->
      let program a =
        (* Deterministic initial registers. *)
        List.iteri (fun i v -> Asm.mov32 a i v)
          [ 3; 0x80000000; 17; 0xFFFFFFFF; 42; 5; 0x7FFFFFFF; 9; 2; 1; 0; 123; 77 ];
        List.iter (fun i -> Asm.emit a i) insns;
        Asm.mov a 11 0
      in
      let _, words = assemble program in
      let rt, res = run_dbt words in
      (match res.T.Engine.reason with
      | `Halted _ -> ()
      | `Insn_limit | `Livelock _ | `Deadline -> QCheck.Test.fail_report "dbt insn limit");
      let m, outcome, _ = run_ref words in
      (match outcome with
      | T.Ref_machine.Halted _ -> ()
      | _ -> QCheck.Test.fail_report "ref did not halt");
      let dbt = Cpu.to_snapshot rt.T.Runtime.cpu in
      let ref_ = Cpu.to_snapshot m.T.Ref_machine.cpu in
      let regs_ok = Array.sub dbt.Cpu.regs 0 13 = Array.sub ref_.Cpu.regs 0 13 in
      let flags_ok =
        Cond.flags_of_word dbt.Cpu.cpsr = Cond.flags_of_word ref_.Cpu.cpsr
      in
      if not (regs_ok && flags_ok) then
        QCheck.Test.fail_reportf "state mismatch:@\nDBT: %a@\nREF: %a" Cpu.pp_snapshot
          dbt Cpu.pp_snapshot ref_
      else true)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "tcg.engine",
      [
        Alcotest.test_case "trivial halt" `Quick test_trivial_halt;
        Alcotest.test_case "reference runs with max_int steps" `Quick test_ref_unbounded;
        Alcotest.test_case "arithmetic differential" `Quick test_arith_differential;
        Alcotest.test_case "conditional differential" `Quick test_conditional_differential;
        Alcotest.test_case "loop differential" `Quick test_loop_differential;
        Alcotest.test_case "memory differential" `Quick test_memory_differential;
        Alcotest.test_case "bl/bx differential" `Quick test_bl_bx_differential;
        Alcotest.test_case "system insns differential" `Quick test_system_insns_differential;
        Alcotest.test_case "svc roundtrip differential" `Quick test_svc_roundtrip_differential;
        Alcotest.test_case "block chaining effective" `Quick test_chaining_happens;
        Alcotest.test_case "expansion ratio sane" `Quick test_expansion_ratio_sane;
        Alcotest.test_case "cost-model scale" `Quick test_cost_scale;
        Alcotest.test_case "env flag forms (exhaustive)" `Quick test_envspec_flag_forms;
      ] );
    ("tcg.differential", [ q prop_random_block_differential ]);
  ]
