module X = Repro_x86.Insn
module Prog = Repro_x86.Prog
module Exec = Repro_x86.Exec
module Stats = Repro_x86.Stats

(* Executor identity: the generated corpus must reproduce the golden
   digests bit for bit, and the executor's error paths must keep their
   messages, charge order and run-time (never compile-time) checks. *)

let test_golden () =
  Alcotest.(check int) "golden count" Exec_corpus.cases (Array.length Exec_golden.digests);
  Array.iteri
    (fun seed (outcome, digest) ->
      let o, d = Exec_corpus.run_case seed in
      Alcotest.(check string) (Printf.sprintf "case %d outcome" seed) outcome o;
      Alcotest.(check string) (Printf.sprintf "case %d digest" seed) digest d)
    Exec_golden.digests

let test_coverage () =
  let seen = Hashtbl.create 128 in
  for s = 0 to Exec_corpus.cases - 1 do
    ignore (Exec_corpus.generate ~seen s)
  done;
  let segs = [ "env"; "ram"; "tlb" ] and widths = [ "W8"; "W16"; "W32" ] in
  let expected =
    List.concat
      [
        [ "lea"; "neg"; "not"; "imul"; "setcc"; "cmovcc"; "savef"; "loadf";
          "movzx8"; "movzx16"; "movsx8"; "movsx16"; "shift:cl"; "shift:imm";
          "count:guest"; "count:sync"; "count:mmu"; "count:irq";
          "helper:0"; "helper:1"; "helper:2"; "helper:3";
          "jcc:fwd"; "jcc:back"; "jmp:fwd"; "jmp:back"; "exit:mid"; "exit:end"; "dead";
          "src:reg"; "src:imm"; "src:mem"; "dst:reg"; "dst:mem" ];
        List.init 9 (Printf.sprintf "alu:%d");
        List.init 4 (Printf.sprintf "shift:%d");
        List.map (fun c -> "cc:" ^ X.cc_name c) (Array.to_list Exec_corpus.all_ccs);
        List.concat_map
          (fun seg ->
            ("ext:rd:" ^ seg)
            :: Printf.sprintf "mem:%s:disp:1" seg
            :: Printf.sprintf "mem:%s:base:1" seg
            :: List.concat_map
                 (fun sc ->
                   [ Printf.sprintf "mem:%s:index:%d" seg sc;
                     Printf.sprintf "mem:%s:base+index:%d" seg sc ])
                 [ 1; 2; 4; 8 ]
            @ List.concat_map
                (fun w ->
                  [ Printf.sprintf "mov:%s:rd:%s" w seg; Printf.sprintf "mov:%s:wr:%s" w seg ])
                widths)
          segs;
      ]
  in
  List.iter
    (fun k -> Alcotest.(check bool) ("corpus covers " ^ k) true (Hashtbl.mem seen k))
    expected

let prog ?(tag = X.Tag_compute) insns =
  let b = Prog.builder () in
  List.iter (fun i -> Prog.emit b ~tag i) insns;
  Prog.finalize b

let mov r v = X.Mov { width = X.W32; dst = X.Reg r; src = X.Imm v }

let expect_failure name msg f =
  match f () with
  | exception Failure m -> Alcotest.(check string) name msg m
  | _ -> Alcotest.fail (name ^ ": expected Failure")

let test_undefined_label () =
  let ctx = Exec.create () in
  expect_failure "taken jump to an unbound label" "Exec: undefined label 99" (fun () ->
      Exec.run ctx (prog [ mov X.rax 1; X.Jmp 99; X.Exit { slot = 0 } ]) ~fuel:100);
  (* the jump itself was charged before its target was resolved *)
  Alcotest.(check int) "charged through the jump" 2 ctx.Exec.stats.Stats.host_insns;
  let ctx = Exec.create () in
  (* not taken: the unbound target is never looked at *)
  match
    Exec.run ctx
      (prog [ mov X.rax 0; X.Alu { op = X.Cmp; dst = X.Reg X.rax; src = X.Imm 1 };
              X.Jcc { cc = X.E; target = 7 }; X.Exit { slot = 2 } ])
      ~fuel:100
  with
  | Exec.Exited 2 -> ()
  | _ -> Alcotest.fail "untaken jump to an unbound label must fall through"

let test_fell_off_end () =
  let msg = "Exec: fell off the end of a TB (missing Exit)" in
  let ctx = Exec.create () in
  expect_failure "no exit" msg (fun () -> Exec.run ctx (prog [ mov X.rax 1 ]) ~fuel:100);
  Alcotest.(check int) "last insn ran" 1 ctx.Exec.regs.(X.rax);
  let b = Prog.builder () in
  let l = Prog.fresh_label b in
  Prog.emit b (X.Jmp l);
  Prog.emit b (X.Exit { slot = 0 });
  Prog.bind_label b l;
  expect_failure "jump to a trailing label" msg (fun () ->
      Exec.run (Exec.create ()) (Prog.finalize b) ~fuel:100)

let test_fuel_exhausted () =
  let ctx = Exec.create () in
  let b = Prog.builder () in
  let l = Prog.fresh_label b in
  Prog.bind_label b l;
  Prog.emit b (X.Count (X.Cnt_guest_insn 1));
  Prog.emit b ~tag:X.Tag_compute (mov X.rax 5);
  Prog.emit b ~tag:X.Tag_sync (X.Alu { op = X.Add; dst = X.Reg X.rax; src = X.Imm 1 });
  Prog.emit b ~tag:X.Tag_glue (X.Jmp l);
  match Exec.run ctx (Prog.finalize b) ~fuel:10 with
  | exception Exec.Fuel_exhausted { spent } ->
    let s = ctx.Exec.stats in
    Alcotest.(check int) "spent = fuel + 1" 11 spent;
    Alcotest.(check int) "host insns at the raise" 11 s.Stats.host_insns;
    Alcotest.(check int) "compute" 4 (Stats.tag_count s X.Tag_compute);
    Alcotest.(check int) "sync" 4 (Stats.tag_count s X.Tag_sync);
    Alcotest.(check int) "glue" 3 (Stats.tag_count s X.Tag_glue);
    Alcotest.(check int) "retired" 4 s.Stats.guest_insns;
    Alcotest.(check (list (triple int int int))) "coverage" [ (1, 4, 9) ] (Stats.cov_entries s);
    Alcotest.(check int) "open accrual" 2 (Stats.cov_residual s);
    (* the add that overran the budget was charged but not executed *)
    Alcotest.(check int) "effect after the check" 5 ctx.Exec.regs.(X.rax)
  | _ -> Alcotest.fail "runaway loop must exhaust fuel"

let test_helper_stop () =
  let ctx = Exec.create () in
  let host_at_call = ref (-1) in
  ctx.Exec.helper <-
    (fun c _ ->
      host_at_call := c.Exec.stats.Stats.host_insns;
      raise (Exec.Helper_stop { code = 7; arg = c.Exec.regs.(X.rdi) }));
  match
    Exec.run ctx
      (prog [ mov X.rdi 42; mov X.rbx 0x5555; X.Call_helper { id = 3 }; mov X.rbx 1;
              X.Exit { slot = 0 } ])
      ~fuel:100
  with
  | Exec.Stopped { code = 7; arg = 42 } ->
    Alcotest.(check int) "call charged before the helper ran" 3 !host_at_call;
    Alcotest.(check int) "helper calls" 1 ctx.Exec.stats.Stats.helper_calls;
    Alcotest.(check int) "nothing after the stop" 3 ctx.Exec.stats.Stats.host_insns;
    Alcotest.(check int) "no poisoning on a stop" 0x5555 ctx.Exec.regs.(X.rbx)
  | _ -> Alcotest.fail "Helper_stop must surface as Stopped"

let test_checks_stay_at_run_time () =
  let misaligned = { X.seg = X.Env; base = None; index = None; scale = 1; disp = 6 } in
  let b = Prog.builder () in
  let l = Prog.fresh_label b in
  Prog.emit b (X.Jmp l);
  Prog.emit b (X.Mov { width = X.W32; dst = X.Reg X.rax; src = X.Mem misaligned });
  Prog.emit b (X.Mov { width = X.W32; dst = X.Imm 3; src = X.Reg X.rax });
  Prog.emit b (X.Alu { op = X.Add; dst = X.Imm 3; src = X.Imm 1 });
  Prog.emit b (X.Jmp 1234);
  Prog.bind_label b l;
  Prog.emit b (X.Exit { slot = 1 });
  (match Exec.run (Exec.create ()) (Prog.finalize b) ~fuel:100 with
  | Exec.Exited 1 -> ()
  | _ -> Alcotest.fail "unexecuted faulty code must not fail");
  (match
     Exec.run (Exec.create ())
       (prog [ X.Mov { width = X.W32; dst = X.Reg X.rax; src = X.Mem misaligned };
               X.Exit { slot = 0 } ])
       ~fuel:100
   with
  | exception Assert_failure _ -> ()
  | _ -> Alcotest.fail "executed misaligned Env access must fail");
  match
    Exec.run (Exec.create ())
      (prog [ X.Mov { width = X.W32; dst = X.Imm 3; src = X.Reg X.rax }; X.Exit { slot = 0 } ])
      ~fuel:100
  with
  | exception Invalid_argument m -> Alcotest.(check string) "message" "write to immediate" m
  | _ -> Alcotest.fail "executed write to an immediate must fail"

let suite =
  [
    ( "x86.exec.ident",
      [
        Alcotest.test_case "generated corpus matches golden digests" `Quick test_golden;
        Alcotest.test_case "corpus covers every shape" `Quick test_coverage;
        Alcotest.test_case "undefined label" `Quick test_undefined_label;
        Alcotest.test_case "fell off the end" `Quick test_fell_off_end;
        Alcotest.test_case "fuel exhausted: spent and stats" `Quick test_fuel_exhausted;
        Alcotest.test_case "helper stop" `Quick test_helper_stop;
        Alcotest.test_case "checks stay at run time" `Quick test_checks_stay_at_run_time;
      ] );
  ]
