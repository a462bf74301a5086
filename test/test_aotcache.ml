module T = Repro_tcg
module D = Repro_dbt
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module R = Repro_rules
module Fi = Repro_faultinject.Faultinject
module Snapshot = Repro_snapshot.Snapshot
module Container = Repro_common.Container
module Depot = Repro_aotcache.Depot
module Scope = Repro_perfscope.Scope
module Phase = Repro_perfscope.Phase

(* The persistent AOT code depot: durability (crash-atomic generation
   commits), integrity (every injected or hand-crafted corruption loads
   as a typed [Depot_error], never anything else), compatibility (a
   depot from a different translator configuration is refused, not
   misapplied) and the payoff — a warm boot that is architecturally
   identical to cold with (almost) zero translation work. *)

let kernel_image ?(target = 30_000) ?(timer = 5_000) () =
  let spec = W.find "gcc" in
  let iters = max 1 (target / W.insns_per_iteration spec) in
  let user = W.generate spec ~iterations:iters in
  K.build ~timer_period:timer ~user_program:user ()

let make_sys ?inject ?scope ?(shadow_depth = 0) mode image =
  let sys = D.System.create ?inject ?scope ~shadow_depth mode in
  K.load image (fun base words -> D.System.load_image sys base words);
  sys

let halt_code res =
  match res.T.Engine.reason with
  | `Halted c -> c
  | `Insn_limit | `Deadline -> Alcotest.fail "run hit its instruction limit"
  | `Livelock pc -> Alcotest.failf "unrecovered livelock at %#x" pc

let guest_outcome sys res = (halt_code res, D.System.uart_output sys)

let temp_dir () =
  let path = Filename.temp_file "repro-depot" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* One cold full run, shared by the tests below: its outcome is the
   architectural ground truth and its capture is the reference depot. *)
let mode = D.System.Rules D.Opt.with_regions

let cold_ctx =
  lazy
    (let image = kernel_image () in
     let scope = Scope.create () in
     let sys = make_sys ~scope mode image in
     let res = D.System.run ~max_guest_insns:2_000_000 sys in
     let outcome = guest_outcome sys res in
     let depot = D.System.depot_capture sys in
     (image, outcome, Scope.phase_count scope Phase.Translate, depot))

let expect_depot_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: damage not detected" what
  | exception Depot.Depot_error _ -> ()
  | exception e ->
    Alcotest.failf "%s: escaped exception %s" what (Printexc.to_string e)

(* ---- container integrity: fuzz the blob bytes ---------------------- *)

let test_container_fuzz () =
  let _, _, _, depot = Lazy.force cold_ctx in
  let good = Depot.to_string depot in
  ignore (Depot.of_string good);
  let load what s = expect_depot_error what (fun () -> Depot.of_string s) in
  load "empty string" "";
  (* truncation sweep: every prefix must fail typed *)
  let len = String.length good in
  let step = max 1 (len / 97) in
  let k = ref 0 in
  while !k < len do
    load (Printf.sprintf "truncate at %d" !k) (String.sub good 0 !k);
    k := !k + step
  done;
  (* random single-bit flips: the whole-body checksum means any flip
     anywhere must surface *)
  let prng = Repro_common.Prng.create ~seed:4077 in
  for _ = 1 to 200 do
    let pos = Repro_common.Prng.int prng len in
    let bit = 1 lsl Repro_common.Prng.int prng 8 in
    let b = Bytes.of_string good in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor bit));
    load (Printf.sprintf "random flip at %d" pos) (Bytes.to_string b)
  done

(* Damage inside a section payload is blamed on that section, and a
   duplicated section name is refused even when every checksum holds. *)
let test_blame_section () =
  let _, _, _, depot = Lazy.force cold_ctx in
  let good = Depot.to_string depot in
  let blamed what s =
    match Depot.of_string s with
    | _ -> Alcotest.failf "%s: damage not detected" what
    | exception Depot.Depot_error { section; _ } -> section
  in
  let find_sub needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length good then Alcotest.fail "not in the blob"
      else if String.sub good i n = needle then i
      else go (i + 1)
    in
    go 24
  in
  let rules = Depot.rules depot in
  let b = Bytes.of_string good in
  let pos = find_sub rules + (String.length rules / 2) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
  Alcotest.(check string) "a flip in the rules payload blames rules" "rules"
    (blamed "flip in rules" (Bytes.to_string b));
  (* rename "cache" to "rules": the payload checksums still hold, and
     the whole-body checksum is recomputed *)
  let framed name =
    let e = Container.Enc.create () in
    Container.Enc.string e name;
    Container.Enc.contents e
  in
  let b = Bytes.of_string good in
  Bytes.blit_string (framed "rules") 0 b (find_sub (framed "cache"))
    (String.length (framed "rules"));
  Bytes.set_int64_le b 16
    (Int64.of_int
       (Container.fnv1a32 (Bytes.sub_string b 24 (Bytes.length b - 24))));
  Alcotest.(check string) "a duplicated name blames that section" "rules"
    (blamed "duplicate rules section" (Bytes.to_string b))

(* ---- file-level damage: truncated and zero-length blobs ------------ *)

let test_file_damage () =
  let _, _, _, depot = Lazy.force cold_ctx in
  with_dir @@ fun dir ->
  ignore (Depot.save ~dir depot);
  let blob = Filename.concat dir (Depot.blob_name depot) in
  let good = In_channel.with_open_bin blob In_channel.input_all in
  let clobber n =
    Out_channel.with_open_bin blob (fun oc ->
        Out_channel.output_string oc (String.sub good 0 n))
  in
  let len = String.length good in
  List.iter
    (fun n ->
      clobber n;
      expect_depot_error
        (Printf.sprintf "blob file truncated to %d bytes" n)
        (fun () -> Depot.load dir))
    [ 0; 1; 23; 24; len / 2; len - 1 ];
  (* restore the bytes: the depot is whole again *)
  clobber len;
  ignore (Depot.load dir);
  (* a missing blob (manifest points into the void) is typed too *)
  Sys.remove blob;
  expect_depot_error "missing blob" (fun () -> Depot.load dir)

(* ---- the crash-commit protocol ------------------------------------- *)

let test_commit_protocol () =
  let _, _, _, depot = Lazy.force cold_ctx in
  with_dir @@ fun dir ->
  let g1 = Depot.save ~dir depot in
  Alcotest.(check int) "first commit is generation 1" 1 g1;
  let blob1 = Depot.blob_name depot in
  (* a crashed save leaves an orphan blob and no manifest update: the
     loader must keep serving generation 1 and never read the orphan *)
  Out_channel.with_open_bin
    (Filename.concat dir "depot-99.bin")
    (fun oc -> Out_channel.output_string oc "garbage from a crashed writer");
  let d = Depot.load dir in
  Alcotest.(check int) "orphan blob ignored" 1 (Depot.generation d);
  (* the next successful commit bumps the generation and collects both
     the old blob and the orphan *)
  let g2 = Depot.save ~dir depot in
  Alcotest.(check int) "second commit is generation 2" 2 g2;
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Alcotest.(check (list string))
    "exactly one blob + manifest after GC"
    [ Depot.manifest_name; Depot.blob_name depot ]
    files;
  Alcotest.(check bool) "generation moved on" true (Depot.blob_name depot <> blob1);
  (* a manifest whose byte count disagrees with the blob (the torn-
     write signature) is typed *)
  let manifest = Filename.concat dir Depot.manifest_name in
  let text = In_channel.with_open_bin manifest In_channel.input_all in
  let lied =
    String.concat "\n"
      (List.map
         (fun line ->
           if String.length line > 6 && String.sub line 0 6 = "bytes " then
             "bytes 17"
           else line)
         (String.split_on_char '\n' text))
  in
  Out_channel.with_open_bin manifest (fun oc ->
      Out_channel.output_string oc lied);
  expect_depot_error "manifest byte-count lie" (fun () -> Depot.load dir);
  (* garbage where the manifest should be is typed, not a parse crash *)
  Out_channel.with_open_bin manifest (fun oc ->
      Out_channel.output_string oc "not a manifest at all\n");
  expect_depot_error "garbage manifest" (fun () -> Depot.load dir)

(* ---- injected faults on the save/load paths ------------------------ *)

let test_injected_faults () =
  let _, _, _, depot = Lazy.force cold_ctx in
  let armed site =
    let inj = Fi.create ~seed:9 ~rate:0.0 () in
    Fi.set_rate inj site 1.0;
    inj
  in
  (* torn write: half the blob reaches disk, the manifest still commits
     — the next load must catch it from the manifest's byte count *)
  with_dir (fun dir ->
      ignore (Depot.save ~inject:(armed Fi.Depot_torn) ~dir depot);
      expect_depot_error "torn write" (fun () -> Depot.load dir));
  (* read-side truncation and bit flip *)
  with_dir (fun dir ->
      ignore (Depot.save ~dir depot);
      expect_depot_error "injected truncation" (fun () ->
          Depot.load ~inject:(armed Fi.Depot_trunc) dir);
      expect_depot_error "injected bit flip" (fun () ->
          Depot.load ~inject:(armed Fi.Depot_flip) dir);
      (* the same depot, injector disarmed, still loads: the faults
         damaged the read, not the artifact *)
      ignore (Depot.load dir))

(* ---- the payoff: warm boot ≡ cold boot, translate ≈ 0 -------------- *)

(* Also the fleet story: several machines boot from the one saved
   depot, and each must be architecturally identical to the cold
   reference while doing a small fraction of its translation work. *)
let test_warm_boot_identity () =
  let image, cold_outcome, cold_translate, depot = Lazy.force cold_ctx in
  with_dir @@ fun dir ->
  ignore (Depot.save ~dir depot);
  for machine = 1 to 2 do
    let d = Depot.load dir in
    let scope = Scope.create () in
    let sys = make_sys ~scope mode image in
    let installed_boot = D.System.depot_install sys d in
    Alcotest.(check bool)
      (Printf.sprintf "machine %d: boot wave installs recipes" machine)
      true (installed_boot > 0);
    let res = D.System.run ~max_guest_insns:2_000_000 sys in
    let warm_outcome = guest_outcome sys res in
    Alcotest.(check (pair int string))
      (Printf.sprintf "machine %d: warm outcome = cold outcome" machine)
      cold_outcome warm_outcome;
    let warm_translate = Scope.phase_count scope Phase.Translate in
    Alcotest.(check bool)
      (Printf.sprintf
         "machine %d: warm translate (%d) under a tenth of cold (%d)" machine
         warm_translate cold_translate)
      true
      (warm_translate * 10 < cold_translate);
    let installed, pending = D.System.depot_coverage sys in
    Alcotest.(check int)
      (Printf.sprintf "machine %d: every recipe installed" machine)
      0 pending;
    Alcotest.(check bool)
      (Printf.sprintf "machine %d: coverage at least the boot wave" machine)
      true
      (installed >= installed_boot)
  done

(* ---- compatibility: a foreign depot is refused, never misapplied --- *)

let variant ?mode:m ?digest ?hot ?cache depot =
  let c = Depot.compat depot in
  let c =
    {
      Depot.c_mode = Option.value m ~default:c.Depot.c_mode;
      c_rules_digest = Option.value digest ~default:c.Depot.c_rules_digest;
      c_hot_threshold = Option.value hot ~default:c.Depot.c_hot_threshold;
    }
  in
  Depot.create ~compat:c ~rules:(Depot.rules depot)
    ~cache:(Option.value cache ~default:(Depot.cache_payload depot))
    ~srcsum:(Depot.srcsum depot)
    ~health:(Depot.health depot)

let test_compat_rejection () =
  let image, cold_outcome, _, depot = Lazy.force cold_ctx in
  let reject what d =
    let sys = make_sys mode image in
    (match D.System.depot_install sys d with
    | _ -> Alcotest.failf "%s: incompatible depot accepted" what
    | exception Depot.Depot_error { section; _ } ->
      Alcotest.(check string) (what ^ ": blames the compat key") "compat"
        section
    | exception e ->
      Alcotest.failf "%s: escaped exception %s" what (Printexc.to_string e));
    (* the refusal must leave the machine pristine: a cold run on the
       very same instance still reaches the reference outcome *)
    let res = D.System.run ~max_guest_insns:2_000_000 sys in
    Alcotest.(check (pair int string))
      (what ^ ": cold fallback reaches the reference outcome")
      cold_outcome (guest_outcome sys res)
  in
  let c = Depot.compat depot in
  reject "mutated ruleset digest"
    (variant ~digest:(c.Depot.c_rules_digest lxor 0xBEEF) depot);
  reject "different optimization mode" (variant ~mode:"rules:full" depot);
  reject "different hot threshold"
    (variant ~hot:(c.Depot.c_hot_threshold + 1) depot);
  (* cross-mode for real: a depot captured under rules:full refuses to
     install into a rules:+regions machine (and vice versa is the same
     check), because region recipes only replay under the fusion
     configuration that recorded them *)
  let full_sys = make_sys (D.System.Rules D.Opt.full) image in
  ignore (D.System.run ~max_guest_insns:2_000_000 full_sys);
  let full_depot = D.System.depot_capture full_sys in
  reject "depot captured under rules:full" full_depot

(* ---- self-repair: poisoned recipes stay quarantined ---------------- *)

let test_quarantine_honored () =
  let image, cold_outcome, _, depot = Lazy.force cold_ctx in
  with_dir @@ fun dir ->
  (* baseline: full installation *)
  let full_installed =
    ignore (Depot.save ~dir depot);
    let sys = make_sys mode image in
    ignore (D.System.depot_install sys (Depot.load dir));
    ignore (D.System.run ~max_guest_insns:2_000_000 sys);
    fst (D.System.depot_coverage sys)
  in
  (* poison one recipe's guest PC (as the shadow-verification write-
     back would) and recommit *)
  let victim_pc =
    let sys = make_sys mode image in
    ignore (D.System.depot_install sys (Depot.load dir));
    ignore (D.System.run ~max_guest_insns:2_000_000 sys);
    match T.Tb.Cache.to_list sys.D.System.cache with
    | tb :: _ -> tb.T.Tb.guest_pc
    | [] -> Alcotest.fail "empty cache after a full run"
  in
  let d = Depot.load dir in
  Alcotest.(check bool) "quarantining a new PC reports growth" true
    (Depot.quarantine_pcs d [ victim_pc ]);
  Alcotest.(check bool) "re-quarantining the same PC does not" false
    (Depot.quarantine_pcs d [ victim_pc ]);
  ignore (Depot.save ~dir d);
  (* the poisoned entry never installs again; the machine cold-
     translates that PC and stays architecturally correct *)
  let d' = Depot.load dir in
  Alcotest.(check (list int)) "poison survives the round-trip" [ victim_pc ]
    (Depot.quarantined_pcs d');
  let sys = make_sys mode image in
  ignore (D.System.depot_install sys d');
  let res = D.System.run ~max_guest_insns:2_000_000 sys in
  Alcotest.(check (pair int string)) "poisoned warm boot still correct"
    cold_outcome (guest_outcome sys res);
  Alcotest.(check bool)
    (Printf.sprintf "fewer recipes served (%d with poison, %d without)"
       (fst (D.System.depot_coverage sys))
       full_installed)
    true
    (fst (D.System.depot_coverage sys) < full_installed)

(* ---- fleet write-back: breaker verdicts persist in the depot ------- *)

let test_rule_writeback () =
  let image, cold_outcome, _, depot = Lazy.force cold_ctx in
  with_dir @@ fun dir ->
  ignore (Depot.save ~dir depot);
  let d = Depot.load dir in
  (* pick a real rule id out of the live machine's ruleset *)
  let probe = make_sys mode image in
  let rs = Option.get probe.D.System.ruleset in
  let victim = (List.hd (R.Ruleset.rules rs)).R.Rule.id in
  Alcotest.(check bool) "quarantining a rule id reports change" true
    (D.System.depot_quarantine_rules d [ victim ]);
  Alcotest.(check bool) "re-quarantining it does not" false
    (D.System.depot_quarantine_rules d [ victim ]);
  ignore (Depot.save ~dir d);
  (* a warm boot from the written-back depot starts with the rule
     already demoted — and still reproduces the reference outcome,
     because quarantined rules fall back to baseline translation *)
  let sys = make_sys mode image in
  ignore (D.System.depot_install sys (Depot.load dir));
  let rs' = Option.get sys.D.System.ruleset in
  Alcotest.(check bool) "warm boot inherits the quarantine" true
    (List.mem victim (R.Ruleset.quarantined_ids rs'));
  let res = D.System.run ~max_guest_insns:2_000_000 sys in
  Alcotest.(check (pair int string)) "demoted warm boot still correct"
    cold_outcome (guest_outcome sys res)


(* ---- one replay routine: restore and depot install agree ----------- *)

(* A run stopped after superblocks exist, frozen both ways: as a
   snapshot and as a depot of the same live cache. *)
let partial_ctx =
  lazy
    (let image = kernel_image () in
     let sys = make_sys mode image in
     ignore (D.System.run ~max_guest_insns:25_000 ~checkpoint_every:4_000 sys);
     let snap = Snapshot.to_string (D.System.snapshot sys) in
     (image, snap, D.System.depot_capture sys))

let cache_key (tb : T.Tb.t) =
  (tb.T.Tb.guest_pc, tb.T.Tb.privileged, tb.T.Tb.mmu_on, T.Tb.is_region tb)

let host_code sys =
  let cache = sys.D.System.cache in
  T.Tb.Cache.to_list cache @ T.Tb.Cache.regions_list cache
  |> List.map (fun (tb : T.Tb.t) ->
         ( cache_key tb,
           ( Format.asprintf "%a" Repro_x86.Prog.pp tb.T.Tb.prog,
             Array.map (Option.map cache_key) tb.T.Tb.links ) ))

let test_replay_policies_agree () =
  let _, frozen, depot = Lazy.force partial_ctx in
  let restored = D.System.create mode in
  D.System.restore restored (Snapshot.of_string frozen);
  let installed = D.System.create mode in
  D.System.restore ~rebuild:false installed (Snapshot.of_string frozen);
  ignore (D.System.depot_install installed depot);
  let a = host_code restored and b = host_code installed in
  let shared =
    List.filter_map
      (fun (key, code_b) ->
        Option.map (fun code_a -> (key, code_a, code_b)) (List.assoc_opt key a))
      b
  in
  let regions = List.filter (fun ((_, _, _, r), _, _) -> r) shared in
  Alcotest.(check bool)
    (Printf.sprintf "both install TBs (%d shared) and superblocks (%d)"
       (List.length shared) (List.length regions))
    true
    (List.length shared > 0 && regions <> []);
  List.iter
    (fun ((pc, _, _, region), (prog_a, links_a), (prog_b, links_b)) ->
      let what = Printf.sprintf "%s at %#x" (if region then "region" else "TB") pc in
      Alcotest.(check string) (what ^ ": same host code") prog_a prog_b;
      Alcotest.(check bool) (what ^ ": same chain links") true (links_a = links_b))
    shared

(* ---- chain links are range-checked on decode, in both formats ------ *)

(* Re-encode a cache section (the layout [System.encode_cache] writes)
   with its first chain link pointing one past the last recipe. *)
let with_link_out_of_range payload =
  let d = Container.Dec.of_string payload in
  let toks = ref [] and count = ref 0 and first_link = ref (-1) in
  let int () =
    let v = Container.Dec.int d in
    toks := `I v :: !toks;
    incr count;
    v
  in
  let bool () =
    let v = Container.Dec.bool d in
    toks := `B v :: !toks;
    incr count;
    v
  in
  let meta () =
    if bool () then begin
      for _ = 1 to int () do ignore (bool ()) done;
      ignore (int ())
    end
  in
  let links owners =
    for _ = 1 to owners do
      for _ = 1 to int () do
        if int () >= 0 && !first_link < 0 then first_link := !count - 1
      done
    done
  in
  let n = int () in
  for _ = 1 to n do
    (* id, pc, privileged, mmu_on, override, injection, hot, meta *)
    ignore (int ());
    ignore (int ());
    ignore (bool ());
    ignore (bool ());
    ignore (int ());
    ignore (int ());
    ignore (int ());
    meta ()
  done;
  links n;
  let m = int () in
  for _ = 1 to m do
    (* id, hot, members, meta *)
    ignore (int ());
    ignore (int ());
    for _ = 1 to int () do ignore (int ()) done;
    meta ()
  done;
  links m;
  Alcotest.(check bool) "the cache section has a chain link" true (!first_link >= 0);
  let b = Container.Enc.create () in
  List.iteri
    (fun k tok ->
      match tok with
      | `I _ when k = !first_link -> Container.Enc.int b (n + m)
      | `I v -> Container.Enc.int b v
      | `B v -> Container.Enc.bool b v)
    (List.rev !toks);
  Container.Enc.contents b

let test_link_range_checked () =
  let image, frozen, depot = Lazy.force partial_ctx in
  let snap = Snapshot.of_string frozen in
  let bad = with_link_out_of_range (Container.find snap "cache") in
  let damaged = Container.create () in
  List.iter
    (fun name ->
      Container.add damaged name
        (if name = "cache" then bad else Container.find snap name))
    (Container.names snap);
  (* through the container format, so the checksums are valid *)
  let damaged = Snapshot.of_string (Snapshot.to_string damaged) in
  (match D.System.restore (D.System.create mode) damaged with
  | () -> Alcotest.fail "restore accepted a link to a nonexistent record"
  | exception Snapshot.Corrupt _ -> ());
  let bad_depot = Depot.of_string (Depot.to_string (variant ~cache:bad depot)) in
  let blames_cache what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a link to a nonexistent record" what
    | exception Depot.Depot_error { section; _ } ->
      Alcotest.(check string) (what ^ " blames the cache section") "cache" section
  in
  blames_cache "depot_install" (fun () ->
      ignore (D.System.depot_install (make_sys mode image) bad_depot));
  blames_cache "depot_check" (fun () -> ignore (D.System.depot_check bad_depot))

let suite =
  [
    ( "aotcache",
      [
        Alcotest.test_case "depot container fuzz (flip + truncate)" `Quick
          test_container_fuzz;
        Alcotest.test_case "damage blamed on its section" `Quick
          test_blame_section;
        Alcotest.test_case "truncated + zero-length blob files" `Quick
          test_file_damage;
        Alcotest.test_case "crash-commit protocol" `Quick test_commit_protocol;
        Alcotest.test_case "injected depot faults are typed" `Quick
          test_injected_faults;
        Alcotest.test_case "warm boot identity, translate ~ 0" `Quick
          test_warm_boot_identity;
        Alcotest.test_case "cross-version/cross-ruleset rejection" `Quick
          test_compat_rejection;
        Alcotest.test_case "poisoned recipes stay quarantined" `Quick
          test_quarantine_honored;
        Alcotest.test_case "breaker rule write-back persists" `Quick
          test_rule_writeback;
        Alcotest.test_case "restore and depot replay agree" `Quick
          test_replay_policies_agree;
        Alcotest.test_case "out-of-range chain link rejected" `Quick
          test_link_range_checked;
      ] );
  ]
