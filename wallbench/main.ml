(* Wall-clock benchmark of the DBT as an OCaml process.

   The paper's speed-up is counted in modelled host instructions; this
   benchmark measures the other currency — what the emulator itself
   costs in host time, memory and allocation. One executable runs one
   of three workloads (NOTES.md says why each exists and which layers
   it isolates or bypasses):

     steady    hmmer, gcc and xalancbmk under rules:full, each run to
               halt after an untimed warm-up stretch
     coldboot  the 12 CINT programs and the 5 Fig. 19 apps booted from
               reset under rules:full and qemu, once cold and once warm
               from a depot captured from the cold boot
     serve     a domain-parallel fleet drill (4 machines, 2 faulty)
               serving gcc requests from a warm base snapshot

   Usage:
     main.exe --workload steady|coldboot|serve --seed N --seconds S
              --trace 0|1

   The amount of work is a fixed function of --seconds, calibrated so a
   run measures about that long; it never depends on the clock, so
   every deterministic count repeats exactly for the same arguments.
   The seed orders the jobs and seeds the fleet's fault plan; it never
   changes a program.

   --trace 0 measures the end-to-end metrics. --trace 1 runs the
   workload once untraced and once traced — spans around every call
   into the system, a perfscope on every machine, GC deltas — and
   reports the per-layer split; the spans are written to
   wallbench/out/ as a Chrome trace-event file.

   Every job's output is checked against an independent reference:
   halt code and UART bytes against the interpreter-driven
   [Ref_machine], warm depot boots against their cold boot, and the
   fleet against its own fault-free reference via [Fleet.final_verify].
   Deterministic counts are compared across repetitions in the run and
   against the digest an earlier run with the same arguments left in
   wallbench/out/. Any mismatch or drift prints the result with
   "correct": false and exits 1.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. *)

module D = Repro_dbt
module K = Repro_kernel.Kernel
module W = Repro_workloads.Workloads
module Stats = Repro_x86.Stats
module Insn = Repro_x86.Insn
module Depot = Repro_aotcache.Depot
module Snapshot = Repro_snapshot.Snapshot
module Fi = Repro_faultinject.Faultinject
module Res = Repro_resilience
module Par = Repro_parallel
module Scope = Repro_perfscope.Scope
module Phase = Repro_perfscope.Phase
module Ref = Repro_tcg.Ref_machine
module Tb = Repro_tcg.Tb
module Prng = Repro_common.Prng

(* ---------- clock and statistics ---------- *)

let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile p = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

let ratio a b = if b = 0 then 0. else float a /. float b

(* ---------- host-speed probe ----------

   The shared 2-vCPU host this benchmark was tuned on changes speed by
   up to 40% from one second to the next, and its slow phases last long
   enough to move a whole run. Every timed job is therefore bracketed
   by two runs of a fixed probe: a small branchy bytecode loop that
   allocates nothing and calls no repository code, so no change to the
   system can move it. A job's normalised time is its wall time scaled
   by [probe_ref_s] over the mean of its two probe times — what the job
   would have taken on a host running the probe in [probe_ref_s]. The
   gated timing metrics use normalised times; the raw ones are printed
   beside them. *)

let probe_steps = 50_000
let probe_ref_s = 180e-6
let probe_code = Array.init 64 (fun i -> ((i * 7) + 3) mod 5)
let probe_stack = Array.make 4 0

let probe_once () =
  let t0 = now_ns () in
  let acc = ref 0 and pc = ref 0 and sp = ref 0 in
  for _ = 1 to probe_steps do
    (match probe_code.(!pc) with
    | 0 -> acc := !acc + !pc
    | 1 -> acc := !acc lxor (!acc lsl 1)
    | 2 ->
      probe_stack.(!sp) <- !acc;
      sp := (!sp + 1) land 3
    | 3 ->
      sp := (!sp + 3) land 3;
      acc := !acc + probe_stack.(!sp)
    | _ -> acc := !acc land 0xffffff);
    pc := (!pc + 1 + (!acc land 1)) land 63
  done;
  ignore (Sys.opaque_identity !acc);
  secs_since t0

(* For a few milliseconds after a job the probe runs at a speed that
   depends on what the job did last, so it first spins [probe_settle_ns]
   on the clock. It then takes the fastest of three runs: any may be cut
   by an interrupt. *)
let probe_settle_ns = 3_000_000L

let probe () =
  let t0 = now_ns () in
  while Int64.sub (now_ns ()) t0 < probe_settle_ns do
    ()
  done;
  let a = probe_once () in
  let b = probe_once () in
  Float.min a (Float.min b (probe_once ()))

(* one timed job: raw and normalised seconds, and its probe time *)
type sample = { kind : string; raw : float; norm : float; probe_s : float }

let sample ~kind ~p0 ~p1 raw =
  let p = (p0 +. p1) /. 2. in
  { kind; raw; norm = raw *. probe_ref_s /. p; probe_s = p }

(* The time [samples] would take if every job ran at the median speed of
   its kind — a window that follows the typical job, not the bursts. *)
let median_window field samples =
  let kinds = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.replace kinds s.kind
        (field s :: Option.value (Hashtbl.find_opt kinds s.kind) ~default:[]))
    samples;
  Hashtbl.fold (fun _ ts acc -> acc +. (float (List.length ts) *. median ts)) kinds 0.

let shuffle prng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int prng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* VmHWM of this process, in MiB *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "wallbench: no VmHWM in /proc/self/status"
  in
  scan ()

(* ---------- spans ----------

   A span covers one call into the system. Spans live in memory and are
   written once, at the end, as Chrome trace events; a span's self time
   is its duration minus the part its children cover. With tracing off
   [span] is a plain call. *)

type span = {
  sp_name : string;
  sp_id : int;
  sp_parent : int;
  sp_job : int;
  sp_t0 : int64;
  mutable sp_t1 : int64;
}

type tracer = {
  on : bool;
  mutable spans : span list;  (** closed spans, newest first *)
  mutable open_ : span list;  (** innermost first *)
  mutable next_id : int;
}

let tracer on = { on; spans = []; open_ = []; next_id = 0 }

let span tr ?job name f =
  if not tr.on then f ()
  else begin
    let parent, inherited =
      match tr.open_ with s :: _ -> (s.sp_id, s.sp_job) | [] -> (-1, -1)
    in
    let s =
      {
        sp_name = name;
        sp_id = tr.next_id;
        sp_parent = parent;
        sp_job = Option.value job ~default:inherited;
        sp_t0 = now_ns ();
        sp_t1 = 0L;
      }
    in
    tr.next_id <- tr.next_id + 1;
    tr.open_ <- s :: tr.open_;
    Fun.protect f ~finally:(fun () ->
        s.sp_t1 <- now_ns ();
        tr.open_ <- List.tl tr.open_;
        tr.spans <- s :: tr.spans)
  end

let write_trace tr path =
  let spans = List.rev tr.spans in
  let origin =
    List.fold_left (fun m s -> if s.sp_t0 < m then s.sp_t0 else m) Int64.max_int
      spans
  in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"job\":%d}}"
        s.sp_name (us s.sp_t0)
        (us s.sp_t1 -. us s.sp_t0)
        s.sp_id s.sp_parent s.sp_job)
    spans;
  Buffer.add_string b "]}\n";
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc b)

(* total and self milliseconds per span name, largest self time first *)
let self_times tr =
  let dur s = Int64.to_float (Int64.sub s.sp_t1 s.sp_t0) *. 1e-6 in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child s.sp_parent
          (dur s +. Option.value (Hashtbl.find_opt child s.sp_parent) ~default:0.))
    tr.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        dur s -. Option.value (Hashtbl.find_opt child s.sp_id) ~default:0.
      in
      let n, tot, slf =
        Option.value (Hashtbl.find_opt by_name s.sp_name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace by_name s.sp_name (n + 1, tot +. dur s, slf +. self))
    tr.spans;
  List.sort
    (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* ---------- per-layer metrics ----------

   Every workload reports every per-layer metric; a layer the workload
   does not exercise reads 0. *)

let per_layer_catalogue =
  [
    ("input.build_ms", "ms");
    ("system.create_ms", "ms");
    ("system.run_ms", "ms");
    ("exec.host_mips", "Minsn/s");
    ("phase.translate_per_guest", "ratio");
    ("phase.execute_per_guest", "ratio");
    ("phase.coordinate_per_guest", "ratio");
    ("phase.softmmu_per_guest", "ratio");
    ("phase.helper_per_guest", "ratio");
    ("phase.deliver_per_guest", "ratio");
    ("phase.region_per_guest", "ratio");
    ("engine.tb_translations", "count");
    ("engine.chained_per_guest", "ratio");
    ("engine.returns_per_guest", "ratio");
    ("softmmu.tlb_misses_per_guest", "ratio");
    ("helper.calls_per_guest", "ratio");
    ("coord.sync_ops_per_guest", "ratio");
    ("gc.minor_bytes_per_guest", "B");
    ("gc.promoted_bytes_per_guest", "B");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("translate.replay_us_per_tb", "us");
    ("snapshot.bytes", "B");
    ("snapshot.encode_ms", "ms");
    ("snapshot.restore_ms", "ms");
    ("snapshot.checkpoint_ms", "ms");
    ("aotcache.capture_ms", "ms");
    ("aotcache.install_ms", "ms");
    ("aotcache.installed_share", "ratio");
    ("resilience.serve_ms_p50", "ms");
    ("resilience.serve_ms_p90", "ms");
    ("resilience.attempts_per_request", "ratio");
    ("resilience.restarts", "count");
    ("parallel.domains", "count");
    ("parallel.speedup", "ratio");
    ("covscope.report_ms", "ms");
    ("covscope.coverage", "ratio");
    ("observe.overhead_pct", "%");
    ("oracle.ref_mips", "Minsn/s");
    ("modelled_speedup", "ratio");
    ("failed_share", "ratio");
    ("host.probe_us", "us");
    ("raw.guest_mips", "Minsn/s");
  ]

(* [None] in untraced passes: nothing per-layer is measured *)
type layers = (string, float) Hashtbl.t option

let set (ly : layers) name v =
  match ly with
  | Some h ->
    assert (List.mem_assoc name per_layer_catalogue);
    Hashtbl.replace h name v
  | None -> ()

(* [measure ly ~kind f] runs [f] between two probes — with GC counters
   read around it when per-layer metrics are on — and returns its
   result, its sample and the GC delta. *)
type gc_delta = { minor_b : float; promoted_b : float; minors : int; majors : int }

let no_gc = { minor_b = 0.; promoted_b = 0.; minors = 0; majors = 0 }

let add_gc a b =
  {
    minor_b = a.minor_b +. b.minor_b;
    promoted_b = a.promoted_b +. b.promoted_b;
    minors = a.minors + b.minors;
    majors = a.majors + b.majors;
  }

let measure (ly : layers) ~kind f =
  let p0 = probe () in
  let g0 = Option.map (fun _ -> Gc.quick_stat ()) ly in
  let r, dt = timed f in
  let gc =
    match g0 with
    | None -> no_gc
    | Some g0 ->
      let g1 = Gc.quick_stat () in
      let word = float (Sys.word_size / 8) in
      {
        minor_b = (g1.Gc.minor_words -. g0.Gc.minor_words) *. word;
        promoted_b = (g1.Gc.promoted_words -. g0.Gc.promoted_words) *. word;
        minors = g1.Gc.minor_collections - g0.Gc.minor_collections;
        majors = g1.Gc.major_collections - g0.Gc.major_collections;
      }
  in
  let p1 = probe () in
  (r, sample ~kind ~p0 ~p1 dt, gc)

let set_gc ly gc ~guest =
  set ly "gc.minor_bytes_per_guest" (gc.minor_b /. float (max 1 guest));
  set ly "gc.promoted_bytes_per_guest" (gc.promoted_b /. float (max 1 guest));
  set ly "gc.minor_collections" (float gc.minors);
  set ly "gc.major_collections" (float gc.majors)

let set_phases ly phases ~guest =
  List.iter
    (fun p ->
      set ly
        ("phase." ^ Phase.name p ^ "_per_guest")
        (ratio phases.(Phase.index p) guest))
    Phase.all

(* engine counters of a whole-run [Stats] delta *)
type counters = {
  c_guest : int;
  c_host : int;
  c_translations : int;
  c_chained : int;
  c_returns : int;
  c_tlb_misses : int;
  c_helper_calls : int;
  c_sync_ops : int;
}

let zero_counters =
  {
    c_guest = 0;
    c_host = 0;
    c_translations = 0;
    c_chained = 0;
    c_returns = 0;
    c_tlb_misses = 0;
    c_helper_calls = 0;
    c_sync_ops = 0;
  }

let counters (s : Stats.t) =
  {
    c_guest = s.Stats.guest_insns;
    c_host = s.Stats.host_insns;
    c_translations = s.Stats.tb_translations;
    c_chained = s.Stats.chained_jumps;
    c_returns = s.Stats.engine_returns;
    c_tlb_misses = s.Stats.tlb_misses;
    c_helper_calls = s.Stats.helper_calls;
    c_sync_ops = s.Stats.sync_ops;
  }

let lift f a b =
  {
    c_guest = f a.c_guest b.c_guest;
    c_host = f a.c_host b.c_host;
    c_translations = f a.c_translations b.c_translations;
    c_chained = f a.c_chained b.c_chained;
    c_returns = f a.c_returns b.c_returns;
    c_tlb_misses = f a.c_tlb_misses b.c_tlb_misses;
    c_helper_calls = f a.c_helper_calls b.c_helper_calls;
    c_sync_ops = f a.c_sync_ops b.c_sync_ops;
  }

let set_counters ly c =
  let per n = ratio n c.c_guest in
  set ly "engine.tb_translations" (float c.c_translations);
  set ly "engine.chained_per_guest" (per c.c_chained);
  set ly "engine.returns_per_guest" (per c.c_returns);
  set ly "softmmu.tlb_misses_per_guest" (per c.c_tlb_misses);
  set ly "helper.calls_per_guest" (per c.c_helper_calls);
  set ly "coord.sync_ops_per_guest" (per c.c_sync_ops)

(* ---------- machines and the reference oracle ---------- *)

let full = D.System.Rules D.Opt.full
let timer_period = 5_000

let build_image tr build =
  span tr "workloads.generate" @@ fun () ->
  let user = build () in
  span tr "kernel.build" (fun () ->
      K.build ~timer_period ~user_program:user ())

let cint_builder (spec : W.spec) ~insns () =
  W.generate spec ~iterations:(max 1 (insns / W.insns_per_iteration spec))

(* the Fig. 19 app generators retire about 900 guest insns per
   iteration (the harness sizes them the same way) *)
let app_builder app ~insns () =
  W.generate_app app ~iterations:(max 1 (insns / 900))

let boot ?scope ?inject ?shadow_depth ?quarantine_threshold tr mode img =
  let sys =
    span tr "system.create" (fun () ->
        D.System.create ?scope ?inject ?shadow_depth ?quarantine_threshold mode)
  in
  span tr "system.load" (fun () ->
      K.load img (fun base words -> D.System.load_image sys base words));
  sys

type expect = { code : int; uart : string }

(* [Ref_machine.run ~max_steps:max_int] stops after 0 steps (its
   [4 * max_steps] guard overflows), so the reference runs under a
   finite cap far above any program here. *)
let ref_step_cap = 100_000_000

let reference tr img =
  let rm = Ref.create () in
  K.load img (fun base words -> Ref.load_image rm base words);
  match span tr "ref_machine.run" (fun () -> Ref.run rm ~max_steps:ref_step_cap) with
  | Ref.Halted code, steps ->
    ( { code; uart = Repro_machine.Devices.Uart.output rm.Ref.bus.Repro_machine.Bus.uart },
      steps )
  | (Ref.Step_limit | Ref.Decode_error _), _ ->
    failwith "wallbench: reference machine did not halt"

let matches sys (res : Repro_tcg.Engine.result) exp =
  match res.Repro_tcg.Engine.reason with
  | `Halted code -> code = exp.code && D.System.uart_output sys = exp.uart
  | `Insn_limit | `Deadline | `Livelock _ -> false

(* ---------- workload outcome ---------- *)

type outcome = {
  setups : sample list;  (** one per set-up *)
  jobs : sample list;  (** one per job: the latency samples *)
  window : sample list;
      (** the timed stretches rates are computed over: the jobs
          themselves, or the drill's epochs *)
  guest : int;  (** guest insns retired in the window *)
  rules_host : int;  (** modelled host insns of rules:full jobs *)
  rules_guest : int;
  attempted : int;
  failed : int;
  drift : string list;  (** determinism violations inside the run *)
  digest : string;  (** deterministic facts, for the cross-run check *)
  extra : (string * float * string) list;
      (** workload-specific end-to-end figures printed beside the table *)
}

let guest_mips field o = float o.guest /. median_window field o.window /. 1e6

(* ---------- steady ---------- *)

(* Three programs chosen for what they stress (see NOTES.md): hmmer has
   long TBs and heavy memory traffic, gcc the highest
   system-instruction rate, xalancbmk the shortest TBs and most
   interrupt checks. The warm-up stretch covers the kernel boot and
   the first loop iterations; after it only the exit path is still
   translated. *)
let steady_programs = [ "hmmer"; "gcc"; "xalancbmk" ]
let steady_insns = 250_000
let steady_warm = 50_000

(* a round of three timed jobs takes about 0.25 s *)
let steady_rounds seconds = 4 * max 1 seconds

let run_steady ~tr ~(ly : layers) ~seed ~seconds =
  let specs = List.map W.find steady_programs in
  let expects =
    List.map
      (fun spec ->
        let img = build_image tr (cint_builder spec ~insns:steady_insns) in
        timed (fun () -> reference tr img))
      specs
  in
  let ref_guest = List.fold_left (fun a ((_, n), _) -> a + n) 0 expects in
  let ref_secs = List.fold_left (fun a (_, dt) -> a +. dt) 0. expects in
  set ly "oracle.ref_mips" (float ref_guest /. ref_secs /. 1e6);
  let expects = Array.of_list (List.map (fun ((e, _), _) -> e) expects) in
  Gc.full_major ();
  let specs = Array.of_list specs in
  let prng = Prng.create ~seed in
  let first = Array.make (Array.length specs) None in
  let setup = ref [] and jobs = ref [] and drift = ref [] in
  let run_s = ref 0. and guest = ref 0 and failed = ref 0 and attempted = ref 0 in
  let rules_host = ref 0 in
  let build_s = ref 0. and create_s = ref 0. in
  let delta = ref zero_counters and phases = Array.make Phase.n 0 in
  let gc = ref no_gc in
  let cov_ms = ref [] and cov = ref [] in
  for round = 0 to steady_rounds seconds - 1 do
    (* set-up: build the inputs, create and load the machines, warm up *)
    let machines, smp, _ =
      measure None ~kind:"setup" (fun () ->
          Array.map
            (fun spec ->
              let img, b =
                timed (fun () ->
                    build_image tr (cint_builder spec ~insns:steady_insns))
              in
              build_s := !build_s +. b;
              let scope = Option.map (fun _ -> Scope.create ()) ly in
              let sys, c = timed (fun () -> boot ?scope tr full img) in
              create_s := !create_s +. c;
              (match
                 (span tr "system.run" (fun () ->
                      D.System.run ~max_guest_insns:steady_warm sys))
                   .Repro_tcg.Engine.reason
               with
              | `Insn_limit -> ()
              | _ -> failwith "wallbench: steady program ended inside its warm-up");
              (sys, scope))
            specs)
    in
    setup := smp :: !setup;
    let order = shuffle prng (Array.init (Array.length specs) Fun.id) in
    Array.iter
      (fun i ->
        let sys, scope = machines.(i) in
        let stats = D.System.stats sys in
        let before = counters stats in
        let p0 = Option.map Scope.phase_vector scope in
        let job = (round * Array.length specs) + i in
        let res, smp, g =
          measure ly ~kind:specs.(i).W.name (fun () ->
              span tr ~job "system.run" (fun () -> D.System.run sys))
        in
        incr attempted;
        let d = lift ( - ) (counters stats) before in
        run_s := !run_s +. smp.raw;
        jobs := smp :: !jobs;
        guest := !guest + d.c_guest;
        rules_host := !rules_host + d.c_host;
        delta := lift ( + ) !delta d;
        gc := add_gc !gc g;
        (match (scope, p0) with
        | Some sc, Some p0 ->
          Array.iteri
            (fun k v -> phases.(k) <- phases.(k) + v - p0.(k))
            (Scope.phase_vector sc)
        | _ -> ());
        if not (matches sys res expects.(i)) then incr failed;
        let fingerprint = Stats.to_array stats in
        (match first.(i) with
        | None -> first.(i) <- Some fingerprint
        | Some f when f = fingerprint -> ()
        | Some _ ->
          drift :=
            Printf.sprintf "steady: %s counters differ in round %d"
              specs.(i).W.name round
            :: !drift);
        if ly <> None then begin
          let report, dt =
            timed (fun () ->
                span tr ~job "covscope.report" (fun () ->
                    D.System.coverage_report sys))
          in
          cov_ms := (dt *. 1e3) :: !cov_ms;
          cov := Repro_covscope.Report.coverage report :: !cov
        end)
      order
  done;
  let n = float !attempted in
  set ly "input.build_ms" (!build_s *. 1e3 /. float (List.length !setup));
  set ly "system.create_ms" (!create_s *. 1e3 /. n);
  set ly "system.run_ms" (!run_s *. 1e3 /. n);
  set ly "exec.host_mips" (float !delta.c_host /. !run_s /. 1e6);
  set_counters ly !delta;
  set_phases ly phases ~guest:!guest;
  set_gc ly !gc ~guest:!guest;
  set ly "covscope.report_ms" (mean !cov_ms);
  set ly "covscope.coverage" (mean !cov);
  let digest =
    String.concat ";"
      (Array.to_list
         (Array.map
            (function
              | Some f -> String.concat "," (Array.to_list (Array.map string_of_int f))
              | None -> "")
            first))
  in
  {
    setups = !setup;
    jobs = !jobs;
    window = !jobs;
    guest = !guest;
    rules_host = !rules_host;
    rules_guest = !guest;
    attempted = !attempted;
    failed = !failed;
    drift = !drift;
    digest;
    extra = [];
  }

(* ---------- coldboot ---------- *)

(* Short jobs, so machine set-up, boot-time MMU work, one-time
   translation through both translators and the depot replay path
   carry weight. *)
let coldboot_insns = 40_000

(* a round of 68 boots takes about 2 s *)
let coldboot_rounds seconds = max 1 (seconds / 2)

(* building the inputs takes about a millisecond, so it is repeated
   for a steady set-up median *)
let coldboot_setups = 25

let coldboot_programs =
  List.map (fun (s : W.spec) -> (s.W.name, cint_builder s ~insns:coldboot_insns)) W.cint2006
  @ List.map (fun (a : W.app) -> (a.W.app_name, app_builder a ~insns:coldboot_insns)) W.apps

(* The warm boot must retire the same guest insns and execute the same
   emitted compute, softMMU and interrupt-check code as its cold boot.
   Its sync and glue counts are lower, not equal: recipes install with
   their chain graph, so fewer TB exits return to the engine and restore
   flags, and no translation is charged. *)
let same_work_as_cold (cold : Stats.t) (warm : Stats.t) =
  cold.Stats.guest_insns = warm.Stats.guest_insns
  && List.for_all
       (fun tag ->
         let c = Stats.tag_count cold tag and w = Stats.tag_count warm tag in
         match tag with
         | Insn.Tag_sync | Insn.Tag_glue -> w <= c
         | Insn.Tag_compute | Insn.Tag_mmu | Insn.Tag_irq_check -> w = c)
       Insn.all_tags

let run_coldboot ~tr ~(ly : layers) ~seed ~seconds =
  let names = Array.of_list (List.map fst coldboot_programs) in
  let builders = Array.of_list (List.map snd coldboot_programs) in
  let expects =
    Array.map (fun b -> fst (reference tr (build_image tr b))) builders
  in
  (* the reference runs' garbage goes before timing, so the peak RSS is
     the workload's own *)
  Gc.full_major ();
  let modes = [| full; D.System.Qemu |] in
  let pairs =
    Array.concat
      (List.map
         (fun m -> Array.init (Array.length names) (fun p -> (p, m)))
         [ 0; 1 ])
  in
  let prng = Prng.create ~seed in
  let first = Hashtbl.create 64 in
  let setup = ref [] and jobs = ref [] and drift = ref [] in
  let guest = ref 0 and failed = ref 0 and attempted = ref 0 in
  let rules_host = ref 0 and rules_guest = ref 0 and qemu_cold_host = ref 0 in
  let rules_cold_host = ref 0 in
  let create_ms = ref [] and run_s = ref 0. and host = ref 0 in
  let capture_ms = ref [] and install_ms = ref [] in
  let installed = ref 0 and recipes = ref 0 in
  let delta = ref zero_counters and phases = Array.make Phase.n 0 in
  let gc = ref no_gc and replay_us = ref [] in
  let images = ref [||] in
  for _ = 1 to coldboot_setups do
    let imgs, smp, _ =
      measure None ~kind:"setup" (fun () -> Array.map (fun b -> build_image tr b) builders)
    in
    images := imgs;
    setup := smp :: !setup
  done;
  let images = !images in
  for round = 0 to coldboot_rounds seconds - 1 do
    let order = shuffle prng (Array.copy pairs) in
    Array.iteri
      (fun k (p, m) ->
        let mode = modes.(m) in
        let job = (round * Array.length pairs) + k in
        (* one boot: create, load, optional depot install, run to halt *)
        let boot_job ?depot () =
          let cold = depot = None in
          let scope = Option.map (fun _ -> Scope.create ()) ly in
          let kind =
            Printf.sprintf "%s/%s/%s" names.(p) (D.System.mode_name mode)
              (if cold then "cold" else "warm")
          in
          let (sys, res), smp, g =
            measure ly ~kind (fun () ->
                span tr ~job (if cold then "boot.cold" else "boot.warm") @@ fun () ->
                let sys, c = timed (fun () -> boot ?scope tr mode images.(p)) in
                create_ms := (c *. 1e3) :: !create_ms;
                Option.iter
                  (fun d ->
                    let _, dt =
                      timed (fun () ->
                          span tr "depot.install" (fun () ->
                              D.System.depot_install sys d))
                    in
                    install_ms := (dt *. 1e3) :: !install_ms)
                  depot;
                let res, r =
                  timed (fun () -> span tr "system.run" (fun () -> D.System.run sys))
                in
                run_s := !run_s +. r;
                (sys, res))
          in
          incr attempted;
          jobs := smp :: !jobs;
          let stats = D.System.stats sys in
          let c = counters stats in
          guest := !guest + c.c_guest;
          host := !host + c.c_host;
          delta := lift ( + ) !delta c;
          gc := add_gc !gc g;
          (match scope with
          | Some sc ->
            Array.iteri (fun k v -> phases.(k) <- phases.(k) + v) (Scope.phase_vector sc)
          | None -> ());
          if m = 0 then begin
            rules_host := !rules_host + c.c_host;
            rules_guest := !rules_guest + c.c_guest
          end;
          if not (matches sys res expects.(p)) then incr failed;
          sys
        in
        let cold = boot_job () in
        let cold_stats = D.System.stats cold in
        if m = 0 then rules_cold_host := !rules_cold_host + cold_stats.Stats.host_insns
        else qemu_cold_host := !qemu_cold_host + cold_stats.Stats.host_insns;
        let depot, dt =
          timed (fun () ->
              span tr ~job "depot.capture" (fun () ->
                  let d = D.System.depot_capture cold in
                  let bytes = span tr "depot.to_string" (fun () -> Depot.to_string d) in
                  span tr "depot.of_string" (fun () -> Depot.of_string bytes)))
        in
        capture_ms := (dt *. 1e3) :: !capture_ms;
        let warm = boot_job ~depot () in
        let i, pending = D.System.depot_coverage warm in
        installed := !installed + i;
        recipes := !recipes + i + pending;
        let warm_stats = D.System.stats warm in
        if not (same_work_as_cold cold_stats warm_stats) then begin
          incr failed;
          drift :=
            Printf.sprintf "coldboot: %s %s warm boot work differs from cold"
              names.(p) (D.System.mode_name mode)
            :: !drift
        end;
        let fingerprint = (Stats.to_array cold_stats, Stats.to_array warm_stats) in
        (match Hashtbl.find_opt first (p, m) with
        | None -> Hashtbl.replace first (p, m) fingerprint
        | Some f when f = fingerprint -> ()
        | Some _ ->
          drift :=
            Printf.sprintf "coldboot: %s %s counters differ in round %d" names.(p)
              (D.System.mode_name mode) round
            :: !drift);
        (* translation replay: restoring the cold boot's end state with
           and without rebuilding its live TB set *)
        if ly <> None && round = 0 then begin
          let snap = span tr "system.snapshot" (fun () -> D.System.snapshot cold) in
          let restore rebuild =
            let sys = D.System.create mode in
            let (), dt =
              timed (fun () ->
                  span tr "system.restore" (fun () ->
                      D.System.restore ~rebuild sys snap))
            in
            (sys, dt)
          in
          let rebuilt, with_ = restore true in
          let _, without = restore false in
          let live = Tb.Cache.size rebuilt.D.System.cache in
          if live > 0 then
            replay_us := ((with_ -. without) *. 1e6 /. float live) :: !replay_us
        end)
      order
  done;
  let n = float !attempted in
  let modelled_speedup = ratio !qemu_cold_host !rules_cold_host in
  set ly "input.build_ms" (median (List.map (fun s -> s.raw) !setup) *. 1e3);
  set ly "system.create_ms" (mean !create_ms);
  set ly "system.run_ms" (!run_s *. 1e3 /. n);
  set ly "exec.host_mips" (float !host /. !run_s /. 1e6);
  set_counters ly !delta;
  set_phases ly phases ~guest:!guest;
  set_gc ly !gc ~guest:!guest;
  set ly "aotcache.capture_ms" (mean !capture_ms);
  set ly "aotcache.install_ms" (mean !install_ms);
  set ly "aotcache.installed_share" (ratio !installed !recipes);
  set ly "translate.replay_us_per_tb" (mean !replay_us);
  set ly "modelled_speedup" modelled_speedup;
  let digest =
    String.concat ";"
      (List.map
         (fun ((p, m), (c, w)) ->
           Printf.sprintf "%d/%d:%s|%s" p m
             (String.concat "," (Array.to_list (Array.map string_of_int c)))
             (String.concat "," (Array.to_list (Array.map string_of_int w))))
         (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) first [])))
  in
  {
    setups = !setup;
    jobs = !jobs;
    window = !jobs;
    guest = !guest;
    rules_host = !rules_host;
    rules_guest = !rules_guest;
    attempted = !attempted;
    failed = !failed;
    drift = !drift;
    digest;
    extra = [ ("modelled_speedup", modelled_speedup, "ratio") ];
  }

(* ---------- serve ---------- *)

(* The dbt_fleet drill's shape: 4 machines, 2 faulty, the default
   supervision policy (checkpoints every 4000 insns) and a gcc
   rules:full base snapshot warmed for 20k insns. The bus fault rate is
   a hundredth of dbt_fleet's default: at the default every attempt on
   a faulty machine crashes, both faulty machines give up and requests
   fail; at this rate faulty machines restart a few times a run, every
   request is served, and restarts stay rare enough not to decide the
   p90 latency. 60k-insn requests keep 100+ requests within a few
   seconds. *)
let serve_machines = 4
let serve_faulty = 2
let serve_insns = 60_000
let serve_warm = 20_000
let serve_setups = 9

(* about seven epochs (one request per machine each) a second *)
let serve_epochs seconds = 7 * max 1 seconds
let serve_warm_epochs = 5

let serve_faults =
  [
    (Fi.Bus_read, 0.000002);
    (Fi.Bus_write, 0.000002);
    (Fi.Tb_flush, 0.00005);
    (Fi.Rule_corrupt, 0.002);
  ]

let domains_requested = 2
let domains_effective () = min domains_requested (Domain.recommended_domain_count ())

let serve_base tr =
  let img = build_image tr (cint_builder (W.find "gcc") ~insns:serve_insns) in
  let policy = Res.Supervisor.default_policy in
  let inject = Fi.create ~seed:1 ~rate:0.0 ~behavior:Fi.Surface () in
  let sys =
    boot ~inject ~shadow_depth:policy.Res.Supervisor.shadow_depth
      ~quarantine_threshold:policy.Res.Supervisor.quarantine_threshold tr full img
  in
  match
    (span tr "system.run" (fun () ->
         D.System.run ~max_guest_insns:serve_warm ~checkpoint_every:serve_warm sys))
      .Repro_tcg.Engine.reason
  with
  | `Insn_limit -> span tr "system.snapshot" (fun () -> D.System.snapshot sys)
  | _ -> failwith "wallbench: serve warm boot failed"

let serve_fleet tr ~seed base =
  let plan =
    Fi.Plan.make ~seed ~machines:serve_machines ~faulty:serve_faulty serve_faults
  in
  span tr "fleet.create" (fun () ->
      Res.Fleet.create ~plan
        ~config:
          {
            Res.Fleet.machines = serve_machines;
            min_healthy = 1;
            policy = Res.Supervisor.default_policy;
          }
        base)

let work fleet =
  List.init (Res.Fleet.machines fleet) (fun i ->
      Res.Supervisor.work_insns (Res.Fleet.supervisor fleet i))
  |> List.fold_left ( + ) 0

(* A drill of [epochs] epochs, one [Parfleet.run] call each, every call
   timed between two probes so rates come from the median epoch.
   Returns a latency sample per request — from its epoch's dispatch to
   the moment [after_each] books it — and a sample per epoch. *)
let drill tr fleet ~domains ~epochs =
  let latencies = ref [] and window = ref [] in
  for _ = 1 to epochs do
    let booked = ref [] in
    let p0 = probe () in
    let t0 = now_ns () in
    span tr "parfleet.run" (fun () ->
        Par.Parfleet.run fleet ~domains ~requests:serve_machines ~after_each:(fun () ->
            booked := now_ns () :: !booked));
    let dt = secs_since t0 in
    let p1 = probe () in
    window := sample ~kind:"epoch" ~p0 ~p1 dt :: !window;
    List.iter
      (fun t ->
        latencies :=
          sample ~kind:"request" ~p0 ~p1 (Int64.to_float (Int64.sub t t0) *. 1e-9)
          :: !latencies)
      !booked
  done;
  (!latencies, !window)

let run_serve ~tr ~(ly : layers) ~seed ~seconds =
  let epochs = serve_epochs seconds in
  let domains = domains_effective () in
  (* set up [serve_setups] times for the set-up median; the last fleet
     serves *)
  let rec setup k samples =
    let (base, fleet, build_s), smp, _ =
      measure None ~kind:"setup" (fun () ->
          let base, b = timed (fun () -> serve_base tr) in
          (base, serve_fleet tr ~seed base, b))
    in
    if k = 1 then (base, fleet, build_s, smp :: samples)
    else setup (k - 1) (smp :: samples)
  in
  let base, fleet, build_s, setups = setup serve_setups [] in
  (* the discarded set-ups' garbage goes before timing *)
  Gc.full_major ();
  (* Untimed epochs first: a fleet's first epochs carry its first
     circuit-breaker trips and are slow by a seed-dependent amount. *)
  ignore (drill tr fleet ~domains ~epochs:serve_warm_epochs);
  let work0 = work fleet in
  let jobs, window = drill tr fleet ~domains ~epochs in
  let guest = work fleet - work0 in
  let host =
    List.init serve_machines (fun i ->
        Scope.phase_vector (Res.Supervisor.scope (Res.Fleet.supervisor fleet i)))
  in
  let phases =
    Array.init Phase.n (fun k -> List.fold_left (fun a v -> a + v.(k)) 0 host)
  in
  (* modelled host insns over every request, warm-up included *)
  let host_total = Array.fold_left ( + ) 0 phases in
  let work_total = work fleet in
  let served = Res.Fleet.served_ok fleet and offered = Res.Fleet.offered fleet in
  let restarts = Res.Fleet.restarts fleet in
  let report = Res.Fleet.metrics_json fleet in
  Printf.printf
    "  fleet: %d offered, %d served, %d timed out, %d shed, %d failed, %d restarts, %d alive\n"
    offered served (Res.Fleet.timed_out fleet) (Res.Fleet.shed fleet)
    (Res.Fleet.failed fleet) restarts (Res.Fleet.alive_count fleet);
  let verified = span tr "fleet.final_verify" (fun () -> Res.Fleet.final_verify fleet) in
  let drift = ref [] in
  if not verified then drift := "serve: a surviving machine diverged from the reference" :: !drift;
  if ly <> None then begin
    set ly "input.build_ms" (build_s *. 1e3);
    set_phases ly phases ~guest:work_total;
    set ly "resilience.restarts" (float restarts);
    set ly "resilience.attempts_per_request" (ratio (offered + restarts) offered);
    set ly "parallel.domains" (float domains);
    (* the same drill on one domain: the speed-up base, and — since
       only the measuring domain allocates — the GC figures *)
    let fleet1 = serve_fleet tr ~seed base in
    ignore (drill tr fleet1 ~domains:1 ~epochs:serve_warm_epochs);
    let work1 = work fleet1 in
    let (_, window1), _, gc =
      measure ly ~kind:"drill" (fun () -> drill tr fleet1 ~domains:1 ~epochs)
    in
    set_gc ly gc ~guest:(work fleet1 - work1);
    set ly "parallel.speedup"
      (median_window (fun s -> s.norm) window1 /. median_window (fun s -> s.norm) window);
    if Res.Fleet.metrics_json fleet1 <> report then
      drift := "serve: the 1-domain drill report differs" :: !drift;
    (* snapshot layer, on the base every request restores *)
    let bytes, enc =
      let r = List.init 5 (fun _ -> timed (fun () -> Snapshot.to_string base)) in
      (fst (List.hd r), median (List.map snd r))
    in
    set ly "snapshot.bytes" (float (String.length bytes));
    set ly "snapshot.encode_ms" (enc *. 1e3);
    let policy = Res.Supervisor.default_policy in
    let fresh () =
      D.System.create ?inject:(D.System.snapshot_injector base)
        ~shadow_depth:policy.Res.Supervisor.shadow_depth
        ~quarantine_threshold:policy.Res.Supervisor.quarantine_threshold
        (D.System.snapshot_mode base)
    in
    let restore rebuild =
      let sys = fresh () in
      let (), dt =
        timed (fun () ->
            span tr "system.restore" (fun () -> D.System.restore ~rebuild sys base))
      in
      (sys, dt)
    in
    let samples = List.init 5 (fun _ -> (restore true, restore false)) in
    let with_ = median (List.map (fun ((_, a), _) -> a) samples) in
    let without = median (List.map (fun (_, (_, b)) -> b) samples) in
    let live = Tb.Cache.size (fst (fst (List.hd samples))).D.System.cache in
    set ly "snapshot.restore_ms" (with_ *. 1e3);
    set ly "translate.replay_us_per_tb" ((with_ -. without) *. 1e6 /. float (max 1 live));
    (* periodic checkpoints: one request's run with and without them *)
    let request checkpoint_every =
      let sys, _ = restore true in
      let n = ref 0 in
      let (), dt =
        timed (fun () ->
            span tr "system.run" (fun () ->
                ignore
                  (D.System.run ~checkpoint_every ~on_checkpoint:(fun _ -> incr n) sys)))
      in
      (dt, !n)
    in
    let cp =
      List.init 5 (fun _ ->
          let with_, n = request policy.Res.Supervisor.checkpoint_every in
          let without, _ = request 0 in
          (with_ -. without) *. 1e3 /. float (max 1 n))
    in
    set ly "snapshot.checkpoint_ms" (median cp);
    (* supervision alone: one fault-free machine, one request at a time *)
    let sup = span tr "supervisor.create" (fun () -> Res.Supervisor.create ~id:0 ~policy base) in
    let reference = Res.Fleet.reference fleet in
    let serve_ms =
      List.init 40 (fun request ->
          let o, dt =
            timed (fun () ->
                span tr "supervisor.serve" (fun () ->
                    Res.Supervisor.serve ~reference sup ~request ()))
          in
          (match o with
          | Res.Supervisor.Served _ -> ()
          | _ -> drift := "serve: a fault-free request was not served" :: !drift);
          dt *. 1e3)
    in
    set ly "resilience.serve_ms_p50" (median serve_ms);
    set ly "resilience.serve_ms_p90" (percentile 0.9 serve_ms)
  end;
  {
    setups;
    jobs;
    window;
    guest;
    rules_host = host_total;
    rules_guest = work_total;
    attempted = offered;
    failed = offered - served;
    drift = !drift;
    digest = report;
    extra = [ ("parallel.domains", float domains, "count") ];
  }

(* ---------- driver ---------- *)

let out_dir = Filename.concat "wallbench" "out"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Deterministic facts must repeat exactly across runs of the same
   executable with the same arguments: the first run leaves a digest,
   later runs compare. A rebuilt executable starts afresh. *)
let cross_run_drift ~workload ~seed ~seconds digest =
  mkdir_p out_dir;
  let path =
    Filename.concat out_dir
      (Printf.sprintf "%s-seed%d-s%d-%s.digest" workload seed seconds
         (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12))
  in
  let hex = Digest.to_hex (Digest.string digest) in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let old = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    if old = hex then [] else [ "deterministic counts differ from an earlier run: " ^ path ]
  end
  else begin
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (hex ^ "\n"));
    []
  end

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
          metrics))

let main ~workload ~seed ~seconds ~trace =
  let run =
    match workload with
    | "steady" -> run_steady
    | "coldboot" -> run_coldboot
    | "serve" -> run_serve
    | w -> raise (Arg.Bad ("unknown workload " ^ w ^ " (steady|coldboot|serve)"))
  in
  Printf.printf "wallbench %s: seed %d, %d s, domains requested %d, effective %d\n%!"
    workload seed seconds domains_requested (domains_effective ());
  let o = run ~tr:(tracer false) ~ly:None ~seed ~seconds in
  let n = List.length o.jobs in
  let failed_share = ratio o.failed o.attempted in
  (* the timing metrics, from normalised or raw times *)
  let timing field =
    let ms = List.map (fun s -> field s *. 1e3) o.jobs in
    [
      ("guest_mips", guest_mips field o, "Minsn/s");
      ("job_ms_p50", median ms, "ms");
      ("job_ms_p90", percentile 0.9 ms, "ms");
      ("requests_per_s", float n /. median_window field o.window, "req/s");
    ]
  in
  let end_to_end =
    (("setup_s", median (List.map (fun s -> s.norm) o.setups), "s")
    :: timing (fun s -> s.norm))
    @ [
        ("host_per_guest", ratio o.rules_host o.rules_guest, "ratio");
        ("peak_rss_mb", peak_rss_mb (), "MiB");
      ]
  in
  let raw =
    ("setup_s", median (List.map (fun s -> s.raw) o.setups), "s") :: timing (fun s -> s.raw)
  in
  let probe_us = median (List.map (fun s -> s.probe_s *. 1e6) o.jobs) in
  Printf.printf
    "end-to-end (untraced; timings normalised to a %.0f us probe, raw beside them; \
     median probe %.1f us):\n"
    (probe_ref_s *. 1e6) probe_us;
  List.iter
    (fun (name, v, unit) ->
      let samples = if name = "setup_s" then List.length o.setups else n in
      match List.find_opt (fun (r, _, _) -> r = name) raw with
      | Some (_, r, _) ->
        Printf.printf "  %-18s %14.4f %-8s raw %14.4f  n=%d\n" name v unit r samples
      | None -> Printf.printf "  %-18s %14.4f %-8s %18s  n=%d\n" name v unit "" samples)
    end_to_end;
  Printf.printf "  %-18s %14.4f %-8s %18s  n=%d (%d failed)\n" "failed_share" failed_share
    "ratio" "" o.attempted o.failed;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-18s %14.4f %-8s\n" name v unit)
    o.extra;
  let drift = ref (o.drift @ cross_run_drift ~workload ~seed ~seconds o.digest) in
  let metrics =
    if not trace then end_to_end
    else begin
      let tr = tracer true in
      let h = Hashtbl.create 64 in
      let t = run ~tr ~ly:(Some h) ~seed ~seconds in
      if t.digest <> o.digest then
        drift := "the traced pass's counts differ from the untraced pass" :: !drift;
      if t.failed > 0 then
        drift := Printf.sprintf "%d jobs failed in the traced pass" t.failed :: !drift;
      drift := !drift @ t.drift;
      let norm s = s.norm in
      Hashtbl.replace h "observe.overhead_pct"
        ((guest_mips norm o /. guest_mips norm t -. 1.) *. 100.);
      Hashtbl.replace h "failed_share" failed_share;
      Hashtbl.replace h "host.probe_us" probe_us;
      Hashtbl.replace h "raw.guest_mips" (guest_mips (fun s -> s.raw) o);
      mkdir_p out_dir;
      let path =
        Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed)
      in
      write_trace tr path;
      Printf.printf "per-layer (traced; spans in %s):\n" path;
      let metrics =
        List.map
          (fun (name, unit) ->
            (name, Option.value (Hashtbl.find_opt h name) ~default:0., unit))
          per_layer_catalogue
      in
      List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %14.4f %s\n" name v unit) metrics;
      print_endline "span self time (ms, largest first):";
      List.iter
        (fun (name, (count, total, self)) ->
          Printf.printf "  %-40s n=%-6d total %10.2f self %10.2f\n" name count total self)
        (self_times tr);
      metrics
    end
  in
  List.iter (fun d -> Printf.printf "DRIFT: %s\n" d) !drift;
  let correct = o.failed = 0 && !drift = [] in
  print_endline (result_line ~correct ~attempted:o.attempted ~failed:o.failed metrics);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  steady | coldboot | serve");
      ("--seed", Arg.Set_int seed, "N  orders the jobs and seeds the fault plan");
      ("--seconds", Arg.Set_int seconds, "S  measure about S seconds of work");
      ("--trace", Arg.Set_int trace, "0|1  1 adds a traced pass and reports per-layer metrics");
    ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  match main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
  | () -> ()
  | exception Arg.Bad msg ->
    prerr_endline msg;
    exit 2
