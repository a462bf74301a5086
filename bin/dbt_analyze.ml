(* Offline analysis over the toolchain's JSON artifacts: phase
   breakdowns and A/B diffs of --stats-json / --perf files, top-N hot
   stacks of folded flamegraphs, trace/metrics JSONL summaries,
   fleet-telemetry digests (summary / per-machine / timeline views of
   a dbt_fleet --telemetry series.json), coverage-report views
   (matrix / rules / opportunities / gate over a --coverage-out
   document), and the benchmark-regression gate over consolidated
   BENCH_<rev>.json files (the CI gate).

   Exit codes: 0 success, 2 usage / malformed input, 3 wrong document
   kind (the file's "meta" tag names another subcommand's artifact),
   7 regression (gate failure, a diff above --fail-above, or a
   coverage gate violation). *)

module Obs = Repro_observe
module Jsonx = Obs.Jsonx
module A = Repro_perfscope.Analysis
open Cmdliner

let exit_regression = 7
let exit_kind = 3

(* Every subcommand validates the document kind of its input before
   interpreting it — feeding a stats file to [fleet] (or vice versa)
   diagnoses itself in one line instead of printing empty tables. *)
let require_kind ?require ~expect path j =
  match A.check_kind ?require ~expect j with
  | Ok () -> ()
  | Error reason ->
    Printf.eprintf "%s: %s\n" path reason;
    exit exit_kind

let require_kind_lines ~expect path vs =
  List.iter (fun v -> require_kind ~expect path v) vs

let load_json path =
  try A.load_json path with
  | Sys_error e ->
    Printf.eprintf "%s\n" e;
    exit 2
  | Jsonx.Parse_error e ->
    Printf.eprintf "%s: %s\n" path e;
    exit 2

let load_jsonl path =
  try A.load_jsonl path with
  | Sys_error e ->
    Printf.eprintf "%s\n" e;
    exit 2
  | Jsonx.Parse_error e ->
    Printf.eprintf "%s: %s\n" path e;
    exit 2

let read_file path =
  try Repro_common.Atomicio.read path
  with Sys_error e ->
    Printf.eprintf "%s\n" e;
    exit 2

let pct part total =
  if total = 0 then 0. else 100. *. float_of_int part /. float_of_int total

(* --- phases: per-phase breakdown of one run --- *)

let phases file =
  let j = load_json file in
  require_kind ~expect:"dbt-stats" file j;
  (match (A.stat_int j "guest_insns", A.stat_int j "host_insns") with
  | Some g, Some h ->
    Printf.printf "guest insns  %d\nhost insns   %d\nhost/guest   %.3f\n\n" g h
      (if g = 0 then 0. else float_of_int h /. float_of_int g)
  | _ -> ());
  let rows = A.phase_totals j in
  if rows = [] then begin
    Printf.eprintf "%s: no phase data (no \"perf\" or \"stats\" section)\n" file;
    exit 2
  end;
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 rows in
  Printf.printf "%-12s %14s %8s\n" "phase" "host insns" "share";
  List.iter
    (fun (name, n) ->
      Printf.printf "%-12s %14d %7.2f%%\n" name n (pct n total))
    rows;
  Printf.printf "%-12s %14d\n" "total" total;
  0

(* --- diff: A/B per-phase comparison --- *)

let diff fail_above file_a file_b =
  let ja = load_json file_a and jb = load_json file_b in
  require_kind ~expect:"dbt-stats" file_a ja;
  require_kind ~expect:"dbt-stats" file_b jb;
  let rows = A.diff ja jb in
  if rows = [] then begin
    Printf.eprintf "no phase data to compare\n";
    exit 2
  end;
  Printf.printf "%-12s %14s %14s %9s\n" "phase" "a" "b" "delta";
  List.iter
    (fun r ->
      Printf.printf "%-12s %14d %14d %+8.1f%%\n" r.A.d_phase r.A.d_a r.A.d_b
        r.A.d_pct)
    rows;
  let m = A.max_abs_pct rows in
  Printf.printf "max |delta|  %.1f%%\n" m;
  match fail_above with
  | Some t when m > t ->
    Printf.eprintf "phase delta %.1f%% exceeds %.1f%%\n" m t;
    exit_regression
  | _ -> 0

(* --- top: hottest stacks of a folded flamegraph --- *)

let top n file =
  let content = read_file file in
  (* A folded flamegraph is plain text; a tagged JSON artifact here is
     a document-kind mistake worth its own diagnosis. *)
  (match try Some (Jsonx.parse content) with Jsonx.Parse_error _ -> None with
  | Some j when Jsonx.member "meta" j <> None ->
    require_kind ~require:true ~expect:"folded-flamegraph" file j
  | _ -> ());
  let samples =
    String.split_on_char '\n' content
    |> List.filter_map (fun line ->
           match String.rindex_opt line ' ' with
           | Some i -> (
             let stack = String.sub line 0 i in
             let w = String.sub line (i + 1) (String.length line - i - 1) in
             match int_of_string_opt w with
             | Some w when stack <> "" -> Some (stack, w)
             | _ -> None)
           | None -> None)
  in
  if samples = [] then begin
    Printf.eprintf "%s: no folded samples\n" file;
    exit 2
  end;
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 samples in
  let sorted =
    List.sort (fun (sa, wa) (sb, wb) -> compare (wb, sa) (wa, sb)) samples
  in
  Printf.printf "%14s %8s  %s\n" "host insns" "share" "stack";
  List.iteri
    (fun i (stack, w) ->
      if i < n then Printf.printf "%14d %7.2f%%  %s\n" w (pct w total) stack)
    sorted;
  Printf.printf "(%d stacks, %d host insns total)\n" (List.length samples) total;
  0

(* --- trace: event census of a trace JSONL --- *)

let trace file =
  let vs = load_jsonl file in
  require_kind_lines ~expect:"trace" file vs;
  let tbl = Hashtbl.create 64 in
  let first = ref max_int and last = ref min_int and n_events = ref 0 in
  let dropped = ref 0 and total = ref 0 in
  List.iter
    (fun v ->
      match Jsonx.member "meta" v with
      | Some _ ->
        (* ring trailer *)
        (match Option.bind (Jsonx.member "dropped" v) Jsonx.to_int with
        | Some d -> dropped := d
        | None -> ());
        (match Option.bind (Jsonx.member "total" v) Jsonx.to_int with
        | Some t -> total := t
        | None -> ())
      | None -> (
        match
          ( Option.bind (Jsonx.member "cat" v) Jsonx.to_string,
            Option.bind (Jsonx.member "name" v) Jsonx.to_string,
            Option.bind (Jsonx.member "at" v) Jsonx.to_int )
        with
        | Some cat, Some name, Some at ->
          incr n_events;
          if at < !first then first := at;
          if at > !last then last := at;
          let key = (cat, name) in
          Hashtbl.replace tbl key
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
        | _ -> ()))
    vs;
  if !n_events = 0 then begin
    Printf.eprintf "%s: no trace events\n" file;
    exit 2
  end;
  Printf.printf "%d events spanning guest insns %d..%d" !n_events !first !last;
  if !total > 0 then Printf.printf " (%d captured, %d dropped)" !total !dropped;
  Printf.printf "\n\n%-12s %-24s %10s\n" "category" "event" "count";
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun ((ca, na), wa) ((cb, nb), wb) ->
         compare (wb, ca, na) (wa, cb, nb))
  |> List.iter (fun ((cat, name), n) ->
         Printf.printf "%-12s %-24s %10d\n" cat name n);
  0

(* --- metrics: interval table of a metrics JSONL --- *)

let metrics file =
  let vs = load_jsonl file in
  require_kind_lines ~expect:"metrics" file vs;
  let rows =
    List.filter_map
      (fun v ->
        let d = Jsonx.member "delta" v in
        let field name =
          Option.bind d (fun d -> Option.bind (Jsonx.member name d) Jsonx.to_int)
        in
        match
          ( Option.bind (Jsonx.member "at" v) Jsonx.to_int,
            field "guest_insns",
            field "host_insns",
            field "sync_ops" )
        with
        | Some at, Some g, Some h, Some s -> Some (at, g, h, s)
        | _ -> None)
      vs
  in
  if rows = [] then begin
    Printf.eprintf "%s: no metrics intervals\n" file;
    exit 2
  end;
  Printf.printf "%14s %12s %12s %10s %10s\n" "at" "d guest" "d host" "d sync"
    "host/guest";
  List.iter
    (fun (at, g, h, s) ->
      Printf.printf "%14d %12d %12d %10d %10.3f\n" at g h s
        (if g = 0 then 0. else float_of_int h /. float_of_int g))
    rows;
  0

(* --- fleet: digest of a dbt_fleet --telemetry series.json --- *)

let fleet_view view file =
  let j = load_json file in
  require_kind ~require:true ~expect:"fleet-telemetry" file j;
  let geti name v = Option.bind (Jsonx.member name v) Jsonx.to_int in
  let getf name v = Option.bind (Jsonx.member name v) Jsonx.to_float in
  let gets name v = Option.bind (Jsonx.member name v) Jsonx.to_string in
  let getl name v = Option.bind (Jsonx.member name v) Jsonx.to_list in
  let int0 name v = Option.value ~default:0 (geti name v) in
  let samples = Option.value ~default:[] (getl "samples" j) in
  let final = Jsonx.member "final" j in
  let machines = Option.value ~default:[] (Option.bind final (getl "machines")) in
  let anomaly = Option.bind final (Jsonx.member "anomaly") in
  let scores =
    match Option.bind anomaly (getl "scores") with
    | Some l -> List.filter_map Jsonx.to_float l
    | None -> []
  in
  match view with
  | `Summary ->
    Printf.printf "fleet telemetry: %d machine(s), %d sample(s), every %d\n"
      (int0 "machines" j) (List.length samples) (int0 "every" j);
    (match List.rev samples with
    | last :: _ ->
      Printf.printf
        "at request %d: %d serving, %d served ok, %d timed out, %d shed, %d \
         breaker trip(s)\n"
        (int0 "at" last) (int0 "serving" last) (int0 "served_ok" last)
        (int0 "timed_out" last) (int0 "shed" last) (int0 "breaker_trips" last)
    | [] -> ());
    (match Option.bind final (Jsonx.member "latency") with
    | Some lat ->
      Printf.printf "serve latency: count %d, p50 %d, p99 %d (guest insns)\n"
        (int0 "count" lat) (int0 "p50" lat) (int0 "p99" lat)
    | None -> ());
    (match anomaly with
    | Some a ->
      let flagged =
        match getl "flagged" a with
        | Some l -> List.filter_map Jsonx.to_int l
        | None -> []
      in
      Printf.printf "anomaly threshold %.3f; flagged: %s\n"
        (Option.value ~default:0. (getf "threshold" a))
        (if flagged = [] then "none"
         else String.concat ", " (List.map string_of_int flagged));
      (match geti "top" a with
      | Some i -> Printf.printf "most anomalous machine: %d\n" i
      | None -> ())
    | None -> ());
    0
  | `Machines ->
    Printf.printf "%3s %-12s %14s %14s %8s %8s %9s\n" "id" "health"
      "work insns" "phase insns" "served" "p99" "score";
    List.iteri
      (fun i m ->
        let phase_total =
          match Option.bind (Jsonx.member "phases" m) (fun p ->
                    match p with
                    | Jsonx.Obj fields ->
                      Some
                        (List.fold_left
                           (fun acc (_, v) ->
                             acc + Option.value ~default:0 (Jsonx.to_int v))
                           0 fields)
                    | _ -> None)
          with
          | Some n -> n
          | None -> 0
        in
        let lat = Jsonx.member "latency" m in
        Printf.printf "%3d %-12s %14d %14d %8d %8d %9.3f\n" (int0 "id" m)
          (Option.value ~default:"?" (gets "health" m))
          (int0 "work_insns" m) phase_total
          (match lat with Some l -> int0 "count" l | None -> 0)
          (match lat with Some l -> int0 "p99" l | None -> 0)
          (match List.nth_opt scores i with Some s -> s | None -> 0.))
      machines;
    0
  | `Timeline ->
    Printf.printf "%10s %8s %10s %10s %6s %8s %14s\n" "at" "serving"
      "served_ok" "timed_out" "shed" "breaker" "d work";
    List.iter
      (fun s ->
        let work_delta =
          match getl "machines" s with
          | Some ms ->
            List.fold_left (fun acc m -> acc + int0 "work_delta" m) 0 ms
          | None -> 0
        in
        Printf.printf "%10d %8d %10d %10d %6d %8d %14d\n" (int0 "at" s)
          (int0 "serving" s) (int0 "served_ok" s) (int0 "timed_out" s)
          (int0 "shed" s) (int0 "breaker_trips" s) work_delta)
      samples;
    0

(* --- coverage: views of a --coverage-out translation-quality report --- *)

let coverage_view view min_coverage file =
  let j = load_json file in
  require_kind ~require:true ~expect:"dbt-coverage" file j;
  let geti name v = Option.bind (Jsonx.member name v) Jsonx.to_int in
  let getf name v = Option.bind (Jsonx.member name v) Jsonx.to_float in
  let gets name v = Option.bind (Jsonx.member name v) Jsonx.to_string in
  let getl name v = Option.bind (Jsonx.member name v) Jsonx.to_list in
  let getb name v = Option.bind (Jsonx.member name v) Jsonx.to_bool in
  let int0 name v = Option.value ~default:0 (geti name v) in
  let flt0 name v = Option.value ~default:0. (getf name v) in
  let guest = int0 "guest_insns" j in
  let cov = 100. *. flt0 "coverage" j in
  Printf.printf "coverage report: %d retired guest insns, %.1f%% rule/region tier\n"
    guest cov;
  match view with
  | `Matrix ->
    let rows = Option.value ~default:[] (getl "matrix" j) in
    Printf.printf "\n%-12s %12s %12s %9s\n" "class" "insns" "host" "coverage";
    List.iter
      (fun r ->
        Printf.printf "%-12s %12d %12d %8.1f%%\n"
          (Option.value ~default:"?" (gets "class" r))
          (int0 "insns" r) (int0 "cost" r)
          (100. *. flt0 "coverage" r))
      rows;
    0
  | `Rules ->
    let rows = Option.value ~default:[] (getl "rules" j) in
    Printf.printf "\n%-28s %10s %12s %10s  flags\n" "rule" "hits" "host" "payoff";
    List.iter
      (fun r ->
        let flag name key =
          if Option.value ~default:false (getb key r) then [ name ] else []
        in
        let flags = flag "dead" "dead" @ flag "negative-payoff" "negative_payoff" in
        Printf.printf "%-28s %10d %12d %10.0f  %s\n"
          (Option.value ~default:"?" (gets "name" r))
          (int0 "hits" r) (int0 "dyn_cost" r) (flt0 "payoff" r)
          (if flags = [] then "-" else String.concat "," flags))
      rows;
    0
  | `Opportunities ->
    let rows = Option.value ~default:[] (getl "opportunities" j) in
    Printf.printf "\n%-12s %-16s %10s %10s %12s\n" "class" "idiom" "insns"
      "mean host" "est savings";
    List.iter
      (fun r ->
        Printf.printf "%-12s %-16s %10d %10.2f %12.0f\n"
          (Option.value ~default:"?" (gets "class" r))
          (Option.value ~default:"?" (gets "idiom" r))
          (int0 "insns" r) (flt0 "mean_cost" r) (flt0 "est_savings" r))
      rows;
    0
  | `Gate -> (
    (* The partition invariant, re-asserted offline: every retired
       guest instruction is charged to exactly one tier, so the tier
       counts must sum to the retirement total. *)
    let tiers =
      match Jsonx.member "tiers" j with Some (Jsonx.Obj fields) -> fields | _ -> []
    in
    let tier_sum = List.fold_left (fun acc (_, v) -> acc + int0 "insns" v) 0 tiers in
    if tier_sum <> guest then begin
      Printf.eprintf
        "%s: tier partition broken: tiers sum to %d, %d guest insns retired\n" file
        tier_sum guest;
      exit_regression
    end
    else begin
      Printf.printf "tier partition: OK (%d insns across %d tier(s))\n" tier_sum
        (List.length (List.filter (fun (_, v) -> int0 "insns" v > 0) tiers));
      match min_coverage with
      | Some t when cov < t ->
        Printf.eprintf "%s: coverage %.1f%% below required %.1f%%\n" file cov t;
        exit_regression
      | Some t ->
        Printf.printf "coverage %.1f%% >= required %.1f%%: OK\n" cov t;
        0
      | None -> 0
    end)

(* --- gate: the benchmark-regression gate --- *)

let status_string = function
  | A.Gate_ok -> "ok"
  | A.Gate_regressed p -> Printf.sprintf "REGRESSED (+%.1f%%)" p
  | A.Gate_missing -> "MISSING"
  | A.Gate_empty -> "EMPTY (zero guest insns)"

let gate threshold baseline current =
  let decode path =
    let j = load_json path in
    require_kind ~require:true ~expect:"bench" path j;
    match A.bench_of_json j with
    | Some b -> b
    | None ->
      Printf.eprintf "%s: not a consolidated BENCH file\n" path;
      exit 2
  in
  let base = decode baseline and cur = decode current in
  Printf.printf
    "baseline rev %s (target %d)\ncurrent  rev %s (target %d)\nthreshold    \
     %.1f%% on host-insn/guest-insn, rule-enabled slices\n\n"
    base.A.bf_rev base.A.bf_target cur.A.bf_rev cur.A.bf_target threshold;
  let ok, rows = A.gate ~threshold_pct:threshold ~baseline:base ~current:cur () in
  Printf.printf "%-28s %10s %10s %9s  %s\n" "slice" "baseline" "current"
    "delta" "status";
  List.iter
    (fun r ->
      Printf.printf "%-28s %10.3f %10.3f %+8.1f%%  %s\n" r.A.g_name r.A.g_base
        r.A.g_cur r.A.g_pct (status_string r.A.g_status))
    rows;
  if ok then begin
    Printf.printf "\ngate: OK\n";
    0
  end
  else begin
    if not (List.exists (fun s -> s.A.sl_rule_enabled) base.A.bf_slices) then
      Printf.printf "\n%s has no rule-enabled slice: nothing is gated\n" baseline;
    Printf.printf "\ngate: FAILED\n";
    exit_regression
  end

(* --- command line --- *)

let file_pos ~docv ~doc n = Arg.(required & pos n (some string) None & info [] ~docv ~doc)

let phases_cmd =
  let doc = "per-phase host-instruction breakdown of one run" in
  Cmd.v (Cmd.info "phases" ~doc)
    Term.(const phases $ file_pos ~docv:"STATS.json" ~doc:"A --stats-json or --perf file." 0)

let diff_cmd =
  let doc = "A/B per-phase comparison of two runs" in
  let fail_above =
    let doc = "Exit 7 when any phase's |delta| exceeds $(docv) percent." in
    Arg.(value & opt (some float) None & info [ "fail-above" ] ~docv:"PCT" ~doc)
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(
      const diff $ fail_above
      $ file_pos ~docv:"A.json" ~doc:"Baseline run (--stats-json/--perf output)." 0
      $ file_pos ~docv:"B.json" ~doc:"Candidate run." 1)

let top_cmd =
  let doc = "hottest stacks of a folded flamegraph" in
  let n_arg =
    let doc = "Show the $(docv) hottest stacks." in
    Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc)
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      const top $ n_arg
      $ file_pos ~docv:"FOLDED" ~doc:"A --flamegraph collapsed-stack file." 0)

let trace_cmd =
  let doc = "event census of a --trace JSONL file" in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const trace $ file_pos ~docv:"TRACE.jsonl" ~doc:"A --trace jsonl file." 0)

let metrics_cmd =
  let doc = "interval table of a --metrics-out JSONL file" in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(
      const metrics $ file_pos ~docv:"METRICS.jsonl" ~doc:"A --metrics-out file." 0)

let fleet_cmd =
  let doc = "digest of a repro-dbt-fleet --telemetry series.json" in
  let view =
    let doc = "What to print: summary, machines, or timeline." in
    let view_conv =
      Arg.enum
        [ ("summary", `Summary); ("machines", `Machines); ("timeline", `Timeline) ]
    in
    Arg.(value & opt view_conv `Summary & info [ "view" ] ~docv:"VIEW" ~doc)
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(
      const fleet_view $ view
      $ file_pos ~docv:"SERIES.json"
          ~doc:"A --telemetry series.json written by repro-dbt-fleet." 0)

let coverage_cmd =
  let doc = "views of a repro-dbt-run --coverage-out translation-quality report" in
  let view =
    let doc = "What to print: matrix, rules, opportunities, or gate." in
    let view_conv =
      Arg.enum
        [
          ("matrix", `Matrix);
          ("rules", `Rules);
          ("opportunities", `Opportunities);
          ("gate", `Gate);
        ]
    in
    Arg.(value & opt view_conv `Matrix & info [ "view" ] ~docv:"VIEW" ~doc)
  in
  let min_coverage =
    let doc =
      "With --view gate: exit 7 when the rule+region tier share is below $(docv) \
       percent."
    in
    Arg.(value & opt (some float) None & info [ "min-coverage" ] ~docv:"PCT" ~doc)
  in
  Cmd.v (Cmd.info "coverage" ~doc)
    Term.(
      const coverage_view $ view $ min_coverage
      $ file_pos ~docv:"COVERAGE.json" ~doc:"A --coverage-out report." 0)

let gate_cmd =
  let doc = "benchmark-regression gate: current BENCH file vs baseline" in
  let threshold =
    let doc =
      "Allowed host-insn/guest-insn regression per rule-enabled slice, percent."
    in
    Arg.(value & opt float 5.0 & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  Cmd.v (Cmd.info "gate" ~doc)
    Term.(
      const gate $ threshold
      $ file_pos ~docv:"BASELINE.json" ~doc:"The committed BENCH_baseline.json." 0
      $ file_pos ~docv:"CURRENT.json" ~doc:"A freshly generated BENCH_<rev>.json." 1)

let cmd =
  let doc = "analyze DBT performance artifacts" in
  Cmd.group
    (Cmd.info "repro-dbt-analyze" ~doc)
    [
      phases_cmd;
      diff_cmd;
      top_cmd;
      trace_cmd;
      metrics_cmd;
      fleet_cmd;
      coverage_cmd;
      gate_cmd;
    ]

let () = exit (Cmd.eval' cmd)
