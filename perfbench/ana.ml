(** The two analysis workloads.

    [analyze-scratch]: a from-scratch [Ipa.run ~jobs:1] with a fresh
    [Anactx] on each of the four catalog specifications, in an order
    drawn from the seed.  Cold caches, so the solver, grounding and the
    repair loop do almost all the work.

    [reanalyze-edits]: a warm [Serve] session (the API behind
    [ipa_tool serve]) on Twitter grown by [Specmut.grow], fed a seeded
    [Specmut.edit_stream]; each edit is sent as [spec <n>] and then
    [analyze].  Obligation and case caches answer most queries. *)

open Ipa_core
open Ipa_spec
module Rng = Ipa_sim.Rng

let apps =
  [
    ("ticket", Catalog.ticket);
    ("tournament", Catalog.tournament);
    ("twitter", Catalog.twitter);
    ("tpcw", Catalog.tpcw);
  ]

let reference_path name = Filename.concat "perfbench/reference" (name ^ ".report")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Fisher–Yates over a list, driven by the workload seed *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let ms s = 1000.0 *. s

(* ------------------------------------------------------------------ *)
(* Aggregated analysis counters                                        *)
(* ------------------------------------------------------------------ *)

let zero_stats () = Anactx.stats (Anactx.create ())

let add_stats (a : Anactx.stats) (b : Anactx.stats) : unit =
  let open Anactx in
  a.sat_calls <- a.sat_calls + b.sat_calls;
  a.sat_conflicts <- a.sat_conflicts + b.sat_conflicts;
  a.sat_decisions <- a.sat_decisions + b.sat_decisions;
  a.sat_propagations <- a.sat_propagations + b.sat_propagations;
  a.sat_learnts <- a.sat_learnts + b.sat_learnts;
  a.sat_removed <- a.sat_removed + b.sat_removed;
  a.ground_hits <- a.ground_hits + b.ground_hits;
  a.ground_misses <- a.ground_misses + b.ground_misses;
  a.cands_generated <- a.cands_generated + b.cands_generated;
  a.cands_pruned <- a.cands_pruned + b.cands_pruned;
  a.cands_checked <- a.cands_checked + b.cands_checked;
  a.pairs_checked <- a.pairs_checked + b.pairs_checked;
  a.oblig_hits <- a.oblig_hits + b.oblig_hits;
  a.oblig_misses <- a.oblig_misses + b.oblig_misses;
  a.case_hits <- a.case_hits + b.case_hits;
  a.case_misses <- a.case_misses + b.case_misses

let solver_metrics (s : Anactx.stats) : Res.metric list =
  let c = float_of_int in
  [
    Res.m "solver.sat_calls" "count" (c s.Anactx.sat_calls);
    Res.m "solver.propagations" "count" (c s.Anactx.sat_propagations);
    Res.m "solver.conflicts" "count" (c s.Anactx.sat_conflicts);
    Res.m "solver.decisions" "count" (c s.Anactx.sat_decisions);
    Res.m "solver.learnts" "count" (c s.Anactx.sat_learnts);
    Res.m "solver.learnts_removed" "count" (c s.Anactx.sat_removed);
  ]

let cache_metrics (s : Anactx.stats) : Res.metric list =
  [
    Res.m "core.oblig_hit_rate" "ratio" (Anactx.oblig_hit_rate s);
    Res.m "core.case_hit_rate" "ratio" (Anactx.case_hit_rate s);
    Res.m "core.reuse_rate" "ratio" (Anactx.reuse_rate s);
    Res.m "logic.ground_hit_rate" "ratio" (Anactx.ground_hit_rate s);
  ]

let span_total name sum =
  match Hashtbl.find_opt sum name with Some a -> a.Tr.total_s | None -> 0.0

let span_words name sum =
  match Hashtbl.find_opt sum name with Some a -> a.Tr.words | None -> 0.0

(* ------------------------------------------------------------------ *)
(* analyze-scratch                                                     *)
(* ------------------------------------------------------------------ *)

type pass = {
  wall_s : float;  (** normalized for host speed ({!Tr.measure}) *)
  runs : (string * Types.t * Ipa.report * Anactx.t) list;
}

(* [~sampled] probes the host's speed inside the pass too: for the full
   pass, whose tournament analysis alone runs for many seconds *)
let analyze_pass ?sampled specs : pass =
  let runs, t =
    Tr.measure ?sampled (fun () ->
        List.map
          (fun (name, spec) ->
            let ctx = Anactx.create () in
            let r = Tr.span "core.ipa_run" (fun () -> Ipa.run ~ctx ~jobs:1 spec) in
            (name, spec, r, ctx))
          specs)
  in
  { wall_s = t.Tr.norm_s; runs }

(* every catalog report must be byte-identical to the recorded one *)
let check_reports ~corrupt (p : pass) : unit =
  List.iteri
    (fun i (name, _, r, _) ->
      let got = Report.report_to_string r in
      let got =
        if corrupt && i = 0 then
          String.mapi (fun j c -> if j = 0 then Char.chr (Char.code c lxor 1) else c) got
        else got
      in
      Res.checkf
        (got = read_file (reference_path name))
        "%s: report differs from %s" name (reference_path name);
      if name = "tournament" then
        Res.check
          (List.exists
             (fun (a, b) ->
               (a, b) = ("begin_tourn", "finish_tourn")
               || (a, b) = ("finish_tourn", "begin_tourn"))
             (Ipa.flagged_pairs r))
          "tournament: begin_tourn/finish_tourn is no longer flagged")
    p.runs

(* the traced probes: every obligation of every catalog pair, grounded
   and solved on its own with a no-cache context, then the repair
   search re-run on each repaired pair's original operations *)
let probes (specs : (string * Types.t) list) (traced : pass) : Anactx.t =
  let nocache = Anactx.create ~cache:false () in
  List.iter
    (fun (_, (spec : Types.t)) ->
      let sg = Types.signature spec and consts = spec.Types.consts in
      let aops = Array.of_list (List.map Detect.aop_of spec.Types.operations) in
      for i = 0 to Array.length aops - 1 do
        for j = i to Array.length aops - 1 do
          let obs =
            Tr.span "core.detect_obligations" (fun () ->
                Detect.obligations spec aops.(i) aops.(j))
          in
          List.iter
            (fun (ob : Detect.oblig) ->
              Tr.span "logic.ground" (fun () ->
                  List.iter
                    (fun (inv : Types.invariant) ->
                      ignore
                        (Ipa_logic.Ground.ground ~sg ~consts ~dom:ob.Detect.ob_dom
                           inv.Types.iformula))
                    ob.Detect.ob_invs);
              ignore
                (Tr.span "solver.obligation" (fun () ->
                     Detect.solve_obligation ~ctx:nocache spec ob)))
            obs
        done
      done)
    specs;
  List.iter
    (fun (_, (spec : Types.t), (r : Ipa.report), _) ->
      List.iter
        (fun (res : Ipa.resolution) ->
          match (res.Ipa.r_outcome, Types.find_op spec res.Ipa.r_op1,
                 Types.find_op spec res.Ipa.r_op2) with
          | Ipa.Repaired _, Some o1, Some o2 ->
              ignore
                (Tr.span "core.repair" (fun () ->
                     Repair.repair_conflicts ~ctx:(Anactx.create ())
                       ~witness:res.Ipa.r_witness spec
                       (Detect.aop_of o1, Detect.aop_of o2)))
          | _ -> ())
        r.Ipa.resolutions)
    traced.runs;
  nocache

let scratch (o : Res.opts) : Res.t =
  let rng = Rng.create o.Res.seed in
  let chosen =
    if o.Res.tiny then List.filter (fun (n, _) -> n <> "tournament") apps else apps
  in
  let order = shuffle rng chosen in
  let setup_s, specs =
    Res.repeat_setup (if o.Res.tiny then 1 else 25) (fun () ->
        List.map (fun (n, mk) -> (n, mk ())) order)
  in
  let small = List.filter (fun (n, _) -> n <> "tournament") specs in
  let small_reps = if o.Res.tiny then 1 else 24 in
  (* half the small passes run before the full pass and half after, so
     their median samples the host over the whole run, as [analyze_s]
     does *)
  let small_passes k = List.init k (fun _ -> analyze_pass small) in
  let before = small_passes ((small_reps + 1) / 2) in
  Res.log "analyze-scratch: full pass";
  let full = analyze_pass ~sampled:true specs in
  Res.log "analyze-scratch: full pass %.2fs" full.wall_s;
  check_reports ~corrupt:o.Res.corrupt full;
  let smalls = before @ small_passes (small_reps / 2) in
  List.iter (check_reports ~corrupt:false) smalls;
  let attempted = List.length specs + (small_reps * List.length small) in
  let sizes =
    [
      ("specs", String.concat "," (List.map fst specs));
      ("jobs", "1");
      ("small_pass_repeats", string_of_int small_reps);
      ("small_pass_specs", String.concat "," (List.map fst small));
    ]
  in
  if not o.Res.trace then
    {
      Res.attempted;
      failed = 0;
      sizes;
      metrics =
        [
          Res.m "setup_s" "s" setup_s;
          Res.m "analyze_s" "s" full.wall_s;
          Res.m "analyze_small_ms" "ms"
            (ms (Tr.median (List.map (fun p -> p.wall_s) smalls)));
          Res.m "peak_heap_mb" "MB" (Res.peak_heap_mb ());
        ];
    }
  else begin
    Tr.on := true;
    let traced = analyze_pass specs in
    check_reports ~corrupt:false traced;
    let nocache = probes specs traced in
    let sum = Tr.summary () in
    let stats = zero_stats () in
    List.iter (fun (_, _, _, ctx) -> add_stats stats (Anactx.stats ctx)) traced.runs;
    let obl = Hashtbl.find sum "solver.obligation" in
    let pstats = Anactx.stats nocache in
    let c = float_of_int in
    {
      Res.attempted;
      failed = 0;
      sizes = sizes @ [ ("probe_obligations", string_of_int obl.Tr.count) ];
      metrics =
        solver_metrics stats
        @ [
            Res.m "solver.obligation_ms_p50" "ms" (ms (Tr.pct 50.0 obl.Tr.durs_s));
            Res.m "solver.obligation_ms_p99" "ms" (ms (Tr.pct 99.0 obl.Tr.durs_s));
            Res.m "solver.props_per_s" "1/s"
              (c pstats.Anactx.sat_propagations /. Float.max 1e-9 obl.Tr.total_s);
            Res.m "logic.ground_ms" "ms" (ms (span_total "logic.ground" sum));
            Res.m "core.ipa_run_s" "s" (span_total "core.ipa_run" sum);
            Res.m "core.ipa_run_alloc_mw" "Mwords" (span_words "core.ipa_run" sum /. 1e6);
            Res.m "core.detect_obligations_ms" "ms"
              (ms (span_total "core.detect_obligations" sum));
            Res.m "core.repair_ms" "ms" (ms (span_total "core.repair" sum));
            Res.m "core.iterations" "count"
              (c (List.fold_left (fun a (_, _, r, _) -> a + r.Ipa.iterations) 0 traced.runs));
            Res.m "core.pairs_checked" "count" (c stats.Anactx.pairs_checked);
            Res.m "core.cands_checked" "count" (c stats.Anactx.cands_checked);
            Res.m "core.prune_rate" "ratio" (Anactx.prune_rate stats);
            Res.m "trace.overhead_s" "s" (traced.wall_s -. full.wall_s);
            Res.m "trace.untraced_s" "s" full.wall_s;
            Res.m "trace.overhead_frac" "ratio" ((traced.wall_s -. full.wall_s) /. full.wall_s);
          ];
    }
  end

(* ------------------------------------------------------------------ *)
(* reanalyze-edits                                                     *)
(* ------------------------------------------------------------------ *)

(* one request to the server; [body] supplies the lines of [spec <n>] *)
let request (srv : Serve.t) ?(body = []) (line : string) : string list =
  let rest = ref body in
  let readline () =
    match !rest with
    | [] -> None
    | l :: tl ->
        rest := tl;
        Some l
  in
  let reply, _ = Serve.exec srv ~readline line in
  reply

let last l = List.nth l (List.length l - 1)

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* the server's own line split: a trailing newline adds no line *)
let split_lines (s : string) : string list =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: r -> List.rev r
  | _ -> String.split_on_char '\n' s

let spec_lines (spec : Types.t) : string list = split_lines (Render.to_string spec)

let send_spec srv (spec : Types.t) : string =
  let body = spec_lines spec in
  let reply =
    Tr.span "spec.parse" (fun () ->
        request srv ~body (Fmt.str "spec %d" (List.length body)))
  in
  let ok = last reply in
  Res.checkf (starts_with "ok spec" ok) "serve: spec request failed: %s" ok;
  ok

(* the [report <k>] payload and the [ok analyze ...] counters *)
let analyze_reply (reply : string list) : string list * (string * int) list =
  let ok = last reply in
  Res.checkf (starts_with "ok analyze" ok) "serve: analyze failed: %s" ok;
  let payload = List.filteri (fun i _ -> i > 0 && i < List.length reply - 1) reply in
  let fields =
    List.filter_map
      (fun w ->
        match String.split_on_char '=' w with
        | [ k; v ] -> (
            match String.split_on_char '/' v with
            | [ h; m ] ->
                Some [ (k ^ "_hits", int_of_string h); (k ^ "_misses", int_of_string m) ]
            | _ -> Option.map (fun n -> [ (k, n) ]) (int_of_string_opt v))
        | _ -> None)
      (String.split_on_char ' ' ok)
  in
  (payload, List.concat fields)

(* cumulative counters from the [stats] reply *)
let server_stats srv : Anactx.stats =
  let s = zero_stats () in
  List.iter
    (fun line ->
      let l = String.trim line in
      let scan fmt k = try Scanf.sscanf l fmt k with _ -> () in
      scan "SAT solves %d (conflicts %d, decisions %d, propagations %d)"
        (fun a b c d ->
          s.Anactx.sat_calls <- a;
          s.Anactx.sat_conflicts <- b;
          s.Anactx.sat_decisions <- c;
          s.Anactx.sat_propagations <- d);
      scan "learnt clauses %d (%d removed" (fun a b ->
          s.Anactx.sat_learnts <- a;
          s.Anactx.sat_removed <- b);
      scan "grounding cache %d hits / %d misses" (fun a b ->
          s.Anactx.ground_hits <- a;
          s.Anactx.ground_misses <- b);
      scan "obligations %d hits / %d misses" (fun a b ->
          s.Anactx.oblig_hits <- a;
          s.Anactx.oblig_misses <- b);
      scan "witness cases %d hits / %d misses" (fun a b ->
          s.Anactx.case_hits <- a;
          s.Anactx.case_misses <- b);
      scan "pairs checked %d" (fun a -> s.Anactx.pairs_checked <- a);
      scan "candidates %d generated, %d pruned by witness, %d solver-checked"
        (fun a b c ->
          s.Anactx.cands_generated <- a;
          s.Anactx.cands_pruned <- b;
          s.Anactx.cands_checked <- c))
    (request srv "stats");
  s

let diff_stats (a : Anactx.stats) (b : Anactx.stats) : Anactx.stats =
  let d = zero_stats () in
  add_stats d b;
  let open Anactx in
  d.sat_calls <- d.sat_calls - a.sat_calls;
  d.sat_conflicts <- d.sat_conflicts - a.sat_conflicts;
  d.sat_decisions <- d.sat_decisions - a.sat_decisions;
  d.sat_propagations <- d.sat_propagations - a.sat_propagations;
  d.sat_learnts <- d.sat_learnts - a.sat_learnts;
  d.sat_removed <- d.sat_removed - a.sat_removed;
  d.ground_hits <- d.ground_hits - a.ground_hits;
  d.ground_misses <- d.ground_misses - a.ground_misses;
  d.cands_generated <- d.cands_generated - a.cands_generated;
  d.cands_pruned <- d.cands_pruned - a.cands_pruned;
  d.cands_checked <- d.cands_checked - a.cands_checked;
  d.pairs_checked <- d.pairs_checked - a.pairs_checked;
  d.oblig_hits <- d.oblig_hits - a.oblig_hits;
  d.oblig_misses <- d.oblig_misses - a.oblig_misses;
  d.case_hits <- d.case_hits - a.case_hits;
  d.case_misses <- d.case_misses - a.case_misses;
  d

type session = {
  lat_s : float list;  (** per-edit [analyze] latency, edit order *)
  wall : float;  (** the whole edit loop, normalized for host speed *)
  iterations : int;
  sampled : (int * string list) list;  (** edit index → server report *)
  delta : Anactx.stats;  (** solver and cache work of the edit loop *)
}

(* each edit's [analyze] latency is normalized for host speed by the
   probes taken before it and after it ({!Tr.measure}); the edit loop's
   time [wall] is the sum of whole edits (spec and analyze), normalized
   the same way *)
let edit_session srv ~(stream : (Types.t * string) list) ~(sample : int list) : session =
  let before = if !Tr.on then server_stats srv else zero_stats () in
  let lat = ref [] and wall = ref 0.0 and iters = ref 0 and sampled = ref [] in
  let p0 = ref (Tr.take_probe ()) in
  List.iteri
    (fun i (spec, _) ->
      let t0 = Tr.now_ns () in
      let ok = send_spec srv spec in
      Res.checkf
        (String.length ok >= 8 && String.sub ok (String.length ok - 8) 8 = "ctx=kept")
        "serve: edit %d reset the analysis context (%s)" i ok;
      let t1 = Tr.now_ns () in
      let reply = Tr.span "core.ipa_run" (fun () -> request srv "analyze") in
      let t2 = Tr.now_ns () in
      let p1 = Tr.take_probe () in
      let scale = Tr.ref_probe_s /. ((!p0 +. p1) /. 2.0) in
      p0 := p1;
      lat := (float_of_int (t2 - t1) *. 1e-9 *. scale) :: !lat;
      wall := !wall +. (float_of_int (t2 - t0) *. 1e-9 *. scale);
      let payload, fields = analyze_reply reply in
      iters := !iters + List.assoc "iterations" fields;
      if List.mem i sample then sampled := (i, payload) :: !sampled)
    stream;
  let delta = if !Tr.on then diff_stats before (server_stats srv) else zero_stats () in
  { lat_s = List.rev !lat; wall = !wall; iterations = !iters; sampled = !sampled; delta }

let edits (o : Res.opts) : Res.t =
  let grown_ops = if o.Res.tiny then 4 else 8 in
  let n_streams = if o.Res.tiny then 1 else 28 and stream_len = 3 in
  let n_samples = if o.Res.tiny then 1 else 2 in
  (* the session is replayed on fresh servers, one replay per three
     requested seconds, so the latency samples span the run *)
  let sessions = if o.Res.tiny then 1 else max 1 (o.Res.seconds / 3) in
  (* one application and one pool of edits for every run: Twitter grown
     as in the incremental-analysis experiment, and short cumulative edit
     streams drawn from the same fixed seed.  Edit costs are bimodal (an
     edit that changes the conflict structure re-runs repairs), so a pool
     drawn per run would move the p75 more than any code change; the
     workload seed draws the order in which the streams are replayed.
     Each stream starts again from the base (the revert is itself a
     request), so the edited spec never drifts far, and with three edits
     per stream the expensive tail stays above the p85. *)
  let fixed = Rng.create 11 in
  let base = Ipa_check.Specmut.grow fixed (Catalog.twitter ()) grown_ops in
  let pool = List.init n_streams (fun _ -> Ipa_check.Specmut.edit_stream fixed base stream_len) in
  let rng = Rng.create o.Res.seed in
  let stream =
    List.concat
      (List.mapi
         (fun k edits -> (if k = 0 then [] else [ (base, "revert") ]) @ edits)
         (shuffle rng pool))
  in
  let n_edits = List.length stream in
  let sample = List.init n_samples (fun _ -> Rng.int rng n_edits) in
  (* set-up: a fresh server, the grown spec, the initial full analysis *)
  let setup () =
    let srv = Serve.create ~jobs:1 () in
    ignore (send_spec srv base);
    ignore (analyze_reply (request srv "analyze"));
    srv
  in
  let setup_s, srv = Res.repeat_setup (Res.setup_repeats o) setup in
  Res.log "reanalyze-edits: setup %.2fs; %d edits" setup_s n_edits;
  let s = edit_session srv ~stream ~sample in
  let replays = List.init (sessions - 1) (fun _ -> edit_session (setup ()) ~stream ~sample:[]) in
  Res.log "reanalyze-edits: edit loop %.2fs x %d; checking" s.wall sessions;
  (* sampled warm re-analyses must equal a from-scratch run of the same
     edited spec, as the server parsed it; outside the timed loop *)
  List.iter
    (fun (i, payload) ->
      let spec, name = List.nth stream i in
      let reparsed = Spec_parser.parse_string (String.concat "\n" (spec_lines spec)) in
      let scratch =
        Report.report_to_string (Ipa.run ~ctx:(Anactx.create ()) ~jobs:1 reparsed)
      in
      let payload =
        if o.Res.corrupt then List.map (fun l -> l ^ " ") payload else payload
      in
      Res.checkf (payload = split_lines scratch)
        "reanalyze: edit %d (%s) differs from a from-scratch analysis" i name)
    s.sampled;
  let sorted = Array.of_list (List.concat_map (fun s -> s.lat_s) (s :: replays)) in
  Array.sort compare sorted;
  Res.log "analyze latency ms: %s"
    (String.concat " "
       (List.map
          (fun p -> Printf.sprintf "p%g %.1f" p (ms (Tr.pct p sorted)))
          [ 10.; 25.; 40.; 50.; 60.; 75.; 90. ]));
  let sizes =
    [
      ("base_spec", "twitter");
      ("grown_ops", string_of_int grown_ops);
      ("ops", string_of_int (List.length base.Types.operations));
      ("edit_streams", Printf.sprintf "%d x %d edits, pool drawn from seed 11" n_streams stream_len);
      ("requests", string_of_int n_edits);
      ("sessions", string_of_int sessions);
      ("latency_samples", string_of_int (Array.length sorted));
      ("checked_edits", String.concat "," (List.map string_of_int (List.sort_uniq compare sample)));
      ("jobs", "1");
    ]
  in
  let attempted = n_edits * sessions in
  if not o.Res.trace then
    {
      Res.attempted;
      failed = 0;
      sizes;
      metrics =
        [
          Res.m "setup_s" "s" setup_s;
          Res.m "reanalyze_p50_ms" "ms" (ms (Tr.pct 50.0 sorted));
          Res.m "reanalyze_p75_ms" "ms" (ms (Tr.pct 75.0 sorted));
          Res.m "peak_heap_mb" "MB" (Res.peak_heap_mb ());
        ];
    }
  else begin
    let srv = setup () in
    Tr.on := true;
    let t = edit_session srv ~stream ~sample:[] in
    let sum = Tr.summary () in
    let parse = Hashtbl.find sum "spec.parse" in
    let c = float_of_int in
    {
      Res.attempted;
      failed = 0;
      sizes;
      metrics =
        cache_metrics t.delta
        @ [
            Res.m "spec.parse_ms" "ms" (ms (Tr.pct 50.0 parse.Tr.durs_s));
            Res.m "core.serve_analyze_s" "s" (span_total "core.ipa_run" sum);
            Res.m "core.serve_analyze_alloc_mw" "Mwords" (span_words "core.ipa_run" sum /. 1e6);
            Res.m "core.serve_iterations" "count" (c t.iterations);
            Res.m "solver.serve_sat_calls" "count" (c t.delta.Anactx.sat_calls);
            Res.m "solver.serve_propagations" "count" (c t.delta.Anactx.sat_propagations);
            Res.m "trace.overhead_s" "s" (t.wall -. s.wall);
            Res.m "trace.untraced_s" "s" s.wall;
            Res.m "trace.overhead_frac" "ratio" ((t.wall -. s.wall) /. s.wall);
          ];
    }
  end
