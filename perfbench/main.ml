(** The benchmark program: one workload per run.

    {v
    main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
             [--tiny] [--corrupt <phase>] [--meta <k=v>]...
    main.exe record-references
    v}

    Prints one [# run {...}] line recording the seed, tracing, sizes and
    [--meta] pairs, then the result JSON as the last line.  [--tiny]
    (the self-test's size) prefixes that line with [SMOKE ] so it can
    never be read as a benchmark result.  A failed output check prints
    the reason on stderr and exits 1 with no result. *)

(* the phase whose output [--corrupt] damages *)
let corrupt_phase = ref ""

(* Every workload runs three phases in one process: the from-scratch
   analysis of the four catalog specs, the warm re-analysis edit loop,
   and the workload's own store drive.  Each phase starts with no spans
   and no garbage left by the one before. *)
let pipeline (store : Res.opts -> Res.t) (o : Res.opts) : Res.t =
  Res.merge
    (List.map
       (fun (phase, run) ->
         Tr.reset ();
         Gc.compact ();
         Res.log "phase %s" phase;
         let r = run { o with Res.corrupt = !corrupt_phase = phase } in
         Tr.reset ();
         (phase, r))
       [ ("analyze-scratch", Ana.scratch); ("reanalyze-edits", Ana.edits); ("store", store) ])

let workloads =
  [
    ("store-zipf-write", pipeline Store.zipf_write);
    ("store-hot-read", pipeline Store.hot_read);
  ]

let json_string s = Printf.sprintf "%S" s

(* all the digits a double carries, and always a valid JSON number *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let result_json (r : Res.t) : string =
  let metric (m : Res.metric) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.Res.name)
      (json_float m.Res.value) (json_string m.Res.unit_)
  in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.Res.attempted r.Res.failed
    (String.concat ", " (List.map metric r.Res.metrics))

let record_references () =
  List.iter
    (fun (name, mk) ->
      let r = Ipa_core.Ipa.run ~ctx:(Ipa_core.Anactx.create ()) ~jobs:1 (mk ()) in
      let oc = open_out_bin (Ana.reference_path name) in
      output_string oc (Ipa_core.Report.report_to_string r);
      close_out oc;
      Printf.printf "wrote %s\n%!" (Ana.reference_path name))
    Ana.apps

let usage () =
  prerr_endline
    "usage: main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1> \
     [--tiny] [--corrupt <phase>] [--meta k=v]... | record-references";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "record-references" ] then record_references ()
  else begin
    let workload = ref "" and seed = ref None and seconds = ref 10 in
    let trace = ref false and tiny = ref false in
    let meta = ref [] in
    let rec parse = function
      | "--workload" :: w :: r -> workload := w; parse r
      | "--seed" :: n :: r -> seed := int_of_string_opt n; parse r
      | "--seconds" :: n :: r ->
          seconds := (match int_of_string_opt n with Some k when k > 0 -> k | _ -> usage ());
          parse r
      | "--trace" :: t :: r -> trace := t = "1"; parse r
      | "--tiny" :: r -> tiny := true; parse r
      | "--corrupt" :: p :: r -> corrupt_phase := p; parse r
      | "--meta" :: kv :: r -> meta := kv :: !meta; parse r
      | [] -> ()
      | _ -> usage ()
    in
    parse args;
    let run = match List.assoc_opt !workload workloads with Some f -> f | None -> usage () in
    let seed = match !seed with Some s -> s | None -> usage () in
    let tmp = Filename.concat ".perfbench-tmp" (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
    let opts =
      { Res.seed; seconds = !seconds; trace = !trace; tiny = !tiny; corrupt = false; tmp }
    in
    let cleanup () =
      Store.rm_rf tmp;
      try Sys.rmdir (Filename.dirname tmp) with Sys_error _ -> ()
    in
    match Fun.protect ~finally:cleanup (fun () -> run opts) with
    | r ->
        let fields =
          [
            ("workload", json_string !workload);
            ("seed", string_of_int seed);
            ("seconds", string_of_int !seconds);
            ("traced", string_of_bool !trace);
            ("size", json_string (if !tiny then "tiny" else "full"));
            ("nproc", string_of_int (Domain.recommended_domain_count ()));
            ( "host_probe_ms",
              let a = Array.of_list !Tr.probes in
              Array.sort compare a;
              Printf.sprintf "{\"n\": %d, \"min\": %.3f, \"median\": %.3f, \"max\": %.3f, \"ref\": %.3f}"
                (Array.length a) (1000. *. Tr.pct 0. a) (1000. *. Tr.pct 50. a)
                (1000. *. Tr.pct 100. a) (1000. *. Tr.ref_probe_s) );
          ]
          @ List.rev_map
              (fun kv ->
                match String.index_opt kv '=' with
                | Some i ->
                    ( String.sub kv 0 i,
                      json_string (String.sub kv (i + 1) (String.length kv - i - 1)) )
                | None -> (kv, "true"))
              !meta
          @ [
              ( "sizes",
                "{"
                ^ String.concat ", "
                    (List.map (fun (k, v) -> json_string k ^ ": " ^ json_string v) r.Res.sizes)
                ^ "}" );
            ]
        in
        Printf.printf "# run {%s}\n"
          (String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields));
        Printf.printf "%s%s\n%!" (if !tiny then "SMOKE " else "") (result_json r)
    | exception Res.Check_failed msg ->
        Printf.eprintf "perfbench: output check failed: %s\n%!" msg;
        exit 1
  end
