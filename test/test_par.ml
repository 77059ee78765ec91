(** Multicore engine tests: the domain pool itself, domain-safety of
    the global interner and the WAL checksum, and the headline
    determinism property — [Fuzz.campaign] must be bit-identical at
    every [jobs] level. *)

open Ipa_par

(* ------------------------------------------------------------------ *)
(* Wal.crc32 from several domains at once                              *)
(* ------------------------------------------------------------------ *)

(* must run before anything else in this executable touches [Wal]: a
   lazily built CRC table would then be forced by all four domains at
   once, which OCaml 5 answers with [CamlinternalLazy.Undefined] *)
let test_crc32_domains () =
  let open Ipa_store in
  let cases =
    [
      ("", 0x00000000);
      ("123456789", 0xCBF43926);
      ("The quick brown fox jumps over the lazy dog", 0x414FA339);
    ]
  in
  (* a spin barrier, so all four domains make their first call together *)
  let ready = Atomic.make 0 in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < 4 do
              Domain.cpu_relax ()
            done;
            List.map (fun (s, _) -> Wal.crc32 s 0 (String.length s)) cases))
  in
  List.iter
    (fun got ->
      List.iter2
        (fun (s, want) crc ->
          Alcotest.(check int) (Fmt.str "crc32 %S" s) want crc)
        cases got)
    (List.map Domain.join doms)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 200 Fun.id in
  Alcotest.(check (list int))
    "map preserves input order"
    (List.map (fun x -> x * x) xs)
    (Pool.map p (fun x -> x * x) xs)

let test_filter_map_order () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 200 Fun.id in
  let f x = if x mod 3 = 0 then Some (x * 2) else None in
  Alcotest.(check (list int))
    "filter_map preserves input order" (List.filter_map f xs)
    (Pool.filter_map p f xs)

let test_uneven_work () =
  (* expensive items must not strand the rest of the batch (the claim
     counter hands items out one by one) nor scramble the result order *)
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 64 Fun.id in
  let spin x =
    let n = if x mod 16 = 0 then 20_000 else 10 in
    let acc = ref x in
    for _ = 1 to n do
      acc := (!acc * 7) mod 1009
    done;
    !acc
  in
  Alcotest.(check (list int))
    "uneven batches keep order" (List.map spin xs) (Pool.map p spin xs)

let test_sequential_fallback () =
  Pool.with_pool ~jobs:1 @@ fun p ->
  Alcotest.(check int) "jobs=1 spawns a single-worker pool" 1 (Pool.jobs p);
  let xs = List.init 50 Fun.id in
  Alcotest.(check (list int))
    "sequential fallback maps correctly"
    (List.map succ xs) (Pool.map p succ xs)

let test_jobs_clamped () =
  Pool.with_pool ~jobs:0 (fun p ->
      Alcotest.(check int) "jobs=0 clamps to 1" 1 (Pool.jobs p));
  Pool.with_pool ~jobs:999 (fun p ->
      Alcotest.(check int) "jobs=999 clamps to cap" Pool.cap (Pool.jobs p))

let test_worker_indices () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let seen =
    Pool.map_worker p ~f:(fun ~worker _ -> worker) (List.init 256 Fun.id)
  in
  List.iter
    (fun w ->
      if w < 0 || w >= Pool.jobs p then
        Alcotest.failf "worker index %d out of range [0,%d)" w (Pool.jobs p))
    seen

exception Boom of int

let test_exception_propagation () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  (match
     Pool.map p
       (fun x -> if x = 57 then raise (Boom x) else x)
       (List.init 100 Fun.id)
   with
  | _ -> Alcotest.fail "expected the item exception to re-raise"
  | exception Boom 57 -> ());
  (* the pool survives a failed batch *)
  Alcotest.(check (list int))
    "pool usable after a failed batch" [ 2; 4 ]
    (Pool.map p (fun x -> x * 2) [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Intern under concurrent interning                                   *)
(* ------------------------------------------------------------------ *)

let test_intern_hammer () =
  let open Ipa_crdt in
  let n_domains = 4 and n_strings = 400 in
  let key i = Fmt.str "par-hammer-%d" i in
  (* each domain interns the full (overlapping) string set in its own
     order, racing first-sight interning of every key *)
  let doms =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            Array.init n_strings (fun i ->
                let i = (i + (d * 97)) mod n_strings in
                (i, Intern.id (key i)))))
  in
  let per_domain = List.map Domain.join doms in
  (* every domain resolved every string to the same id *)
  List.iter
    (Array.iter (fun (i, id) ->
         Alcotest.(check int)
           (Fmt.str "stable id for %s" (key i))
           (Intern.id (key i)) id;
         Alcotest.(check string)
           (Fmt.str "name round-trip for %s" (key i))
           (key i) (Intern.name id)))
    per_domain;
  (* distinct strings got distinct ids *)
  let ids = List.sort_uniq compare (List.init n_strings (fun i -> Intern.id (key i))) in
  Alcotest.(check int) "no id collisions" n_strings (List.length ids)

(* ------------------------------------------------------------------ *)
(* solver recycling                                                    *)
(* ------------------------------------------------------------------ *)

let test_solver_recycling_runs () =
  (* the analysis loop releases each obligation's solver back to the
     per-domain free list; across a whole run the recycle counters must
     grow — allocations are actually being reused (test_core's pinned
     search counters check that no verdict changes) *)
  let open Ipa_core in
  let released0, reused0 = Ipa_solver.Sat.recycle_stats () in
  let spec = Ipa_spec.Catalog.ticket () in
  let _ = Ipa.run ~ctx:(Anactx.create ()) spec in
  let released1, reused1 = Ipa_solver.Sat.recycle_stats () in
  Alcotest.(check bool) "solvers released" true (released1 > released0);
  Alcotest.(check bool) "solvers reused" true (reused1 > reused0)

(* ------------------------------------------------------------------ *)
(* jobs-level determinism: Fuzz.campaign                               *)
(* ------------------------------------------------------------------ *)

let campaign_summary (r : Ipa_check.Fuzz.report) =
  let open Ipa_check in
  ( r.Fuzz.runs,
    r.Fuzz.failed_runs,
    r.Fuzz.failed_seeds,
    Option.map (fun c -> Trace.to_string c.Fuzz.trace) r.Fuzz.first )

let check_campaign_identical ~app ~repaired ~runs ~stop_on_failure seed =
  let open Ipa_check in
  let at jobs =
    campaign_summary
      (Fuzz.campaign ~app ~repaired ~seed ~runs ~stop_on_failure ~jobs ())
  in
  let base = at 1 in
  List.iter
    (fun jobs ->
      if at jobs <> base then
        Alcotest.failf
          "%s (repaired=%b, stop=%b): campaign ~jobs:%d diverged from ~jobs:1"
          app repaired stop_on_failure jobs)
    [ 2; 4 ]

let test_campaign_jobs_identical_repaired seed =
  List.iter
    (fun app ->
      check_campaign_identical ~app ~repaired:true ~runs:30
        ~stop_on_failure:false seed)
    [ "ticket"; "twitter" ]

let test_campaign_jobs_identical_failing seed =
  (* the unrepaired tournament fails: the failing-seed set, counts and
     the shrunk first counterexample must agree at every jobs level *)
  check_campaign_identical ~app:"tournament" ~repaired:false ~runs:30
    ~stop_on_failure:false seed;
  (* and the sequential early-stop semantics must be reconstructed *)
  check_campaign_identical ~app:"tournament" ~repaired:false ~runs:30
    ~stop_on_failure:true seed

let () =
  Alcotest.run "ipa_par"
    [
      ( "wal",
        [ Alcotest.test_case "crc32 from four domains" `Quick test_crc32_domains ] );
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_map_order;
          Alcotest.test_case "filter_map order" `Quick test_filter_map_order;
          Alcotest.test_case "uneven work" `Quick test_uneven_work;
          Alcotest.test_case "jobs=1 fallback" `Quick test_sequential_fallback;
          Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
          Alcotest.test_case "worker indices" `Quick test_worker_indices;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
        ] );
      ( "intern",
        [ Alcotest.test_case "multi-domain hammer" `Quick test_intern_hammer ] );
      ( "recycling",
        [
          Alcotest.test_case "solver free list exercised" `Quick
            test_solver_recycling_runs;
        ] );
      ( "determinism",
        [
          Testutil.seeded_case "campaign jobs-identical (repaired)" `Slow
            ~default:1 test_campaign_jobs_identical_repaired;
          Testutil.seeded_case "campaign jobs-identical (failing)" `Slow
            ~default:1 test_campaign_jobs_identical_failing;
        ] );
    ]
