(** Tests of the committed benchmark artifacts: every [BENCH_*.json] at
    the repository root must be a full run.  A [--quick] run writes
    [BENCH_*.quick.json] (gitignored) instead, so a file whose header
    says ["quick":true] was committed by mistake and backs no claim. *)

(* the BENCH files of the current directory: the repository root (the
   test runs there under both [dune runtest] and [dune exec]) *)
let bench_files () : string list =
  Sys.readdir "." |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f
         && Filename.check_suffix f ".json"
         && not (Filename.check_suffix f ".quick.json"))
  |> List.sort compare

let header (path : string) : string =
  In_channel.with_open_bin path In_channel.input_line
  |> Option.value ~default:""

let contains (s : string) (sub : string) : bool =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_no_quick_bench_committed () =
  let files = bench_files () in
  Alcotest.(check bool) "BENCH files found" true (files <> []);
  List.iter
    (fun f ->
      let h = header f in
      Alcotest.(check bool)
        (Filename.basename f ^ " records its mode") true
        (contains h "\"quick\":");
      Alcotest.(check bool)
        (Filename.basename f ^ " is a full run") false
        (contains h "\"quick\":true"))
    files

let () =
  Alcotest.run "ipa_artifacts"
    [
      ( "bench files",
        [
          Alcotest.test_case "no committed --quick run" `Quick
            test_no_quick_bench_committed;
        ] );
    ]
