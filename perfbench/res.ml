(** What one benchmark run hands back to [main]: the work attempted and
    failed, the end-to-end metrics (untraced runs), the per-layer
    metrics (traced runs) and the sizes it used. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;
  failed : int;
  metrics : metric list;
  sizes : (string * string) list;  (** stated in the run's record *)
}

(** An output check failed: the run prints no result and exits 1. *)
exception Check_failed of string

let check (ok : bool) (msg : string) : unit = if not ok then raise (Check_failed msg)
let checkf ok fmt = Fmt.kstr (check ok) fmt
let m name unit_ value = { name; value; unit_ }

(** The result of a run made of several phases in one process.  Work
    attempted and failed adds up, and each size is prefixed with its
    phase.  [setup_s] and the trace totals ([trace.overhead_s],
    [trace.untraced_s]) add up, [trace.overhead_frac] is recomputed from
    those totals, and [peak_heap_mb] is the largest.  Every other metric
    comes from the one phase that reports it. *)
let merge (phases : (string * t) list) : t =
  let combine name a b =
    match name with
    | "setup_s" | "trace.overhead_s" | "trace.untraced_s" -> a +. b
    | "peak_heap_mb" -> Float.max a b
    | "trace.overhead_frac" -> Float.nan (* recomputed from the totals below *)
    | _ -> invalid_arg ("Res.merge: two phases report " ^ name)
  in
  let add acc (x : metric) =
    if List.exists (fun y -> y.name = x.name) acc then
      List.map
        (fun y -> if y.name = x.name then { y with value = combine y.name y.value x.value } else y)
        acc
    else acc @ [ x ]
  in
  let merged = List.fold_left (fun acc (_, r) -> List.fold_left add acc r.metrics) [] phases in
  let value name = (List.find (fun y -> y.name = name) merged).value in
  let metrics =
    List.map
      (fun x ->
        if x.name = "trace.overhead_frac" then
          { x with value = value "trace.overhead_s" /. value "trace.untraced_s" }
        else x)
      merged
  in
  {
    attempted = List.fold_left (fun a (_, r) -> a + r.attempted) 0 phases;
    failed = List.fold_left (fun a (_, r) -> a + r.failed) 0 phases;
    metrics;
    sizes =
      List.concat_map
        (fun (p, r) -> List.map (fun (k, v) -> (p ^ "." ^ k, v)) r.sizes)
        phases;
  }

(** Options every workload receives. *)
type opts = {
  seed : int;
  seconds : int;
  trace : bool;
  tiny : bool;  (** self-test size: never the benchmark's result *)
  corrupt : bool;  (** self-test: damage one output before the checks *)
  tmp : string;  (** scratch directory for WAL files, inside the checkout *)
}

(** How many times set-up is repeated; [setup_s] is their median. *)
let setup_repeats (o : opts) = if o.tiny then 1 else 3

(** Run [f] [k] times and return the median of its host times,
    normalized for host speed ({!Tr.measure}), and the last result.
    Each earlier result is passed to [discard] and collected before the
    next repeat, so no heap carries into the measured phase. *)
let repeat_setup ?(discard = ignore) (k : int) (f : unit -> 'a) : float * 'a =
  let times = ref [] and last = ref None in
  for _ = 1 to k do
    Option.iter discard !last;
    last := None;
    Gc.compact ();
    let v, t = Tr.measure f in
    times := t.Tr.norm_s :: !times;
    last := Some v
  done;
  Gc.compact ();
  (Tr.median !times, Option.get !last)

let peak_heap_mb () : float =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let t_start = Tr.now_ns ()

(** Progress on stderr, stamped with seconds since start. *)
let log fmt =
  Fmt.epr ("[perfbench %6.2fs %5.0fMB] " ^^ fmt ^^ "@.") (Tr.seconds_since t_start)
    (float_of_int ((Gc.quick_stat ()).Gc.heap_words * 8) /. 1e6)
