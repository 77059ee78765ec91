(** Benchmark-side tracing: a monotonic clock, and in-memory spans
    recorded around the benchmark's calls into each layer's public
    functions.

    Tracing is off unless [--trace 1], and while off {!span} costs one
    branch.  When on, every span keeps its name, parent span, start and end
    (monotonic ns) and the words allocated while it was open.
    Nothing is written until the run ends, when {!summary} folds the
    spans into per-name counts, total time, self time (total minus the
    time covered by child spans) and sample lists for percentiles. *)

let now_ns () : int = Int64.to_int (Monotonic_clock.now ())
let seconds_since (t0 : int) : float = float_of_int (now_ns () - t0) *. 1e-9

(** Words allocated so far (minor + direct major − promoted). *)
let alloc_words () : float = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let on = ref false

(* columnar span store, grown by doubling *)
let n = ref 0
let s_name = ref (Array.make 0 0)
let s_parent = ref (Array.make 0 0)
let s_t0 = ref (Array.make 0 0)
let s_t1 = ref (Array.make 0 0)
let s_words = ref (Float.Array.make 0 0.0)
let names : (string, int) Hashtbl.t = Hashtbl.create 32
let name_list = ref []
let cur = ref (-1)

let name_id (s : string) : int =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.replace names s i;
      name_list := (i, s) :: !name_list;
      i

let grow () =
  let cap = max 1024 (2 * Array.length !s_name) in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  s_name := ext !s_name;
  s_parent := ext !s_parent;
  s_t0 := ext !s_t0;
  s_t1 := ext !s_t1;
  let w = Float.Array.make cap 0.0 in
  Float.Array.blit !s_words 0 w 0 !n;
  s_words := w

(** Run [f] inside a span named [name] (a plain call when tracing is
    off). *)
let span (name : string) (f : unit -> 'a) : 'a =
  if not !on then f ()
  else begin
    if !n = Array.length !s_name then grow ();
    let id = !n in
    incr n;
    let parent = !cur in
    !s_name.(id) <- name_id name;
    !s_parent.(id) <- parent;
    let w0 = alloc_words () in
    cur := id;
    let close () =
      !s_t1.(id) <- now_ns ();
      Float.Array.set !s_words id (alloc_words () -. w0);
      cur := parent
    in
    !s_t0.(id) <- now_ns ();
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(** Stop tracing and forget every span and name recorded, so the next
    phase of a run is summarized on its own. *)
let reset () =
  on := false;
  n := 0;
  cur := -1;
  Hashtbl.reset names;
  name_list := []

type agg = {
  count : int;
  total_s : float;
  self_s : float;  (** total minus time covered by direct children *)
  words : float;
  durs_s : float array;  (** every span's duration, sorted *)
  self_durs_s : float array;  (** every span's self time, sorted *)
}

(** Per-name aggregates of the recorded spans. *)
let summary () : (string, agg) Hashtbl.t =
  let k = Hashtbl.length names in
  let child = Array.make !n 0 in
  for i = 0 to !n - 1 do
    let p = !s_parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (!s_t1.(i) - !s_t0.(i))
  done;
  let durs = Array.make k [] and selfs = Array.make k [] in
  let words = Array.make k 0.0 in
  for i = !n - 1 downto 0 do
    let nm = !s_name.(i) in
    let d = !s_t1.(i) - !s_t0.(i) in
    durs.(nm) <- (float_of_int d *. 1e-9) :: durs.(nm);
    selfs.(nm) <- (float_of_int (d - child.(i)) *. 1e-9) :: selfs.(nm);
    words.(nm) <- words.(nm) +. Float.Array.get !s_words i
  done;
  let out = Hashtbl.create k in
  List.iter
    (fun (i, name) ->
      let sorted l =
        let a = Array.of_list l in
        Array.sort compare a;
        a
      in
      let d = sorted durs.(i) and s = sorted selfs.(i) in
      let sum = Array.fold_left ( +. ) 0.0 in
      Hashtbl.replace out name
        {
          count = Array.length d;
          total_s = sum d;
          self_s = sum s;
          words = words.(i);
          durs_s = d;
          self_durs_s = s;
        })
    !name_list;
  out

(** Time covered by the direct children of every span named [name]. *)
let children_s (name : string) : float =
  match Hashtbl.find_opt names name with
  | None -> 0.0
  | Some nm ->
      let acc = ref 0 in
      for i = 0 to !n - 1 do
        let p = !s_parent.(i) in
        if p >= 0 && !s_name.(p) = nm then acc := !acc + (!s_t1.(i) - !s_t0.(i))
      done;
      float_of_int !acc *. 1e-9

(** Nearest-rank percentile of sorted samples (0 on none). *)
let pct (p : float) (a : float array) : float =
  let k = Array.length a in
  if k = 0 then 0.0
  else a.(max 0 (min (k - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int k)) - 1)))

let median (l : float list) : float =
  let a = Array.of_list l in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then 0.0
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Host-speed normalization                                            *)
(* ------------------------------------------------------------------ *)

(* The host's speed drifts by up to 2x within a minute (other tenants of
   the machine), far more than any bound a benchmark can hold.  Every
   host-time metric is therefore measured next to a fixed probe and
   scaled to a reference host on which the probe takes [ref_probe_s]:
   normalized = raw × ref_probe_s / (mean probe time around and inside
   the raw interval).  The probe is integer work on a cache-resident
   array followed by random read-modify-writes over an 8 MB one, both
   kept off the OCaml heap, so it neither allocates nor is scanned: the
   program's heap and GC cannot change its time. *)

let ref_probe_s = 0.010

let small_buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 2048
let big_buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 20)

let () =
  Bigarray.Array1.fill small_buf 0;
  Bigarray.Array1.fill big_buf 0

(** One probe: its host time in seconds. *)
let probe () : float =
  let t0 = now_ns () in
  let x = ref 12345 in
  let step () = x := ((!x * 25214903917) + 11) land 0xFFFF_FFFF_FFFF in
  for i = 1 to 400_000 do
    step ();
    let j = (!x lsr 20) land 2047 in
    let v = Bigarray.Array1.unsafe_get small_buf j in
    Bigarray.Array1.unsafe_set small_buf j (if v land 1 = 0 then v + i else v lxor i)
  done;
  for i = 1 to 400_000 do
    step ();
    let j = (!x lsr 16) land ((1 lsl 20) - 1) in
    Bigarray.Array1.unsafe_set big_buf j (Bigarray.Array1.unsafe_get big_buf j + i)
  done;
  seconds_since t0

(** Every probe taken, in order (recorded with the result). *)
let probes : float list ref = ref []

(* the probes of the interval being measured, and their host time *)
let m_sum = ref 0.0
let m_k = ref 0
let m_inside = ref 0

(** Take a probe inside the interval being measured (from an event loop
    or a signal handler); its time is left out of the interval's. *)
let probe_inside () =
  let t = now_ns () in
  let p = probe () in
  probes := p :: !probes;
  m_sum := !m_sum +. p;
  incr m_k;
  m_inside := !m_inside + (now_ns () - t)

type timed = {
  raw_s : float;  (** host time of the call, probes excluded *)
  norm_s : float;  (** [raw_s] scaled to the reference host *)
}

(** Run [f] between two probes and return its result and time; [f] may
    take more probes with {!probe_inside}.  With [~sampled:true] a probe
    also runs every 250 ms inside [f], from SIGALRM at the next poll
    point, for long calls during which the host's speed may change.  Use
    that only around pure computation: the timer interrupts system
    calls.  Not reentrant. *)
let measure ?(sampled = false) (f : unit -> 'a) : 'a * timed =
  m_sum := 0.0;
  m_k := 0;
  m_inside := 0;
  probe_inside ();
  m_inside := 0;
  let stop =
    if not sampled then ignore
    else begin
      let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> probe_inside ())) in
      let every = { Unix.it_interval = 0.25; it_value = 0.25 } in
      ignore (Unix.setitimer Unix.ITIMER_REAL every);
      fun () ->
        ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
        Sys.set_signal Sys.sigalrm prev
    end
  in
  let t0 = now_ns () in
  let v = Fun.protect ~finally:stop f in
  let raw_s = float_of_int (now_ns () - t0 - !m_inside) *. 1e-9 in
  probe_inside ();
  (v, { raw_s; norm_s = raw_s *. ref_probe_s /. (!m_sum /. float_of_int !m_k) })

(** A probe outside any measured interval (for hand-made brackets). *)
let take_probe () : float =
  let p = probe () in
  probes := p :: !probes;
  p
