(** A CDCL SAT solver.

    This replaces the Z3 SMT solver used by the paper's prototype: the IPA
    analysis only needs satisfiability of ground formulas over small finite
    domains (see DESIGN.md §2), which {!Encode} reduces to propositional
    CNF solved here.

    Features: two-watched-literal unit propagation, first-UIP conflict
    analysis with clause learning, an activity-guided windowed decision
    scan, phase saving, geometric restarts, and activity-based learnt-clause
    DB reduction.  The solver is incremental in the sense that clauses and
    variables may be added between [solve] calls (used for model
    enumeration via blocking clauses).

    Data structures follow MiniSat (Eén & Sörensson, "An Extensible
    SAT-solver", 2003):
    - literals are coded [2v]/[2v+1] inside the solver, so they index
      the literal arrays directly;
    - clauses live in one int arena and are named by their offset, so
      watch vectors, reasons and the trail are all unboxed int arrays;
      learnt-clause DB reduction compacts the arena;
    - each literal's watchers are a growable vector, visited from the
      top down; propagation moves a vector into a spare buffer and
      pushes back the clauses that keep their watch;
    - the decision level is an int counter, and [lim] holds the trail
      length at the start of each level, so backtracking finds its
      boundary in O(1);
    - conflict analysis marks variables in a var-indexed [seen] array and
      clears it through the learnt literals.

    The search is pinned: the tests check that this solver makes the
    same decisions, propagation order, learnt clauses, models and stats
    as the list-based reference solver in test/sat_ref.ml, whose watch
    lists the vectors reproduce in order.  That is why there are no
    blocker literals: skipping a visit would skip the swap of a
    clause's first two literals that later watches and learnt clauses
    depend on. *)

(** A literal: [+v] for the positive literal of variable [v >= 1],
    [-v] for its negation. *)
type lit = int

type result = Sat | Unsat

(* Inside the solver a literal is coded MiniSat-style as [2v] (positive)
   or [2v+1] (negative): it indexes the literal arrays directly, [l lsr 1]
   is its variable and [l lxor 1] its negation.  [code] converts at the
   API boundary; the coding is a bijection, so it changes no comparison
   the search makes. *)
let code (l : lit) = if l > 0 then 2 * l else (-2 * l) + 1

(* A clause is a reference [c >= 2] into [arena]: its coded literals are
   [arena.(c) .. arena.(c + len - 1)], its length [len] is
   [arena.(c - 1)] (negated once [reduce_db] deletes it, until
   [compact] drops it), and [arena.(c - 2)] indexes its activity in
   [cla_act].  Original clauses have an activity too: analysis bumps
   them, and one crossing the bound rescales the learnt activities.
   [no_clause] = 0 is the reason of decisions, units and unassigned
   variables, and the "no conflict" answer of [propagate]. *)
let no_clause = 0

type t = {
  mutable nvars : int;
  mutable top_var : int;  (** highest variable any slot was written for *)
  mutable n_clauses : int;  (** original clauses attached *)
  mutable learnts : int list;
  mutable n_learnts : int;  (** live learnt clauses (length of [learnts]) *)
  mutable max_learnts : int;  (** reduce the learnt DB past this size *)
  mutable learnts_total : int;  (** learnt clauses ever created *)
  mutable learnts_removed : int;  (** learnt clauses deleted by reduction *)
  mutable arena : int array;  (** clause store *)
  mutable arena_top : int;
  mutable cla_act : float array;  (** clause activities *)
  mutable n_act : int;
  (* var-indexed state; index 0 unused *)
  mutable level : int array;
  mutable reason : int array;  (** clause, [no_clause] = none *)
  mutable activity : float array;
  mutable phase : bool array;  (** saved phase *)
  mutable seen : bool array;  (** conflict-analysis marks; all false between calls *)
  mutable trail : int array;  (** coded literals *)
  mutable lim : int array;  (** [lim.(d)]: trail length when level [d+1] began *)
  (* literal-indexed state, by coded literal *)
  mutable value : int array;  (** -1 unassigned, 0 false, 1 true *)
  mutable wdata : int array array;
      (** the watchers of [l] are [wdata.(l).(0 .. wsize.(l) - 1)],
          top = last *)
  mutable wsize : int array;
  mutable wspare : int array;  (** buffer swapped in by [propagate] *)
  mutable trail_len : int;
  mutable n_levels : int;  (** current decision level *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;  (** false once a top-level conflict was derived *)
  mutable true_lit : int;  (** lazily allocated always-true literal; 0 = none *)
  mutable next_var_hint : int;  (** rotating cursor for decisions *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
}

let fresh () =
  {
    nvars = 0;
    top_var = 0;
    n_clauses = 0;
    learnts = [];
    n_learnts = 0;
    max_learnts = 0;
    learnts_total = 0;
    learnts_removed = 0;
    arena = Array.make 256 0;
    arena_top = 0;
    cla_act = Array.make 64 0.0;
    n_act = 0;
    level = Array.make 16 0;
    reason = Array.make 16 no_clause;
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    seen = Array.make 16 false;
    trail = Array.make 16 0;
    lim = Array.make 16 0;
    value = Array.make 32 (-1);
    wdata = Array.make 32 [||];
    wsize = Array.make 32 0;
    wspare = [||];
    trail_len = 0;
    n_levels = 0;
    qhead = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    true_lit = 0;
    next_var_hint = 1;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
  }

(* ------------------------------------------------------------------ *)
(* Per-domain instance recycling                                       *)
(*                                                                     *)
(* The analysis allocates one single-use solver per query — thousands  *)
(* per obligation block — and the dominant allocation cost is the      *)
(* var-indexed arrays, which grow to the same grounded-formula size    *)
(* query after query.  Each worker domain keeps a small free list of   *)
(* released instances; [create] pops one and [release] scrubs every    *)
(* field back to its [fresh] default, so a recycled solver is          *)
(* observationally identical to a new one (capacity is the only        *)
(* difference, and capacity is invisible: arrays grow on demand and    *)
(* nothing scans past [nvars]).  The list is domain-local (DLS), so    *)
(* recycling needs no synchronization and cannot leak instances        *)
(* across concurrent workers.  It holds its instances weakly: a busy   *)
(* analysis reuses them between major GC cycles, and once it stops     *)
(* creating solvers the GC reclaims them, grown arrays included.       *)
(* ------------------------------------------------------------------ *)

let pool_max = 8

let pool_key : t Weak.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Weak.create pool_max)

(* cross-domain counters so tests can assert recycling actually runs *)
let n_released = Atomic.make 0
let n_reused = Atomic.make 0

(** (instances accepted by [release], instances handed back out by
    [create]) over the whole process — monotone, cross-domain. *)
let recycle_stats () = (Atomic.get n_released, Atomic.get n_reused)

(* scrub every field back to the value [fresh] would give it.  Slots
   past [top_var] were never written since the last scrub, so only the
   used prefix is cleared, and the used watch vectors are dropped. *)
let scrub (s : t) : unit =
  let n = s.top_var + 1 in
  s.nvars <- 0;
  s.top_var <- 0;
  s.n_clauses <- 0;
  s.learnts <- [];
  s.n_learnts <- 0;
  s.max_learnts <- 0;
  s.learnts_total <- 0;
  s.learnts_removed <- 0;
  s.arena_top <- 0;
  s.n_act <- 0;
  Array.fill s.level 0 n 0;
  Array.fill s.reason 0 n no_clause;
  Array.fill s.activity 0 n 0.0;
  Array.fill s.phase 0 n false;
  Array.fill s.trail 0 n 0;
  Array.fill s.value 0 (2 * n) (-1);
  for l = 2 to (2 * n) - 1 do
    s.wdata.(l) <- [||];
    s.wsize.(l) <- 0
  done;
  s.wspare <- [||];
  s.trail_len <- 0;
  s.n_levels <- 0;
  s.qhead <- 0;
  s.var_inc <- 1.0;
  s.cla_inc <- 1.0;
  s.ok <- true;
  s.true_lit <- 0;
  s.next_var_hint <- 1;
  s.conflicts <- 0;
  s.decisions <- 0;
  s.propagations <- 0

(** Return a finished solver to this domain's free list (after reading
    any stats/model — release wipes them).  The instance must not be
    used again by the caller; a later [create] on the same domain may
    hand it back out, scrubbed to a fresh-equivalent state. *)
let release (s : t) : unit =
  let pool = Domain.DLS.get pool_key in
  let rec put i =
    if i < pool_max then
      if Weak.check pool i then put (i + 1)
      else begin
        scrub s;
        Weak.set pool i (Some s);
        Atomic.incr n_released
      end
  in
  put 0

let create () =
  let pool = Domain.DLS.get pool_key in
  let rec take i =
    if i = pool_max then fresh ()
    else
      match Weak.get pool i with
      | Some s ->
          Weak.set pool i None;
          Atomic.incr n_reused;
          s
      | None -> take (i + 1)
  in
  take 0

(* var-indexed arrays have [cap] slots, literal-indexed ones [2 * cap] *)
let ensure_capacity s v =
  let cap = Array.length s.level in
  if v >= cap then begin
    let ncap = max (v + 1) (2 * cap) in
    let grow a def =
      let b = Array.make (ncap * (Array.length a / cap)) def in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    s.level <- grow s.level 0;
    s.reason <- grow s.reason no_clause;
    s.activity <- grow s.activity 0.0;
    s.phase <- grow s.phase false;
    s.seen <- grow s.seen false;
    s.trail <- grow s.trail 0;
    s.lim <- grow s.lim 0;
    s.value <- grow s.value (-1);
    s.wdata <- grow s.wdata [||];
    s.wsize <- grow s.wsize 0
  end

(** Allocate a fresh variable, returning its index ([>= 1]). *)
let new_var s =
  s.nvars <- s.nvars + 1;
  ensure_capacity s s.nvars;
  if s.nvars > s.top_var then s.top_var <- s.nvars;
  s.nvars

let clause_len s c = s.arena.(c - 1)
let act_idx s c = s.arena.(c - 2)

(* store [lits.(0 .. len - 1)] as a new clause with activity [act] *)
let new_clause s (lits : int array) len act =
  let top = s.arena_top + len + 2 in
  if top > Array.length s.arena then begin
    let a = Array.make (max top (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 s.arena_top;
    s.arena <- a
  end;
  if s.n_act = Array.length s.cla_act then begin
    let a = Array.make (2 * s.n_act) 0.0 in
    Array.blit s.cla_act 0 a 0 s.n_act;
    s.cla_act <- a
  end;
  let arena = s.arena and c = s.arena_top + 2 in
  arena.(c - 2) <- s.n_act;
  arena.(c - 1) <- len;
  for i = 0 to len - 1 do
    arena.(c + i) <- lits.(i)
  done;
  s.cla_act.(s.n_act) <- act;
  s.n_act <- s.n_act + 1;
  s.arena_top <- top;
  c

(* push clause [c] on top of the watch vector of coded literal [l] *)
let watch s l c =
  let n = s.wsize.(l) in
  let d = s.wdata.(l) in
  if n < Array.length d then d.(n) <- c
  else begin
    let d' = Array.make (max 4 (2 * n)) no_clause in
    Array.blit d 0 d' 0 n;
    d'.(n) <- c;
    s.wdata.(l) <- d'
  end;
  s.wsize.(l) <- n + 1

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let cla_bump s c =
  let act = s.cla_act and i = act_idx s c in
  act.(i) <- act.(i) +. s.cla_inc;
  if act.(i) > 1e20 then begin
    List.iter
      (fun c ->
        let j = act_idx s c in
        act.(j) <- act.(j) *. 1e-20)
      s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

(* assign coded literal [l] true, implied by clause [from] *)
let[@inline] enqueue s l from =
  let v = l lsr 1 in
  s.value.(l) <- 1;
  s.value.(l lxor 1) <- 0;
  s.level.(v) <- s.n_levels;
  s.reason.(v) <- from;
  s.phase.(v) <- l land 1 = 0;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

(* Propagate all enqueued facts.  Returns the conflicting clause, or
   [no_clause].  The watchers of the falsified literal are visited from
   the top of their vector down; the ones that keep their watch are
   pushed back in visit order, and after a conflict the unvisited ones
   follow in their original order. *)
let propagate s =
  let confl = ref no_clause in
  let value = s.value and arena = s.arena in
  while !confl = no_clause && s.qhead < s.trail_len do
    (* clauses watching the negation of the next trail literal *)
    let falsified = s.trail.(s.qhead) lxor 1 in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let ws = s.wdata.(falsified) in
    let n = s.wsize.(falsified) in
    (* the kept watchers go to the spare buffer, which needs room for
       all [n] (kept + unvisited <= n) *)
    let kept =
      if Array.length s.wspare >= n then s.wspare
      else Array.make (max 4 n) no_clause
    in
    let nk = ref 0 in
    let i = ref (n - 1) in
    while !i >= 0 && !confl = no_clause do
      let c = ws.(!i) in
      decr i;
      (* make sure falsified literal is at position 1 *)
      if arena.(c) = falsified then begin
        arena.(c) <- arena.(c + 1);
        arena.(c + 1) <- falsified
      end;
      let first = arena.(c) in
      if value.(first) = 1 then begin
        (* clause satisfied; keep watching *)
        kept.(!nk) <- c;
        incr nk
      end
      else begin
        (* search a new literal to watch *)
        let stop = c + arena.(c - 1) in
        let k = ref (c + 2) in
        while !k < stop && value.(arena.(!k)) = 0 do
          incr k
        done;
        if !k < stop then begin
          arena.(c + 1) <- arena.(!k);
          arena.(!k) <- falsified;
          watch s arena.(c + 1) c
        end
        else begin
          (* unit or conflicting *)
          kept.(!nk) <- c;
          incr nk;
          if value.(first) = 0 then begin
            confl := c;
            s.qhead <- s.trail_len
          end
          else enqueue s first c
        end
      end
    done;
    (* keep the unvisited watchers *)
    for j = 0 to !i do
      kept.(!nk) <- ws.(j);
      incr nk
    done;
    s.wdata.(falsified) <- kept;
    s.wsize.(falsified) <- !nk;
    s.wspare <- ws
  done;
  !confl

let attach_clause s c =
  watch s s.arena.(c) c;
  watch s s.arena.(c + 1) c

let detach_clause s c =
  let rm l =
    let d = s.wdata.(l) in
    let j = ref 0 in
    for k = 0 to s.wsize.(l) - 1 do
      if d.(k) <> c then begin
        d.(!j) <- d.(k);
        incr j
      end
    done;
    s.wsize.(l) <- !j
  in
  rm s.arena.(c);
  rm s.arena.(c + 1)

(* a clause currently acting as the reason of an assignment must not be
   deleted: conflict analysis may still traverse it *)
let locked s c = s.reason.(s.arena.(c) lsr 1) = c

(* Move the live clauses to a new arena in their current order, with
   their activities, dropping the clauses [reduce_db] detached (marked
   by a negated length).  The old arena is then a forwarding table:
   [old.(c - 2)] holds the new reference of live clause [c], through
   which the watchers, the reasons and [learnts] are renumbered.  Order
   is kept everywhere, so the search does not change. *)
let compact s =
  let old = s.arena and old_act = s.cla_act in
  let live = ref 0 and n_live = ref 0 in
  let c = ref 2 in
  while !c - 2 < s.arena_top do
    let len = old.(!c - 1) in
    if len > 0 then begin
      live := !live + len + 2;
      incr n_live
    end;
    c := !c + abs len + 2
  done;
  let arena = Array.make (max 256 !live) 0 in
  let act = Array.make (max 64 !n_live) 0.0 in
  let top = ref 0 and n_act = ref 0 in
  c := 2;
  while !c - 2 < s.arena_top do
    let len = old.(!c - 1) in
    if len > 0 then begin
      let c' = !top + 2 in
      arena.(c' - 2) <- !n_act;
      arena.(c' - 1) <- len;
      Array.blit old !c arena c' len;
      act.(!n_act) <- old_act.(old.(!c - 2));
      old.(!c - 2) <- c';
      incr n_act;
      top := c' + len
    end;
    c := !c + abs len + 2
  done;
  let fwd c = old.(c - 2) in
  for l = 2 to (2 * s.top_var) + 1 do
    let d = s.wdata.(l) in
    for k = 0 to s.wsize.(l) - 1 do
      d.(k) <- fwd d.(k)
    done
  done;
  for v = 1 to s.top_var do
    if s.reason.(v) <> no_clause then s.reason.(v) <- fwd s.reason.(v)
  done;
  s.learnts <- List.map fwd s.learnts;
  s.arena <- arena;
  s.arena_top <- !top;
  s.cla_act <- act;
  s.n_act <- !n_act

(** Activity-based learnt-clause DB reduction: drop the low-activity half
    of the learnt clauses (keeping locked and binary ones) and compact
    the arena, so the DB, unit-propagation cost and the arena stay
    bounded on long searches. *)
let reduce_db s =
  let arr = Array.of_list s.learnts in
  let act c = s.cla_act.(act_idx s c) in
  Array.sort (fun a b -> Float.compare (act a) (act b)) arr;
  let n = Array.length arr in
  let kept = ref [] and n_kept = ref 0 in
  Array.iteri
    (fun i c ->
      if i >= n / 2 || clause_len s c <= 2 || locked s c then begin
        kept := c :: !kept;
        incr n_kept
      end
      else begin
        detach_clause s c;
        s.arena.(c - 1) <- -clause_len s c;
        s.learnts_removed <- s.learnts_removed + 1
      end)
    arr;
  s.learnts <- !kept;
  s.n_learnts <- !n_kept;
  compact s;
  (* geometric growth of the allowance, so reductions stay rare *)
  s.max_learnts <- s.max_learnts + (s.max_learnts / 2)

(* the sorted prefix [a.(0 .. n - 1)] holds both [l] and [-l] for some
   [l]: walk the negative literals outward and the positive ones upward,
   both by ascending variable *)
let tautology (a : lit array) n =
  let k = ref 0 in
  while !k < n && a.(!k) < 0 do
    incr k
  done;
  let i = ref (!k - 1) and j = ref !k and taut = ref false in
  while (not !taut) && !i >= 0 && !j < n do
    let vn = -a.(!i) and vp = a.(!j) in
    if vn = vp then taut := true else if vn < vp then decr i else incr j
  done;
  !taut

(* some literal of [a.(0 .. n - 1)] is already true *)
let satisfied s (a : lit array) n =
  let sat = ref false in
  for i = 0 to n - 1 do
    if s.value.(code a.(i)) = 1 then sat := true
  done;
  !sat

(** Add a clause (list of literals). Must be called at decision level 0
    (i.e. before or between [solve] calls). *)
let add_clause s (lits : lit list) =
  if s.ok then begin
    (* simplify: sort, dedupe, detect tautology / satisfied, drop false
       lits; the clause keeps the ascending order of the API literals *)
    let a = Array.of_list lits in
    let len = Array.length a in
    (* stable_sort sorts arrays of up to 5 elements by insertion in
       place; every clause of a tournament pass is that short *)
    Array.stable_sort (fun (x : int) y -> compare x y) a;
    (* dedupe into the prefix a.(0 .. n - 1) *)
    let n = ref (min len 1) in
    for i = 1 to len - 1 do
      if a.(i) <> a.(!n - 1) then begin
        a.(!n) <- a.(i);
        incr n
      end
    done;
    let n = !n in
    if not (tautology a n || satisfied s a n) then begin
      (* keep the literals not yet false, coded *)
      let m = ref 0 in
      for i = 0 to n - 1 do
        let c = code a.(i) in
        if s.value.(c) <> 0 then begin
          a.(!m) <- c;
          incr m;
          if c lsr 1 > s.top_var then s.top_var <- c lsr 1
        end
      done;
      match !m with
      | 0 -> s.ok <- false
      | 1 ->
          enqueue s a.(0) no_clause;
          if propagate s <> no_clause then s.ok <- false
      | m ->
          let c = new_clause s a m 0.0 in
          s.n_clauses <- s.n_clauses + 1;
          attach_clause s c
    end
  end

(* backtrack to a given decision level *)
let cancel_until s lvl =
  if s.n_levels > lvl then begin
    (* trail length at start of level lvl+1 *)
    let b = s.lim.(lvl) in
    for i = s.trail_len - 1 downto b do
      let l = s.trail.(i) in
      s.value.(l) <- -1;
      s.value.(l lxor 1) <- -1;
      s.reason.(l lsr 1) <- no_clause
    done;
    s.trail_len <- b;
    s.qhead <- b;
    s.n_levels <- lvl
  end

(* First-UIP conflict analysis. Returns (learnt clause lits, backtrack
   level); the head of the list is the asserting literal. *)
let analyze s confl : int list * int =
  let seen = s.seen and level = s.level and arena = s.arena in
  let counter = ref 0 in
  let learnt = ref [] in
  let btlevel = ref 0 in
  let cur_level = s.n_levels in
  let p = ref 0 in
  (* the literal resolved on; 0 = none yet (coded literals are >= 2) *)
  let c = ref confl in
  let idx = ref (s.trail_len - 1) in
  let continue_ = ref true in
  while !continue_ do
    (* bump + process reason clause *)
    cla_bump s !c;
    for k = !c to !c + arena.(!c - 1) - 1 do
      let q = arena.(k) in
      let v = q lsr 1 in
      if (not seen.(v)) && level.(v) > 0 && q <> !p then begin
        seen.(v) <- true;
        var_bump s v;
        if level.(v) >= cur_level then incr counter
        else begin
          learnt := q :: !learnt;
          if level.(v) > !btlevel then btlevel := level.(v)
        end
      end
    done;
    (* select next literal to look at *)
    while not seen.(s.trail.(!idx) lsr 1) do
      decr idx
    done;
    let l = s.trail.(!idx) in
    decr idx;
    seen.(l lsr 1) <- false;
    decr counter;
    if !counter = 0 then begin
      (* the current-level marks were cleared as the trail was walked *)
      List.iter (fun q -> seen.(q lsr 1) <- false) !learnt;
      learnt := (l lxor 1) :: !learnt;
      continue_ := false
    end
    else begin
      p := l;
      c := s.reason.(l lsr 1);
      assert (!c <> no_clause)
    end
  done;
  (!learnt, !btlevel)

(* Decision heuristic: scan from a rotating cursor for the next
   unassigned variable, preferring recently-bumped (high-activity)
   variables seen in a bounded window.  This keeps decisions O(1)
   amortized on the large, mostly-easy instances produced by grounding,
   while still following conflict activity.  0 = every variable is
   assigned. *)
let pick_branch_var s : int =
  (* first try: highest-activity var among those bumped since the last
     conflict (cheap approximation of VSIDS) *)
  let best = ref 0 in
  let best_act = ref 0.0 in
  let scanned = ref 0 in
  let v = ref s.next_var_hint in
  let n = s.nvars in
  let value = s.value and activity = s.activity in
  (* bounded scan window for an active variable *)
  while !scanned < n && (!best = 0 || !scanned < 64) do
    incr scanned;
    let cand = !v in
    v := if cand >= n then 1 else cand + 1;
    if value.(2 * cand) = -1 && (!best = 0 || activity.(cand) > !best_act)
    then begin
      best := cand;
      best_act := activity.(cand)
    end
  done;
  if !best <> 0 then s.next_var_hint <- !best;
  !best

(** Decide satisfiability of the clauses added so far. After [Sat],
    {!model_value} reads the satisfying assignment. *)
let solve s : result =
  if not s.ok then Unsat
  else begin
    if propagate s <> no_clause then s.ok <- false;
    if not s.ok then Unsat
    else begin
      if s.max_learnts = 0 then s.max_learnts <- max 256 (s.n_clauses / 3);
      let status = ref None in
      let conflicts_since_restart = ref 0 in
      let restart_limit = ref 100 in
      while Option.is_none !status do
        let confl = propagate s in
        if confl <> no_clause then begin
          s.conflicts <- s.conflicts + 1;
          incr conflicts_since_restart;
          if s.n_levels = 0 then begin
            s.ok <- false;
            status := Some Unsat
          end
          else begin
            let learnt, btlevel = analyze s confl in
            cancel_until s btlevel;
            (match learnt with
            | [] -> assert false
            | [ l ] -> enqueue s l no_clause
            | l :: _ ->
                let lits = Array.of_list learnt in
                (* ensure second watched literal is from the conflict level *)
                let max_i = ref 1 in
                for i = 2 to Array.length lits - 1 do
                  if s.level.(lits.(i) lsr 1) > s.level.(lits.(!max_i) lsr 1)
                  then max_i := i
                done;
                let tmp = lits.(1) in
                lits.(1) <- lits.(!max_i);
                lits.(!max_i) <- tmp;
                let c = new_clause s lits (Array.length lits) s.cla_inc in
                s.learnts <- c :: s.learnts;
                s.n_learnts <- s.n_learnts + 1;
                s.learnts_total <- s.learnts_total + 1;
                attach_clause s c;
                enqueue s l c);
            var_decay s;
            cla_decay s;
            if s.n_learnts > s.max_learnts then reduce_db s
          end
        end
        else if !conflicts_since_restart >= !restart_limit && s.n_levels > 0
        then begin
          conflicts_since_restart := 0;
          restart_limit := !restart_limit * 3 / 2;
          cancel_until s 0
        end
        else begin
          let v = pick_branch_var s in
          if v = 0 then status := Some Sat
          else begin
            s.decisions <- s.decisions + 1;
            s.lim.(s.n_levels) <- s.trail_len;
            s.n_levels <- s.n_levels + 1;
            enqueue s (if s.phase.(v) then 2 * v else (2 * v) + 1) no_clause
          end
        end
      done;
      match !status with
      | Some Sat -> Sat
      | _ ->
          cancel_until s 0;
          Unsat
    end
  end

(** Truth value of a literal in the model found by the last [Sat] answer.
    Unassigned variables (don't-cares) read as [false]. *)
let model_value s (l : lit) : bool = s.value.(code l) = 1

(** Reset the assignment to level 0 so further clauses can be added.
    Call after reading the model of a [Sat] answer. *)
let reset s = cancel_until s 0

type stats = {
  n_conflicts : int;
  n_decisions : int;
  n_propagations : int;
  n_learnts : int;  (** learnt clauses ever created *)
  n_removed : int;  (** learnt clauses deleted by DB reduction *)
}

let stats s =
  {
    n_conflicts = s.conflicts;
    n_decisions = s.decisions;
    n_propagations = s.propagations;
    n_learnts = s.learnts_total;
    n_removed = s.learnts_removed;
  }

let true_lit_get s = s.true_lit
let true_lit_set s v = s.true_lit <- v
