(** Shared analysis context threaded through {!Detect}, {!Repair} and
    {!Ipa}: a grounding cache, verdict caches, the witness-pruning
    switch, and aggregated solver/cache statistics.

    All helpers accept the context as an [option] so call sites can pass
    an optional parameter straight through; a [None] context makes every
    helper a transparent no-op around the underlying computation.

    A context may be reused across runs (counters accumulate) but must
    not be shared between different specifications: the grounding cache
    assumes signature and constants are fixed.  Its tables are plain
    [Hashtbl]s, so a context belongs to one domain at a time. *)

open Ipa_logic
open Ipa_spec

type stats = {
  mutable sat_calls : int;  (** [Encode.solve] invocations *)
  mutable sat_conflicts : int;
  mutable sat_decisions : int;
  mutable sat_propagations : int;
  mutable sat_learnts : int;  (** learnt clauses created *)
  mutable sat_removed : int;  (** learnt clauses deleted by DB reduction *)
  mutable sat_seconds : float;  (** wall time inside [Encode.solve] *)
  mutable ground_hits : int;
  mutable ground_misses : int;
  mutable verdict_hits : int;
  mutable verdict_misses : int;
  mutable cands_generated : int;  (** repair candidates consumed *)
  mutable cands_pruned : int;  (** (candidate, rules) checks skipped *)
  mutable cands_checked : int;  (** (candidate, rules) full SAT checks *)
  mutable pairs_checked : int;  (** [Detect.check_pair] invocations *)
  mutable oblig_hits : int;  (** clause obligations answered from cache *)
  mutable oblig_misses : int;  (** clause obligations discharged by SAT *)
  mutable case_hits : int;  (** witness extractions answered from cache *)
  mutable case_misses : int;  (** witness extractions solved *)
  pair_seconds : (string * string, float) Hashtbl.t;
  mutable total_seconds : float;
}

type t

(** [create ()] — caching, witness pruning and per-clause decomposition
    all default to on.  [decompose:false] reproduces the whole-invariant
    pair check (one SAT query over the violation disjunction) for
    ablations; the decomposed mode is exact, so reports are identical
    either way. *)
val create : ?cache:bool -> ?prune:bool -> ?decompose:bool -> unit -> t

val stats : t -> stats
val prune_enabled : t option -> bool

(** Is per-clause obligation decomposition on?  [false] for a missing
    context: without a cache to carry verdicts the decomposition only
    multiplies solver calls. *)
val decompose_enabled : t option -> bool

(** Memoizing wrapper around {!Ground.ground}, keyed by
    (formula, domain). *)
val ground :
  t option ->
  sg:Ground.signature ->
  consts:(string * int) list ->
  dom:Ground.domain ->
  Ast.formula ->
  Ground.gformula

(** Memoize a per-operation verdict ([`Seq] = sequential safety,
    [`Intent] = intent preservation) keyed by the operation's base and
    current effects plus the canonical convergence rules. *)
val cached_verdict :
  t option ->
  [ `Seq | `Intent ] ->
  Types.t ->
  Types.operation ->
  Types.operation ->
  (unit -> bool) ->
  bool

(** Memoize a per-clause obligation verdict ([true] = the clause can be
    violated by the pair's merged effects) under its dependency key.
    Keys are content-addressed ({!Oblig.key}), so entries survive
    specification edits and invalidate implicitly: an edited operation
    or clause changes the keys it reaches and leaves the rest hitting. *)
val oblig_lookup : t option -> Oblig.key -> (unit -> bool) -> bool

(** Memoize a whole-case witness extraction (key's [k_clause] = -1).
    The stored value is the exact result of the deterministic solver
    query, keeping replayed reports bit-identical. *)
val case_lookup :
  t option -> Oblig.key -> (unit -> Oblig.witness option) ->
  Oblig.witness option

(** [solve ctx enc] runs [Encode.solve enc]; with a context it also
    adds the call, its wall time and the solver's counters to the
    context's stats. *)
val solve : t option -> Ipa_solver.Encode.ctx -> Ipa_solver.Sat.result

(** Time a computation, attributing elapsed wall time to the pair. *)
val time : t option -> string * string -> (unit -> 'a) -> 'a

val ground_hit_rate : stats -> float
val verdict_hit_rate : stats -> float
val oblig_hit_rate : stats -> float
val case_hit_rate : stats -> float

(** Fraction of (candidate, rules) checks answered by the witness
    instead of the solver. *)
val prune_rate : stats -> float

(** Fraction of obligations and witness extractions answered without
    solver work — the figure of merit of an incremental re-analysis.
    All rates are guarded: a zero-solve (cache-only or empty) run
    reports 0, never nan. *)
val reuse_rate : stats -> float

(** Per-pair accumulated wall time, slowest first. *)
val pair_times : stats -> ((string * string) * float) list

val pp_stats : Format.formatter -> stats -> unit
val pp_pair_times : Format.formatter -> stats -> unit
