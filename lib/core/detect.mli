(** Conflict detection (Algorithm 1's [isConflicting], extended with
    convergence rules): a pair conflicts if some I-valid pre-state,
    admissible for both operations, merges their concurrent effects into
    an I-invalid state.  Decided by the SAT backend over small-model
    domains. *)

open Ipa_logic
open Ipa_spec

(** An operation under analysis: [base] defines the precondition the
    application code checks (its original effects); [cur] carries the
    effects after IPA modifications. *)
type aop = { base : Types.operation; cur : Types.operation }

val aop_of : Types.operation -> aop

(** A Figure 2–style counterexample: valid initial state, the two
    operations' writes, the merged outcome, the violated invariants.
    (Defined in {!Oblig} so {!Anactx} can cache witnesses.) *)
type witness = Oblig.witness = {
  unif : Pairctx.unification;
  pre_atoms : (Ground.gatom * bool) list;
  pre_nums : (Ground.gnum * int) list;
  writes1 : Effects.writes;
  writes2 : Effects.writes;
  merged : Effects.writes;
  violated : string list;
}

type verdict = Safe | Conflict of witness

(** Invariants mentioning a predicate the pair writes — restricting to
    them is a sound over-approximation (never misses a conflict). *)
val relevant_invariants :
  Types.t -> Types.operation -> Types.operation -> Types.invariant list

(** Check one unification case.  [restrict_clauses] (default true)
    analyses only relevant clauses; [widen] (default true) enlarges
    domains to saturate cardinality bounds (disabling it is unsound for
    aggregation constraints — measured by the ablation benchmark).
    [ctx] supplies the grounding cache and solver instrumentation. *)
val check_case :
  ?restrict_clauses:bool ->
  ?widen:bool ->
  ?ctx:Anactx.t ->
  Types.t ->
  aop ->
  aop ->
  Pairctx.unification ->
  witness option

(** Does the pair conflict under any parameter unification?  With a
    decomposing [ctx] (and default [restrict_clauses]/[widen]) the
    verdict is assembled from per-clause obligations cached under their
    {!Oblig.key}s — bit-identical to the whole-invariant check, but an
    edit to the specification re-solves only the obligations whose keys
    it reaches. *)
val check_pair :
  ?restrict_clauses:bool ->
  ?widen:bool ->
  ?ctx:Anactx.t ->
  Types.t ->
  aop ->
  aop ->
  verdict

(** One per-clause proof obligation of a pair: one (parameter
    unification × relevant invariant clause) SAT query, enumerable
    without solver work and dischargeable independently of its
    siblings.  {!check_pair} does not use these; they let the
    end-to-end benchmark ([perfbench/]) time each obligation on its
    own. *)
type oblig = {
  ob_o1 : aop;
  ob_o2 : aop;
  ob_unif : Pairctx.unification;
  ob_invs : Types.invariant list;  (** relevant-clause frame *)
  ob_dom : Ground.domain;  (** widened case domain *)
  ob_key : Oblig.key;  (** content-addressed cache key *)
  ob_clause : int;  (** index of the violation target in [ob_invs] *)
}

(** Enumerate the pair's obligations under the default analysis frame
    (clause restriction and widening on); no solver work happens. *)
val obligations : Types.t -> aop -> aop -> oblig list

(** Discharge one obligation through the context's verdict cache:
    [true] means the pair's merged effects can falsify the clause. *)
val solve_obligation : ?ctx:Anactx.t -> Types.t -> oblig -> bool

(** All conflicting unification cases (reports). *)
val all_conflicts : Types.t -> aop -> aop -> witness list

(** Executing the (possibly modified) operation alone from any state
    admissible for its {e original} precondition preserves the
    invariant (Theorem 1's sequential half).  The verdict is memoized in
    [ctx] per (operation effects, canonical rules). *)
val sequentially_safe : ?ctx:Anactx.t -> Types.t -> aop -> bool

(** Witness-guided candidate screening: does the stored counterexample
    (found for the first pair) still violate the invariant under the
    candidate pair's merged writes, re-evaluated concretely over the
    witness pre-state?  [None] when the candidate changes the analysis
    frame (relevant clauses or domain widening) and the fast check is
    inconclusive; [Some true] is an exact "still conflicting" verdict —
    pruning on it loses no solutions. *)
val witness_refutes :
  ?ctx:Anactx.t -> Types.t -> aop * aop -> aop * aop -> witness -> bool option

(** First conflicting pair in specification order, self-pairs included
    (Algorithm 1's [findConflictingPair]). *)
val find_conflicting_pair :
  Types.t -> aop list -> (aop * aop * witness) option
