(** The IPA main loop (Algorithm 1): find a conflicting pair, repair it
    (or synthesize compensations, or flag it for coordination), repeat
    until no unhandled conflicts remain. *)

open Ipa_spec

type resolution = {
  r_op1 : string;
  r_op2 : string;
  r_witness : Detect.witness;
  r_outcome : outcome_kind;
}

and outcome_kind =
  | Repaired of Repair.solution
  | Compensated of Compensation.t list
  | Flagged  (** unsolvable: requires coordination (§3, step 3) *)

type report = {
  spec : Types.t;
  final_ops : Detect.aop list;
  final_rules : (string * Types.conv_rule) list;
  resolutions : resolution list;
  iterations : int;
  stats : Anactx.stats;  (** solver/cache statistics of the run *)
}

(** The patched specification: modified operations + final rules. *)
val patched_spec : report -> Types.t

val flagged_pairs : report -> (string * string) list
val compensations : report -> Compensation.t list

(** Run the analysis.  [policy] picks among repair solutions;
    [search_rules] lets repairs propose convergence rules;
    [max_iterations] bounds the loop.  [ctx] supplies the analysis
    caches and instrumentation (a fresh one with caching and pruning
    enabled is created when absent).  Each iteration scans the pairs in
    specification order and repairs the first conflict it finds.

    [jobs] (default 1) is a compatibility parameter: [1] is the only
    accepted value, any other raises [Invalid_argument].  It goes away
    with the next change to the end-to-end benchmark, which still
    passes [~jobs:1]. *)
val run :
  ?policy:Repair.policy ->
  ?search_rules:bool ->
  ?max_size:int ->
  ?max_iterations:int ->
  ?ctx:Anactx.t ->
  ?jobs:int ->
  Types.t ->
  report

(** All conflicting pairs of the unmodified specification, in pair
    order. *)
val diagnose : Types.t -> (string * string * Detect.witness) list
