(** Op-based remove-wins set with wildcard removes (paper §4.2.1).

    Dual of {!Awset}: when an add and a remove of the same element are
    concurrent, the remove wins.  An add is visible only if every remove
    of the element happened strictly before it.  Wildcard removes
    install a barrier that also cancels adds the source had not
    observed — including concurrent adds at other replicas — the
    semantics of [enrolled( *, t) := false] (Figure 2c). *)

type t

type selector = All | Matching of (string -> bool)

(** Downstream effects (commute under causal delivery). *)
type op

val empty : t
val mem : string -> t -> bool
val payload : string -> t -> string option
val elements : t -> string list
val size : t -> int

(** {1 Prepare}

    [vv] must be the source replica's clock {e including} the prepared
    event (see {!Ipa_store.Txn.fresh_vv} for removes). *)

val prepare_add :
  ?payload:string -> t -> dot:Vclock.dot -> vv:Vclock.t -> string -> op

val prepare_remove : t -> vv:Vclock.t -> string -> op
val prepare_remove_where : t -> vv:Vclock.t -> selector -> op

(** {1 Effect} *)

val apply : t -> op -> t

(** {1 Delta-state view}

    The state already carries full causal metadata (per-add source
    clocks, explicit barriers), so the join is a deduplicating union. *)

(** Join two states — commutative, associative, idempotent (up to
    barrier duplicates, which do not affect visibility). *)
val merge : t -> t -> t

(** The state fragment carrying exactly one op's effect:
    [apply s o = merge s (delta_of_op o)] for any [s] that has not yet
    observed the op. *)
val delta_of_op : op -> t

(** {1 Maintenance} *)

(** Metadata records held (add records + remove barriers). *)
val metadata_size : t -> int

(** Discard causally-stable remove barriers and the adds they
    permanently mask; observable state is unchanged. *)
val gc : stable:Vclock.t -> t -> t

(** Elements whose entry holds a per-element remove barrier, sorted. *)
val barrier_elements : t -> string list

(** Does the set hold a wildcard barrier? *)
val has_wild : t -> bool

(** Is some wildcard barrier of the set causally stable? *)
val wild_stable : stable:Vclock.t -> t -> bool

(** The barrier an op installs: on one element, or a wildcard; adds
    install none. *)
val barrier_of_op : op -> [ `Elt of string | `Wild ] option

(** One element's share of {!gc}, for a set none of whose wildcard
    barriers is stable (otherwise use {!gc}): drops the element's
    stable barriers and the adds they mask.  Returns the new set, the
    metadata records freed, and whether the element still holds a
    barrier that is not yet stable. *)
val gc_elt : stable:Vclock.t -> t -> string -> t * int * bool

val pp : Format.formatter -> t -> unit
