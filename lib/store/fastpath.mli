(** Replication fast-path switch. *)

(** [true] (the default): {!Cluster.quiescent} compares rolling digests.
    [false]: it compares the from-scratch reference digest
    {!Replica.state_digest}.  The outcome is the same either way; the
    end-to-end benchmark's settle check is its only setter. *)
val digest_cache : bool ref
