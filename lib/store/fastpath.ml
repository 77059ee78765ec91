(** Replication fast-path switch. *)

(** Which digest {!Cluster.quiescent} compares: the rolling digest
    ({!Replica.digest_equal}, O(keys changed since the last poll)) when
    on, the from-scratch reference render ({!Replica.state_digest},
    O(total state)) when off.  Both give the same answer.  The
    end-to-end benchmark's settle check is the only code that turns it
    off. *)
let digest_cache = ref true
