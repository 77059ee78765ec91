(** The IPA main loop (Algorithm 1, function [ipa]).

    Iteratively finds a conflicting pair, searches for repairs, applies
    the resolution chosen by the policy, and continues until no
    unhandled conflicts remain.  Pairs whose conflicts cannot be repaired
    by extra effects are handed to the compensation synthesizer (§3.4);
    if that fails too, the pair is flagged for the programmer to protect
    with coordination (§3, step 3). *)

open Ipa_spec

(** How a conflicting pair was handled. *)
type resolution = {
  r_op1 : string;
  r_op2 : string;
  r_witness : Detect.witness;  (** the conflict that triggered the repair *)
  r_outcome : outcome_kind;
}

and outcome_kind =
  | Repaired of Repair.solution
  | Compensated of Compensation.t list
  | Flagged  (** unsolvable: requires coordination *)

type report = {
  spec : Types.t;  (** input specification *)
  final_ops : Detect.aop list;  (** operations after modification *)
  final_rules : (string * Types.conv_rule) list;
  resolutions : resolution list;
  iterations : int;
  stats : Anactx.stats;  (** solver/cache statistics of the run *)
}

(** The patched specification: modified operations and final rules. *)
let patched_spec (r : report) : Types.t =
  {
    r.spec with
    operations = List.map (fun (o : Detect.aop) -> o.Detect.cur) r.final_ops;
    rules = r.final_rules;
  }

let flagged_pairs (r : report) : (string * string) list =
  List.filter_map
    (fun res ->
      match res.r_outcome with
      | Flagged -> Some (res.r_op1, res.r_op2)
      | _ -> None)
    r.resolutions

let compensations (r : report) : Compensation.t list =
  List.concat_map
    (fun res ->
      match res.r_outcome with Compensated cs -> cs | _ -> [])
    r.resolutions

(* all unordered pairs of [ops], self-pairs included, in specification
   order *)
let rec pairs = function
  | [] -> []
  | o :: rest -> List.map (fun o' -> (o, o')) (o :: rest) @ pairs rest

(** Run the IPA analysis.

    [policy] selects among repair solutions (default: fewest extra
    effects).  [search_rules] lets the repair search propose convergence
    rules different from the specification's (the interactive tool mode).
    [max_iterations] bounds the outer loop.  [ctx] carries the
    grounding/verdict caches and instrumentation; a fresh one (caching
    and pruning enabled) is created when absent.

    [jobs] is kept only for callers that still pass [~jobs:1]; the
    analysis is sequential and any other value is rejected.  It goes
    away with the next change to the end-to-end benchmark. *)
let run ?(policy = Repair.Fewest_effects) ?(search_rules = false)
    ?(max_size = 3) ?(max_iterations = 64) ?ctx ?(jobs = 1) (spec : Types.t) :
    report =
  if jobs <> 1 then invalid_arg "Ipa.run: jobs must be 1";
  let ctx = match ctx with Some c -> c | None -> Anactx.create () in
  let ops = ref (List.map Detect.aop_of spec.operations) in
  let rules = ref spec.rules in
  let resolutions = ref [] in
  let ignored : (string * string, unit) Hashtbl.t = Hashtbl.create 16 in
  (* pairs already proven safe; invalidated when an operation of the pair
     is modified or the convergence rules change *)
  let known_safe : (string * string, unit) Hashtbl.t = Hashtbl.create 64 in
  let invalidate name =
    (* modifying an operation stales every cached verdict about it: the
       safe cache, but also the [ignored] table and any compensation or
       flag recorded for a pair involving it — the conflict that
       motivated them may no longer exist (or may now be repairable). *)
    let drop tbl =
      Hashtbl.iter
        (fun (a, b) () -> if a = name || b = name then Hashtbl.remove tbl (a, b))
        (Hashtbl.copy tbl)
    in
    drop known_safe;
    drop ignored;
    resolutions :=
      List.filter
        (fun r ->
          match r.r_outcome with
          | Repaired _ -> true
          | Compensated _ | Flagged -> r.r_op1 <> name && r.r_op2 <> name)
        !resolutions
  in
  let iterations = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iterations < max_iterations do
    incr iterations;
    let spec_now = { spec with rules = !rules } in
    (* find the first conflicting pair that is not already handled:
       scan lazily in specification order, stop at the first conflict *)
    let conflict =
      List.find_map
        (fun ((o1 : Detect.aop), (o2 : Detect.aop)) ->
          let key = (o1.Detect.cur.oname, o2.Detect.cur.oname) in
          if Hashtbl.mem ignored key || Hashtbl.mem known_safe key then None
          else
            match
              Anactx.time (Some ctx) key (fun () ->
                  Detect.check_pair ~ctx spec_now o1 o2)
            with
            | Detect.Conflict w -> Some (o1, o2, w)
            | Detect.Safe ->
                Hashtbl.replace known_safe key ();
                None)
        (pairs !ops)
    in
    match conflict with
    | None -> continue_ := false
    | Some (o1, o2, w) -> (
        let name1 = o1.Detect.cur.oname and name2 = o2.Detect.cur.oname in
        let sols =
          Anactx.time (Some ctx) (name1, name2) (fun () ->
              Repair.repair_conflicts ~max_size ~search_rules ~ctx ~witness:w
                spec_now (o1, o2))
        in
        match Repair.pick policy sols with
        | Some sol ->
            (* install the modified operation and any rule changes *)
            let p1, p2 = sol.Repair.s_pair in
            ops :=
              List.map
                (fun (o : Detect.aop) ->
                  if o.Detect.cur.oname = name1 then p1
                  else if o.Detect.cur.oname = name2 then p2
                  else o)
                !ops;
            invalidate name1;
            invalidate name2;
            (* compare rule assignments as sets: enumeration order must
               not force a spurious full invalidation *)
            if not (Types.rules_equal sol.Repair.s_rules !rules) then
              Hashtbl.reset known_safe;
            rules := sol.Repair.s_rules;
            resolutions :=
              {
                r_op1 = name1;
                r_op2 = name2;
                r_witness = w;
                r_outcome = Repaired sol;
              }
              :: !resolutions
        | None -> (
            (* no effect-based repair: try compensations for the violated
               invariants *)
            let comps = Compensation.synthesize spec_now w.Detect.violated in
            Hashtbl.replace ignored (name1, name2) ();
            if Compensation.covers comps w.Detect.violated then
              resolutions :=
                {
                  r_op1 = name1;
                  r_op2 = name2;
                  r_witness = w;
                  r_outcome = Compensated comps;
                }
                :: !resolutions
            else
              resolutions :=
                {
                  r_op1 = name1;
                  r_op2 = name2;
                  r_witness = w;
                  r_outcome = Flagged;
                }
                :: !resolutions))
  done;
  {
    spec;
    final_ops = !ops;
    final_rules = !rules;
    resolutions = List.rev !resolutions;
    iterations = !iterations;
    stats = Anactx.stats ctx;
  }

(** All conflicting pairs of the unmodified specification — the
    diagnosis step, useful on its own; the result list is in pair
    order. *)
let diagnose (spec : Types.t) : (string * string * Detect.witness) list =
  List.filter_map
    (fun ((o1 : Detect.aop), (o2 : Detect.aop)) ->
      match Detect.check_pair spec o1 o2 with
      | Detect.Conflict w -> Some (o1.Detect.cur.oname, o2.Detect.cur.oname, w)
      | Detect.Safe -> None)
    (pairs (List.map Detect.aop_of spec.operations))
