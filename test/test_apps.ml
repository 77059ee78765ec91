(** Tests for [ipa_apps]: the Tournament, Twitter, Ticket and TPC
    applications — both variants of each, exercising the conflict
    scenarios the paper discusses and checking that the IPA variants
    preserve the invariants where the Causal ones do not. *)

open Ipa_crdt
open Ipa_store
open Ipa_apps

let three () =
  Cluster.create
    [ ("dc-east", "us-east"); ("dc-west", "us-west"); ("dc-eu", "eu-west") ]

(* run an op at a replica and broadcast its batch *)
let run_sync cluster rep (op : Ipa_runtime.Config.op_exec) :
    Ipa_runtime.Config.outcome =
  let o = op.Ipa_runtime.Config.run rep in
  (match o.Ipa_runtime.Config.batch with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ());
  o

(* run two ops concurrently (neither sees the other), then deliver both *)
let run_concurrent cluster rep1 op1 rep2 op2 =
  let o1 = op1.Ipa_runtime.Config.run rep1 in
  let o2 = op2.Ipa_runtime.Config.run rep2 in
  (match o1.Ipa_runtime.Config.batch with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ());
  (match o2.Ipa_runtime.Config.batch with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ());
  (o1, o2)

(* ------------------------------------------------------------------ *)
(* Tournament                                                          *)
(* ------------------------------------------------------------------ *)

let setup_tournament variant =
  let cluster = three () in
  let app = Tournament.create variant in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ = run_sync cluster east (Tournament.add_player app "alice") in
  let _ = run_sync cluster east (Tournament.add_player app "bob") in
  let _ = run_sync cluster east (Tournament.add_tourn app "cup") in
  (cluster, app, east, west)

let test_tournament_figure2_causal () =
  let cluster, app, east, west = setup_tournament Tournament.Causal in
  let _ =
    run_concurrent cluster east
      (Tournament.enroll app "alice" "cup")
      west
      (Tournament.rem_tourn app "cup")
  in
  (* dangling enrollment: alice enrolled in a removed tournament *)
  Alcotest.(check bool) "causal violates" true
    (Tournament.count_violations app east > 0)

let test_tournament_figure2_ipa () =
  let cluster, app, east, west = setup_tournament Tournament.Ipa in
  let _ =
    run_concurrent cluster east
      (Tournament.enroll app "alice" "cup")
      west
      (Tournament.rem_tourn app "cup")
  in
  (* the touch on the tournament index restores it: no violation *)
  Alcotest.(check int) "ipa preserves" 0 (Tournament.count_violations app east);
  (match Replica.peek east "tournaments" with
  | Some o ->
      Alcotest.(check bool) "tournament restored" true
        (Awset.mem "cup" (Obj.as_awset o))
  | None -> Alcotest.fail "tournaments object missing")

let test_tournament_rem_player_ipa () =
  let cluster, app, east, west = setup_tournament Tournament.Ipa in
  let _ =
    run_concurrent cluster east
      (Tournament.enroll app "alice" "cup")
      west
      (Tournament.rem_player app "alice")
  in
  Alcotest.(check int) "player restored by touch" 0
    (Tournament.count_violations app east)

let test_tournament_capacity_compensation () =
  let cluster = three () in
  let app = Tournament.create ~capacity:2 Tournament.Ipa in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  List.iter
    (fun p -> ignore (run_sync cluster east (Tournament.add_player app p)))
    [ "p1"; "p2"; "p3"; "p4" ];
  let _ = run_sync cluster east (Tournament.add_tourn app "cup") in
  (* both replicas concurrently fill the last seats: capacity 2 exceeded *)
  let _ = run_sync cluster east (Tournament.enroll app "p1" "cup") in
  let _ =
    run_concurrent cluster east
      (Tournament.enroll app "p2" "cup")
      west
      (Tournament.enroll app "p3" "cup")
  in
  (* over capacity in the raw state *)
  (match Replica.peek east "enrolled:cup" with
  | Some (Obj.O_compset c) ->
      Alcotest.(check bool) "raw over capacity" true (Compset.size c > 2)
  | _ -> Alcotest.fail "expected compset");
  (* a status read triggers the compensation *)
  let _ = run_sync cluster east (Tournament.status app "cup") in
  (match Replica.peek east "enrolled:cup" with
  | Some (Obj.O_compset c) ->
      Alcotest.(check int) "compensated to capacity" 2 (Compset.size c)
  | _ -> Alcotest.fail "expected compset");
  Alcotest.(check int) "no violations after compensation" 0
    (Tournament.count_violations app east)

let test_tournament_do_match_requires_enrollment () =
  let cluster, app, east, _ = setup_tournament Tournament.Ipa in
  let _ = run_sync cluster east (Tournament.enroll app "alice" "cup") in
  let _ = run_sync cluster east (Tournament.enroll app "bob" "cup") in
  (* tournament not started: precondition fails *)
  let o = run_sync cluster east (Tournament.do_match app "alice" "bob" "cup") in
  Alcotest.(check bool) "aborted before begin" true
    (o.Ipa_runtime.Config.batch = None);
  let _ = run_sync cluster east (Tournament.begin_tourn app "cup") in
  let o2 = run_sync cluster east (Tournament.do_match app "alice" "bob" "cup") in
  Alcotest.(check bool) "succeeds when active" true
    (o2.Ipa_runtime.Config.batch <> None);
  Alcotest.(check int) "no violations" 0 (Tournament.count_violations app east)

let test_tournament_disenroll_vs_match_ipa () =
  let cluster, app, east, west = setup_tournament Tournament.Ipa in
  let _ = run_sync cluster east (Tournament.enroll app "alice" "cup") in
  let _ = run_sync cluster east (Tournament.enroll app "bob" "cup") in
  let _ = run_sync cluster east (Tournament.begin_tourn app "cup") in
  let _ =
    run_concurrent cluster east
      (Tournament.do_match app "alice" "bob" "cup")
      west
      (Tournament.disenroll app "alice" "cup")
  in
  (* the match's enrolled-touch wins over the concurrent disenroll *)
  Alcotest.(check int) "ipa keeps match valid" 0
    (Tournament.count_violations app east)

let test_tournament_workload_smoke () =
  (* run a few hundred random ops; the IPA variant stays invariant-clean
     after convergence *)
  let cluster = three () in
  let app = Tournament.create Tournament.Ipa in
  let wp = Tournament.default_params in
  Tournament.seed_data app wp cluster;
  let rng = Ipa_sim.Rng.create 99 in
  let ids = [ "dc-east"; "dc-west"; "dc-eu" ] in
  for _ = 1 to 300 do
    let rep = Cluster.replica cluster (Ipa_sim.Rng.choose rng ids) in
    let op = Tournament.next_op app wp rng ~region:rep.Replica.region in
    ignore (run_sync cluster rep op)
  done;
  (* reads trigger remaining capacity compensations *)
  for i = 0 to wp.Tournament.n_tournaments - 1 do
    let east = Cluster.replica cluster "dc-east" in
    ignore (run_sync cluster east (Tournament.status app (Fmt.str "t%d" i)))
  done;
  let east = Cluster.replica cluster "dc-east" in
  Alcotest.(check int) "ipa workload clean" 0
    (Tournament.count_violations app east)

let test_tournament_chaos_delivery () =
  (* batches collected during a burst of concurrent activity and
     delivered in a random order (causal buffering reorders them):
     the IPA variant still converges to an invariant-clean state *)
  let cluster = three () in
  let app = Tournament.create Tournament.Ipa in
  let wp = Tournament.default_params in
  Tournament.seed_data app wp cluster;
  let rng = Ipa_sim.Rng.create 7 in
  let ids = [ "dc-east"; "dc-west"; "dc-eu" ] in
  let batches = ref [] in
  for _ = 1 to 200 do
    let rep = Cluster.replica cluster (Ipa_sim.Rng.choose rng ids) in
    let op = Tournament.next_op app wp rng ~region:rep.Replica.region in
    match (op.Ipa_runtime.Config.run rep).Ipa_runtime.Config.batch with
    | Some b -> batches := b :: !batches
    | None -> ()
  done;
  (* deliver every batch to every other replica in a shuffled order *)
  let deliveries =
    List.concat_map
      (fun (b : Replica.batch) ->
        List.filter_map
          (fun id ->
            if id = b.Replica.b_origin then None
            else Some (id, b))
          ids)
      !batches
  in
  let arr = Array.of_list deliveries in
  for i = Array.length arr - 1 downto 1 do
    let j = Ipa_sim.Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.iter (fun (id, b) -> Replica.receive (Cluster.replica cluster id) b) arr;
  Alcotest.(check bool) "cluster quiescent" true (Cluster.quiescent cluster);
  (* status reads trigger the remaining compensations everywhere *)
  for i = 0 to wp.Tournament.n_tournaments - 1 do
    List.iter
      (fun id ->
        let rep = Cluster.replica cluster id in
        ignore (run_sync cluster rep (Tournament.status app (Fmt.str "t%d" i))))
      ids
  done;
  List.iter
    (fun id ->
      let rep = Cluster.replica cluster id in
      Alcotest.(check int)
        (id ^ " invariant-clean")
        0
        (Tournament.count_violations app rep))
    ids

(* ------------------------------------------------------------------ *)
(* Ticket                                                              *)
(* ------------------------------------------------------------------ *)

let setup_ticket variant stock =
  let cluster = three () in
  let app = Ticket.create ~initial_stock:stock variant in
  Ticket.seed_data app
    { Ticket.n_events = 1; buy_ratio = 0.0; restock_ratio = 0.0; restock_amount = 0 }
    cluster;
  (cluster, app)

let test_ticket_oversell_causal () =
  let cluster, app = setup_ticket Ticket.Causal 1 in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ =
    run_concurrent cluster east (Ticket.buy_ticket app "e0") west
      (Ticket.buy_ticket app "e0")
  in
  Alcotest.(check int) "oversold by one" 1
    (Ticket.oversell_depth app east [ "e0" ]);
  Alcotest.(check int) "violated event count" 1
    (Ticket.count_violations app east [ "e0" ])

let test_ticket_oversell_ipa_repaired () =
  let cluster, app = setup_ticket Ticket.Ipa 1 in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ =
    run_concurrent cluster east (Ticket.buy_ticket app "e0") west
      (Ticket.buy_ticket app "e0")
  in
  (* before any read, the raw (uncompensated) state is oversold *)
  (match Replica.peek east "avail:e0" with
  | Some (Obj.O_compcounter c) ->
      Alcotest.(check int) "raw value oversold" (-1) (Compcounter.value c)
  | _ -> Alcotest.fail "expected compcounter");
  let o = run_sync cluster east (Ticket.read_event app "e0") in
  Alcotest.(check int) "read repaired one unit" 1
    o.Ipa_runtime.Config.violations;
  Alcotest.(check int) "state repaired everywhere" 0
    (Ticket.oversell_depth app east [ "e0" ]);
  let eu = Cluster.replica cluster "dc-eu" in
  Alcotest.(check int) "remote replica repaired" 0
    (Ticket.oversell_depth app eu [ "e0" ])

let test_ticket_sold_out_aborts () =
  let cluster, app = setup_ticket Ticket.Causal 0 in
  let east = Cluster.replica cluster "dc-east" in
  let o = run_sync cluster east (Ticket.buy_ticket app "e0") in
  Alcotest.(check bool) "no effect when sold out" true
    (o.Ipa_runtime.Config.batch = None)

let test_ticket_concurrent_repairs_idempotent () =
  (* two replicas observe and repair the same deficit: the max-register
     correction must not over-compensate *)
  let cluster, app = setup_ticket Ticket.Ipa 1 in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ =
    run_concurrent cluster east (Ticket.buy_ticket app "e0") west
      (Ticket.buy_ticket app "e0")
  in
  (* both coasts read (and repair) concurrently *)
  let r1 = (Ticket.read_event app "e0").Ipa_runtime.Config.run east in
  let r2 = (Ticket.read_event app "e0").Ipa_runtime.Config.run west in
  (match r1.Ipa_runtime.Config.batch with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ());
  (match r2.Ipa_runtime.Config.batch with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ());
  let v =
    match Replica.peek east "avail:e0" with
    | Some (Obj.O_compcounter c) -> Compcounter.value c
    | _ -> -99
  in
  Alcotest.(check int) "exactly repaired, not over-compensated" 0 v

let test_ticket_escrow_never_oversells () =
  let cluster, app = setup_ticket Ticket.Escrow 3 in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  (* hammer both coasts well past the stock *)
  for _ = 1 to 5 do
    let _ =
      run_concurrent cluster east (Ticket.buy_ticket app "e0") west
        (Ticket.buy_ticket app "e0")
    in
    ()
  done;
  let v =
    match Replica.peek east "avail:e0" with
    | Some (Obj.O_pncounter c) -> Pncounter.value c
    | _ -> -99
  in
  Alcotest.(check bool) "never negative" true (v >= 0);
  Alcotest.(check int) "exactly sold out" 0 v

let test_ticket_escrow_transfer_pays_rtt () =
  let cluster, app = setup_ticket Ticket.Escrow 3 in
  let east = Cluster.replica cluster "dc-east" in
  (* rights are pre-partitioned 1/1/1: the second buy at east needs a
     transfer *)
  let o1 = run_sync cluster east (Ticket.buy_ticket app "e0") in
  Alcotest.(check int) "first buy uses local rights" 0
    o1.Ipa_runtime.Config.extra_rtts;
  let o2 = run_sync cluster east (Ticket.buy_ticket app "e0") in
  Alcotest.(check int) "second buy needs a grant" 1
    o2.Ipa_runtime.Config.extra_rtts

(* ------------------------------------------------------------------ *)
(* Twitter                                                             *)
(* ------------------------------------------------------------------ *)

let setup_twitter variant =
  let cluster = three () in
  let app = Twitter.create ~followers_per_user:3 variant in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ = run_sync cluster east (Twitter.add_user app "u1") in
  let _ = run_sync cluster east (Twitter.add_user app "u2") in
  let _ = run_sync cluster east (Twitter.do_tweet app ~n_users:10 "u1" "tw1") in
  (cluster, app, east, west)

let tweets_at rep =
  match Replica.peek rep "tweets" with
  | Some o -> Awset.elements (Obj.as_awset o)
  | None -> []

let test_twitter_addwins_restores_tweet () =
  let cluster, app, east, west = setup_twitter Twitter.Add_wins in
  let _ =
    run_concurrent cluster east
      (Twitter.retweet app ~n_users:10 "u2" "tw1")
      west
      (Twitter.del_tweet app "tw1")
  in
  Alcotest.(check (list string)) "tweet recovered" [ "tw1" ] (tweets_at east)

let test_twitter_remwins_hides_retweets () =
  let cluster, app, east, west = setup_twitter Twitter.Rem_wins in
  let _ =
    run_concurrent cluster east
      (Twitter.retweet app ~n_users:10 "u2" "tw1")
      west
      (Twitter.del_tweet app "tw1")
  in
  Alcotest.(check (list string)) "tweet stays deleted" [] (tweets_at east);
  (* the timeline read filters the dangling entry *)
  let op = Twitter.timeline app "u9" in
  let o = op.Ipa_runtime.Config.run east in
  Alcotest.(check bool) "read-side compensation did work" true
    (o.Ipa_runtime.Config.extra_work > 0)

let test_twitter_remwins_purges_user () =
  let cluster, app, east, west = setup_twitter Twitter.Rem_wins in
  (* u1's tweet is in follower timelines; removing u1 purges them even
     against a concurrent re-push *)
  let _ =
    run_concurrent cluster east
      (Twitter.do_tweet app ~n_users:10 "u1" "tw2")
      west
      (Twitter.rem_user app ~n_users:10 "u1")
  in
  (match Replica.peek east "users" with
  | Some o ->
      Alcotest.(check bool) "user removed" false (Awset.mem "u1" (Obj.as_awset o))
  | None -> Alcotest.fail "users object missing");
  (* the timeline read hides entries whose author is gone *)
  let follower = "u8" (* first follower of u1 = u1+7 mod 10 *) in
  let _ = (Twitter.timeline app follower).Ipa_runtime.Config.run east in
  ()

let test_twitter_causal_dangles () =
  let cluster, app, east, west = setup_twitter Twitter.Causal in
  let _ =
    run_concurrent cluster east
      (Twitter.retweet app ~n_users:10 "u2" "tw1")
      west
      (Twitter.del_tweet app "tw1")
  in
  Alcotest.(check (list string)) "tweet deleted" [] (tweets_at east);
  (* but timelines still reference it: a violation is observed *)
  let o = (Twitter.timeline app "u9").Ipa_runtime.Config.run east in
  Alcotest.(check bool) "dangling reference observed" true
    (o.Ipa_runtime.Config.violations > 0)

(* ------------------------------------------------------------------ *)
(* TPC                                                                 *)
(* ------------------------------------------------------------------ *)

let setup_tpc variant =
  let cluster = three () in
  let app = Tpc.create ~initial_stock:1 variant in
  Tpc.seed_data app
    { Tpc.n_items = 2; n_customers = 2; order_ratio = 0.0 }
    cluster;
  (cluster, app)

let test_tpc_rem_item_vs_order_causal () =
  let cluster, app = setup_tpc Tpc.Causal in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ =
    run_concurrent cluster east
      (Tpc.new_order app ~order_id:"o1" "c1" "i0")
      west (Tpc.rem_item app "i0")
  in
  Alcotest.(check bool) "dangling order line" true
    (Tpc.count_violations app east > 0)

let test_tpc_rem_item_vs_order_ipa () =
  let cluster, app = setup_tpc Tpc.Ipa in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ =
    run_concurrent cluster east
      (Tpc.new_order app ~order_id:"o1" "c1" "i0")
      west (Tpc.rem_item app "i0")
  in
  Alcotest.(check int) "touch restores listing" 0
    (Tpc.count_violations app east)

let test_tpc_stock_restock_compensation () =
  let cluster, app = setup_tpc Tpc.Ipa in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  (* stock 1, two concurrent orders *)
  let _ =
    run_concurrent cluster east
      (Tpc.new_order app ~order_id:"o1" "c1" "i0")
      west
      (Tpc.new_order app ~order_id:"o2" "c2" "i0")
  in
  (* stock is now -1; a stock check triggers the restock compensation *)
  let o = run_sync cluster east (Tpc.check_stock app "i0") in
  Alcotest.(check bool) "under-run detected" true
    (o.Ipa_runtime.Config.violations > 0);
  let v =
    match Replica.peek east "stock:i0" with
    | Some (Obj.O_compcounter c) -> Compcounter.value c
    | _ -> -99
  in
  Alcotest.(check bool) "restocked above the bound" true (v >= 0)

(* ------------------------------------------------------------------ *)
(* Index-backed preconditions vs the keyspace scans they replaced      *)
(* ------------------------------------------------------------------ *)

(* [Tpc.rem_item] and [Tournament.rem_player] as they were before the
   replica's membership index: a scan of every order line, and an
   enrolment read of every tournament.  Kept as oracles. *)

let rem_item_scan (rep : Replica.t) (i : string) : Replica.batch option =
  let referenced =
    Replica.fold_data rep
      (fun key obj acc ->
        acc
        || String.length key > 6
           && String.sub key 0 6 = "lines:"
           &&
           match obj with
           | Obj.O_awset lines -> Awset.mem i lines
           | _ -> false)
      false
  in
  let tx = Txn.begin_ rep in
  if referenced then begin
    Txn.abort tx;
    None
  end
  else begin
    let s = Obj.as_awset (Txn.get tx "items" Obj.T_awset) in
    Txn.update tx "items" (Obj.Op_awset (Awset.prepare_remove s i));
    Txn.commit tx
  end

let rem_player_scan (app : Tournament.t) (rep : Replica.t) (p : string) :
    Replica.batch option =
  let tx = Txn.begin_ rep in
  let aw key = Obj.as_awset (Txn.get tx key Obj.T_awset) in
  let enrolled_read t =
    let key = "enrolled:" ^ t in
    match app.Tournament.variant with
    | Tournament.Causal -> Awset.elements (aw key)
    | Tournament.Ipa ->
        let s =
          Obj.as_compset
            (Txn.get tx key
               (Obj.T_compset { max_size = app.Tournament.capacity }))
        in
        let visible, comp = Compset.read s in
        List.iter (fun op -> Txn.update tx key (Obj.Op_compset op)) comp;
        visible
  in
  let enrolled_somewhere =
    List.exists (fun t -> List.mem p (enrolled_read t)) (Awset.elements (aw "tournaments"))
  in
  if Awset.mem p (aw "players") && not enrolled_somewhere then begin
    Txn.update tx "players" (Obj.Op_awset (Awset.prepare_remove (aw "players") p));
    Txn.commit tx
  end
  else begin
    Txn.abort tx;
    None
  end

(* the same commit: both aborted, or the same updates in the same order
   on top of the same clock *)
let same_commit (a : Replica.batch option) (b : Replica.batch option) : bool =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a.Replica.b_updates = b.Replica.b_updates
      && a.Replica.b_seq = b.Replica.b_seq
      && Vclock.equal a.Replica.b_after b.Replica.b_after
  | _ -> false

(* a replica's twin at its current state, for running an oracle *)
let twin_of (r : Replica.t) : Replica.t =
  let t = Replica.create ~shards:(Replica.shard_count r) r.Replica.id in
  Replica.restore t (Replica.snapshot r);
  t

(* Random Tournament + TPC-W histories at a three-replica cluster
   seeded with players, tournaments and items: application ops at
   random replicas (enrolments weighted up, so concurrent ones overrun
   the capacity of 2 and compensation reads have work), out-of-order,
   duplicated and bulk deliveries, and — the point — rem_player and
   rem_item at random replicas, each run both ways: index-backed on the
   replica, scanning on a twin.  They must commit the same updates in
   the same order (or both abort). *)
let run_app_history (ipa : bool) (steps : (int * int * int * int) list) : bool =
  let c = three () in
  let reps = Array.of_list c.Cluster.replicas in
  let tourn =
    Tournament.create ~capacity:2 (if ipa then Tournament.Ipa else Tournament.Causal)
  in
  let tpc = Tpc.create (if ipa then Tpc.Ipa else Tpc.Causal) in
  for n = 0 to 4 do
    ignore (run_sync c reps.(0) (Tournament.add_player tourn (Printf.sprintf "p%d" n)));
    ignore (run_sync c reps.(0) (Tpc.add_item tpc (Printf.sprintf "i%d" n)))
  done;
  for n = 0 to 3 do
    ignore (run_sync c reps.(0) (Tournament.add_tourn tourn (Printf.sprintf "t%d" n)))
  done;
  let outbox = ref [||] in
  let post = function
    | Some b -> outbox := Array.append !outbox [| b |]
    | None -> ()
  in
  let arg sort n =
    match sort with
    | "Player" -> Printf.sprintf "p%d" (n mod 5)
    | "Tournament" -> Printf.sprintf "t%d" (n mod 4)
    | "Item" -> Printf.sprintf "i%d" (n mod 5)
    | "Order" -> Printf.sprintf "o%d" (n mod 6)
    | _ -> "c0"
  in
  let run r (op : Ipa_runtime.Config.op_exec) =
    (op.Ipa_runtime.Config.run r).Ipa_runtime.Config.batch
  in
  let ok = ref true in
  List.iter
    (fun (k, a, x, y) ->
      let r = reps.(a mod 3) in
      match k mod 8 with
      | 0 | 1 -> post (run r (Tournament.enroll tourn (arg "Player" x) (arg "Tournament" y)))
      | 2 | 3 ->
          let ops, exec =
            if k mod 8 = 2 then (Tournament.fuzz_ops, Tournament.exec_op tourn)
            else (Tpc.fuzz_ops, Tpc.exec_op tpc)
          in
          let name, sorts = List.nth ops (y mod List.length ops) in
          let args = List.mapi (fun j s -> arg s (x + (j * (y + 1)))) sorts in
          post (run r (Option.get (exec name args)))
      | 4 ->
          if Array.length !outbox > 0 then
            Replica.receive reps.(x mod 3) !outbox.(y mod Array.length !outbox)
      | 5 -> Array.iter (Replica.receive r) !outbox
      | 6 ->
          let p = arg "Player" x in
          let want = rem_player_scan tourn (twin_of r) p in
          let got = run r (Tournament.rem_player tourn p) in
          if not (same_commit want got) then ok := false;
          post got
      | _ ->
          let i = arg "Item" x in
          let want = rem_item_scan (twin_of r) i in
          let got = run r (Tpc.rem_item tpc i) in
          if not (same_commit want got) then ok := false;
          post got)
    steps;
  !ok

let app_history_gen =
  QCheck.(
    make
      Gen.(
        list_size (int_range 1 100)
          (quad (int_bound 7) (int_bound 2) (int_bound 29) (int_bound 29))))

let prop_index_preconditions_match_scans =
  QCheck.Test.make
    ~name:"index-backed = keyspace scan"
    ~count:150 app_history_gen
    (fun steps -> run_app_history false steps && run_app_history true steps)

(* rem_player visits only the tournaments whose enrolment it can
   matter to: at 1,024 tournaments whose enrolment sets were never
   read, it creates no objects (the scan created an empty
   enrolled:<t> set per tournament) *)
let test_rem_player_touches_no_unread_tournament () =
  List.iter
    (fun variant ->
      let c = three () in
      let east = Cluster.replica c "dc-east" in
      let app = Tournament.create variant in
      let _ = run_sync c east (Tournament.add_player app "alice") in
      let _ = run_sync c east (Tournament.add_player app "bob") in
      for t = 0 to 1023 do
        ignore (run_sync c east (Tournament.add_tourn app (Printf.sprintf "t%d" t)))
      done;
      let _ = run_sync c east (Tournament.enroll app "bob" "t7") in
      let before = Replica.obj_count east in
      let o = run_sync c east (Tournament.rem_player app "alice") in
      Alcotest.(check bool) "alice removed" true (o.Ipa_runtime.Config.batch <> None);
      Alcotest.(check int) "no object created" before (Replica.obj_count east);
      let o = run_sync c east (Tournament.rem_player app "bob") in
      Alcotest.(check bool) "enrolled bob kept" true (o.Ipa_runtime.Config.batch = None);
      Alcotest.(check int) "still no object created" before (Replica.obj_count east))
    [ Tournament.Causal; Tournament.Ipa ]

let () =
  Alcotest.run "ipa_apps"
    [
      ( "tournament",
        [
          Alcotest.test_case "figure 2 causal violates" `Quick
            test_tournament_figure2_causal;
          Alcotest.test_case "figure 2 ipa preserves" `Quick
            test_tournament_figure2_ipa;
          Alcotest.test_case "rem_player ipa" `Quick
            test_tournament_rem_player_ipa;
          Alcotest.test_case "capacity compensation" `Quick
            test_tournament_capacity_compensation;
          Alcotest.test_case "do_match preconditions" `Quick
            test_tournament_do_match_requires_enrollment;
          Alcotest.test_case "disenroll vs match" `Quick
            test_tournament_disenroll_vs_match_ipa;
          Alcotest.test_case "workload smoke" `Quick
            test_tournament_workload_smoke;
          Alcotest.test_case "chaos delivery" `Quick
            test_tournament_chaos_delivery;
          Alcotest.test_case "rem_player creates no objects" `Quick
            test_rem_player_touches_no_unread_tournament;
        ] );
      ( "ticket",
        [
          Alcotest.test_case "causal oversell" `Quick test_ticket_oversell_causal;
          Alcotest.test_case "ipa repairs" `Quick test_ticket_oversell_ipa_repaired;
          Alcotest.test_case "sold out aborts" `Quick test_ticket_sold_out_aborts;
          Alcotest.test_case "concurrent repairs idempotent" `Quick
            test_ticket_concurrent_repairs_idempotent;
          Alcotest.test_case "escrow never oversells" `Quick
            test_ticket_escrow_never_oversells;
          Alcotest.test_case "escrow transfer cost" `Quick
            test_ticket_escrow_transfer_pays_rtt;
        ] );
      ( "twitter",
        [
          Alcotest.test_case "add-wins restores tweet" `Quick
            test_twitter_addwins_restores_tweet;
          Alcotest.test_case "rem-wins hides retweets" `Quick
            test_twitter_remwins_hides_retweets;
          Alcotest.test_case "rem-wins purges user" `Quick
            test_twitter_remwins_purges_user;
          Alcotest.test_case "causal dangles" `Quick test_twitter_causal_dangles;
        ] );
      ( "tpc",
        [
          Alcotest.test_case "causal dangling line" `Quick
            test_tpc_rem_item_vs_order_causal;
          Alcotest.test_case "ipa restores listing" `Quick
            test_tpc_rem_item_vs_order_ipa;
          Alcotest.test_case "restock compensation" `Quick
            test_tpc_stock_restock_compensation;
        ] );
      ( "indexed",
        [ Testutil.to_alcotest ~default:0 prop_index_preconditions_match_scans ]
      );
    ]
