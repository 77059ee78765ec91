(** The two store workloads: open-loop Zipfian arrivals in simulated
    time, driven through [Driver.run_stream] on a three-region
    [Config.Local] cluster with a WAL on every replica and anti-entropy
    every 250 ms over slightly lossy links.

    [store-zipf-write]: write-heavy repaired Tournament and TPC-W
    operations over a 2^16-item population.  Txn, CRDT apply, causal
    delivery, WAL, sync and digests do most of the work.

    [store-hot-read]: a few dozen Zipf-hot stock keys held in escrowed
    bounded counters; 80 % reads split over weak, bounded and strong
    read levels, the rest decrements and restocks, with planned escrow
    managers migrating rights from the anti-entropy round.  Escrow,
    read-level routing and contention do most of the work.

    The drive is cut into segments of simulated time; each segment is
    one [run_stream] call timed on the host clock, with whatever garbage
    collection the drive itself causes, and normalized for host speed
    ({!Tr.measure}).  [host_ops_per_s] is ops over that time for all
    segments but the first, which warms the heap and caches. *)

open Ipa_sim
open Ipa_store
open Ipa_runtime
module Bc = Ipa_crdt.Bcounter

let regions = [ ("dc-east", "us-east"); ("dc-west", "us-west"); ("dc-eu", "eu-west") ]
let sync_interval_ms = 250.0
let link_loss = 0.02

(* ------------------------------------------------------------------ *)
(* The shared stack                                                    *)
(* ------------------------------------------------------------------ *)

type world = {
  engine : Engine.t;
  net : Net.t;
  cluster : Cluster.t;
  cfg : Config.t;
  sync : Sync.t;
  mutable wals : (Replica.t * Wal.t) list;
  dir : string;
  mutable sync_bytes : int;  (** digests + retransmitted batches *)
  mutable commits : int;
  mutable commit_updates : int;
  mutable aborted : int;  (** update ops whose precondition failed *)
  mutable gc_reclaimed : int;  (** CRDT metadata records {!Replica.gc} freed *)
  mutable counts0 : (string * int) list;  (** {!counters} when the drive starts *)
  mutable counts1 : (string * int) list;  (** {!counters} once it has settled *)
}

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let make_world ~(seed : int) ~(shards : int) ~(dir : string) : world =
  rm_rf dir;
  mkdir_p dir;
  let engine = Engine.create () in
  let plan =
    { Net.no_faults with faults = { Net.no_faults.Net.faults with Net.loss = link_loss } }
  in
  let net = Net.create ~plan ~seed () in
  let cluster = Cluster.create ~shards regions in
  let cfg = Config.create ~mode:Config.Local ~engine ~net ~cluster () in
  let sync = Sync.create cluster in
  let w =
    {
      engine;
      net;
      cluster;
      cfg;
      sync;
      wals = [];
      dir;
      sync_bytes = 0;
      commits = 0;
      commit_updates = 0;
      aborted = 0;
      gc_reclaimed = 0;
      counts0 = [];
      counts1 = [];
    }
  in
  (* the benchmark's own WAL hooks (what [Wal.attach] installs, inside a
     span): default group commit, [Wal.flush] as the flush policy *)
  w.wals <-
    List.map
      (fun (r : Replica.t) ->
        let wal = Wal.create ~dir ~id:r.Replica.id () in
        let prev_commit = r.Replica.on_commit and prev_apply = r.Replica.on_apply in
        r.Replica.on_commit <-
          (fun b ->
            w.commits <- w.commits + 1;
            w.commit_updates <- w.commit_updates + List.length b.Replica.b_updates;
            Tr.span "store.wal" (fun () -> Wal.append wal (Wal.R_commit b));
            prev_commit b);
        r.Replica.on_apply <-
          (fun b ->
            Tr.span "store.wal" (fun () -> Wal.append wal (Wal.R_apply b));
            prev_apply b);
        (r, wal))
      cluster.Cluster.replicas;
  (* anti-entropy, owned here so its time and wire bytes are charged: the
     round [Config] schedules (every replica's digest goes to its peers,
     lost or late batches are retransmitted through the lossy network),
     followed by the program's stability reclamation, [Replica.gc] *)
  let peers = List.length cluster.Cluster.replicas - 1 in
  let send ~(src : Replica.t) ~(dst : Replica.t) (b : Replica.batch) =
    w.sync_bytes <- w.sync_bytes + Sync.wire_bytes b;
    List.iter
      (fun delay -> Engine.schedule engine ~delay (fun () -> Replica.receive dst b))
      (Net.deliveries net ~now:(Engine.now engine) ~src:src.Replica.region
         ~dst:dst.Replica.region)
  in
  let rec tick () =
    Tr.span "store.sync_round" (fun () ->
        List.iter
          (fun r -> w.sync_bytes <- w.sync_bytes + (peers * Sync.wire_bytes (Sync.digest_of r)))
          cluster.Cluster.replicas;
        ignore (Sync.round sync ~now:(Engine.now engine) ~send));
    Tr.span "store.replica_gc" (fun () ->
        List.iter
          (fun r -> w.gc_reclaimed <- w.gc_reclaimed + Replica.gc r)
          cluster.Cluster.replicas);
    Engine.schedule engine ~delay:sync_interval_ms tick
  in
  Engine.schedule engine ~delay:sync_interval_ms tick;
  w

let close_world (w : world) : unit =
  List.iter (fun (_, wal) -> Wal.close wal) w.wals;
  rm_rf w.dir

let wal_file_bytes (w : world) : int =
  List.fold_left
    (fun acc ((r : Replica.t), wal) ->
      Wal.flush wal;
      acc + (Unix.stat (Wal.wal_path ~dir:w.dir ~id:r.Replica.id)).Unix.st_size)
    0 w.wals

(* the program's own counters, summed over replicas; read before the
   checks, which rebuild a replica *)
let counters (w : world) : (string * int) list =
  let reps = List.map fst w.wals in
  let sumr f = List.fold_left (fun a r -> a + f r) 0 reps in
  let sumw f = List.fold_left (fun a (_, wal) -> a + f wal) 0 w.wals in
  let ns = Net.stats w.net in
  [
    ("store.wal_records", sumw (fun wal -> wal.Wal.appended));
    ("store.wal_flushes", sumw (fun wal -> wal.Wal.flushes));
    ("store.replica_delivered", sumr (fun r -> r.Replica.delivered));
    ("store.replica_duplicates_dropped", sumr (fun r -> r.Replica.duplicates_dropped));
    ("store.replica_drain_scans", sumr (fun r -> r.Replica.drain_scans));
    ("store.replica_log_truncated", sumr (fun r -> r.Replica.log_truncated));
    ("store.replica_gc_reclaimed", w.gc_reclaimed);
    ("store.sync_rounds", w.sync.Sync.rounds);
    ("store.sync_retransmitted", w.sync.Sync.retransmitted);
    ("store.sync_delta_buf_hits", w.sync.Sync.delta_buf_hits);
    ("sim.events", Engine.events_executed w.engine);
    ("sim.net_batches_sent", ns.Net.sent);
    ("sim.net_dropped", ns.Net.dropped);
  ]

(* host time and count of each operation, kept in traced runs and
   logged on stderr *)
let by_op : (string, float * int) Hashtbl.t = Hashtbl.create 16

let log_by_op () =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_op []
  |> List.sort (fun (_, (a, _)) (_, (b, _)) -> compare b a)
  |> List.iter (fun (k, (s, n)) ->
         Res.log "  %-14s %7d ops %8.3fs %9.1fus/op" k n s (1e6 *. s /. float_of_int n))

(* every op runs inside a txn span; WAL appends nest inside it *)
let traced (w : world) (op : Config.op_exec) : Config.op_exec =
  {
    op with
    Config.run =
      (fun rep ->
        let t0 = if !Tr.on then Tr.now_ns () else 0 in
        let o =
          Tr.span "store.txn" (fun () ->
              let o = op.Config.run rep in
              if op.Config.is_update && o.Config.batch = None then w.aborted <- w.aborted + 1;
              o)
        in
        if !Tr.on then begin
          let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_op op.Config.op_name) in
          Hashtbl.replace by_op op.Config.op_name (s +. Tr.seconds_since t0, n + 1)
        end;
        o);
  }

(* ------------------------------------------------------------------ *)
(* The segmented drive                                                 *)
(* ------------------------------------------------------------------ *)

(* run on until every replica has everything: anti-entropy closes the
   gaps the lossy links left.  Clocks and pending buffers are polled
   first; [Cluster.quiescent] then confirms with digests.  It runs on its
   reference path (full renders): the rolling digest re-renders a key
   once per update since the last refresh, which for the large hot sets
   here (the 2^16-element TPC-W item index, touched by every order)
   would take hours at this scale. *)
let settle (w : world) : unit =
  let reps = w.cluster.Cluster.replicas in
  let r0 = List.hd reps in
  let delivered () =
    List.for_all
      (fun (r : Replica.t) ->
        Replica.pending_count r = 0 && Ipa_crdt.Vclock.equal r.Replica.vv r0.Replica.vv)
      reps
  in
  let rounds = ref 0 in
  Engine.run_until w.engine (Engine.now w.engine +. 2_000.0);
  while (not (delivered ())) && !rounds < 400 do
    incr rounds;
    Engine.run_until w.engine (Engine.now w.engine +. sync_interval_ms)
  done;
  Res.checkf (!rounds < 400) "store: replicas still missing batches after %d anti-entropy rounds"
    !rounds;
  let saved = !Fastpath.digest_cache in
  Fastpath.digest_cache := false;
  let q =
    Fun.protect
      ~finally:(fun () -> Fastpath.digest_cache := saved)
      (fun () -> Tr.span "store.quiescent" (fun () -> Cluster.quiescent w.cluster))
  in
  w.counts1 <- counters w;
  Res.log "settle: %d anti-entropy rounds" !rounds;
  Res.check q "store: cluster not quiescent once every batch was delivered"

type drive = {
  ops : int;  (** events driven *)
  failed : int;  (** unavailable ops *)
  wall_s : float;  (** host time of the segments *)
  norm_s : float;  (** the same, normalized for host speed ({!Tr.measure}) *)
  host_rate : float;  (** ops per normalized host second over the counted segments *)
  lat_ms : float array;  (** simulated client latency, sorted *)
}

(* drive [segments] segments, then {!settle} *)
let drive (w : world) ~(rng : Rng.t) ~(zipf : Workload.zipf) ~(rate : float)
    ~(segments : int) ~(seg_ops : int) ?read_level_of
    ~(op_of : Workload.event -> string * Config.op_exec) () : drive =
  let horizon_ms = float_of_int seg_ops /. rate *. 1000.0 in
  (* the first segment warms both clocks: its latencies and host rate
     are not counted *)
  let warmup_ms = Engine.now w.engine +. horizon_ms in
  let ops = ref 0 and rates = ref [] and segs = ref [] in
  let busy = ref 0.0 and busy_norm = ref 0.0 in
  let counted = ref 0 and counted_s = ref 0.0 and counted_raw = ref 0.0 in
  (* set-up commits and deliveries are not the drive's *)
  w.counts0 <- counters w;
  w.commits <- 0;
  w.commit_updates <- 0;
  Tr.span "sim.drive" (fun () ->
      for s = 1 to segments do
        let events = Workload.open_loop ~rng ~rate_per_s:rate ~horizon_ms ~clients:96 zipf in
        let n = List.length events in
        let seg_end = Engine.now w.engine +. horizon_ms in
        (* [run_stream] schedules relative to now but runs to the stream's
           horizon as an absolute time; finish the segment here *)
        (* the host's speed is probed at the segment's quarters too *)
        for q = 1 to 3 do
          Engine.schedule w.engine ~delay:(horizon_ms *. float_of_int q /. 4.0) Tr.probe_inside
        done;
        let m, dt =
          Tr.measure (fun () ->
              let m =
                Driver.run_stream ?read_level_of ~warmup_ms ~settle_ms:0.0 w.cfg ~events
                  ~op_of:(fun e ->
                    incr ops;
                    let region, op = op_of e in
                    (region, traced w op))
              in
              Engine.run_until w.engine seg_end;
              m)
        in
        busy := !busy +. dt.Tr.raw_s;
        busy_norm := !busy_norm +. dt.Tr.norm_s;
        if s > 1 || segments = 1 then begin
          rates := (float_of_int n /. dt.Tr.norm_s) :: !rates;
          counted := !counted + n;
          counted_raw := !counted_raw +. dt.Tr.raw_s;
          counted_s := !counted_s +. dt.Tr.norm_s
        end;
        segs := m :: !segs
      done);
  if !Tr.on then begin
    Res.log "host time by operation, WAL appends included:";
    log_by_op ()
  end;
  Res.log "normalized segment rates: %s; median %.0f, overall %.0f (raw %.0f)"
    (String.concat " " (List.rev_map (Printf.sprintf "%.0f") !rates))
    (Tr.median !rates) (float_of_int !counted /. !counted_s)
    (float_of_int !counted /. !counted_raw);
  (* ops still in flight when a segment ends complete in a later segment
     or while settling, into their own segment's metrics: read them all
     once everything has been delivered *)
  settle w;
  let failed = List.fold_left (fun a m -> a + m.Metrics.failures) 0 !segs in
  let lat = Array.of_list (List.concat_map (fun m -> Metrics.all_samples m ()) !segs) in
  Array.sort compare lat;
  Res.log "simulated latency ms: %s"
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "p%g %.3f" p (Tr.pct p lat)) [ 10.; 25.; 40.; 50.; 60.; 75.; 90.; 99. ]));
  {
    ops = !ops;
    failed;
    wall_s = !busy;
    norm_s = !busy_norm;
    host_rate = float_of_int !counted /. !counted_s;
    lat_ms = lat;
  }

(* replica digests equal at quiescence, and one replica rebuilt from its
   WAL reproduces its digest; returns the recovery time *)
let check_digests_and_recovery ~(corrupt : bool) ~(seed : int) (w : world) : float =
  let digests = List.map (fun (r, _) -> Replica.state_digest r) w.wals in
  let shown = if corrupt then (List.hd digests ^ "!") :: List.tl digests else digests in
  Res.check
    (List.for_all (( = ) (List.hd shown)) shown)
    "store: replica digests differ at quiescence";
  let k = seed mod List.length w.wals in
  let r, wal = List.nth w.wals k and before = List.nth digests k in
  List.iter (fun (_, wal) -> Wal.flush wal) w.wals;
  let t0 = Tr.now_ns () in
  let rc = Wal.recover wal r in
  let recover_s = Tr.seconds_since t0 in
  Res.checkf (rc.Wal.rec_dropped_bytes = 0) "store: WAL of %s has a torn tail" r.Replica.id;
  Res.checkf
    (Replica.state_digest r = before)
    "store: %s rebuilt from its WAL does not reproduce its digest" r.Replica.id;
  recover_s

(* the catalog invariants, ground over a sample of the live entities and
   evaluated on every replica with the fuzzer's variant-aware views *)
let check_invariants (h : Ipa_check.Harness.t) (dom : Ipa_logic.Ground.domain) (w : world)
    : int =
  let h = { h with Ipa_check.Harness.dom } in
  let formulas = Ipa_check.Harness.ground_checked h in
  List.fold_left
    (fun acc (r, _) ->
      let batom, bnum = h.Ipa_check.Harness.valuation r in
      List.fold_left
        (fun acc (_, f) -> if Ipa_logic.Ground.eval ~batom ~bnum f then acc else acc + 1)
        acc formulas)
    0 w.wals

let pct = Tr.pct
let c = float_of_int

(* end-to-end metrics shared by both store workloads *)
let e2e ~setup_s ~(d : drive) ~wal_bytes ~peak_mb (w : world) : Res.metric list =
  [
    Res.m "setup_s" "s" setup_s;
    Res.m "host_ops_per_s" "ops/s" d.host_rate;
    Res.m "sim_p50_ms" "ms" (pct 50.0 d.lat_ms);
    Res.m "sim_p99_ms" "ms" (pct 99.0 d.lat_ms);
    Res.m "wal_bytes_per_op" "B/op" (c wal_bytes /. c d.ops);
    Res.m "sync_bytes_per_op" "B/op" (c w.sync_bytes /. c d.ops);
    Res.m "peak_heap_mb" "MB" peak_mb;
  ]

(* per-layer metrics shared by both store workloads (traced runs) *)
let layers ~(d : drive) ~(untraced : drive) ~wal_bytes ~recover_s (w : world) :
    Res.metric list =
  let sum = Tr.summary () in
  let agg name = Hashtbl.find_opt sum name in
  let total name = match agg name with Some a -> a.Tr.total_s | None -> 0.0 in
  let txn = agg "store.txn" in
  let self_us p = match txn with Some a -> 1e6 *. pct p a.Tr.self_durs_s | None -> 0.0 in
  let count name = c (List.assoc name w.counts1 - List.assoc name w.counts0) in
  let reps = List.map fst w.wals in
  [
    Res.m "store.txn_self_us_p50" "us" (self_us 50.0);
    Res.m "store.txn_self_us_p99" "us" (self_us 99.0);
    Res.m "store.txn_busy_s" "s" (match txn with Some a -> a.Tr.self_s | None -> 0.0);
    Res.m "store.txn_alloc_mw" "Mwords" (match txn with Some a -> a.Tr.words /. 1e6 | None -> 0.0);
    Res.m "store.txn_updates_per_commit" "count" (c w.commit_updates /. c (max 1 w.commits));
    Res.m "store.wal_busy_s" "s" (total "store.wal");
    Res.m "store.wal_records" "count" (count "store.wal_records");
    Res.m "store.wal_flushes" "count" (count "store.wal_flushes");
    Res.m "store.wal_bytes" "B" (c wal_bytes);
    Res.m "store.wal_recover_ms" "ms" (1000.0 *. recover_s);
    Res.m "store.replica_delivered" "count" (count "store.replica_delivered");
    Res.m "store.replica_duplicates_dropped" "count" (count "store.replica_duplicates_dropped");
    Res.m "store.replica_pending_hwm" "count"
      (c (List.fold_left (fun a r -> max a r.Replica.pending_hwm) 0 reps));
    Res.m "store.replica_drain_scans" "count" (count "store.replica_drain_scans");
    Res.m "store.replica_log_truncated" "count" (count "store.replica_log_truncated");
    Res.m "store.replica_gc_reclaimed" "count" (count "store.replica_gc_reclaimed");
    Res.m "store.replica_gc_busy_s" "s" (total "store.replica_gc");
    Res.m "store.sync_rounds" "count" (count "store.sync_rounds");
    Res.m "store.sync_retransmitted" "count" (count "store.sync_retransmitted");
    Res.m "store.sync_delta_buf_hits" "count" (count "store.sync_delta_buf_hits");
    Res.m "store.sync_round_busy_s" "s" (total "store.sync_round");
    Res.m "store.quiescent_ms" "ms" (1000.0 *. total "store.quiescent");
    Res.m "sim.events" "count" (count "sim.events");
    Res.m "sim.net_batches_sent" "count" (count "sim.net_batches_sent");
    Res.m "sim.net_dropped" "count" (count "sim.net_dropped");
    Res.m "sim.residual_s" "s" (d.wall_s -. Tr.children_s "sim.drive");
    Res.m "ops_failed_frac" "ratio" (c d.failed /. c d.ops);
    Res.m "runtime.ops_aborted" "count" (c w.aborted);
    Res.m "trace.overhead_s" "s" (d.norm_s -. untraced.norm_s);
    Res.m "trace.untraced_s" "s" untraced.norm_s;
    Res.m "trace.overhead_frac" "ratio" ((d.norm_s -. untraced.norm_s) /. untraced.norm_s);
  ]

(* escrow and read-level counts of a drive's metrics and reads by level
   (traced runs); a drive without escrowed keys or reads reports zeros *)
let escrow_layers (em : Metrics.t) (reads : (string, int) Hashtbl.t) : Res.metric list =
  let e = em.Metrics.escrow in
  let nreads l = c (Option.value ~default:0 (Hashtbl.find_opt reads l)) in
  [
    Res.m "runtime.escrow_tick_s" "s"
      (match Hashtbl.find_opt (Tr.summary ()) "runtime.escrow_tick" with
      | Some a -> a.Tr.total_s
      | None -> 0.0);
    Res.m "runtime.escrow_placement_misses" "count"
      (c (e.Metrics.blocking_misses - e.Metrics.stockouts));
    Res.m "runtime.escrow_stockouts" "count" (c e.Metrics.stockouts);
    Res.m "runtime.escrow_piggyback_hits" "count" (c e.Metrics.piggyback_hits);
    Res.m "runtime.escrow_migrated_rights" "count" (c e.Metrics.migrated_rights);
    Res.m "runtime.reads_weak" "count" (nreads "read_weak");
    Res.m "runtime.reads_bounded" "count" (nreads "read_bounded");
    Res.m "runtime.reads_strong" "count" (nreads "read_strong");
  ]

let tmp_dir (o : Res.opts) =
  let k = ref 0 in
  fun () ->
    incr k;
    Filename.concat o.Res.tmp (string_of_int !k)

(* ------------------------------------------------------------------ *)
(* store-zipf-write                                                    *)
(* ------------------------------------------------------------------ *)

let n_items_full = 1 lsl 16
let zipf_rate = 6_000.0

let zipf_write (o : Res.opts) : Res.t =
  let open Ipa_apps in
  let n_items = if o.Res.tiny then 1 lsl 10 else n_items_full in
  let n_tourn = n_items / 64 and n_players = n_items / 16 in
  let n_customers = 1024 in
  let shards = if o.Res.tiny then 16 else 256 in
  let seg_ops = if o.Res.tiny then 1_000 else 1_500 in
  (* a fixed amount of work per requested second (about 2 host seconds
     on a 2-vCPU VM), so simulated results depend on the seed only *)
  let segments = if o.Res.tiny then 2 else o.Res.seconds + 2 in
  let tourn_app = Tournament.create ~capacity:3 Tournament.Ipa in
  let tpc_app = Tpc.create Tpc.Ipa in
  let next_dir = tmp_dir o in
  (* populate through the applications' own operations, one
     transaction per entity, committed at one replica and delivered to
     the others at once *)
  let setup () =
    let w = make_world ~seed:o.Res.seed ~shards ~dir:(next_dir ()) in
    let r0 = List.hd w.cluster.Cluster.replicas in
    let seed_op (op : Config.op_exec) =
      match op.Config.run r0 with
      | { Config.batch = Some b; _ } -> Cluster.broadcast_now w.cluster b
      | _ -> Res.checkf false "store-zipf-write: seeding %s failed" op.Config.op_name
    in
    for i = 0 to n_items - 1 do
      seed_op (Tpc.add_item tpc_app (Printf.sprintf "i%d" i))
    done;
    for p = 0 to n_players - 1 do
      seed_op (Tournament.add_player tourn_app (Printf.sprintf "p%d" p))
    done;
    (* every tournament starts active, so matches can be played *)
    for t = 0 to n_tourn - 1 do
      seed_op (Tournament.add_tourn tourn_app (Printf.sprintf "t%d" t));
      seed_op (Tournament.begin_tourn tourn_app (Printf.sprintf "t%d" t))
    done;
    w
  in
  let setup_s, w = Res.repeat_setup ~discard:close_world (Res.setup_repeats o) setup in
  Res.log "zipf-write: setup %.2fs" setup_s;
  let region_names = Array.of_list (List.map snd regions) in
  (* each tournament draws its players from a pool of six, so enrolments
     and matches meet the capacity and each other *)
  let player_of rng t = Printf.sprintf "p%d" (((t * 6) + Rng.int rng 6) mod n_players) in
  (* the first orders placed, for the invariant check *)
  let first_orders = ref [] in
  let run_drive (w : world) =
    first_orders := [];
    let rng = Rng.create o.Res.seed in
    let mix = Rng.split rng in
    let zipf = Workload.zipf ~theta:0.99 n_items in
    (* which operation runs is drawn by the applications' own
       generators, conditioned on their update operations (a draw of a
       read-only operation is redrawn): Tournament's §5.2.2 mix and
       TPC-W's mix (add_item, rem_item, new_order in the ratio 1:1:4),
       one application or the other with equal odds.  Their arguments
       are drawn here instead, by Zipf rank over the large population. *)
    let pick = Rng.split rng in
    let rec update_of next read_ops =
      let name = (next ()).Config.op_name in
      if List.mem name read_ops then update_of next read_ops else name
    in
    let op_of (e : Workload.event) =
      let r = e.Workload.rank in
      let region = region_names.(e.Workload.client mod 3) in
      let t = r mod n_tourn in
      let name, exec, sorts =
        if Rng.flip mix 0.5 then
          let name =
            update_of
              (fun () -> Tournament.next_op tourn_app Tournament.default_params pick ~region)
              Tournament.read_ops
          in
          (name, Tournament.exec_op tourn_app, List.assoc name Tournament.fuzz_ops)
        else
          let name =
            update_of (fun () -> Tpc.next_op tpc_app Tpc.default_params pick ~region) Tpc.read_ops
          in
          (name, Tpc.exec_op tpc_app, List.assoc name Tpc.fuzz_ops)
      in
      let arg = function
        | "Item" -> Printf.sprintf "i%d" r
        | "Tournament" -> Printf.sprintf "t%d" t
        | "Player" -> player_of mix t
        | "Customer" -> Printf.sprintf "c%d" (Rng.int mix n_customers)
        | "Order" ->
            (* a fresh order id, as TPC-W's generator makes them *)
            let order = Printf.sprintf "o%s-%d" region (Rng.int mix 1_000_000) in
            if List.length !first_orders < 16 then first_orders := order :: !first_orders;
            order
        | sort -> invalid_arg ("store-zipf-write: no key for sort " ^ sort)
      in
      match exec name (List.map arg sorts) with
      | Some op -> (region, op)
      | None -> invalid_arg ("store-zipf-write: cannot build " ^ name)
    in
    let wal0 = wal_file_bytes w in
    Res.log "zipf-write: drive %d segments of %d ops" segments seg_ops;
    let d = drive w ~rng ~zipf ~rate:zipf_rate ~segments ~seg_ops ~op_of () in
    Res.log "zipf-write: drove %d ops in %.2fs" d.ops d.wall_s;
    (* the heap peak of the workload itself, before the checks load whole
       WAL files *)
    let peak_mb = Res.peak_heap_mb () in
    (d, wal_file_bytes w - wal0, peak_mb)
  in
  let check (w : world) =
    let recover_s = check_digests_and_recovery ~corrupt:o.Res.corrupt ~seed:o.Res.seed w in
    let hot k f = List.init k f in
    let tourn_dom =
      [
        ("Tournament", hot 4 (Printf.sprintf "t%d"));
        ("Player", List.sort_uniq compare (List.concat (hot 4 (fun t ->
             List.init 6 (fun j -> Printf.sprintf "p%d" (((t * 6) + j) mod n_players))))));
      ]
    in
    let tpc_dom =
      [
        ("Item", hot 16 (Printf.sprintf "i%d"));
        ("Order", List.sort_uniq compare !first_orders);
        ("Customer", hot 4 (Printf.sprintf "c%d"));
        ("Id", [ "id0" ]);
      ]
    in
    let v =
      check_invariants (Ipa_check.Harness.make ~app:"tournament" ~repaired:true) tourn_dom w
      + check_invariants (Ipa_check.Harness.make ~app:"tpcw" ~repaired:true) tpc_dom w
    in
    Res.checkf (v = 0) "store-zipf-write: %d invariant violations at quiescence" v;
    recover_s
  in
  let sizes =
    [
      ("items", string_of_int n_items);
      ("tournaments", string_of_int n_tourn);
      ("players", string_of_int n_players);
      ("objects_per_replica", string_of_int (Replica.obj_count (List.hd w.cluster.Cluster.replicas)));
      ("shards", string_of_int shards);
      ("zipf_theta", "0.99");
      ("offered_rate_per_s", Printf.sprintf "%.0f" zipf_rate);
      ( "mix",
        "1/2 Tournament.next_op, 1/2 Tpc.next_op, each redrawn until an update; keys by Zipf rank" );
      ("segments", string_of_int segments);
      ("segment_ops", string_of_int seg_ops);
      ("sync_interval_ms", "250");
      ("link_loss", Printf.sprintf "%g" link_loss);
      ("wal", "per replica, group_commit=8 (default), flush=Wal.flush (no fsync)");
    ]
  in
  let d, wal_bytes, peak_mb =
    Fun.protect ~finally:(fun () -> close_world w) @@ fun () ->
    let d, wal_bytes, peak_mb = run_drive w in
    ignore (check w);
    Res.log "zipf-write: checks passed";
    (d, wal_bytes, peak_mb)
  in
  if not o.Res.trace then
    {
      Res.attempted = d.ops;
      failed = d.failed;
      sizes;
      metrics = e2e ~setup_s ~d ~wal_bytes ~peak_mb w;
    }
  else begin
    let w2 = setup () in
    Fun.protect ~finally:(fun () -> close_world w2) @@ fun () ->
    Gc.compact ();
    Tr.on := true;
    let d2, wal_bytes2, _ = run_drive w2 in
    Tr.on := false;
    let recover_s = check w2 in
    {
      Res.attempted = d2.ops;
      failed = d2.failed;
      sizes;
      metrics =
        layers ~d:d2 ~untraced:d ~wal_bytes:wal_bytes2 ~recover_s w2
        @ escrow_layers (Metrics.create ()) (Hashtbl.create 1);
    }
  end

(* ------------------------------------------------------------------ *)
(* store-hot-read                                                      *)
(* ------------------------------------------------------------------ *)

let hot_rate = 3_000.0

let hot_read (o : Res.opts) : Res.t =
  let n_keys = if o.Res.tiny then 6 else 36 in
  (* the escrow experiment's stock: 32 units per key, and every eighth
     update a restock of 8 units at the warehouse *)
  let pool0 = 32 and restock_every = 8 and restock_n = 8 in
  let seg_ops = if o.Res.tiny then 1_000 else 60_000 in
  let segments = if o.Res.tiny then 2 else o.Res.seconds + 2 in
  let keys = Array.init n_keys (Printf.sprintf "stock%02d") in
  let rep_ids = Array.of_list (List.map fst regions) in
  let region_names = Array.of_list (List.map snd regions) in
  let warehouse = region_names.(0) in
  let next_dir = tmp_dir o in
  (* the escrow experiment's plan: each key's home market (rank mod 3)
     is forecast to take 70 % of its demand; rights are apportioned to
     match *)
  let forecast k =
    let hot = rep_ids.(k mod 3) in
    List.map (fun r -> (r, if r = hot then 0.7 else 0.15)) (Array.to_list rep_ids)
  in
  let policy = { Escrow.default_policy with Escrow.hysteresis = 0.02; min_batch = 1; slack = 4 } in
  let setup () =
    let w = make_world ~seed:o.Res.seed ~shards:16 ~dir:(next_dir ()) in
    let reps = Array.of_list w.cluster.Cluster.replicas in
    Array.iteri
      (fun k key ->
        let shares = Ipa_core.Escrow_plan.apportion ~total:pool0 (forecast k) in
        let tx = Txn.begin_ reps.(0) in
        ignore (Txn.get tx key Obj.T_bcounter);
        List.iter (fun op -> Txn.update tx key (Obj.Op_bcounter op)) (Escrow.seed ~shares ~value:pool0 ());
        match Txn.commit tx with
        | Some b -> Cluster.broadcast_now w.cluster b
        | None -> assert false)
      keys;
    let mgrs =
      Array.map
        (fun (r : Replica.t) ->
          let m = Escrow.create ~policy ~rep:r.Replica.id () in
          Array.iteri (fun k key -> Escrow.forecast m ~key (forecast k)) keys;
          m)
        reps
    in
    (w, mgrs)
  in
  let setup_s, (w, mgrs) =
    Res.repeat_setup ~discard:(fun (w, _) -> close_world w) (if o.Res.tiny then 1 else 25) setup
  in
  let run_drive ((w : world), mgrs) =
    let reps = Array.of_list w.cluster.Cluster.replicas in
    let em = Metrics.create () in
    let truth = Array.make n_keys pool0 in
    let oversold = ref 0 in
    let mgr_of = Hashtbl.create 4 in
    Array.iteri (fun i (r : Replica.t) -> Hashtbl.replace mgr_of r.Replica.id mgrs.(i)) reps;
    let reads = Hashtbl.create 4 in
    let note_read level = Hashtbl.replace reads level (1 + Option.value ~default:0 (Hashtbl.find_opt reads level)) in
    let note_attempt a = Metrics.record_escrow_attempt em a in
    let commit_ops rep key ops =
      let tx = Txn.begin_ rep in
      ignore (Txn.get tx key Obj.T_bcounter);
      List.iter (fun op -> Txn.update tx key (Obj.Op_bcounter op)) ops;
      Txn.commit tx
    in
    (* planned managers tick from the anti-entropy piggyback *)
    w.sync.Sync.on_round <-
      Some
        (fun ~now ->
          Array.iteri
            (fun i (rep : Replica.t) ->
              Array.iter
                (fun key ->
                  match Replica.peek rep key with
                  | None -> ()
                  | Some ob -> (
                      match
                        Tr.span "runtime.escrow_tick" (fun () ->
                            Escrow.tick mgrs.(i) ~now ~key (Obj.as_bcounter ob))
                      with
                      | [] -> ()
                      | ops ->
                          let mig =
                            {
                              Config.op_name = "migrate";
                              is_update = true;
                              reservations = [];
                              run =
                                (fun r ->
                                  let b = commit_ops r key ops in
                                  List.iter
                                    (function
                                      | Bc.Transfer { n; _ } | Bc.Hmove { n; _ } ->
                                          Metrics.record_escrow_migration em ~rights:n
                                      | _ -> ())
                                    ops;
                                  Config.outcome b);
                            }
                          in
                          Config.execute w.cfg ~client_region:rep.Replica.region (traced w mig)
                            ~complete:(fun _ _ -> ())))
                keys)
            reps);
    let read_op level k : Config.op_exec =
      {
        Config.op_name = level;
        is_update = false;
        reservations = [];
        run =
          (fun rep ->
            note_read level;
            let tx = Txn.begin_ rep in
            ignore (Bc.quick_value (Obj.as_bcounter (Txn.get tx keys.(k) Obj.T_bcounter)));
            Config.outcome (Txn.commit tx));
      }
    in
    (* a decrement covered by local rights, else a blocking fetch of half
       the richest peer's rights and one retry; sold out aborts *)
    let buy k : Config.op_exec =
      let key = keys.(k) in
      let dec rep =
        let tx = Txn.begin_ rep in
        let cnt = Obj.as_bcounter (Txn.get tx key Obj.T_bcounter) in
        match Bc.prepare_dec cnt ~rep:rep.Replica.id 1 with
        | op ->
            Txn.update tx key (Obj.Op_bcounter op);
            let b = Txn.commit tx in
            truth.(k) <- truth.(k) - 1;
            if truth.(k) < 0 then incr oversold;
            Some b
        | exception Bc.Insufficient_rights _ ->
            Txn.abort tx;
            None
      in
      {
        Config.op_name = "buy";
        is_update = true;
        reservations = [];
        run =
          (fun rep ->
            Escrow.note_dec (Hashtbl.find mgr_of rep.Replica.id) ~key 1;
            match dec rep with
            | Some b ->
                note_attempt `Hit;
                Config.outcome b
            | None -> (
                let richest =
                  Array.fold_left
                    (fun best (peer : Replica.t) ->
                      if peer == rep then best
                      else
                        match Replica.peek peer key with
                        | None -> best
                        | Some ob ->
                            let have = Bc.local_rights (Obj.as_bcounter ob) peer.Replica.id in
                            if have > 0 && (match best with Some (_, b) -> have > b | None -> true)
                            then Some (peer, have)
                            else best)
                    None reps
                in
                match richest with
                | None ->
                    note_attempt (`Miss 0);
                    Config.outcome ~extra_rtts:1 None
                | Some (peer, have) -> (
                    let n = max 1 (have / 2) in
                    let pc = Obj.as_bcounter (Option.get (Replica.peek peer key)) in
                    let top = Bc.prepare_transfer pc ~from_:peer.Replica.id ~to_:rep.Replica.id n in
                    Option.iter (Cluster.broadcast_now w.cluster) (commit_ops peer key [ top ]);
                    note_attempt (`Miss n);
                    match dec rep with
                    | Some b -> Config.outcome ~extra_rtts:1 b
                    | None -> Config.outcome ~extra_rtts:1 None)));
      }
    in
    let restock k : Config.op_exec =
      {
        Config.op_name = "restock";
        is_update = true;
        reservations = [];
        run =
          (fun rep ->
            let key = keys.(k) in
            let tx = Txn.begin_ rep in
            let cnt = Obj.as_bcounter (Txn.get tx key Obj.T_bcounter) in
            Txn.update tx key (Obj.Op_bcounter (Bc.prepare_inc cnt ~rep:rep.Replica.id restock_n));
            let b = Txn.commit tx in
            truth.(k) <- truth.(k) + restock_n;
            Config.outcome b);
      }
    in
    let rng = Rng.create o.Res.seed in
    let mix = Rng.split rng in
    let zipf = Workload.zipf ~theta:0.99 n_keys in
    (* 80 % reads, one third at each read level; the updates and
       their regions follow the escrow experiment: a buy (or read) from
       the key's home market with odds 0.7 (else any region), every
       eighth update a restock at the warehouse *)
    let updates = ref 0 in
    let op_of (e : Workload.event) =
      let k = e.Workload.rank in
      let home = region_names.(k mod 3) in
      let local () = if Rng.flip mix 0.7 then home else region_names.(Rng.int mix 3) in
      if Rng.flip mix 0.8 then
        let level = [| "read_weak"; "read_bounded"; "read_strong" |].(Rng.int mix 3) in
        (local (), read_op level k)
      else begin
        incr updates;
        if !updates mod restock_every = 0 then (warehouse, restock k) else (local (), buy k)
      end
    in
    let read_level_of = function
      | "read_bounded" -> Config.RL_bounded 100.0
      | "read_strong" -> Config.RL_strong
      | _ -> Config.RL_weak
    in
    let wal0 = wal_file_bytes w in
    Res.log "hot-read: drive %d segments of %d ops" segments seg_ops;
    let d = drive w ~rng ~zipf ~rate:hot_rate ~segments ~seg_ops ~read_level_of ~op_of () in
    Res.log "hot-read: drove %d ops in %.2fs" d.ops d.wall_s;
    (* conservation: every replica sees the true stock, and its rights
       ledgers audit clean *)
    Array.iteri
      (fun k key ->
        Array.iter
          (fun (rep : Replica.t) ->
            match Replica.peek rep key with
            | None -> Res.checkf false "store-hot-read: %s missing at %s" key rep.Replica.id
            | Some ob ->
                let cnt = Obj.as_bcounter ob in
                (match Bc.audit cnt with
                | Some msg -> Res.checkf false "store-hot-read: %s/%s audit: %s" rep.Replica.id key msg
                | None -> ());
                Res.checkf
                  (Bc.quick_value cnt = truth.(k))
                  "store-hot-read: %s at %s reads %d, sold-through truth %d" key rep.Replica.id
                  (Bc.quick_value cnt) truth.(k))
          reps)
      keys;
    Res.checkf (!oversold = 0) "store-hot-read: %d units oversold" !oversold;
    (d, wal_file_bytes w - wal0, Res.peak_heap_mb (), em, reads)
  in
  let sizes =
    [
      ("keys", string_of_int n_keys);
      ("pool_per_key", string_of_int pool0);
      ("shards", "16");
      ("zipf_theta", "0.99");
      ("offered_rate_per_s", Printf.sprintf "%.0f" hot_rate);
      ("segments", string_of_int segments);
      ("segment_ops", string_of_int seg_ops);
      ( "mix",
        "80% reads, 1/3 each read_weak, read_bounded(100ms), read_strong; 20% updates, every 8th a restock of 8, the rest buys" );
      ("sync_interval_ms", "250");
      ("link_loss", Printf.sprintf "%g" link_loss);
      ("wal", "per replica, group_commit=8 (default), flush=Wal.flush (no fsync)");
    ]
  in
  let d, wal_bytes, peak_mb =
    Fun.protect ~finally:(fun () -> close_world w) @@ fun () ->
    let d, wal_bytes, peak_mb, _, _ = run_drive (w, mgrs) in
    ignore (check_digests_and_recovery ~corrupt:o.Res.corrupt ~seed:o.Res.seed w);
    (d, wal_bytes, peak_mb)
  in
  if not o.Res.trace then
    {
      Res.attempted = d.ops;
      failed = d.failed;
      sizes;
      metrics = e2e ~setup_s ~d ~wal_bytes ~peak_mb w;
    }
  else begin
    let w2, mgrs2 = setup () in
    Fun.protect ~finally:(fun () -> close_world w2) @@ fun () ->
    Gc.compact ();
    Tr.on := true;
    let d2, wal_bytes2, _, em, reads = run_drive (w2, mgrs2) in
    Tr.on := false;
    let recover_s = check_digests_and_recovery ~corrupt:false ~seed:o.Res.seed w2 in
    {
      Res.attempted = d2.ops;
      failed = d2.failed;
      sizes;
      metrics =
        layers ~d:d2 ~untraced:d ~wal_bytes:wal_bytes2 ~recover_s w2 @ escrow_layers em reads;
    }
  end
