(* Differential proof that the fast causal-delivery engine is
   observationally identical to the retained reference engine:

   - replica-level: random valid update streams (FIFO per writer,
     arbitrarily interleaved across writers) fed to both engines produce
     identical state after every single receive;
   - runtime-level: random phase-structured workloads (writes, PRAM and
     causal reads, decrements, lock-protected sections, barriers) under
     every propagation mode record identical histories, identical final
     memories and identical consistency verdicts; likewise under
     multicast routing;
   - every Section-5 application computes the same result with the same
     history on both engines;
   - update coalescing: the delta encoding roundtrips and its entry
     count matches the byte model's; coalesced runs are bit-identical
     across engines, mixed-consistent, reach the program's closed-form
     final memory with an exact message count; a fiber's exit, its
     compute time and a PRAM poll loop each flush the outbox. *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Api = Mc_dsm.Api
module Replica = Mc_dsm.Replica
module Protocol = Mc_dsm.Protocol
module Network = Mc_net.Network
module Latency = Mc_net.Latency
module Op = Mc_history.Op
module History = Mc_history.History
module Mixed = Mc_consistency.Mixed
module Rng = Mc_util.Rng
module Solver = Mc_apps.Linear_solver
module Em = Mc_apps.Em_field
module Cholesky = Mc_apps.Cholesky
module Sparse = Mc_apps.Sparse_spd
module Pipeline = Mc_apps.Pipeline

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_histories name hf hr =
  let a = History.ops hf and b = History.ops hr in
  check_int (name ^ ": op count") (Array.length b) (Array.length a);
  Array.iteri
    (fun i o ->
      if o <> b.(i) then
        Alcotest.failf "%s: op %d differs:\n  fast:      %s\n  reference: %s" name
          i (Op.to_string o) (Op.to_string b.(i)))
    a

(* ------------------------------------------------------------------ *)
(* Replica-level stream differential                                   *)
(* ------------------------------------------------------------------ *)

(* Build a valid execution among [writers] replicas: each step either
   issues a fresh update at a random writer or lets a writer receive the
   oldest in-flight update from a peer, so later updates carry rich,
   genuinely cross-writer dependency clocks. Returns the per-writer
   update streams in issue order. *)
let gen_valid_streams rng ~writers ~per_writer =
  let e = Engine.create () in
  let n = writers + 1 in
  let ws = Array.init writers (fun i -> Replica.create e ~id:i ~n ()) in
  let queues = Array.make writers [] in
  let inflight = Array.init writers (fun _ -> Array.init writers (fun _ -> Queue.create ())) in
  let locs = [| "x"; "y"; "z"; "w" |] in
  let issued = Array.make writers 0 in
  for _ = 1 to writers * per_writer * 3 do
    let i = Rng.int rng writers in
    if Rng.bool rng && issued.(i) < per_writer then begin
      let u =
        if Rng.int rng 4 = 0 then
          fst (Replica.local_dec ws.(i) ~loc:"cnt" ~amount:1)
        else
          Replica.local_write ws.(i) ~loc:(Rng.pick rng locs)
            ~numeric:(Rng.int rng 100)
            ~tag:((100 * (i + 1)) + issued.(i) + 1)
      in
      issued.(i) <- issued.(i) + 1;
      queues.(i) <- u :: queues.(i);
      for j = 0 to writers - 1 do
        if j <> i then Queue.push u inflight.(j).(i)
      done
    end
    else begin
      let peers =
        List.filter
          (fun j -> j <> i && not (Queue.is_empty inflight.(i).(j)))
          (List.init writers Fun.id)
      in
      match peers with
      | [] -> ()
      | ps ->
        let j = List.nth ps (Rng.int rng (List.length ps)) in
        Replica.receive ws.(i) (Queue.pop inflight.(i).(j))
    end
  done;
  Array.map List.rev queues

let test_replica_stream_differential () =
  let locs = [ "x"; "y"; "z"; "w"; "cnt" ] in
  for seed = 1 to 25 do
    let rng = Rng.make (4000 + seed) in
    let writers = 2 + Rng.int rng 3 in
    let streams = gen_valid_streams rng ~writers ~per_writer:6 in
    let n = writers + 1 in
    let group = [ 0; 1 ] in
    let e = Engine.create () in
    let mk delivery =
      Replica.create e ~id:writers ~n ~groups:[ group ] ~delivery ()
    in
    let fast = mk Config.Fast and slow = mk Config.Reference in
    (* a demand obligation whose clock comes from a real update, so it
       is eventually satisfied mid-stream *)
    (match Array.to_list streams |> List.concat with
    | u :: _ ->
      let dep = Array.copy u.Protocol.dep in
      dep.(u.Protocol.writer) <- u.Protocol.useq;
      Replica.mark_invalid fast "x" dep;
      Replica.mark_invalid slow "x" dep
    | [] -> ());
    let compare_state step =
      let name what = Printf.sprintf "seed %d step %d: %s" seed step what in
      check (name "applied") true (Replica.applied fast = Replica.applied slow);
      check (name "received") true (Replica.received fast = Replica.received slow);
      check_int (name "pending")
        (Replica.pending_count slow)
        (Replica.pending_count fast);
      check (name "blocked x") true
        (Replica.location_blocked fast "x" = Replica.location_blocked slow "x");
      List.iter
        (fun loc ->
          check (name ("causal " ^ loc)) true
            (Replica.causal_read fast loc = Replica.causal_read slow loc);
          check (name ("pram " ^ loc)) true
            (Replica.pram_read fast loc = Replica.pram_read slow loc);
          check (name ("group " ^ loc)) true
            (Replica.group_read fast ~group loc
            = Replica.group_read slow ~group loc))
        locs
    in
    (* feed the receiver an arbitrary interleaving that is FIFO per
       writer, comparing the engines after every message *)
    let remaining = Array.map ref streams in
    let step = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let nonempty =
        List.filter (fun i -> !(remaining.(i)) <> []) (List.init writers Fun.id)
      in
      match nonempty with
      | [] -> continue_ := false
      | is -> (
        let i = List.nth is (Rng.int rng (List.length is)) in
        match !(remaining.(i)) with
        | u :: rest ->
          remaining.(i) := rest;
          Replica.receive fast u;
          Replica.receive slow u;
          incr step;
          compare_state !step
        | [] -> assert false)
    done;
    (* the receiver got every update, so everything must have applied *)
    check_int (Printf.sprintf "seed %d: nothing left pending" seed) 0
      (Replica.pending_count fast)
  done

(* Directed switch between the fast engine's two receive paths. With
   nothing buffered, an in-order arrival whose dependencies are applied
   goes straight to the causal view; pausing a link opens a causal gap,
   so later arrivals are buffered (even deliverable ones, while anything
   else waits); resuming the link drains the buffer and the next arrivals
   are direct again. Writers 0, 1 and 3 broadcast; node 2 runs the fast
   and the reference engine side by side, compared after every delivery.
   Writers 1 and 3 write [x] concurrently with writer 0's held writes, so
   the last-writer-wins view exposes any change in apply order. *)
let test_direct_and_buffered_paths () =
  let n = 4 and recv = 2 in
  let e = Engine.create () in
  let net = Network.create e ~nodes:n ~latency:(Latency.constant 10.) () in
  let writers = Array.init n (fun id -> Replica.create e ~id ~n ()) in
  let mk delivery = Replica.create e ~id:recv ~n ~delivery () in
  let fast = mk Config.Fast and slow = mk Config.Reference in
  let locs = [ "x"; "y"; "z" ] in
  let deliveries = ref 0 and max_pending = ref 0 in
  let compare_state () =
    let name what = Printf.sprintf "delivery %d: %s" !deliveries what in
    check (name "applied") true (Replica.applied fast = Replica.applied slow);
    check (name "received") true (Replica.received fast = Replica.received slow);
    check_int (name "pending") (Replica.pending_count slow)
      (Replica.pending_count fast);
    List.iter
      (fun loc ->
        check (name ("causal " ^ loc)) true
          (Replica.causal_read fast loc = Replica.causal_read slow loc);
        check (name ("pram " ^ loc)) true
          (Replica.pram_read fast loc = Replica.pram_read slow loc))
      locs
  in
  for id = 0 to n - 1 do
    Network.set_handler net id (fun ~src:_ u ->
        if id = recv then begin
          Replica.receive fast u;
          Replica.receive slow u;
          incr deliveries;
          max_pending := max !max_pending (Replica.pending_count fast);
          compare_state ()
        end
        else Replica.receive writers.(id) u)
  done;
  let write id loc v =
    let u = Replica.local_write writers.(id) ~loc ~numeric:v ~tag:v in
    Network.broadcast net ~src:id u
  in
  let at time f = Engine.schedule e ~delay:time f in
  (* in order: every arrival is deliverable with nothing buffered *)
  at 0. (fun () ->
      write 0 "x" 1;
      write 0 "y" 2);
  at 20. (fun () ->
      write 1 "z" 3;
      write 3 "y" 4);
  (* gap: writer 0's next writes are held on its links to 2 and 3 *)
  at 40. (fun () ->
      Network.pause_link net ~src:0 ~dst:recv;
      Network.pause_link net ~src:0 ~dst:3;
      write 0 "x" 5;
      write 0 "y" 6);
  (* writer 1 saw them: its writes wait at node 2 *)
  at 60. (fun () ->
      write 1 "z" 7;
      write 1 "x" 8);
  (* writer 3 did not: in order and deliverable, yet behind a buffer *)
  at 80. (fun () ->
      write 3 "x" 9;
      write 3 "y" 10);
  at 100. (fun () ->
      check "gap buffered updates" true (Replica.pending_count fast > 0);
      Network.resume_link net ~src:0 ~dst:recv;
      Network.resume_link net ~src:0 ~dst:3);
  (* drained: direct again *)
  at 150. (fun () ->
      write 0 "x" 11;
      write 3 "z" 12;
      write 1 "y" 13);
  ignore (Engine.run e);
  check_int "every update delivered" 13 !deliveries;
  check "the gap buffered several updates" true (!max_pending >= 2);
  check_int "nothing left pending" 0 (Replica.pending_count fast);
  Alcotest.(check (array int)) "all applied" [| 5; 4; 0; 4 |] (Replica.applied fast)

(* ------------------------------------------------------------------ *)
(* Runtime-level random workload differential                          *)
(* ------------------------------------------------------------------ *)

type wop =
  | W of string * int
  | R of string * Op.label
  | Dec of string
  | Locked of string * string * int

let free_locs = [| "a"; "b"; "c" |]
let counter_loc = "cnt"
let all_locs = [ "a"; "b"; "c"; "cnt"; "g0"; "g1" ]

(* guarded locations g0/g1 are only touched inside their lock's critical
   section, so the plan is valid under every propagation mode including
   entry consistency *)
let gen_plan rng ~procs ~rounds =
  Array.init procs (fun pid ->
      List.init rounds (fun round ->
          List.init
            (1 + Rng.int rng 3)
            (fun _ ->
              match Rng.int rng 10 with
              | 0 | 1 | 2 ->
                W (Rng.pick rng free_locs, (100 * pid) + Rng.int rng 50)
              | 3 | 4 ->
                R (Rng.pick rng free_locs, if Rng.bool rng then Op.Causal else Op.PRAM)
              | 5 when round > 0 -> Dec counter_loc
              | 6 | 7 ->
                let g = Rng.int rng 2 in
                Locked
                  (Printf.sprintf "lg%d" g, Printf.sprintf "g%d" g, Rng.int rng 90)
              | _ -> R (Rng.pick rng free_locs, Op.Causal))))

let run_plan ~delivery ~seed ~propagation ~procs plan =
  let engine = Engine.create () in
  let cfg =
    { (Config.default ~procs) with record = true; propagation; delivery }
  in
  let latency = Latency.uniform (Rng.make seed) ~lo:5. ~hi:150. in
  let rt = Runtime.create engine ~latency cfg in
  for i = 0 to procs - 1 do
    Runtime.spawn_process rt i (fun p ->
        if i = 0 then Runtime.init_counter p counter_loc 1000;
        List.iter
          (fun round_ops ->
            List.iter
              (function
                | W (loc, v) -> Runtime.write p loc v
                | R (loc, label) -> ignore (Runtime.read p ~label loc)
                | Dec loc -> Runtime.decrement p loc ~amount:1
                | Locked (lock, gloc, v) ->
                  Runtime.write_lock p lock;
                  Runtime.write p gloc v;
                  ignore (Runtime.read p gloc);
                  Runtime.write_unlock p lock)
              round_ops;
            Runtime.barrier p)
          plan.(i))
  done;
  ignore (Runtime.run rt);
  (rt, Runtime.history rt)

let test_random_workloads_differential () =
  List.iter
    (fun propagation ->
      for seed = 1 to 5 do
        let rng = Rng.make (7000 + (100 * seed)) in
        let procs = 3 + Rng.int rng 2 in
        let plan = gen_plan rng ~procs ~rounds:3 in
        let rt_f, h_f =
          run_plan ~delivery:Config.Fast ~seed ~propagation ~procs plan
        in
        let rt_r, h_r =
          run_plan ~delivery:Config.Reference ~seed ~propagation ~procs plan
        in
        let name =
          Printf.sprintf "%s seed %d" (Config.propagation_to_string propagation) seed
        in
        check_histories name h_f h_r;
        List.iter
          (fun loc ->
            for proc = 0 to procs - 1 do
              check_int
                (Printf.sprintf "%s: peek %s at %d" name loc proc)
                (Runtime.peek rt_r ~proc loc)
                (Runtime.peek rt_f ~proc loc)
            done)
          all_locs;
        check (name ^ ": same verdict") true
          (Mixed.is_mixed_consistent h_f = Mixed.is_mixed_consistent h_r)
      done)
    [ Config.Eager; Config.Lazy; Config.Demand; Config.Entry ]

let test_multicast_differential () =
  let procs = 3 in
  let subs = function
    | "m0" -> Some [ 1 ]
    | "m1" -> Some [ 2 ]
    | "m2" -> Some [ 0 ]
    | _ -> None
  in
  let run delivery =
    let engine = Engine.create () in
    let cfg =
      {
        (Config.default ~procs) with
        record = true;
        delivery;
        multicast = Some subs;
        timestamped_updates = false;
      }
    in
    let latency = Latency.uniform (Rng.make 99) ~lo:5. ~hi:80. in
    let rt = Runtime.create engine ~latency cfg in
    for i = 0 to procs - 1 do
      Runtime.spawn_process rt i (fun p ->
          let mine = Printf.sprintf "m%d" i in
          for k = 1 to 4 do
            Runtime.write p mine ((10 * i) + k)
          done;
          Runtime.barrier p;
          ignore (Runtime.read p ~label:Op.PRAM (Printf.sprintf "m%d" ((i + 2) mod 3)));
          Runtime.barrier p)
    done;
    ignore (Runtime.run rt);
    Runtime.history rt
  in
  check_histories "multicast" (run Config.Fast) (run Config.Reference)

(* ------------------------------------------------------------------ *)
(* Section-5 applications                                              *)
(* ------------------------------------------------------------------ *)

let run_app ~delivery ?(procs = 4) ?propagation ?multicast f =
  let engine = Engine.create () in
  let base = { (Config.default ~procs) with record = true; delivery } in
  let base =
    match propagation with Some p -> { base with propagation = p } | None -> base
  in
  let cfg =
    match multicast with
    | Some m -> { base with multicast = Some m; timestamped_updates = false }
    | None -> base
  in
  let latency = Latency.uniform (Rng.make 11) ~lo:5. ~hi:120. in
  let rt = Runtime.create engine ~latency cfg in
  let out = f (Api.spawn rt) in
  ignore (Runtime.run rt);
  (!out, Runtime.history rt)

let app_differential name ?procs ?propagation ?multicast f =
  let rf, hf = run_app ~delivery:Config.Fast ?procs ?propagation ?multicast f in
  let rr, hr = run_app ~delivery:Config.Reference ?procs ?propagation ?multicast f in
  check (name ^ ": result produced") true (rf <> None);
  check (name ^ ": same result") true (rf = rr);
  check_histories name hf hr

let test_apps_differential () =
  let problem = Solver.Problem.generate ~seed:7 ~n:6 in
  app_differential "solver barrier_pram" ~procs:4 (fun spawn ->
      Solver.launch ~spawn ~procs:4 ~variant:Solver.Barrier_pram problem);
  app_differential "solver handshake_causal" ~procs:3 (fun spawn ->
      Solver.launch ~spawn ~procs:3 ~variant:Solver.Handshake_causal problem);
  let em_params = { Em.rows = 6; cols = 5; steps = 2; seed = 3 } in
  app_differential "em broadcast" ~procs:3 (fun spawn ->
      Em.launch ~spawn ~procs:3 em_params);
  app_differential "em multicast" ~procs:3
    ~multicast:(Em.subscriptions ~procs:3)
    (fun spawn -> Em.launch ~spawn ~procs:3 em_params);
  let m = Sparse.generate ~seed:5 ~n:6 ~density:0.4 in
  app_differential "cholesky locks (lazy)" ~procs:3 (fun spawn ->
      Cholesky.launch ~spawn ~procs:3 ~variant:Cholesky.Lock_based m);
  app_differential "cholesky locks (demand)" ~procs:3 ~propagation:Config.Demand
    (fun spawn -> Cholesky.launch ~spawn ~procs:3 ~variant:Cholesky.Lock_based m);
  app_differential "cholesky counters" ~procs:3 (fun spawn ->
      Cholesky.launch ~spawn ~procs:3 ~variant:Cholesky.Counter_based m);
  let pipe = { Pipeline.items = 8; slots = 2; work = 0.5 } in
  app_differential "pipeline awaits" ~procs:3 (fun spawn ->
      Pipeline.launch ~spawn ~procs:3 ~impl:Pipeline.Await_based pipe)

(* ------------------------------------------------------------------ *)
(* Update batching                                                     *)
(* ------------------------------------------------------------------ *)

let update_seq_gen =
  QCheck.Gen.(
    int_range 2 5 >>= fun procs ->
    int_range 0 (procs - 1) >>= fun writer ->
    int_range 1 10 >>= fun start ->
    int_range 1 6 >>= fun len ->
    list_size (return len) (list_size (return procs) (int_bound 8)) >>= fun depss ->
    list_size (return len) (triple (int_bound 3) (int_bound 50) bool)
    >>= fun metas ->
    return
      (List.mapi
         (fun k (deps, (locn, num, is_dec)) ->
           let dep = Array.of_list deps in
           dep.(writer) <- start + k - 1;
           {
             Protocol.writer;
             useq = start + k;
             dep;
             loc = "l" ^ string_of_int locn;
             numeric = num;
             tag = (if is_dec then 0 else k + 1);
             is_dec;
           })
         (List.combine depss metas)))

let batch_roundtrip =
  QCheck.Test.make ~name:"encode_batch/decode_batch roundtrip" ~count:300
    (QCheck.make update_seq_gen) (fun us ->
      Protocol.decode_batch (Protocol.encode_batch us) = us)

(* the byte model counts the entries without building the encoding *)
let delta_entries_match =
  QCheck.Test.make ~name:"delta_entries counts the encoding" ~count:300
    (QCheck.make update_seq_gen) (fun us ->
      Protocol.delta_entries us
      = Protocol.batch_delta_entries (Protocol.encode_batch us))

let test_batch_encoding_directed () =
  Alcotest.check_raises "empty batch"
    (Invalid_argument "Protocol.encode_batch: empty batch") (fun () ->
      ignore (Protocol.encode_batch []));
  let u ~writer ~useq ~dep =
    { Protocol.writer; useq; dep; loc = "x"; numeric = 1; tag = useq; is_dec = false }
  in
  Alcotest.check_raises "mixed writers"
    (Invalid_argument "Protocol.encode_batch: mixed writers") (fun () ->
      ignore
        (Protocol.encode_batch
           [ u ~writer:0 ~useq:1 ~dep:[| 0; 0 |]; u ~writer:1 ~useq:2 ~dep:[| 0; 1 |] ]));
  Alcotest.check_raises "useq gap"
    (Invalid_argument "Protocol.encode_batch: non-consecutive useq") (fun () ->
      ignore
        (Protocol.encode_batch
           [ u ~writer:0 ~useq:1 ~dep:[| 0; 0 |]; u ~writer:0 ~useq:3 ~dep:[| 2; 0 |] ]));
  (* three updates whose clocks change by one entry between neighbours:
     two transmitted delta entries in total, the writer's own entry never
     transmitted *)
  let b =
    Protocol.encode_batch
      [
        u ~writer:0 ~useq:4 ~dep:[| 3; 1; 0 |];
        u ~writer:0 ~useq:5 ~dep:[| 4; 2; 0 |];
        u ~writer:0 ~useq:6 ~dep:[| 5; 2; 7 |];
      ]
  in
  check_int "length" 3 (Protocol.batch_length b);
  check_int "delta entries" 2 (Protocol.batch_delta_entries b)

let write_heavy_program procs rt =
  for i = 0 to procs - 1 do
    Runtime.spawn_process rt i (fun p ->
        let mine = Printf.sprintf "w%d" i in
        for k = 1 to 20 do
          Runtime.write p mine k
        done;
        Runtime.barrier p;
        for j = 0 to procs - 1 do
          ignore (Runtime.read p (Printf.sprintf "w%d" j))
        done;
        Runtime.barrier p)
  done

let run_write_heavy ~delivery () =
  let procs = 3 in
  let engine = Engine.create () in
  let cfg = { (Config.default ~procs) with record = true; delivery } in
  let latency = Latency.uniform (Rng.make 5) ~lo:10. ~hi:60. in
  let rt = Runtime.create engine ~latency cfg in
  write_heavy_program procs rt;
  ignore (Runtime.run rt);
  rt

let test_batching_preserves_semantics () =
  let rt = run_write_heavy ~delivery:Config.Fast () in
  let rt_ref = run_write_heavy ~delivery:Config.Reference () in
  check_histories "coalesced engines agree" (Runtime.history rt)
    (Runtime.history rt_ref);
  (* every process's last write to its own location is 20 *)
  for proc = 0 to 2 do
    for j = 0 to 2 do
      let loc = Printf.sprintf "w%d" j in
      check_int (Printf.sprintf "final %s at %d" loc proc) 20
        (Runtime.peek rt ~proc loc)
    done
  done;
  check "coalesced run mixed consistent" true
    (Mixed.is_mixed_consistent (Runtime.history rt));
  (* each process's 20 writes leave at its first barrier as one batch to
     each of its 2 peers; each of the 2 barrier episodes costs 2 arrivals
     and 2 releases at the root *)
  let by_kind = Network.messages_by_kind (Runtime.network rt) in
  let count kind = Option.value ~default:0 (List.assoc_opt kind by_kind) in
  check_int "one batch per writer and peer" 6 (count "update_batch");
  check_int "no single-update messages" 0 (count "update");
  check_int "barrier arrivals" 4 (count "barrier_arrive");
  check_int "barrier releases" 4 (count "barrier_release");
  check_int "messages" 14 (Network.messages_sent (Runtime.network rt))

let test_exit_flush () =
  (* the writer never synchronizes: only its fiber's exit puts the
     write on the wire, and nothing left behind (such as a flush timer)
     outlives the awaiting fiber *)
  let engine = Engine.create () in
  let rt = Runtime.create engine (Config.default ~procs:2) in
  let finished = ref nan in
  Runtime.spawn_process rt 0 (fun p -> Runtime.write p "x" 7);
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.await p "x" 7;
      finished := Engine.now engine);
  let tend = Runtime.run rt in
  check_int "delivered by exit flush" 7 (Runtime.peek rt ~proc:1 "x");
  Alcotest.(check (float 0.)) "run ends when the awaiting fiber does" !finished
    tend

let test_compute_flush () =
  (* updates are not held through the writer's think time: the reader
     sees x long before the writer's 10 ms compute ends *)
  let engine = Engine.create () in
  let rt = Runtime.create engine (Config.default ~procs:2) in
  let seen_at = ref nan in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write p "x" 1;
      Runtime.compute p 10_000.);
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.await p "x" 1;
      seen_at := Engine.now engine);
  ignore (Runtime.run rt);
  check "seen during the compute" true (!seen_at < 1_000.)

let test_read_spin_liveness () =
  (* P0's write of x stays buffered while it polls y; P1 writes y only
     after seeing x. The repeated read of y is what flushes x. *)
  let engine = Engine.create () in
  let rt = Runtime.create engine (Config.default ~procs:2) in
  let spins = ref 0 and seen = ref 0 in
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write p "x" 1;
      while !seen <> 1 && !spins < 10_000 do
        incr spins;
        seen := Runtime.read p ~label:Op.PRAM "y"
      done);
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.await p "x" 1;
      Runtime.write p "y" 1);
  ignore (Runtime.run rt);
  check_int "poll loop sees y" 1 !seen;
  check "poll loop ends in a round trip" true (!spins < 10_000)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "delivery"
    [
      ( "differential",
        [
          Alcotest.test_case "replica stream equivalence" `Quick
            test_replica_stream_differential;
          Alcotest.test_case "direct and buffered receive paths" `Quick
            test_direct_and_buffered_paths;
          Alcotest.test_case "random workloads, all modes" `Quick
            test_random_workloads_differential;
          Alcotest.test_case "multicast routing" `Quick test_multicast_differential;
          Alcotest.test_case "section-5 applications" `Quick test_apps_differential;
        ] );
      ( "batching",
        [
          qt batch_roundtrip;
          qt delta_entries_match;
          Alcotest.test_case "encoding directed" `Quick test_batch_encoding_directed;
          Alcotest.test_case "semantics preserved" `Quick
            test_batching_preserves_semantics;
          Alcotest.test_case "exit flush" `Quick test_exit_flush;
          Alcotest.test_case "compute flush" `Quick test_compute_flush;
          Alcotest.test_case "read-spin liveness" `Quick test_read_spin_liveness;
        ] );
    ]
