(* Direct unit tests of the protocol agents: the lock manager and the
   barrier manager state machines, exercised without the network. *)

module Lock_manager = Mc_dsm.Lock_manager
module Barrier_manager = Mc_dsm.Barrier_manager
module Protocol = Mc_dsm.Protocol

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* collect outgoing messages instead of sending them. [drain log] returns
   everything sent so far in order; [take log] returns only the messages
   sent since the previous [take]. *)
type 'a log = { mutable entries : 'a list; mutable consumed : int }

let collector () =
  let log = { entries = []; consumed = 0 } in
  let send ~dst msg = log.entries <- (dst, msg) :: log.entries in
  (log, send)

let drain log = List.rev log.entries

let take log =
  let all = drain log in
  let fresh = List.filteri (fun i _ -> i >= log.consumed) all in
  log.consumed <- List.length all;
  fresh

let lock_request proc lock write = Protocol.Lock_request { proc; lock; write }

let unlock proc lock write ~n =
  Protocol.Unlock_msg
    { proc; lock; write; vc = Array.make n 0; write_set = []; values = [] }

(* ------------------------------------------------------------------ *)
(* Lock manager                                                        *)
(* ------------------------------------------------------------------ *)

let test_write_lock_fifo () =
  let log, send = collector () in
  let m = Lock_manager.create ~n:3 ~demand:false ~send in
  Lock_manager.handle m ~src:0 (lock_request 0 "m" true);
  Lock_manager.handle m ~src:1 (lock_request 1 "m" true);
  Lock_manager.handle m ~src:2 (lock_request 2 "m" true);
  (* only the first request is granted *)
  (match drain log with
  | [ (0, Protocol.Lock_grant { seq = 0; write = true; _ }) ] -> ()
  | msgs -> Alcotest.failf "expected one grant to p0, got %d messages" (List.length msgs));
  check_int "one grant" 1 (Lock_manager.grants_issued m);
  (* releasing grants the next in FIFO order *)
  Lock_manager.handle m ~src:0 (unlock 0 "m" true ~n:3);
  (match drain log with
  | [ _; (0, Protocol.Unlock_ack { seq = 1; _ }); (1, Protocol.Lock_grant { seq = 2; _ }) ]
    -> ()
  | msgs -> Alcotest.failf "unexpected sequence (%d messages)" (List.length msgs));
  check_int "two grants" 2 (Lock_manager.grants_issued m)

let test_readers_granted_together () =
  let log, send = collector () in
  let m = Lock_manager.create ~n:4 ~demand:false ~send in
  Lock_manager.handle m ~src:0 (lock_request 0 "m" false);
  Lock_manager.handle m ~src:1 (lock_request 1 "m" false);
  Lock_manager.handle m ~src:2 (lock_request 2 "m" true);
  Lock_manager.handle m ~src:3 (lock_request 3 "m" false);
  (* both leading readers granted; the writer blocks; the trailing reader
     queues behind the writer (strict FIFO, no writer starvation) *)
  let grants =
    List.filter_map
      (function dst, Protocol.Lock_grant _ -> Some dst | _ -> None)
      (drain log)
  in
  Alcotest.(check (list int)) "two readers in" [ 0; 1 ] grants;
  (* releasing both readers lets the writer in, then the last reader *)
  Lock_manager.handle m ~src:0 (unlock 0 "m" false ~n:4);
  Lock_manager.handle m ~src:1 (unlock 1 "m" false ~n:4);
  let grants =
    List.filter_map
      (function dst, Protocol.Lock_grant _ -> Some dst | _ -> None)
      (drain log)
  in
  Alcotest.(check (list int)) "writer after readers" [ 0; 1; 2 ] grants;
  Lock_manager.handle m ~src:2 (unlock 2 "m" true ~n:4);
  let grants =
    List.filter_map
      (function dst, Protocol.Lock_grant _ -> Some dst | _ -> None)
      (drain log)
  in
  Alcotest.(check (list int)) "trailing reader last" [ 0; 1; 2; 3 ] grants

let test_dep_accumulates_across_holders () =
  let log, send = collector () in
  let m = Lock_manager.create ~n:3 ~demand:false ~send in
  Lock_manager.handle m ~src:0 (lock_request 0 "m" true);
  Lock_manager.handle m ~src:0
    (Protocol.Unlock_msg
       { proc = 0; lock = "m"; write = true; vc = [| 5; 0; 0 |]; write_set = [];
         values = [] });
  Lock_manager.handle m ~src:1 (lock_request 1 "m" true);
  Lock_manager.handle m ~src:1
    (Protocol.Unlock_msg
       { proc = 1; lock = "m"; write = true; vc = [| 3; 7; 0 |]; write_set = [];
         values = [] });
  Lock_manager.handle m ~src:2 (lock_request 2 "m" true);
  let final_grant =
    List.rev (drain log) |> List.find_map (function
      | 2, Protocol.Lock_grant { dep; _ } -> Some dep
      | _ -> None)
  in
  (* the third holder must wait for the max of both releases *)
  Alcotest.(check (array int)) "accumulated dependency clock" [| 5; 7; 0 |]
    (Option.get final_grant)

let test_demand_write_sets_forwarded () =
  let log, send = collector () in
  let m = Lock_manager.create ~n:2 ~demand:true ~send in
  Lock_manager.handle m ~src:0 (lock_request 0 "m" true);
  Lock_manager.handle m ~src:0
    (Protocol.Unlock_msg
       {
         proc = 0;
         lock = "m";
         write = true;
         vc = [| 4; 0 |];
         write_set = [ "a"; "b" ];
         values = [];
       });
  Lock_manager.handle m ~src:1 (lock_request 1 "m" true);
  let invalid =
    List.rev (drain log) |> List.find_map (function
      | 1, Protocol.Lock_grant { invalid; _ } -> Some invalid
      | _ -> None)
  in
  let invalid = List.sort compare (Option.get invalid) in
  (match invalid with
  | [ ("a", dep_a); ("b", _) ] ->
    Alcotest.(check (array int)) "write-set dep" [| 4; 0 |] dep_a
  | _ -> Alcotest.fail "expected invalid entries for a and b");
  ()

let test_lock_errors () =
  let _, send = collector () in
  let m = Lock_manager.create ~n:2 ~demand:false ~send in
  (match Lock_manager.handle m ~src:0 (unlock 0 "m" true ~n:2) with
  | () -> Alcotest.fail "expected rejection of unmatched unlock"
  | exception Invalid_argument _ -> ());
  match Lock_manager.handle m ~src:1 (lock_request 0 "m" true) with
  | () -> Alcotest.fail "expected rejection of forged origin"
  | exception Invalid_argument _ -> ()

let test_independent_locks () =
  let log, send = collector () in
  let m = Lock_manager.create ~n:2 ~demand:false ~send in
  Lock_manager.handle m ~src:0 (lock_request 0 "a" true);
  Lock_manager.handle m ~src:1 (lock_request 1 "b" true);
  let grants =
    List.filter_map
      (function dst, Protocol.Lock_grant _ -> Some dst | _ -> None)
      (drain log)
  in
  Alcotest.(check (list int)) "different locks do not interfere" [ 0; 1 ] grants

(* ------------------------------------------------------------------ *)
(* Barrier manager                                                     *)
(* ------------------------------------------------------------------ *)

let arrive ?(sent = []) proc episode vc members =
  Protocol.Barrier_arrive { proc; episode; vc; members; sent }

(* the combiner at node 0, whose local deliveries are ignored *)
let root_manager ~n send =
  Barrier_manager.create ~id:0 ~n ~send
    ~deliver:(fun ~members:_ ~episode:_ ~dep:_ ~expect:_ -> ())

let test_barrier_release_on_full_arrival () =
  let log, send = collector () in
  let m = root_manager ~n:3 send in
  Barrier_manager.handle m ~src:0 (arrive 0 0 [| 1; 0; 0 |] []);
  Barrier_manager.handle m ~src:1 (arrive 1 0 [| 0; 2; 0 |] []);
  check_int "not released yet" 0 (List.length (drain log));
  Barrier_manager.handle m ~src:2 (arrive 2 0 [| 0; 0; 3 |] []);
  let releases = drain log in
  check_int "everyone released" 3 (List.length releases);
  List.iter
    (fun (_, msg) ->
      match msg with
      | Protocol.Barrier_release { dep; episode = 0; _ } ->
        Alcotest.(check (array int)) "dep is the pointwise max" [| 1; 2; 3 |] dep
      | _ -> Alcotest.fail "expected a release")
    releases;
  check_int "episode counted" 1 (Barrier_manager.episodes_released m)

let test_barrier_interleaved_episodes () =
  (* a fast process may arrive at episode 1 before a slow one reaches
     episode 0 *)
  let log, send = collector () in
  let m = root_manager ~n:2 send in
  Barrier_manager.handle m ~src:0 (arrive 0 0 [| 0; 0 |] []);
  Barrier_manager.handle m ~src:1 (arrive 1 0 [| 0; 0 |] []);
  check_int "episode 0 released" 2 (List.length (take log));
  Barrier_manager.handle m ~src:0 (arrive 0 1 [| 1; 0 |] []);
  check_int "episode 1 waits" 0 (List.length (take log));
  Barrier_manager.handle m ~src:1 (arrive 1 1 [| 0; 1 |] []);
  check_int "episode 1 released" 2 (List.length (take log))

let test_barrier_subset_release () =
  let log, send = collector () in
  let m = root_manager ~n:4 send in
  Barrier_manager.handle m ~src:1 (arrive 1 0 [| 0; 1; 0; 0 |] [ 1; 3 ]);
  check_int "waits for the other member" 0 (List.length (drain log));
  Barrier_manager.handle m ~src:3 (arrive 3 0 [| 0; 0; 0; 4 |] [ 1; 3 ]);
  let releases = drain log in
  let recipients = List.map fst releases |> List.sort compare in
  Alcotest.(check (list int)) "only members released" [ 1; 3 ] recipients

let test_barrier_errors () =
  let _, send = collector () in
  let m = root_manager ~n:2 send in
  Barrier_manager.handle m ~src:0 (arrive 0 0 [| 0; 0 |] []);
  (match Barrier_manager.handle m ~src:0 (arrive 0 0 [| 0; 0 |] []) with
  | () -> Alcotest.fail "expected double-arrival rejection"
  | exception Invalid_argument _ -> ());
  (match Barrier_manager.handle m ~src:1 (arrive 0 1 [| 0; 0 |] []) with
  | () -> Alcotest.fail "expected forged-origin rejection"
  | exception Invalid_argument _ -> ());
  match Barrier_manager.handle m ~src:0 (arrive 0 0 [| 0; 0 |] [ 1 ]) with
  | () -> Alcotest.fail "expected non-member rejection"
  | exception Invalid_argument _ -> ()

(* count-vector mode: the release tells each process how many updates to
   expect from each peer (Section 6) *)
let test_barrier_count_vectors () =
  let log, send = collector () in
  let m = root_manager ~n:2 send in
  Barrier_manager.handle m ~src:0 (arrive ~sent:[ (1, 0, 3) ] 0 0 [||] []);
  Barrier_manager.handle m ~src:1 (arrive ~sent:[ (0, 1, 5) ] 1 0 [||] []);
  let expects =
    List.filter_map
      (function
        | dst, Protocol.Barrier_release { expect; dep; _ } ->
          Alcotest.(check (array int)) "no clock in count mode" [||] dep;
          Some (dst, expect)
        | _ -> None)
      (drain log)
    |> List.sort compare
  in
  match expects with
  | [ (0, e0); (1, e1) ] ->
    Alcotest.(check (list (triple int int int))) "p0 expects 5 from p1"
      [ (0, 1, 5) ] e0;
    Alcotest.(check (list (triple int int int))) "p1 expects 3 from p0"
      [ (1, 0, 3) ] e1
  | _ -> Alcotest.fail "expected two releases with count vectors"

(* ------------------------------------------------------------------ *)
(* Barrier combining tree                                              *)
(* ------------------------------------------------------------------ *)

(* [n] combiners wired through one FIFO queue. Loopback messages are
   delivered like the network's, but only messages between distinct
   nodes are counted. *)
type tree = {
  managers : Barrier_manager.t array;
  queue : (int * int * Protocol.msg) Queue.t;
  mutable ups : int;
  mutable downs : int;
  mutable depth3 : bool; (* some arrival climbed from a depth-3 node *)
  delivered : (int * int, int array * (int * int) list) Hashtbl.t;
      (* (proc, episode) -> (dep, expect); re-delivery fails the test *)
}

let depth i =
  let rec go i d =
    if i = 0 then d
    else go (Mc_util.Heap_tree.parent ~fanout:Barrier_manager.fanout i) (d + 1)
  in
  go i 0

let make_tree n =
  let queue = Queue.create () in
  let delivered = Hashtbl.create n in
  {
    managers =
      Array.init n (fun id ->
          Barrier_manager.create ~id ~n
            ~send:(fun ~dst msg -> Queue.push (id, dst, msg) queue)
            ~deliver:(fun ~members:_ ~episode ~dep ~expect ->
              if Hashtbl.mem delivered (id, episode) then
                Alcotest.failf "process %d released twice at episode %d" id
                  episode;
              Hashtbl.add delivered (id, episode) (dep, List.sort compare expect)));
    queue;
    ups = 0;
    downs = 0;
    depth3 = false;
    delivered;
  }

let pump tr =
  while not (Queue.is_empty tr.queue) do
    let src, dst, msg = Queue.pop tr.queue in
    (if src <> dst then
       match msg with
       | Protocol.Barrier_arrive _ ->
         tr.ups <- tr.ups + 1;
         if depth src = 3 then tr.depth3 <- true
       | _ -> tr.downs <- tr.downs + 1);
    Barrier_manager.handle tr.managers.(dst) ~src msg
  done

(* process [p] arrives: its message goes to its first hop *)
let tree_arrive tr ~n ?(vc = [||]) ?(sent = []) p episode =
  let dst = Barrier_manager.first_hop ~n ~members:[] p in
  Queue.push (p, dst, arrive ~sent p episode vc []) tr.queue

(* a deterministic sparse sending pattern that grows with the episode;
   every fifth process also broadcasts *)
let pattern ~n ~episode p =
  let a = (p + 1) mod n and b = ((7 * p) + 3) mod n in
  List.filter
    (fun (r, _, _) -> r <> p)
    ((a, p, p + 1 + episode) :: (if b <> a then [ (b, p, 2 + episode) ] else []))
  @ if p mod 5 = 0 then [ (Protocol.everyone, p, 1 + (p mod 3) + episode) ] else []

let test_tree_counts () =
  List.iter
    (fun n ->
      let tr = make_tree n in
      for episode = 0 to 1 do
        tr.ups <- 0;
        tr.downs <- 0;
        let sent = Array.init n (fun p -> pattern ~n ~episode p) in
        (* arrive from the highest id down, so inner nodes hear from
           their children before their own process *)
        for p = n - 1 downto 0 do
          tree_arrive tr ~n ~sent:sent.(p) p episode
        done;
        pump tr;
        let label what = Printf.sprintf "P=%d episode %d: %s" n episode what in
        check_int (label "arrivals") (n - 1) tr.ups;
        check_int (label "releases") (n - 1) tr.downs;
        (* receiver -> sender -> count, broadcasts added to every other
           process's entry *)
        let expected = Array.init n (fun _ -> Hashtbl.create 4) in
        let add r s c =
          let prev = Option.value ~default:0 (Hashtbl.find_opt expected.(r) s) in
          Hashtbl.replace expected.(r) s (prev + c)
        in
        Array.iter
          (List.iter (fun (r, s, c) ->
               if r = Protocol.everyone then
                 for r' = 0 to n - 1 do
                   if r' <> s then add r' s c
                 done
               else add r s c))
          sent;
        for p = 0 to n - 1 do
          match Hashtbl.find_opt tr.delivered (p, episode) with
          | Some (_, expect) ->
            Alcotest.(check (list (pair int int)))
              (label (Printf.sprintf "expect of %d" p))
              (List.sort compare (List.of_seq (Hashtbl.to_seq expected.(p))))
              expect
          | None -> Alcotest.failf "P=%d: process %d not released" n p
        done
      done;
      check_int "root released both" 2
        (Barrier_manager.episodes_released tr.managers.(0));
      check (Printf.sprintf "P=%d depth 3 used" n) (n > 1057) tr.depth3)
    [ 33; 34; 100; 1100 ]

let test_tree_star_and_clocks () =
  (* P <= fanout + 1 is a star at node 0; clocks combine by max *)
  List.iter
    (fun n ->
      let tr = make_tree n in
      let via_root = ref true in
      for p = n - 1 downto 0 do
        let vc = Array.init n (fun j -> if j = p then p + 1 else 0) in
        tree_arrive tr ~n ~vc p 0
      done;
      Queue.iter
        (fun (src, dst, _) -> if src <> dst && dst <> 0 then via_root := false)
        tr.queue;
      pump tr;
      check (Printf.sprintf "P=%d star" n) (n <= 33) !via_root;
      let all = Array.init n (fun j -> j + 1) in
      for p = 0 to n - 1 do
        match Hashtbl.find_opt tr.delivered (p, 0) with
        | Some (dep, []) ->
          Alcotest.(check (array int)) "dep is the global max" all dep
        | _ -> Alcotest.failf "P=%d: process %d lacks its clock release" n p
      done)
    [ 33; 34; 100 ]

let test_tree_interleaved () =
  (* children of node 1 race into episode 1 before node 1's own process
     has reached episode 0 *)
  let n = 100 in
  let tr = make_tree n in
  let kids = Mc_util.Heap_tree.children ~fanout:Barrier_manager.fanout ~size:n 1 in
  for p = 0 to n - 1 do
    if p <> 1 then tree_arrive tr ~n p 0
  done;
  List.iter (fun p -> tree_arrive tr ~n p 1) kids;
  pump tr;
  check_int "episode 0 held at node 1" 0 (Hashtbl.length tr.delivered);
  tree_arrive tr ~n 1 0;
  pump tr;
  check_int "episode 0 released everywhere" n (Hashtbl.length tr.delivered);
  for p = 0 to n - 1 do
    if not (List.mem p kids) then tree_arrive tr ~n p 1
  done;
  pump tr;
  check_int "episode 1 released everywhere" (2 * n) (Hashtbl.length tr.delivered);
  check_int "two episodes at the root" 2
    (Barrier_manager.episodes_released tr.managers.(0))

let test_tree_rejections () =
  let n = 100 in
  let tr = make_tree n in
  let m1 = tr.managers.(1) in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "expected %s rejection" what
    | exception Invalid_argument _ -> ()
  in
  (* node 33 is a child of node 1, node 70 a child of node 2 *)
  Barrier_manager.handle m1 ~src:33 (arrive ~sent:[ (0, 33, 1) ] 33 0 [||] []);
  rejects "duplicate" (fun () ->
      Barrier_manager.handle m1 ~src:33 (arrive 33 0 [||] []));
  rejects "forged" (fun () ->
      Barrier_manager.handle m1 ~src:34 (arrive 35 0 [||] []));
  rejects "non-child" (fun () ->
      Barrier_manager.handle m1 ~src:70 (arrive 70 0 [||] []));
  rejects "subset off the root" (fun () ->
      Barrier_manager.handle m1 ~src:34 (arrive 34 0 [||] [ 1; 34 ]));
  rejects "foreign count entry" (fun () ->
      Barrier_manager.handle m1 ~src:34 (arrive ~sent:[ (0, 70, 1) ] 34 0 [||] []));
  rejects "release from a non-parent" (fun () ->
      Barrier_manager.handle m1 ~src:2
        (Protocol.Barrier_release
           { episode = 0; members = []; dep = [||]; expect = [] }));
  check_int "nothing forwarded" 0 (Queue.length tr.queue)

(* the modelled size of each barrier message flavour *)
let test_barrier_wire_bytes () =
  let cfg = Mc_dsm.Config.default ~procs:100 in
  let size ~dst msg = Mc_dsm.Runtime.control_wire_bytes cfg ~dst msg in
  let c = cfg.Mc_dsm.Config.control_bytes in
  let release ?(dep = [||]) expect =
    Protocol.Barrier_release { episode = 0; members = []; dep; expect }
  in
  check_int "clock arrival" (c + 800)
    (size ~dst:0 (arrive 5 0 (Array.make 100 0) []));
  check_int "own count entries" (c + 32)
    (size ~dst:1 (arrive ~sent:[ (2, 40, 1); (3, 40, 4) ] 40 0 [||] []));
  check_int "forwarded count entries" (c + 16 + 48)
    (size ~dst:0 (arrive ~sent:[ (2, 1, 1); (3, 40, 4); (5, 41, 2) ] 1 0 [||] []));
  check_int "clock release" (c + 800) (size ~dst:7 (release ~dep:(Array.make 100 0) []));
  check_int "own expect entries" (c + 32)
    (size ~dst:40 (release [ (40, 2, 1); (40, 3, 4) ]));
  check_int "subtree expect entries" (c + 16 + 72)
    (size ~dst:1 (release [ (1, 0, 2); (33, 2, 1); (40, 3, 4); (64, 5, 1) ]));
  check_int "own broadcast count" (c + 16)
    (size ~dst:1 (arrive ~sent:[ (Protocol.everyone, 40, 3) ] 40 0 [||] []));
  check_int "broadcast counts in a release" (c + 48)
    (size ~dst:40 (release [ (Protocol.everyone, 2, 1); (Protocol.everyone, 3, 4) ]));
  check_int "empty count arrival" c (size ~dst:0 (arrive 9 0 [||] []))

(* entry mode: guarded values accumulate at the manager and ride grants *)
let test_entry_values_ride_grants () =
  let log, send = collector () in
  let m = Lock_manager.create ~n:2 ~demand:false ~send in
  Lock_manager.handle m ~src:0 (lock_request 0 "m" true);
  Lock_manager.handle m ~src:0
    (Protocol.Unlock_msg
       {
         proc = 0;
         lock = "m";
         write = true;
         vc = [| 0; 0 |];
         write_set = [ "g" ];
         values = [ ("g", 42, 123) ];
       });
  Lock_manager.handle m ~src:1 (lock_request 1 "m" true);
  let grant_values =
    List.rev (drain log) |> List.find_map (function
      | 1, Protocol.Lock_grant { values; _ } -> Some values
      | _ -> None)
  in
  match Option.get grant_values with
  | [ ("g", 42, 123) ] -> ()
  | _ -> Alcotest.fail "expected the guarded value on the grant"

let () =
  Alcotest.run "mc_dsm.managers"
    [
      ( "lock_manager",
        [
          Alcotest.test_case "write locks FIFO" `Quick test_write_lock_fifo;
          Alcotest.test_case "readers granted together" `Quick
            test_readers_granted_together;
          Alcotest.test_case "dependency clock accumulates" `Quick
            test_dep_accumulates_across_holders;
          Alcotest.test_case "demand write-sets forwarded" `Quick
            test_demand_write_sets_forwarded;
          Alcotest.test_case "error handling" `Quick test_lock_errors;
          Alcotest.test_case "independent locks" `Quick test_independent_locks;
          Alcotest.test_case "entry values ride grants" `Quick
            (fun () -> test_entry_values_ride_grants ());
        ] );
      ( "barrier_manager",
        [
          Alcotest.test_case "release on full arrival" `Quick
            test_barrier_release_on_full_arrival;
          Alcotest.test_case "interleaved episodes" `Quick
            test_barrier_interleaved_episodes;
          Alcotest.test_case "subset release" `Quick test_barrier_subset_release;
          Alcotest.test_case "count vectors (Sec. 6)" `Quick
            test_barrier_count_vectors;
          Alcotest.test_case "error handling" `Quick test_barrier_errors;
          Alcotest.test_case "wire bytes per flavour" `Quick
            test_barrier_wire_bytes;
        ] );
      ( "barrier_tree",
        [
          Alcotest.test_case "counts at P=33/34/100/1100" `Quick
            test_tree_counts;
          Alcotest.test_case "star and clock max" `Quick
            test_tree_star_and_clocks;
          Alcotest.test_case "interleaved episodes" `Quick test_tree_interleaved;
          Alcotest.test_case "inner combiner rejections" `Quick
            test_tree_rejections;
        ] );
    ]
