(* Runs a workload and turns its runs into the benchmark's metrics:
   end to end from untraced runs, per layer from a separate traced run
   whose spans are recorded by this module around the calls it makes
   into each layer. Gate violations are collected in [violations]; the
   command exits non-zero when any was seen. *)

module W = Workloads
module Runtime = W.Runtime
module Engine = W.Engine
module Api = W.Api
module Online = W.Online
module Placement = W.Placement
module Network = Mc_net.Network
module Stream = Mc_history.Stream
module History = Mc_history.History
module Registry = Mc_obs.Metrics.Registry

(* set by the self-test, which runs workloads without a report *)
let quiet = ref false
let say fmt = if !quiet then Printf.ifprintf stdout fmt else Printf.printf fmt

let violations : string list ref = ref []
let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt

let now_ns = Spans.now_ns
let secs ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* One run                                                              *)
(* ------------------------------------------------------------------ *)

(* What the simulator did: identical on every run of one input. *)
type sim = {
  sim_time : float;
  messages : int;
  bytes : int;
  events : int;
  ops : int;
  by_kind : (string * int) list;
  fetches : int;
  resident_max : int;
}

(* application memory and synchronization operations (the recorded
   ones): every counted op kind but local computation and the runtime's
   own fetches *)
let app_ops rt =
  List.fold_left
    (fun acc (k, n) -> if k = "compute" || k = "fetch" then acc else acc + n)
    0 (Runtime.op_counts rt)

let sim_of rt sim_time =
  let net = Runtime.network rt in
  let procs = (Runtime.config rt).W.Config.procs in
  let resident_max = ref 0 in
  for proc = 0 to procs - 1 do
    resident_max := max !resident_max (Runtime.resident_objects rt ~proc)
  done;
  {
    sim_time;
    messages = Network.messages_sent net;
    bytes = Network.bytes_sent net;
    events = Engine.events_processed (Runtime.engine rt);
    ops = app_ops rt;
    by_kind = Network.messages_by_kind net;
    fetches = Runtime.fetch_count rt;
    resident_max = !resident_max;
  }

(* A run keeps only what the metrics need, not its runtime: a runtime
   at the shard-scale point holds hundreds of MB. *)
type run = {
  sim : sim;
  online : Online.stats option;  (** the live checker's, if any *)
  series : int;  (** metric series in the runtime's registry *)
  histories : (History.t * int) list;
      (** when recorded: each instance's history and the failures its
          live checker reported *)
  setup_ns : int;
  phases : (string * int) list;  (** set-up phase -> host ns *)
  run_cpu : float;  (** CPU seconds of [Runtime.run] *)
  run_wall_ns : int;
  alloc_words : float;  (** words allocated during [Runtime.run] *)
  rates : float list;  (** ops per CPU-second of each instance's run *)
}

let allocated () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

(* Ops attempted and ops of failed runs, over the whole invocation. *)
let attempted = ref 0
let failed = ref 0

let run_instance ~label setup (mode : W.mode) =
  let phases = ref [] in
  let timed_mode =
    {
      mode with
      phase =
        (fun name f ->
          let t0 = now_ns () in
          let r = mode.phase name f in
          phases := (name, now_ns () - t0) :: !phases;
          r);
    }
  in
  Gc.full_major ();
  let t0 = now_ns () in
  let inst = mode.phase "setup" (fun () -> setup timed_mode) in
  let setup_ns = now_ns () - t0 in
  (* a full major cycle on both sides makes the major-heap allocation
     count exact; a minor collection alone leaves it approximate *)
  Gc.full_major ();
  let a0 = allocated () in
  let c0 = Sys.time () in
  let w0 = now_ns () in
  let outcome =
    match mode.phase "Runtime.run" (fun () -> Runtime.run inst.W.rt) with
    | t -> Ok t
    | exception e -> Error (Printexc.to_string e)
  in
  let w1 = now_ns () in
  let c1 = Sys.time () in
  Gc.full_major ();
  let a1 = allocated () in
  let outcome = Result.bind outcome (fun t -> Result.map (fun () -> t) (inst.verify ())) in
  let sim = sim_of inst.rt (Result.value ~default:nan outcome) in
  attempted := !attempted + sim.ops;
  (match outcome with
  | Ok _ -> ()
  | Error msg ->
    failed := !failed + sim.ops;
    violate "%s: %s" label msg);
  let checker = Runtime.online_checker inst.rt in
  {
    sim;
    online = Option.map Online.stats checker;
    series = Registry.series_count (Runtime.metrics inst.rt);
    histories =
      (if mode.record then
         [ (Runtime.history inst.rt,
            Option.fold ~none:0 ~some:(fun c -> List.length (Online.failures c)) checker) ]
       else []);
    setup_ns;
    phases = !phases;
    run_cpu = c1 -. c0;
    run_wall_ns = w1 - w0;
    alloc_words = a1 -. a0;
    rates = [ float_of_int sim.ops /. (c1 -. c0) ];
  }

let merge_sim a b =
  let by_kind =
    List.fold_left
      (fun acc (k, n) ->
        (k, n + Option.value ~default:0 (List.assoc_opt k acc)) :: List.remove_assoc k acc)
      a.by_kind b.by_kind
  in
  {
    sim_time = a.sim_time +. b.sim_time;
    messages = a.messages + b.messages;
    bytes = a.bytes + b.bytes;
    events = a.events + b.events;
    ops = a.ops + b.ops;
    by_kind = List.sort compare by_kind;
    fetches = a.fetches + b.fetches;
    resident_max = max a.resident_max b.resident_max;
  }

let merge_stats (a : Online.stats) (b : Online.stats) =
  {
    a with
    max_resident = max a.max_resident b.max_resident;
    live_summaries = max a.live_summaries b.live_summaries;
    chains = max a.chains b.chains;
    failure_count = a.failure_count + b.failure_count;
  }

(* One run: every instance of the workload, one after another, each
   after [before ()]. Counts and times add up over the instances;
   high-water marks take the max. *)
let run_once ?(label = "run") ?(before = ignore) (p : W.prepared) mode =
  match
    List.map
      (fun setup ->
        before ();
        run_instance ~label setup mode)
      p.setups
  with
  | [] -> invalid_arg "run_once: workload without instances"
  | first :: rest ->
    List.fold_left
      (fun a b ->
        {
          sim = merge_sim a.sim b.sim;
          online =
            (match (a.online, b.online) with
            | Some x, Some y -> Some (merge_stats x y)
            | x, None | None, x -> x);
          series = max a.series b.series;
          histories = a.histories @ b.histories;
          setup_ns = a.setup_ns + b.setup_ns;
          phases =
            List.map
              (fun (k, ns) -> (k, ns + Option.value ~default:0 (List.assoc_opt k b.phases)))
              a.phases;
          run_cpu = a.run_cpu +. b.run_cpu;
          run_wall_ns = a.run_wall_ns + b.run_wall_ns;
          alloc_words = a.alloc_words +. b.alloc_words;
          rates = a.rates @ b.rates;
        })
      first rest

let same_sim label (a : sim) (b : sim) =
  let check name x y = if x <> y then violate "%s: %s differs between runs" label name in
  check "sim_time_us" (Int64.bits_of_float a.sim_time) (Int64.bits_of_float b.sim_time);
  check "messages" a.messages b.messages;
  check "net_bytes" a.bytes b.bytes;
  check "sim.events" a.events b.events;
  check "ops" a.ops b.ops;
  check "fetches" a.fetches b.fetches

(* ------------------------------------------------------------------ *)
(* Instrumented Api                                                     *)
(* ------------------------------------------------------------------ *)

(* Sync waits: simulated time from call to return of the calls that
   block — barrier, await, read/write lock, and reads of unsubscribed
   locations, which a demand fetch serves (kind "fetch"). *)
type hook = { h : 'a. string -> wait:string option -> (unit -> 'a) -> 'a }

let instrument rt ~proc hk (a : Api.t) : Api.t =
  {
    a with
    read =
      (fun ?label loc ->
        let wait = if W.fetched rt ~proc loc then Some "fetch" else None in
        hk.h "read" ~wait (fun () -> a.read ?label loc));
    write = (fun loc v -> hk.h "write" ~wait:None (fun () -> a.write loc v));
    init_counter =
      (fun loc v -> hk.h "init_counter" ~wait:None (fun () -> a.init_counter loc v));
    decrement =
      (fun loc ~amount -> hk.h "decrement" ~wait:None (fun () -> a.decrement loc ~amount));
    read_lock = (fun l -> hk.h "read_lock" ~wait:(Some "read_lock") (fun () -> a.read_lock l));
    read_unlock = (fun l -> hk.h "read_unlock" ~wait:None (fun () -> a.read_unlock l));
    write_lock =
      (fun l -> hk.h "write_lock" ~wait:(Some "write_lock") (fun () -> a.write_lock l));
    write_unlock = (fun l -> hk.h "write_unlock" ~wait:None (fun () -> a.write_unlock l));
    barrier = (fun () -> hk.h "barrier" ~wait:(Some "barrier") a.barrier);
    await = (fun loc v -> hk.h "await" ~wait:(Some "await") (fun () -> a.await loc v));
    compute = (fun c -> hk.h "compute" ~wait:None (fun () -> a.compute c));
  }

let api_ops =
  [ "read"; "write"; "init_counter"; "decrement"; "read_lock"; "read_unlock";
    "write_lock"; "write_unlock"; "barrier"; "await"; "compute" ]

(* the calls that return without waiting on another node *)
let nonblocking_ops = [ "read"; "write"; "init_counter"; "decrement"; "compute" ]
let wait_kinds = [ "barrier"; "await"; "read_lock"; "write_lock"; "fetch" ]

type waits = (string, float list) Hashtbl.t

let add_wait (w : waits) kind v =
  Hashtbl.replace w kind (v :: Option.value ~default:[] (Hashtbl.find_opt w kind))

let waits_of (w : waits) kind = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt w kind))
let pooled (w : waits) = Array.concat (List.map (waits_of w) wait_kinds)

let sampling_mode (w : waits) =
  {
    W.plain with
    wrap =
      (fun rt ~proc f api ->
        let e = Runtime.engine rt in
        let h _ ~wait g =
          let t0 = Engine.now e in
          let r = g () in
          Option.iter (fun k -> add_wait w k (Engine.now e -. t0)) wait;
          r
        in
        f (instrument rt ~proc { h } api));
  }

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }
let count name n = metric name "count" (float_of_int n)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let median_of f xs = Pct.median (Array.of_list (List.map f xs))

(* ------------------------------------------------------------------ *)
(* End to end (untraced)                                                *)
(* ------------------------------------------------------------------ *)

(* Host speed. On a shared machine the same run's CPU time drifts by
   ±20% over tens of seconds as neighbours load the cores. A fixed
   kernel of this file's own runs before every instance of every timed
   repetition, and host times are divided by [(median kernel time /
   kernel_ref_s) ** kernel_elasticity]. The kernel does the simulator's kinds of work —
   an event heap with an int-keyed table, then a queue of messages that
   live long enough to be promoted, with a string-keyed table — and
   calls no code of the program, so a change to the program cannot
   move it. Of the kernels tried over four minutes on a 2-vCPU VM, this
   pair's time correlated best with the runs' (0.87 on cholesky-locks,
   0.71 on solver-checked, one repetition at a time). The runs do not
   slow one-for-one with the kernel: over 30 invocations on that VM (10
   seeds × 3 workloads) the log of their median run time rose 0.5 to
   0.6 per unit log of the kernel's median (correlation 0.69 to 0.96),
   hence the elasticity. *)
let kernel_ref_s = 0.1
let kernel_elasticity = 0.6

type message = { at : float; key : int; payload : int array }

let kernel () =
  let state = ref 12345 in
  let rnd () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  let heap = Array.make 8192 (0., 0) in
  let size = ref 0 in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  let push x =
    let i = ref !size in
    incr size;
    heap.(!i) <- x;
    while !i > 0 && fst heap.((!i - 1) / 2) > fst heap.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and moving = ref true in
    while !moving do
      let m = ref !i in
      List.iter
        (fun c -> if c < !size && fst heap.(c) < fst heap.(!m) then m := c)
        [ (2 * !i) + 1; (2 * !i) + 2 ];
      if !m = !i then moving := false
      else begin
        swap !i !m;
        i := !m
      end
    done;
    top
  in
  for i = 0 to 4000 do
    push (float_of_int (rnd () mod 1000), i)
  done;
  let queue = Queue.create () in
  for i = 0 to 30_000 do
    Queue.push { at = 0.; key = i; payload = Array.make 8 i } queue
  done;
  let by_int = Hashtbl.create 1024 and by_loc = Hashtbl.create 4096 in
  Gc.full_major ();
  let c0 = Sys.time () in
  for _ = 1 to 70_000 do
    let t, k = pop () in
    Hashtbl.replace by_int (k land 65535) (t, [ k ]);
    push (t +. float_of_int (rnd () mod 100), rnd () land 0xFFFFF)
  done;
  for i = 1 to 100_000 do
    let m = Queue.pop queue in
    let loc = "x:" ^ string_of_int (m.key land 4095) in
    Hashtbl.replace by_loc loc
      (m.payload.(i land 7) + Option.value ~default:0 (Hashtbl.find_opt by_loc loc));
    let payload = Array.copy m.payload in
    payload.(i land 7) <- rnd ();
    Queue.push { at = m.at +. 1.; key = rnd () land 0xFFFF; payload } queue
  done;
  Sys.time () -. c0

(* the held-out twin of a seed: gated in every invocation, never tuned on *)
let heldout seed = seed lxor 0x5EED

let end_to_end (w : W.t) ~size ~seed ~seconds =
  say "workload %s (seed %d, held-out seed %d)\n  %s\n%!" w.name seed
    (heldout seed) (w.params size);
  let p = w.prepare size ~seed in
  let waits = Hashtbl.create 8 in
  let first = run_once ~label:"wait-sampling run" p (sampling_mode waits) in
  (* the process's heap high-water after one run: later repetitions
     fragment the heap a little more each time *)
  let top_heap = float_of_int (Gc.quick_stat ()).top_heap_words in
  (* gates on one instance of the held-out seed *)
  let held = w.prepare size ~seed:(heldout seed) in
  ignore (run_once ~label:"held-out seed" { held with setups = [ List.hd held.setups ] } W.plain);
  let kernels = ref [] and extra = ref [] in
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let rec reps acc =
    if List.length acc >= 3 && now_ns () >= t_end then List.rev acc
    else begin
      (* more set-up samples where set-up is short, taken beside every
         repetition so they see the same host speed as the runs: up to
         20, within a twentieth of the previous run's time *)
      let until = now_ns () + match acc with r :: _ -> r.run_wall_ns / 20 | [] -> 0 in
      while List.length !extra < 20 * List.length acc && now_ns () < until do
        Gc.full_major ();
        let t0 = now_ns () in
        List.iter (fun setup -> ignore (setup W.plain)) p.setups;
        extra := (now_ns () - t0) :: !extra
      done;
      let r =
        run_once ~label:"timed run" ~before:(fun () -> kernels := kernel () :: !kernels) p W.plain
      in
      same_sim "timed runs" first.sim r.sim;
      (match acc with
      | prev :: _ when prev.alloc_words <> r.alloc_words ->
        violate "alloc_words differ between timed runs (%.0f vs %.0f)"
          prev.alloc_words r.alloc_words
      | _ -> ());
      reps (r :: acc)
    end
  in
  let runs = reps [] in
  let ops = first.sim.ops in
  let kernel_s = Pct.median (Array.of_list !kernels) in
  let speed = (kernel_s /. kernel_ref_s) ** kernel_elasticity in
  (* one rate per instance run: eight per repetition on cholesky-locks *)
  let rates = Array.of_list (List.concat_map (fun r -> r.rates) runs) in
  let setups =
    Array.of_list (List.map (fun ns -> secs ns) (List.map (fun r -> r.setup_ns) runs @ !extra))
  in
  let pool = pooled waits in
  let tail_name, tail = Pct.tail pool in
  let q1, q3 = Pct.quartiles rates in
  let s = first.sim in
  let metrics =
    [
      metric "ops_per_s" "ops/s" (Pct.median rates *. speed);
      metric "setup_s" "s" (Pct.median setups /. speed);
      metric "alloc_words_per_op" "words" (first.alloc_words /. float_of_int ops);
      metric "peak_heap_mb" "MB" (top_heap *. float_of_int (Sys.word_size / 8) /. 1e6);
      metric "sim_time_us" "us" s.sim_time;
      count "messages" s.messages;
      metric "net_bytes" "bytes" (float_of_int s.bytes);
      metric "sync_wait_p50_us" "us" (Pct.median pool);
      metric "sync_wait_tail_us" "us" tail;
    ]
  in
  say
    "  %d timed runs of %d ops; host speed: kernel median %.4f s against \
     %.3f s reference, host-speed factor %.4f\n\
    \  unscaled ops_per_s median %.1f (q1 %.1f, q3 %.1f); unscaled setup_s \
     median %.3g over %d set-ups\n\
    \  sync waits pooled over %d samples (%s); sync_wait_tail_us is the %s\n"
    (List.length runs) ops kernel_s kernel_ref_s speed (Pct.median rates) q1 q3
    (Pct.median setups) (Array.length setups) (Array.length pool)
    (String.concat ", "
       (List.filter_map
          (fun k ->
            let n = Array.length (waits_of waits k) in
            if n = 0 then None else Some (Printf.sprintf "%s %d" k n))
          wait_kinds))
    tail_name;
  metrics

(* ------------------------------------------------------------------ *)
(* Per layer (traced)                                                   *)
(* ------------------------------------------------------------------ *)

(* the message kinds the workloads send; anything else lands in "other" *)
let net_kinds =
  [ "update"; "shard_update"; "fetch_request"; "fetch_reply"; "lock_request";
    "lock_grant"; "unlock"; "unlock_ack"; "barrier_arrive"; "barrier_release" ]

let kind_bucket k = if List.mem k net_kinds then k else "other"

(* Spans: a rep's "setup" (children: the set-up phases) and "Runtime.run";
   under the run one "process" span per DSM process whose children are
   its Api calls; under each call a "suspended" span per fiber
   suspension. A process span's self time is the application's own code
   between calls; a call's self time is the op path. *)
let traced_mode spans (waits : waits) bytes_by_kind =
  let parent = ref (-1) in
  {
      W.record = false;
      observe = false;
      on_create =
        (fun rt ->
          Network.set_observer (Runtime.network rt)
            (fun ~src:_ ~dst:_ ~bytes ~kind ~seq:_ ~sent:_ ~recv:_ _ ->
              let k = kind_bucket kind in
              Hashtbl.replace bytes_by_kind k
                (bytes + Option.value ~default:0 (Hashtbl.find_opt bytes_by_kind k))));
      wrap =
        (fun rt ~proc f api ->
          let e = Runtime.engine rt in
          Spans.with_span spans ~parent:!parent ~proc ~cat:"app" "process" (fun ps ->
              let h name ~wait g =
                let t0 = Engine.now e in
                let r = Spans.call spans ~parent:ps.id ~proc ~cat:"op" name g in
                Option.iter (fun k -> add_wait waits k (Engine.now e -. t0)) wait;
                r
              in
              f (instrument rt ~proc { h } api)));
      phase =
        (fun name f ->
          let cat = if name = "setup" || name = "Runtime.run" then "rep" else "setup" in
          let outer = !parent in
          Spans.with_span spans ~parent:outer ~cat name (fun s ->
              parent := s.id;
              Fun.protect ~finally:(fun () -> parent := outer) f));
  }

let max_checker_procs = 61
let max_exported_spans = 100_000

let per_layer (w : W.t) ~size ~seed ~seconds ~trace_out =
  say "workload %s (seed %d), traced run\n  %s\n%!" w.name seed (w.params size);
  let p = w.prepare size ~seed in
  (* untraced runs (the base of the host-time ratios) alternate with
     traced ones, so both sides of a ratio see the same host speed *)
  let spans = Spans.create ~workload:w.name in
  let waits = Hashtbl.create 8 in
  let bytes_by_kind = Hashtbl.create 16 in
  let until = now_ns () + int_of_float (seconds *. 0.6e9) in
  let rec pairs plain traced =
    if List.length traced >= 2 && now_ns () >= until then (List.rev plain, List.rev traced)
    else begin
      let u = run_once p W.plain in
      Spans.set_rep spans (List.length traced);
      Hashtbl.reset bytes_by_kind;
      Hashtbl.reset waits;
      let t = run_once ~label:"traced run" p (traced_mode spans waits bytes_by_kind) in
      same_sim "traced vs untraced run" u.sim t.sim;
      pairs (u :: plain) (t :: traced)
    end
  in
  let plain, traced = pairs [] [] in
  let base = List.hd plain in
  List.iter (fun r -> same_sim "untraced runs" base.sim r.sim) plain;
  let plain_cpu = median_of (fun r -> r.run_cpu) plain in
  let traced_cpu = median_of (fun r -> r.run_cpu) traced in
  let bytes_total = Hashtbl.fold (fun _ b acc -> acc + b) bytes_by_kind 0 in
  if bytes_total <> base.sim.bytes then
    violate "per-kind bytes sum to %d, Network.bytes_sent is %d" bytes_total base.sim.bytes;
  (* observe=true: the cost of the runtime's own metric set *)
  let observed = run_once ~label:"observe run" p { W.plain with observe = true } in
  same_sim "observe vs untraced run" base.sim observed.sim;
  let series = observed.series in
  (* replay probes on one recorded history *)
  let recorded = run_once ~label:"recorded run" p { W.plain with record = true } in
  same_sim "recorded vs untraced run" base.sim recorded.sim;
  (* the probes replay the first instance's history *)
  let h, h_live_failures = List.hd recorded.histories in
  let hlen = float_of_int (max 1 (History.length h)) in
  Spans.set_rep spans (List.length traced);
  let timed_probe name f =
    let t0 = now_ns () in
    let r = Spans.with_span spans ~cat:"replay" name (fun _ -> f h) in
    (r, float_of_int (now_ns () - t0) /. hlen)
  in
  let noop =
    {
      Stream.on_finalize = ignore;
      on_retire = ignore;
      on_dead_value = (fun ~loc:_ ~value:_ -> ());
      on_end = ignore;
    }
  in
  let stream, stream_ns =
    timed_probe "Stream.feed_history" (fun h -> Stream.feed_history ~callbacks:noop h)
  in
  (* The checker keeps one consistency family per process plus the
     causal one, at most 62 in all, so it cannot replay a history of
     more processes; the probe reports 0 there. *)
  let online_ns =
    if History.procs h > max_checker_procs then begin
      say "  Online.check skipped: %d processes, the checker takes at most %d\n"
        (History.procs h) max_checker_procs;
      0.
    end
    else begin
      let offline, ns = timed_probe "Online.check" Online.check in
      let offline_failures = List.length (Online.failures offline) in
      if offline_failures <> h_live_failures then
        violate "offline Online.check reports %d failures, the live checker %d"
          offline_failures h_live_failures;
      ns
    end
  in
  (* live checker statistics of an untraced run *)
  let live = base.online in
  (* placement build probe: create + subscribe + every routed tree *)
  let placement_s, subscribers_mean =
    match p.routes with
    | None, _ -> (0., 0.)
    | Some build, routes ->
      Gc.full_major ();
      let t0 = now_ns () in
      let pl = build () in
      List.iter
        (fun (shard, root) ->
          let rec walk node = List.iter walk (Placement.children pl ~shard ~root ~node) in
          walk root)
        routes;
      let ns = now_ns () - t0 in
      let shards = Placement.shards pl in
      let subs = ref 0 in
      for shard = 0 to shards - 1 do
        subs := !subs + List.length (Placement.subscribers pl ~shard)
      done;
      (secs ns, float_of_int !subs /. float_of_int shards)
  in
  (* span accounting *)
  let all = Spans.spans spans in
  let self = Spans.self_times all in
  let self_of s = Option.value ~default:0 (Hashtbl.find_opt self s.Spans.id) in
  let sum_self rep cat =
    List.fold_left
      (fun acc s -> if s.Spans.rep = rep && s.cat = cat then acc + self_of s else acc)
      0 all
  in
  let op_path = List.mapi (fun i _ -> sum_self i "op") traced in
  let app = List.mapi (fun i _ -> sum_self i "app") traced in
  let event_path =
    List.map2 (fun r (o, a) -> r.run_wall_ns - o - a) traced (List.combine op_path app)
  in
  let med_ns l = Pct.median (Array.of_list (List.map float_of_int l)) /. 1e9 in
  let last_rep = List.length traced - 1 in
  let calls name =
    List.filter (fun s -> s.Spans.rep = last_rep && s.cat = "op" && s.name = name) all
  in
  let call_ns name = Array.of_list (List.map (fun s -> float_of_int (self_of s)) (calls name)) in
  let phase_med name =
    median_of (fun r -> secs (Option.value ~default:0 (List.assoc_opt name r.phases))) plain
  in
  (match trace_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    (* the last traced run and the replay probes, capped: a run of
       cholesky-locks alone has over half a million spans *)
    let kept = ref 0 in
    let keep s =
      s.Spans.rep > last_rep
      || s.rep = last_rep
         && (incr kept;
             !kept <= max_exported_spans)
    in
    Spans.write_chrome spans ~self ~keep oc;
    close_out oc;
    say "  chrome trace: %s (the replay probes and the first %d of %d spans of \
         the last traced run)\n"
      path (min !kept max_exported_spans) !kept);
  let s = base.sim in
  let ops = float_of_int (max 1 s.ops) in
  let by_kind k =
    List.fold_left (fun acc (k', n) -> if kind_bucket k' = k then acc + n else acc) 0 s.by_kind
  in
  let tail a = snd (Pct.tail a) in
  let online_stat f = match live with Some st -> f st | None -> 0 in
  let metrics =
    [
      count "sim.events" s.events;
      metric "sim.events_per_op" "events/op" (float_of_int s.events /. ops);
      metric "sim.host_ns_per_event" "ns" (plain_cpu *. 1e9 /. float_of_int (max 1 s.events));
    ]
    @ List.concat_map
        (fun k ->
          [
            count ("net.msgs." ^ k) (by_kind k);
            metric ("net.bytes." ^ k) "bytes"
              (float_of_int (Option.value ~default:0 (Hashtbl.find_opt bytes_by_kind k)));
          ])
        (net_kinds @ [ "other" ])
    @ List.map (fun op -> count ("dsm.calls." ^ op) (List.length (calls op))) api_ops
    @ List.concat_map
        (fun op ->
          let a = call_ns op in
          [ metric ("dsm.call_ns_p50." ^ op) "ns" (Pct.median a);
            metric ("dsm.call_ns_tail." ^ op) "ns" (tail a) ])
        nonblocking_ops
    @ List.concat_map
        (fun k ->
          let a = waits_of waits k in
          [ metric ("dsm.wait_us_p50." ^ k) "us" (Pct.median a);
            metric ("dsm.wait_us_tail." ^ k) "us" (tail a) ])
        wait_kinds
    @ [
        metric "dsm.op_path_s" "s" (med_ns op_path);
        metric "app.host_s" "s" (med_ns app);
        metric "dsm.event_path_s" "s" (med_ns event_path);
        count "dsm.resident_objects_max" s.resident_max;
        count "dsm.fetches" s.fetches;
        metric "dsm.create_s" "s" (phase_med "runtime.create");
        metric "dsm.spawn_s" "s" (phase_med "spawn");
        metric "stream.replay_ns_per_op" "ns" stream_ns;
        count "stream.max_resident" (Stream.max_resident stream);
        metric "online.replay_ns_per_op" "ns" online_ns;
        count "online.window_high_water" (online_stat (fun st -> st.max_resident));
        count "online.live_summaries" (online_stat (fun st -> st.live_summaries));
        count "online.chains" (online_stat (fun st -> st.chains));
        count "online.failures" (online_stat (fun st -> st.failure_count));
        metric "placement.build_s" "s" placement_s;
        metric "placement.subscribers_mean" "count" subscribers_mean;
        metric "obs.observe_overhead" "ratio" (observed.run_cpu /. plain_cpu);
        count "obs.series" series;
        metric "trace.overhead" "ratio" (traced_cpu /. plain_cpu);
      ]
  in
  say
    "  %d untraced and %d traced runs of %d ops; replayed history %d ops; \
     tracing overhead x%.2f CPU\n\
    \  run wall %.3f s = op path %.3f s + application %.3f s + event path \
     (residual) %.3f s\n"
    (List.length plain) (List.length traced) s.ops (History.length h)
    (traced_cpu /. plain_cpu)
    (med_ns (List.map (fun r -> r.run_wall_ns) traced))
    (med_ns op_path) (med_ns app) (med_ns event_path);
  metrics
