module Engine = Mc_sim.Engine

(* One directed channel, made on its first send or pause: the network
   holds no per-pair state for pairs that never communicate. *)
type 'msg link = {
  mutable last_delivery : float; (* clamp deliveries to preserve FIFO *)
  mutable paused : bool;
  mutable held : (int * string * 'msg) list; (* reversed: (bytes, kind, msg) *)
}

type obs = {
  reg : Mc_obs.Metrics.Registry.t;
  c_msgs : Mc_obs.Metrics.Counter.t;
  c_bytes : Mc_obs.Metrics.Counter.t;
  h_latency : Mc_obs.Metrics.Histogram.t;
  kind_counters : (string, Mc_obs.Metrics.Counter.t) Hashtbl.t;
}

type 'msg observer =
  src:int -> dst:int -> bytes:int -> kind:string -> seq:int -> sent:float ->
  recv:float -> 'msg -> unit

type 'msg t = {
  engine : Engine.t;
  n : int;
  latency : Latency.t;
  send_cost : float;
  byte_cost : float;
  send_free : float array; (* next time each node's sender is free *)
  handlers : (src:int -> 'msg -> unit) option array;
  (* the channel table: open addressing on [src * n + dst] with linear
     probing, at most half full, so a send usually costs one multiply
     and one probe. [link_keys] holds -1 in a free slot. *)
  mutable link_keys : int array;
  mutable links : 'msg link array;
  mutable n_links : int;
  mutable messages : int;
  mutable bytes : int;
  kinds : Mc_util.Stats.Counters.t;
  (* [kinds] cells keyed by the physical kind string: senders pass
     literals, so a hit costs a pointer scan instead of a string hash *)
  mutable kind_cells : (string * int ref) list;
  mutable latencies : Mc_util.Stats.Summary.t;
  mutable obs : obs option;
  mutable observer : 'msg observer option;
}

let create engine ~nodes ~latency ?(send_cost = 0.) ?(byte_cost = 0.) () =
  if nodes <= 0 then invalid_arg "Network.create: need at least one node";
  if send_cost < 0. || byte_cost < 0. then
    invalid_arg "Network.create: negative cost";
  {
    engine;
    n = nodes;
    latency;
    send_cost;
    byte_cost;
    send_free = Array.make nodes 0.;
    handlers = Array.make nodes None;
    link_keys = Array.make 16 (-1);
    (* free slots share one filler record, never read *)
    links = Array.make 16 { last_delivery = 0.; paused = false; held = [] };
    n_links = 0;
    messages = 0;
    bytes = 0;
    kinds = Mc_util.Stats.Counters.create ();
    kind_cells = [];
    latencies = Mc_util.Stats.Summary.create ();
    obs = None;
    observer = None;
  }

let attach_metrics t reg =
  let module M = Mc_obs.Metrics in
  t.obs <-
    Some
      {
        reg;
        c_msgs =
          M.Registry.counter reg ~help:"messages transmitted" "mc_net_messages_total";
        c_bytes = M.Registry.counter reg ~help:"bytes transmitted" "mc_net_bytes_total";
        h_latency =
          M.Registry.histogram reg ~help:"end-to-end message latency (us)"
            "mc_net_latency_us";
        kind_counters = Hashtbl.create 8;
      }

let set_observer t f = t.observer <- Some f

let nodes t = t.n
let engine t = t.engine

let check_node t id =
  if id < 0 || id >= t.n then
    invalid_arg (Printf.sprintf "Network: node %d out of range 0..%d" id (t.n - 1))

let set_handler t node f =
  check_node t node;
  t.handlers.(node) <- Some f

let deliver t ~src ~dst msg =
  match t.handlers.(dst) with
  | Some f -> f ~src msg
  | None ->
    invalid_arg (Printf.sprintf "Network: node %d has no handler installed" dst)

let kind_cell t kind =
  match List.assq kind t.kind_cells with
  | cell -> cell
  | exception Not_found ->
    (* an equal string at a new address replaces its entry, so the cache
       holds at most one entry per distinct kind *)
    let cell = Mc_util.Stats.Counters.counter t.kinds kind in
    t.kind_cells <-
      (kind, cell) :: List.filter (fun (k, _) -> k <> kind) t.kind_cells;
    cell

let rec probe keys key i =
  let k = keys.(i) in
  if k = key || k < 0 then i
  else probe keys key ((i + 1) land (Array.length keys - 1))

(* the slot holding [key], or the free slot where it belongs: probing
   starts at the top bits of a Fibonacci hash of the key *)
let slot keys key =
  probe keys key (((key * 0x9E3779B97F4A7C1) lsr 17) land (Array.length keys - 1))

let find_link t ~src ~dst =
  let key = (src * t.n) + dst in
  let i = slot t.link_keys key in
  if t.link_keys.(i) = key then Some t.links.(i) else None

let add_link t key link =
  if 2 * (t.n_links + 1) > Array.length t.link_keys then begin
    let keys = t.link_keys and links = t.links in
    t.link_keys <- Array.make (2 * Array.length keys) (-1);
    t.links <- Array.make (Array.length t.link_keys) link;
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          let j = slot t.link_keys k in
          t.link_keys.(j) <- k;
          t.links.(j) <- links.(i)
        end)
      keys
  end;
  let i = slot t.link_keys key in
  t.link_keys.(i) <- key;
  t.links.(i) <- link;
  t.n_links <- t.n_links + 1

(* the channel [src -> dst], made on its first use *)
let link t ~src ~dst =
  let key = (src * t.n) + dst in
  let i = slot t.link_keys key in
  if t.link_keys.(i) = key then t.links.(i)
  else begin
    let link = { last_delivery = 0.; paused = false; held = [] } in
    add_link t key link;
    link
  end

let transmit t link ~src ~dst ~bytes ~kind msg =
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + bytes;
  incr (kind_cell t kind);
  let now = Engine.now t.engine in
  (* sender occupancy: consecutive sends from one node serialize *)
  let depart = Float.max now t.send_free.(src) +. t.send_cost in
  t.send_free.(src) <- depart;
  let lat =
    Latency.sample t.latency ~src ~dst +. (float_of_int bytes *. t.byte_cost)
  in
  Mc_util.Stats.Summary.add t.latencies lat;
  (* FIFO per channel: never deliver before a previously-sent message. *)
  let at = Float.max (depart +. lat) link.last_delivery in
  link.last_delivery <- at;
  (match t.obs with
  | Some o ->
    let module M = Mc_obs.Metrics in
    M.Counter.incr o.c_msgs;
    M.Counter.add o.c_bytes bytes;
    M.Histogram.observe o.h_latency (at -. depart);
    let kc =
      match Hashtbl.find_opt o.kind_counters kind with
      | Some c -> c
      | None ->
        let c =
          M.Registry.counter o.reg ~help:"messages transmitted by kind"
            ~labels:[ ("kind", kind) ] "mc_net_messages_total"
        in
        Hashtbl.add o.kind_counters kind c;
        c
    in
    M.Counter.incr kc
  | None -> ());
  (match t.observer with
  | Some f -> f ~src ~dst ~bytes ~kind ~seq:t.messages ~sent:depart ~recv:at msg
  | None -> ());
  Engine.schedule t.engine ~delay:(at -. now) (fun () -> deliver t ~src ~dst msg)

let send t ~src ~dst ?(bytes = 64) ?(kind = "msg") msg =
  check_node t src;
  check_node t dst;
  if src = dst then
    (* Local loopback: delivered as an immediate event, no network cost. *)
    Engine.schedule t.engine ~delay:0. (fun () -> deliver t ~src ~dst msg)
  else begin
    let link = link t ~src ~dst in
    if link.paused then link.held <- (bytes, kind, msg) :: link.held
    else transmit t link ~src ~dst ~bytes ~kind msg
  end

let broadcast t ~src ?bytes ?kind msg =
  for dst = 0 to t.n - 1 do
    if dst <> src then send t ~src ~dst ?bytes ?kind msg
  done

let multicast t ~src ~dsts ?bytes ?kind msg =
  check_node t src;
  List.iter (fun dst -> if dst <> src then send t ~src ~dst ?bytes ?kind msg) dsts

let pause_link t ~src ~dst =
  check_node t src;
  check_node t dst;
  (link t ~src ~dst).paused <- true

let resume_link t ~src ~dst =
  check_node t src;
  check_node t dst;
  (* a link never paused has no record to resume: nothing to do *)
  match find_link t ~src ~dst with
  | None -> ()
  | Some link ->
    link.paused <- false;
    let held = List.rev link.held in
    link.held <- [];
    List.iter
      (fun (bytes, kind, msg) -> transmit t link ~src ~dst ~bytes ~kind msg)
      held

let messages_sent t = t.messages
let bytes_sent t = t.bytes
let messages_by_kind t = Mc_util.Stats.Counters.to_list t.kinds
let latency_summary t = t.latencies

let reset_stats t =
  t.messages <- 0;
  t.bytes <- 0;
  t.latencies <- Mc_util.Stats.Summary.create ();
  List.iter
    (fun (kind, k) -> Mc_util.Stats.Counters.add t.kinds kind (-k))
    (Mc_util.Stats.Counters.to_list t.kinds)
