module Engine = Mc_sim.Engine
module Pqueue = Mc_util.Pqueue

type cell = { mutable numeric : int; mutable tag : int }

(* ------------------------------------------------------------------ *)
(* Watchers                                                            *)
(* ------------------------------------------------------------------ *)

(* Watchers are indexed by what their predicate depends on, so the fast
   delivery engine re-evaluates only the ones whose guard can have
   changed. [Any] watchers are re-evaluated on every state change (the
   seed behavior for all watchers, kept as the default and as the
   reference mode). Wake-ups preserve the seed's ordering — ready
   watchers resume newest-first — via the installation sequence number,
   so both engines schedule continuations in the identical order. *)
type hint = Loc of Mc_history.Op.location | Clock | Any

type watcher = { wseq : int; hint : hint; pred : unit -> bool; resume : unit -> unit }

type obs = {
  o_reg : Mc_obs.Metrics.Registry.t;
  h_delay : Mc_obs.Metrics.Histogram.t; (* receipt -> causal apply, sim µs *)
  g_depth : Mc_obs.Metrics.Gauge.t; (* pending updates, per node *)
  h_batch : Mc_obs.Metrics.Histogram.t;
  arrivals : (int * int, float) Hashtbl.t; (* (writer, useq) -> arrival time *)
  (* per-shard gap-buffer series, shared across replicas through the
     registry (labelled by shard only — the high water aggregates) *)
  gap_gauges : (int, Mc_obs.Metrics.Gauge.t) Hashtbl.t;
  gap_buffered : (int, Mc_obs.Metrics.Counter.t) Hashtbl.t;
}

(* A Section-3.2 group view: causality maintained across [members].
   [g_applied] counts updates applied to this view per writer. An update
   applies once its dependencies on members are applied here and its
   dependencies on non-members have at least been received; the group
   relation only tracks edges touching members, so received counts are
   enough for the rest. *)
type group_view = {
  members : bool array;
  g_view : (Mc_history.Op.location, cell) Hashtbl.t;
  g_applied : int array;
  (* reference engine: single rescanned pending list *)
  mutable g_pending : Protocol.update list;
  (* fast engine: per-writer buffers keyed by (writer, useq) carrying the
     arrival sequence number, plus blocked-on indexes. A writer with a
     buffered head is in exactly one place: parked on a member whose view
     application must advance, parked on a non-member whose receipt count
     must advance, or queued in the delivery worklist mid-drain. *)
  g_buffer : (int * int, Protocol.update * int) Hashtbl.t;
  g_wait_applied : int list array;
  g_wait_received : int list array;
}

(* Sharded (partially-replicated) mode: per-subscribed-shard delivery
   state. Within a shard, updates are delivered causally against the
   shard-scoped clock ([Protocol.shard_update.su_sdep]); per-writer
   counts are kept sparse because a node only ever sees the writers
   active in the shards it subscribes to. The pending list is the
   reference-style rescan engine — per-shard traffic is a small slice of
   the system, and tree paths are fixed per (writer, shard) stream, so
   arrivals are near-causal and the list stays short. *)
type shard_state = {
  sh_applied : (int, int) Hashtbl.t; (* writer -> applied sseq count *)
  sh_view : (Mc_history.Op.location, cell) Hashtbl.t;
  mutable sh_pending : Protocol.shard_update list;
}

type routing = Full | Multicast | Sharded

(* per-writer received-update counts: a dense vector where every
   replica may hear from every writer, and under sharded routing an
   entry only for each writer heard from *)
type counts = Dense of int array | Heard of (int, int) Hashtbl.t

type t = {
  engine : Engine.t;
  node_id : int;
  n : int;
  fast : bool;
  mutable own_seq : int;
  applied_counts : int array; (* empty under [Sharded]: no causal view *)
  received_counts : counts;
  causal_view : (Mc_history.Op.location, cell) Hashtbl.t;
  pram_view : (Mc_history.Op.location, cell) Hashtbl.t;
  (* reference engine: causal delivery buffer, rescanned in full *)
  mutable pending : Protocol.update list;
  (* fast engine: per-writer FIFO buffers keyed by (writer, useq),
     carrying each update's arrival sequence number. The head of writer
     [w] is the update with useq [applied_counts.(w) + 1]; while present
     it is either parked in [wait_applied.(k)] for the first blocking
     writer [k], or queued in the worklist during an ongoing drain.
     [wait_applied] is made on the first park ([||] until then). *)
  buffer : (int * int, Protocol.update * int) Hashtbl.t;
  mutable wait_applied : int list array;
  mutable n_pending : int;
  mutable arr_counter : int;
  (* drain worklist scratch (empty between events): heads ready to apply
     in the current pass / the next pass, keyed by arrival order. The
     two-heap structure reproduces the reference engine's apply order
     exactly — see the fast-engine comment below. *)
  mutable wl_cur : int Pqueue.t;
  mutable wl_next : int Pqueue.t;
  invalid : (Mc_history.Op.location, int array) Hashtbl.t;
  (* fast engine: demand-mode obligations parked on their first
     unsatisfied clock entry; an obligation is re-examined only when that
     writer's applied count advances; made on the first park *)
  mutable inv_wait : Mc_history.Op.location list array;
  (* watcher buckets *)
  mutable w_any : watcher list;
  mutable w_clock : watcher list;
  w_loc : (Mc_history.Op.location, watcher list ref) Hashtbl.t;
  mutable next_wseq : int;
  (* fast engine, between watcher firings: the [Loc] watchers of every
     location changed so far (harvested from [w_loc] at the change) and
     whether the clock moved *)
  mutable woken : watcher list;
  mutable dirty_clock : bool;
  group_views : (int list * group_view) list;
  causal_delivery : bool;
      (* false under multicast and sharded routing: updates may arrive
         with gaps in the writer sequence, so the global causal view is
         not maintained (sharded mode keeps per-shard causal views in
         [shards] instead) *)
  shards : (int, shard_state) Hashtbl.t; (* subscribed shards only *)
  mutable obs : obs option;
  (* fires after every remote shard update is applied to the shard view;
     the runtime uses it to measure write-visibility latency *)
  mutable on_shard_apply : (shard:int -> writer:int -> sseq:int -> unit) option;
}

let create engine ~id ~n ?(groups = []) ?(routing = Full)
    ?(delivery = Config.Fast) () =
  let make_group members_list =
    let members = Array.make n false in
    List.iter
      (fun m ->
        if m < 0 || m >= n then invalid_arg "Replica.create: group member out of range";
        members.(m) <- true)
      members_list;
    ( List.sort_uniq compare members_list,
      {
        members;
        g_view = Hashtbl.create 32;
        g_applied = Array.make n 0;
        g_pending = [];
        g_buffer = Hashtbl.create 32;
        g_wait_applied = Array.make n [];
        g_wait_received = Array.make n [];
      } )
  in
  {
    engine;
    node_id = id;
    n;
    fast = (delivery = Config.Fast);
    own_seq = 0;
    applied_counts = (if routing = Sharded then [||] else Array.make n 0);
    received_counts =
      (if routing = Sharded then Heard (Hashtbl.create 8)
       else Dense (Array.make n 0));
    causal_view = Hashtbl.create 64;
    pram_view = Hashtbl.create 64;
    pending = [];
    buffer = Hashtbl.create 64;
    wait_applied = [||];
    n_pending = 0;
    arr_counter = 0;
    wl_cur = Pqueue.create ();
    wl_next = Pqueue.create ();
    invalid = Hashtbl.create 8;
    inv_wait = [||];
    w_any = [];
    w_clock = [];
    w_loc = Hashtbl.create 8;
    next_wseq = 0;
    woken = [];
    dirty_clock = false;
    group_views = List.map make_group groups;
    causal_delivery = routing = Full;
    shards = Hashtbl.create 8;
    obs = None;
    on_shard_apply = None;
  }

let set_shard_apply_observer t f = t.on_shard_apply <- Some f

let attach_metrics t reg =
  let module M = Mc_obs.Metrics in
  M.Registry.gauge_fn reg ~help:"locations resident in the local view"
    ~labels:[ ("node", string_of_int t.node_id) ]
    "mc_resident_objects"
    (fun () -> float_of_int (Hashtbl.length t.pram_view));
  t.obs <-
    Some
      {
        o_reg = reg;
        h_delay =
          M.Registry.histogram reg
            ~help:"delay between receipt and causal application (us)"
            "mc_delivery_delay_us";
        g_depth =
          M.Registry.gauge reg ~help:"updates awaiting causal delivery"
            ~labels:[ ("node", string_of_int t.node_id) ]
            "mc_delivery_queue_depth";
        h_batch =
          M.Registry.histogram reg ~help:"updates per received batch"
            "mc_update_batch_size";
        arrivals = Hashtbl.create 64;
        gap_gauges = Hashtbl.create 8;
        gap_buffered = Hashtbl.create 8;
      }

let gap_gauge o shard =
  match Hashtbl.find_opt o.gap_gauges shard with
  | Some g -> g
  | None ->
    let g =
      Mc_obs.Metrics.Registry.gauge o.o_reg
        ~help:"shard updates parked on a sequence gap"
        ~labels:[ ("shard", string_of_int shard) ]
        "mc_shard_gap_depth"
    in
    Hashtbl.add o.gap_gauges shard g;
    g

let gap_counter o shard =
  match Hashtbl.find_opt o.gap_buffered shard with
  | Some c -> c
  | None ->
    let c =
      Mc_obs.Metrics.Registry.counter o.o_reg
        ~help:"shard updates that stalled in the gap buffer"
        ~labels:[ ("shard", string_of_int shard) ]
        "mc_shard_gap_buffered_total"
    in
    Hashtbl.add o.gap_buffered shard c;
    c

let id t = t.node_id

let applied t =
  (* a sharded replica applies nothing to a global causal view *)
  if Array.length t.applied_counts = 0 then Array.make t.n 0
  else Array.copy t.applied_counts

let applied_from t j = t.applied_counts.(j)

let received t =
  match t.received_counts with
  | Dense a -> Array.copy a
  | Heard h ->
    Array.init t.n (fun j -> Option.value (Hashtbl.find_opt h j) ~default:0)

let received_from t j =
  match t.received_counts with
  | Dense a -> a.(j)
  | Heard h -> ( match Hashtbl.find h j with c -> c | exception Not_found -> 0)

let note_received t j =
  match t.received_counts with
  | Dense a -> a.(j) <- a.(j) + 1
  | Heard h -> Hashtbl.replace h j (received_from t j + 1)

(* the parking arrays are indexed by writer but made on the first park:
   most replicas never park anything *)
let park_applied t k w =
  if Array.length t.wait_applied = 0 then t.wait_applied <- Array.make t.n [];
  t.wait_applied.(k) <- w :: t.wait_applied.(k)

let unpark_applied t w =
  if Array.length t.wait_applied = 0 then []
  else begin
    let parked = t.wait_applied.(w) in
    t.wait_applied.(w) <- [];
    parked
  end

let park_invalid t k loc =
  if Array.length t.inv_wait = 0 then t.inv_wait <- Array.make t.n [];
  t.inv_wait.(k) <- loc :: t.inv_wait.(k)

let shard_pending_total t =
  Hashtbl.fold (fun _ st acc -> acc + List.length st.sh_pending) t.shards 0

let pending_count t =
  (if t.fast then t.n_pending else List.length t.pending)
  + shard_pending_total t

(* [Hashtbl.find] rather than [find_opt]: these run on every receipt
   and read, and a miss is the rare case *)
let view_cell view loc =
  match Hashtbl.find view loc with
  | c -> c
  | exception Not_found ->
    let c = { numeric = 0; tag = 0 } in
    Hashtbl.add view loc c;
    c

let read_view view loc =
  match Hashtbl.find view loc with
  | c -> (c.numeric, c.tag)
  | exception Not_found -> (0, 0)

let apply_to_view view (u : Protocol.update) =
  let c = view_cell view u.loc in
  if u.is_dec then c.numeric <- c.numeric - u.numeric
  else begin
    c.numeric <- u.numeric;
    c.tag <- u.tag
  end

let causal_read t loc = read_view t.causal_view loc
let pram_read t loc = read_view t.pram_view loc

let find_group t group =
  let key = List.sort_uniq compare group in
  match List.assoc_opt key t.group_views with
  | Some g -> g
  | None ->
    invalid_arg
      ("Replica.group_read: group not registered: {"
      ^ String.concat "," (List.map string_of_int key)
      ^ "}")

let group_read t ~group loc = read_view (find_group t group).g_view loc

let dep_satisfied t dep =
  let ok = ref true in
  Array.iteri (fun j d -> if t.applied_counts.(j) < d then ok := false) dep;
  !ok

(* ------------------------------------------------------------------ *)
(* Watcher firing                                                      *)
(* ------------------------------------------------------------------ *)

(* Every handler that changes a location ends with [fire_dirty] (or
   [fire_all]) and installs no watcher in between, so moving the
   location's watchers out at the change finds exactly the ones a scan of
   the changed locations at firing time would. *)
let mark_dirty_loc t loc =
  if t.fast && Hashtbl.length t.w_loc > 0 then
    match Hashtbl.find_opt t.w_loc loc with
    | Some r ->
      t.woken <- List.rev_append !r t.woken;
      Hashtbl.remove t.w_loc loc
    | None -> ()

let put_back t w =
  match w.hint with
  | Any -> t.w_any <- w :: t.w_any
  | Clock -> t.w_clock <- w :: t.w_clock
  | Loc loc -> (
    match Hashtbl.find_opt t.w_loc loc with
    | Some r -> r := w :: !r
    | None -> Hashtbl.add t.w_loc loc (ref [ w ]))

(* Fire the candidate watchers in descending installation order (the
   seed resumed ready watchers newest-first); predicates that still fail
   return to their bucket. A fired resume only schedules the suspended
   fiber, so no predicate can change state during the sweep. *)
let fire_candidates t candidates =
  match candidates with
  | [] -> ()
  | _ ->
    let sorted = List.sort (fun a b -> compare b.wseq a.wseq) candidates in
    List.iter (fun w -> if w.pred () then w.resume () else put_back t w) sorted

let fire_all t =
  t.dirty_clock <- false;
  let candidates = ref t.woken in
  t.woken <- [];
  candidates := List.rev_append t.w_any !candidates;
  t.w_any <- [];
  candidates := List.rev_append t.w_clock !candidates;
  t.w_clock <- [];
  Hashtbl.iter (fun _ r -> candidates := List.rev_append !r !candidates) t.w_loc;
  Hashtbl.reset t.w_loc;
  fire_candidates t !candidates

let fire_dirty t =
  if not t.fast then fire_all t
  else begin
    let candidates = ref t.woken in
    t.woken <- [];
    candidates := List.rev_append t.w_any !candidates;
    t.w_any <- [];
    if t.dirty_clock then begin
      candidates := List.rev_append t.w_clock !candidates;
      t.w_clock <- []
    end;
    t.dirty_clock <- false;
    fire_candidates t !candidates
  end

let notify t = fire_all t

(* ------------------------------------------------------------------ *)
(* Demand-mode invalidation                                            *)
(* ------------------------------------------------------------------ *)

(* first clock entry not yet applied locally; [None] means satisfied *)
let blocking_index t dep =
  let k = ref (-1) in
  (try
     Array.iteri
       (fun j d ->
         if t.applied_counts.(j) < d then begin
           k := j;
           raise Exit
         end)
       dep
   with Exit -> ());
  if !k < 0 then None else Some !k

let mark_invalid t loc dep =
  if not (dep_satisfied t dep) then
    match Hashtbl.find_opt t.invalid loc with
    | Some prev ->
      (* the fast engine keeps the existing parking: the parked clock was
         unsatisfied and the merged clock only grows entrywise *)
      Hashtbl.replace t.invalid loc
        (Array.init (Array.length dep) (fun j -> max prev.(j) dep.(j)))
    | None -> (
      Hashtbl.replace t.invalid loc dep;
      if t.fast then
        match blocking_index t dep with
        | Some k -> park_invalid t k loc
        | None -> assert false)

let location_blocked t loc =
  match Hashtbl.find_opt t.invalid loc with
  | Some dep -> not (dep_satisfied t dep)
  | None -> false

(* re-examine the obligations parked on writer [w] after its applied
   count advanced: satisfied ones clear (waking readers of the
   location), the rest re-park on their next unsatisfied entry *)
let recheck_invalid t w =
  if Array.length t.inv_wait > 0 then
    match t.inv_wait.(w) with
    | [] -> ()
    | locs ->
      t.inv_wait.(w) <- [];
      List.iter
        (fun loc ->
          match Hashtbl.find_opt t.invalid loc with
          | None -> ()
          | Some dep -> (
            match blocking_index t dep with
            | None ->
              Hashtbl.remove t.invalid loc;
              mark_dirty_loc t loc
            | Some k -> park_invalid t k loc))
        locs

(* ------------------------------------------------------------------ *)
(* Causal application                                                  *)
(* ------------------------------------------------------------------ *)

let causal_apply t (u : Protocol.update) =
  (match t.obs with
  | Some o -> (
    let key = (u.writer, u.useq) in
    match Hashtbl.find_opt o.arrivals key with
    | Some arrived ->
      Hashtbl.remove o.arrivals key;
      Mc_obs.Metrics.Histogram.observe o.h_delay (Engine.now t.engine -. arrived)
    | None -> ())
  | None -> ());
  apply_to_view t.causal_view u;
  mark_dirty_loc t u.loc;
  t.applied_counts.(u.writer) <- t.applied_counts.(u.writer) + 1;
  t.dirty_clock <- true;
  if t.fast then recheck_invalid t u.writer
  else begin
    (* clear satisfied demand-mode obligations (whole-table fold) *)
    let cleared =
      Hashtbl.fold
        (fun loc dep acc -> if dep_satisfied t dep then loc :: acc else acc)
        t.invalid []
    in
    List.iter (Hashtbl.remove t.invalid) cleared
  end

(* ------------------------------------------------------------------ *)
(* Reference delivery engine (retained naive path)                     *)
(* ------------------------------------------------------------------ *)

let deliverable t (u : Protocol.update) =
  t.applied_counts.(u.writer) = u.useq - 1
  && (let ok = ref true in
      Array.iteri
        (fun k d -> if k <> u.writer && t.applied_counts.(k) < d then ok := false)
        u.dep;
      !ok)

let drain_pending_ref t =
  let progress = ref true in
  while !progress do
    progress := false;
    let rec scan acc = function
      | [] -> List.rev acc
      | u :: rest ->
        if deliverable t u then begin
          causal_apply t u;
          progress := true;
          scan acc rest
        end
        else scan (u :: acc) rest
    in
    t.pending <- scan [] t.pending
  done

(* a member update is deliverable to a group view when its member
   dependencies are applied to the view (per-writer in order) and its
   non-member dependencies have at least been received *)
let group_deliverable t g (u : Protocol.update) =
  g.g_applied.(u.writer) = u.useq - 1
  && (let ok = ref true in
      Array.iteri
        (fun k d ->
          if k <> u.writer then
            if g.members.(k) then begin
              if g.g_applied.(k) < d then ok := false
            end
            else if received_from t k < d then ok := false)
        u.dep;
      !ok)

let group_apply t g (u : Protocol.update) =
  apply_to_view g.g_view u;
  mark_dirty_loc t u.loc;
  g.g_applied.(u.writer) <- g.g_applied.(u.writer) + 1

let drain_group_ref t g =
  let progress = ref true in
  while !progress do
    progress := false;
    let rec scan acc = function
      | [] -> List.rev acc
      | u :: rest ->
        if group_deliverable t g u then begin
          group_apply t g u;
          progress := true;
          scan acc rest
        end
        else scan (u :: acc) rest
    in
    g.g_pending <- scan [] g.g_pending
  done

let group_receive_ref t g (u : Protocol.update) =
  (* every update waits for its dependencies on group members to be
     applied to this view: a non-member's update can causally depend on a
     member's write (the writer observed it before writing), and the
     group relation includes reads-from edges that touch members *)
  g.g_pending <- g.g_pending @ [ u ];
  drain_group_ref t g

(* ------------------------------------------------------------------ *)
(* Fast delivery engine                                                *)
(* ------------------------------------------------------------------ *)

(* The reference drain is a fixpoint of full rescans: each pass walks
   the pending buffer in arrival order applying whatever is deliverable
   at its scan position. The apply ORDER is observable — two concurrent
   updates to one location resolve last-writer-wins — so the fast engine
   must reproduce it exactly. An update ends up applied at lexicographic
   key (pass, arrival position), where an update enabled by an
   application at arrival position [a] joins the SAME pass if it sits
   after [a] in arrival order and the NEXT pass otherwise; updates
   deliverable when the event starts form pass 1.

   The engine keeps per-writer FIFO buffers — channels are FIFO, so the
   only possibly-deliverable update of writer [w] is its head, useq
   [applied.(w) + 1] — making deliverability one O(procs) check instead
   of a rescan. A blocked head parks on the first clock entry gating it
   and is re-examined exactly when that entry advances; a ready head
   enters a two-heap worklist (current pass / next pass, ordered by
   arrival) whose pops follow exactly the reference order. Once queued a
   head stays deliverable: applied counts only grow.

   The common arrival skips all of this: with nothing buffered, an
   update that is its writer's head and is not blocked is the only
   update the rescan could apply, so [receive_one] applies it directly.
   With nothing buffered no head is parked either, so no wake-up is
   missed. *)

let pop_ready t =
  if Pqueue.is_empty t.wl_cur then
    if Pqueue.is_empty t.wl_next then None
    else begin
      (* pass boundary: promote the accumulated next-pass heads *)
      let tmp = t.wl_cur in
      t.wl_cur <- t.wl_next;
      t.wl_next <- tmp;
      let arr, w = Pqueue.pop_min t.wl_cur in
      Some (int_of_float arr, w)
    end
  else
    let arr, w = Pqueue.pop_min t.wl_cur in
    Some (int_of_float arr, w)

(* first clock entry blocking [u] from the causal view, excluding the
   writer's own entry (the per-writer head invariant covers it). An
   update is never gated on the receiving node itself: FIFO channels
   give [dep.(self) <= applied.(self)] at receipt, so parking on self —
   which could never be woken — cannot happen. *)
let blocking_writer t (u : Protocol.update) =
  let dep = u.dep in
  let n = Array.length dep in
  let j = ref 0 in
  while !j < n && (!j = u.writer || t.applied_counts.(!j) >= dep.(!j)) do
    incr j
  done;
  if !j < n then Some !j else None

(* examine writer [w]'s head after the state advanced: park it if still
   blocked, otherwise queue it for the pass implied by the enabling
   arrival position [from_arr] ([-1] seeds pass 1 at event start) *)
let check_writer t ~from_arr w =
  match Hashtbl.find_opt t.buffer (w, t.applied_counts.(w) + 1) with
  | None -> ()
  | Some (u, arr) -> (
    match blocking_writer t u with
    | Some k -> park_applied t k w
    | None ->
      Pqueue.add
        (if arr > from_arr then t.wl_cur else t.wl_next)
        ~priority:(float_of_int arr) w)

let run_main_worklist t =
  let rec go () =
    match pop_ready t with
    | None -> ()
    | Some (arr_v, w) ->
      let key = (w, t.applied_counts.(w) + 1) in
      let u, _ = Hashtbl.find t.buffer key in
      Hashtbl.remove t.buffer key;
      t.n_pending <- t.n_pending - 1;
      causal_apply t u;
      check_writer t ~from_arr:arr_v w;
      List.iter (fun w' -> check_writer t ~from_arr:arr_v w') (unpark_applied t w);
      go ()
  in
  go ()

(* group-view analogue: the blocked-on index distinguishes member
   entries (woken when the view applies that writer) from non-member
   entries (woken when an update from that writer is received) *)
let g_blocking t g (u : Protocol.update) =
  let res = ref None in
  (try
     Array.iteri
       (fun j d ->
         if j <> u.writer then
           if g.members.(j) then begin
             if g.g_applied.(j) < d then begin
               res := Some (`Member j);
               raise Exit
             end
           end
           else if received_from t j < d then begin
             res := Some (`Non_member j);
             raise Exit
           end)
       u.dep
   with Exit -> ());
  !res

let g_check_writer t g ~from_arr w =
  match Hashtbl.find_opt g.g_buffer (w, g.g_applied.(w) + 1) with
  | None -> ()
  | Some (u, arr) -> (
    match g_blocking t g u with
    | Some (`Member k) -> g.g_wait_applied.(k) <- w :: g.g_wait_applied.(k)
    | Some (`Non_member k) -> g.g_wait_received.(k) <- w :: g.g_wait_received.(k)
    | None ->
      Pqueue.add
        (if arr > from_arr then t.wl_cur else t.wl_next)
        ~priority:(float_of_int arr) w)

let run_group_worklist t g =
  let rec go () =
    match pop_ready t with
    | None -> ()
    | Some (arr_v, w) ->
      let key = (w, g.g_applied.(w) + 1) in
      let u, _ = Hashtbl.find g.g_buffer key in
      Hashtbl.remove g.g_buffer key;
      group_apply t g u;
      g_check_writer t g ~from_arr:arr_v w;
      (* only member applications advance here; receipt counts are
         constant within a drain, so g_wait_received stays parked *)
      let parked = g.g_wait_applied.(w) in
      g.g_wait_applied.(w) <- [];
      List.iter (fun w' -> g_check_writer t g ~from_arr:arr_v w') parked;
      go ()
  in
  go ()

(* heads unblocked by an advance of [received_counts.(w)] (or of
   [g_applied.(w)] for a local write) all join pass 1, exactly as the
   reference's first rescan applies them in arrival order *)
let g_seed_received t g w =
  match g.g_wait_received.(w) with
  | [] -> ()
  | parked ->
    g.g_wait_received.(w) <- [];
    List.iter (g_check_writer t g ~from_arr:(-1)) parked

let g_seed_applied t g w =
  match g.g_wait_applied.(w) with
  | [] -> ()
  | parked ->
    g.g_wait_applied.(w) <- [];
    List.iter (g_check_writer t g ~from_arr:(-1)) parked

(* ------------------------------------------------------------------ *)
(* Receive                                                             *)
(* ------------------------------------------------------------------ *)

let receive_one t (u : Protocol.update) =
  if u.writer = t.node_id then
    invalid_arg "Replica.receive: update from self (already applied locally)";
  note_received t u.writer;
  t.dirty_clock <- true;
  apply_to_view t.pram_view u;
  mark_dirty_loc t u.loc;
  (match t.obs with
  | Some o when t.causal_delivery ->
    Hashtbl.replace o.arrivals (u.writer, u.useq) (Engine.now t.engine)
  | _ -> ());
  if t.causal_delivery then
    if t.fast then begin
      t.arr_counter <- t.arr_counter + 1;
      let arr = t.arr_counter in
      let in_order = u.useq = t.applied_counts.(u.writer) + 1 in
      if in_order && t.n_pending = 0 && Option.is_none (blocking_writer t u)
      then
        (* direct apply: with nothing buffered, the reference rescan
           would apply exactly [u] and nothing else *)
        causal_apply t u
      else begin
        Hashtbl.add t.buffer (u.writer, u.useq) (u, arr);
        t.n_pending <- t.n_pending + 1;
        (* main view: only the arriving writer's head can have become
           deliverable (applied counts are unchanged by mere receipt) *)
        if in_order then begin
          check_writer t ~from_arr:(-1) u.writer;
          run_main_worklist t
        end
      end;
      if t.group_views <> [] then
        List.iter
          (fun (_, g) ->
            Hashtbl.add g.g_buffer (u.writer, u.useq) (u, arr);
            if u.useq = g.g_applied.(u.writer) + 1 then
              g_check_writer t g ~from_arr:(-1) u.writer;
            (* the receipt-count advance can unblock heads parked on this
               (non-member) writer *)
            g_seed_received t g u.writer;
            run_group_worklist t g)
          t.group_views
    end
    else begin
      t.pending <- t.pending @ [ u ];
      drain_pending_ref t;
      List.iter (fun (_, g) -> group_receive_ref t g u) t.group_views
    end;
  match t.obs with
  | Some o -> Mc_obs.Metrics.Gauge.set o.g_depth (float_of_int (pending_count t))
  | None -> ()

let receive t u =
  receive_one t u;
  fire_dirty t

let receive_many t us =
  (match t.obs with
  | Some o ->
    Mc_obs.Metrics.Histogram.observe o.h_batch (float_of_int (List.length us))
  | None -> ());
  List.iter (receive_one t) us;
  fire_dirty t

(* ------------------------------------------------------------------ *)
(* Local operations                                                    *)
(* ------------------------------------------------------------------ *)

let make_update t ~loc ~numeric ~tag ~is_dec =
  (* dependency clock: applied counts before this update; the writer's
     own entry equals own_seq, i.e. useq - 1 *)
  let dep = Array.copy t.applied_counts in
  t.own_seq <- t.own_seq + 1;
  let u : Protocol.update =
    { writer = t.node_id; useq = t.own_seq; dep; loc; numeric; tag; is_dec }
  in
  apply_to_view t.causal_view u;
  apply_to_view t.pram_view u;
  mark_dirty_loc t loc;
  t.applied_counts.(t.node_id) <- t.applied_counts.(t.node_id) + 1;
  note_received t t.node_id;
  t.dirty_clock <- true;
  (* a remote update's dependency on us never exceeds the updates we had
     already issued when it was sent, so the main view needs no re-drain
     here — but group views also gate on receipt counts, and our own
     write advances both counts for this node *)
  List.iter
    (fun (_, g) ->
      group_apply t g u;
      if t.fast then begin
        g_seed_applied t g t.node_id;
        g_seed_received t g t.node_id;
        run_group_worklist t g
      end
      else drain_group_ref t g)
    t.group_views;
  fire_dirty t;
  u

let local_write t ~loc ~numeric ~tag = make_update t ~loc ~numeric ~tag ~is_dec:false

let local_dec t ~loc ~amount =
  let observed, _ = causal_read t loc in
  let u = make_update t ~loc ~numeric:amount ~tag:0 ~is_dec:true in
  (u, observed)

(* entry mode: install a value carried by a lock grant directly into
   both views; these values never traveled as counted updates, so the
   vector bookkeeping is untouched (the lock discipline provides the
   ordering) *)
let install_direct t ~loc ~numeric ~tag =
  let set view =
    let c = view_cell view loc in
    c.numeric <- numeric;
    c.tag <- tag
  in
  set t.causal_view;
  set t.pram_view;
  List.iter (fun (_, g) -> set g.g_view) t.group_views;
  mark_dirty_loc t loc;
  fire_dirty t

let wait_until t ?(hint = Any) pred =
  if not (pred ()) then
    Engine.suspend t.engine (fun resume ->
        let w = { wseq = t.next_wseq; hint; pred; resume } in
        t.next_wseq <- t.next_wseq + 1;
        put_back t w)

(* ------------------------------------------------------------------ *)
(* Sharded (partially-replicated) mode                                 *)
(* ------------------------------------------------------------------ *)

let find_shard t shard =
  match Hashtbl.find_opt t.shards shard with
  | Some st -> st
  | None ->
    invalid_arg
      (Printf.sprintf "Replica.%d: not subscribed to shard %d" t.node_id shard)

let shard_subscribed t ~shard = Hashtbl.mem t.shards shard

let subscribe_shard t ?(clock = []) ?(values = []) ~shard () =
  let st =
    {
      sh_applied = Hashtbl.create 8;
      sh_view = Hashtbl.create 32;
      sh_pending = [];
    }
  in
  List.iter (fun (w, c) -> Hashtbl.replace st.sh_applied w c) clock;
  (* state transfer: the snapshot values enter both the shard view and
     the PRAM view (they are this node's local copy now) *)
  List.iter
    (fun (loc, numeric, tag) ->
      let set view =
        let c = view_cell view loc in
        c.numeric <- numeric;
        c.tag <- tag
      in
      set st.sh_view;
      set t.pram_view;
      mark_dirty_loc t loc)
    values;
  Hashtbl.replace t.shards shard st;
  fire_dirty t

let unsubscribe_shard t ~shard = Hashtbl.remove t.shards shard

let sh_get st w =
  match Hashtbl.find_opt st.sh_applied w with Some c -> c | None -> 0

let shard_deliverable st (su : Protocol.shard_update) =
  sh_get st su.su_writer = su.su_sseq - 1
  && List.for_all (fun (j, d) -> sh_get st j >= d) su.su_sdep

let apply_shard_payload view ~loc ~numeric ~tag ~is_dec =
  let c = view_cell view loc in
  if is_dec then c.numeric <- c.numeric - numeric
  else begin
    c.numeric <- numeric;
    c.tag <- tag
  end

let shard_apply t st (su : Protocol.shard_update) =
  apply_shard_payload st.sh_view ~loc:su.su_loc ~numeric:su.su_numeric
    ~tag:su.su_tag ~is_dec:su.su_is_dec;
  Hashtbl.replace st.sh_applied su.su_writer su.su_sseq;
  mark_dirty_loc t su.su_loc;
  match t.on_shard_apply with
  | Some f when su.su_writer <> t.node_id ->
    f ~shard:su.su_shard ~writer:su.su_writer ~sseq:su.su_sseq
  | _ -> ()

let drain_shard t st =
  let progress = ref true in
  while !progress do
    progress := false;
    let rec scan acc = function
      | [] -> List.rev acc
      | su :: rest ->
        if shard_deliverable st su then begin
          shard_apply t st su;
          progress := true;
          scan acc rest
        end
        else scan (su :: acc) rest
    in
    st.sh_pending <- scan [] st.sh_pending
  done

let shard_make t ~shard ~loc ~numeric ~tag ~is_dec =
  let st = find_shard t shard in
  let sseq = sh_get st t.node_id + 1 in
  let sdep =
    Hashtbl.fold
      (fun j c acc -> if j <> t.node_id && c > 0 then (j, c) :: acc else acc)
      st.sh_applied []
    |> List.sort compare
  in
  let su : Protocol.shard_update =
    {
      su_shard = shard;
      su_writer = t.node_id;
      su_sseq = sseq;
      su_sdep = sdep;
      su_loc = loc;
      su_numeric = numeric;
      su_tag = tag;
      su_is_dec = is_dec;
    }
  in
  apply_shard_payload t.pram_view ~loc ~numeric ~tag ~is_dec;
  shard_apply t st su;
  note_received t t.node_id;
  t.dirty_clock <- true;
  fire_dirty t;
  su

let shard_write t ~shard ~loc ~numeric ~tag =
  shard_make t ~shard ~loc ~numeric ~tag ~is_dec:false

let shard_dec t ~shard ~loc ~amount =
  let st = find_shard t shard in
  let observed, _ = read_view st.sh_view loc in
  let su = shard_make t ~shard ~loc ~numeric:amount ~tag:0 ~is_dec:true in
  (su, observed)

let shard_receive t (su : Protocol.shard_update) =
  if su.su_writer = t.node_id then
    invalid_arg "Replica.shard_receive: update from self";
  match Hashtbl.find_opt t.shards su.su_shard with
  | None -> () (* gap-tolerant: not subscribed, ignore *)
  | Some st when su.su_sseq <= sh_get st su.su_writer ->
    (* already covered by the snapshot installed at subscription time
       (or a duplicate): its payload is reflected in the snapshot
       values, so applying it again would go back in time *)
    ()
  | Some st ->
    note_received t su.su_writer;
    t.dirty_clock <- true;
    apply_shard_payload t.pram_view ~loc:su.su_loc ~numeric:su.su_numeric
      ~tag:su.su_tag ~is_dec:su.su_is_dec;
    mark_dirty_loc t su.su_loc;
    (match t.obs with
    | Some o when not (shard_deliverable st su) ->
      (* arrived ahead of a sequence gap: it will sit in the buffer *)
      Mc_obs.Metrics.Counter.incr (gap_counter o su.su_shard)
    | _ -> ());
    st.sh_pending <- st.sh_pending @ [ su ];
    drain_shard t st;
    (match t.obs with
    | Some o ->
      Mc_obs.Metrics.Gauge.set o.g_depth (float_of_int (pending_count t));
      Mc_obs.Metrics.Gauge.set (gap_gauge o su.su_shard)
        (float_of_int (List.length st.sh_pending))
    | None -> ());
    fire_dirty t

let shard_read t ~shard loc = read_view (find_shard t shard).sh_view loc

let shard_clock t ~shard =
  Hashtbl.fold (fun w c acc -> (w, c) :: acc) (find_shard t shard).sh_applied []
  |> List.sort compare

let resident_objects t = Hashtbl.length t.pram_view

let shard_queue_depths t =
  Hashtbl.fold
    (fun shard st acc -> (shard, List.length st.sh_pending) :: acc)
    t.shards []
  |> List.sort compare

let shard_pending_len t ~shard =
  match Hashtbl.find_opt t.shards shard with
  | Some st -> List.length st.sh_pending
  | None -> 0
