(* Streaming mixed-consistency checker.

   Consumes the finalization stream of [Mc_history.Stream] and validates
   every memory read at response time against the read rule of its label
   (Def. 2 causal, Def. 3 PRAM, §3.2 group, composed per Def. 4),
   reproducing [Mixed.failures] verdict-for-verdict without materializing
   the history or any relation matrix.

   Per finalized operation the checker folds one chain clock per family —
   causal, PRAM(i) for every process i, and one per registered reader
   group — joining the clocks of its covering in-edge sources, with sync
   and reads-from edges filtered by the family's touches predicate (a
   per-family cost of O(chains) ints, O(procs · chains) overall).

   A read's verdict needs three kinds of relation queries, all answered
   in O(1) from clocks: [rel w r] (candidate writer in the read's past),
   [rel o r] (interposer in the read's past) and [rel w o] (interposer
   after the writer). The first two use the read's own clocks; the last
   is precomputed when [o] finalizes, as a per-family bitmask attached to
   the writer's summary, because either operation may be retired by the
   time the read arrives.

   State is reclaimed through stability notifications: when a value is
   dead (no future operation can read it) its writer summaries and their
   interposer lists are dropped; when the initial value of a location is
   dead the location's virtual-initial-write interposer list is dropped
   too. A live run learns of dead values from the runtime's sweeps (at
   every unlock, barrier and await completion: superseded at every
   replica); a replay derives them from the history itself. Together
   with O(1) interposer registration this keeps the per-op cost
   independent of the run's length. *)

module Stream = Mc_history.Stream
module History = Mc_history.History
module Op = Mc_history.Op

(* An operation that touched a location: potential interposer. Lists of
   touchers are kept newest-registered first (an O(1) cons per
   registration). Registration follows finalization order, which need
   not be id order, so a diagnostic takes the smallest eligible id to
   reproduce the offline scan's first match. *)
type toucher = {
  f_id : int;
  f_chain : int;
  f_rank : int;
  f_proc : int;
  f_read : bool; (* memory read: excluded for foreign readers *)
  f_vals : Op.value list; (* values it wrote/observed there *)
  f_mask : int; (* per-family [rel w o] bits, 0 for the virtual write *)
}

(* Retained essence of a finalized writer. *)
type summary = {
  s_id : int;
  s_proc : int;
  s_chain : int;
  s_rank : int;
  s_clk : int array array; (* inclusive clocks, per family *)
  mutable s_followers : toucher list; (* newest first *)
}

type lstate = {
  mutable li_dead : bool; (* initial value is dead *)
  mutable li_touchers : toucher list; (* newest first *)
  mutable li_values : Op.value list; (* values with live summaries *)
}

type resident = { r_proc : int; r_clk : int array array }

(* Which lattice point every read is validated against. [Per_label] is
   the seed behavior (the [Mixed] point of Definition 4); [Uniform m]
   checks every memory read under model [m] regardless of its declared
   label. *)
type mode = Per_label | Uniform of Lattice.t

(* Session-point state. A session relation keeps only the reader's own
   selected program-order edges (write→read for read-your-writes,
   read→read for monotonic reads) plus the reads-from edges touching
   the reader, so every path to a read runs through the reader's own
   earlier memory operations — chain clocks (whose ranks cover whole
   program-order prefixes) over-approximate it. Instead each process
   keeps its memory reads and writes per location, in program order
   (finalization order within a process is program order: the stream's
   U edges are finalized topologically), and the read rule is decided
   directly on that structure. [sr_writers] records the writers of the
   value a read returned, for reporting foreign-write interposers. *)
type sess_rec = { sr_id : int; sr_value : Op.value; sr_writers : int list }

type sess_state = {
  se_reads : (Op.location, sess_rec list ref) Hashtbl.t; (* newest first *)
  se_writes : (Op.location, sess_rec list ref) Hashtbl.t;
}

(* A read served by demand-driven fetch instead of the local replica
   (sharded mode): the replica holds no view of the location, so the
   chain-clock read rule — which reasons about what this process has
   locally applied — does not describe it. The runtime announces, just
   before recording such a read, the admissible value set derived from
   the fetch snapshot: for every writer counted in the home's per-shard
   clock, that writer's latest write to the location within the
   snapshot. The fetched value is exactly the home's causal-view value
   at the snapshot, so validity is membership in that set. *)
type fetch_note = {
  fn_loc : Op.location;
  fn_admissible : Op.value list;
  fn_zero_ok : bool; (* no write to the location inside the snapshot *)
}

type stats = {
  ops_checked : int;
  reads_checked : int;
  pram_reads : int;
  causal_reads : int;
  group_reads : int;
  fetched_reads : int;
  failure_count : int;
  chains : int;
  max_resident : int;
  live_summaries : int;
}

type t = {
  t_procs : int;
  t_fams : int;
  t_mode : mode;
  sess_ryw : bool;
  sess_mr : bool;
  sess : sess_state array;
  group_idx : (int list, int) Hashtbl.t;
  group_mem : bool array array;
  clocks : (int, resident) Hashtbl.t;
  sums : (Op.location * Op.value, summary list ref) Hashtbl.t;
  locs : (Op.location, lstate) Hashtbl.t;
  mutable failures : Mixed.failure list; (* reverse finalization order *)
  mutable ops_checked : int;
  mutable reads_checked : int;
  mutable pram_reads : int;
  mutable causal_reads : int;
  mutable group_reads : int;
  fetch_notes : (int, fetch_note Queue.t) Hashtbl.t; (* per proc, FIFO *)
  mutable fetched : int list; (* read ids validated via snapshot, reverse *)
  mutable n_fetched : int;
  mutable ch : int; (* chain count high-water *)
  mutable t_engine : Stream.t option;
}

let clk_get a c = if c < Array.length a then a.(c) else 0

(* Family layout: 0 = causal, 1+i = PRAM(i), 1+procs+k = k-th group. *)

let fam_causal = 0

let lstate t loc =
  match Hashtbl.find_opt t.locs loc with
  | Some ls -> ls
  | None ->
    let ls = { li_dead = false; li_touchers = []; li_values = [] } in
    Hashtbl.add t.locs loc ls;
    ls

let all_procs t = List.init t.t_procs Fun.id

let fam_of_label t ~reader = function
  | Op.PRAM -> 1 + reader
  | Op.Causal -> fam_causal
  | Op.Group g ->
    if not (List.mem reader g) then
      invalid_arg "Online: reader must be a group member";
    List.iter
      (fun m ->
        if m < 0 || m >= t.t_procs then
          invalid_arg "Online: group member out of range")
      g;
    let sg = List.sort_uniq compare g in
    if sg = all_procs t then fam_causal
    else (
      match sg with
      | [ i ] -> 1 + i (* i = reader, by the membership check *)
      | _ -> (
        match Hashtbl.find_opt t.group_idx sg with
        | Some f -> f
        | None ->
          invalid_arg
            "Online: unregistered reader group (pass it via ~groups)"))

(* Lattice points the streaming engine can express as chain-clock
   families. The witness-based points (SC, linearizable, processor,
   cache, slow) need sim-time write/real-time orders that are not
   incremental here — check those offline with [Lattice.failures]. *)
let supports = function
  | Lattice.Causal | Lattice.PRAM | Lattice.Mixed | Lattice.Group _
  | Lattice.Session _ ->
    true
  | Lattice.SC | Lattice.Linearizable | Lattice.Processor | Lattice.Cache
  | Lattice.Slow ->
    false

let make ~procs ?(groups = []) ?model () =
  if procs <= 0 then invalid_arg "Online.make: need at least one process";
  let mode = match model with None -> Per_label | Some m -> Uniform m in
  (match mode with
  | Uniform m when not (supports m) ->
    invalid_arg
      (Printf.sprintf
         "Online.make: model %s is not streamable (sim-time witness \
          orders); use the offline Lattice checker"
         (Lattice.to_string m))
  | _ -> ());
  let groups =
    (* a uniform group point checks every reader against its own
       reader-augmented group *)
    match mode with
    | Uniform (Lattice.Group g) ->
      List.init procs (fun i -> List.sort_uniq compare (i :: g)) @ groups
    | _ -> groups
  in
  let canonical =
    List.sort_uniq compare (List.map (List.sort_uniq compare) groups)
  in
  let all = List.init procs Fun.id in
  let real =
    List.filter
      (fun g ->
        List.iter
          (fun m ->
            if m < 0 || m >= procs then
              invalid_arg "Online.make: group member out of range")
          g;
        match g with [] -> invalid_arg "Online.make: empty group" | [ _ ] -> false | _ -> g <> all)
      canonical
  in
  let sessions = match mode with Uniform (Lattice.Session _) -> true | _ -> false in
  let n_fams = 1 + procs + List.length real in
  if n_fams > 62 then
    invalid_arg "Online.make: too many consistency families (max 62)";
  let sess_ryw, sess_mr =
    match mode with
    | Uniform (Lattice.Session gs) ->
      ( List.mem Lattice.Read_your_writes gs,
        List.mem Lattice.Monotonic_reads gs )
    | _ -> (false, false)
  in
  let group_idx = Hashtbl.create 8 in
  let group_mem =
    Array.of_list
      (List.mapi
         (fun k g ->
           Hashtbl.add group_idx g (1 + procs + k);
           let a = Array.make procs false in
           List.iter (fun m -> a.(m) <- true) g;
           a)
         real)
  in
  {
    t_procs = procs;
    t_fams = n_fams;
    t_mode = mode;
    sess_ryw;
    sess_mr;
    sess =
      (if sessions then
         Array.init procs (fun _ ->
             { se_reads = Hashtbl.create 8; se_writes = Hashtbl.create 8 })
       else [||]);
    group_idx;
    group_mem;
    clocks = Hashtbl.create 256;
    sums = Hashtbl.create 64;
    locs = Hashtbl.create 16;
    failures = [];
    ops_checked = 0;
    reads_checked = 0;
    pram_reads = 0;
    causal_reads = 0;
    group_reads = 0;
    fetch_notes = Hashtbl.create 8;
    fetched = [];
    n_fetched = 0;
    ch = 0;
    t_engine = None;
  }

(* Does family [f] include a sync / reads-from edge with these endpoint
   processes? Program-order edges are included in every family. *)
let edge_in_fam t f ~sp ~np =
  if f = fam_causal then true
  else if f <= t.t_procs then
    let i = f - 1 in
    sp = i || np = i
  else
    let g = t.group_mem.(f - 1 - t.t_procs) in
    g.(sp) || g.(np)

let sync_edge_in_fam = edge_in_fam

let join_into dst src =
  let n = min (Array.length dst) (Array.length src) in
  for c = 0 to n - 1 do
    if src.(c) > dst.(c) then dst.(c) <- src.(c)
  done

let resident t id =
  match Hashtbl.find_opt t.clocks id with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Online: source op %d not resident" id)

let rf_summary t ~loc ~value id =
  match Hashtbl.find_opt t.sums (loc, value) with
  | Some l -> (
    match List.find_opt (fun s -> s.s_id = id) !l with
    | Some s -> s
    | None ->
      invalid_arg (Printf.sprintf "Online: no summary for writer %d" id))
  | None -> invalid_arg (Printf.sprintf "Online: no summaries for writer %d" id)

let values_at (o : Op.t) loc =
  let add acc = function
    | Some (l, v) when l = loc -> v :: acc
    | Some _ | None -> acc
  in
  add (add [] (Op.writes_value o)) (Op.reads_value o)

(* the smallest-id toucher satisfying [p]: the offline scan's first
   match, whatever order the touchers were registered in *)
let min_toucher p l =
  List.fold_left
    (fun acc fo ->
      if not (p fo) then acc
      else
        match acc with Some b when b.f_id < fo.f_id -> acc | _ -> Some fo)
    None l

let rec insert_summary s = function
  | [] -> [ s ]
  | x :: rest as l ->
    if s.s_id < x.s_id then s :: l else x :: insert_summary s rest

(* --- the read rule, replicating Read_rule.check query-for-query ----- *)

let verdict t (op : Op.t) strict ~loc ~value ~fam =
  let sr = strict.(fam) in
  let rel_to_r chain rank = clk_get sr chain > rank in
  let keep fo = not (fo.f_read && fo.f_proc <> op.proc) in
  let bad fo = List.exists (fun u -> u <> value) fo.f_vals in
  let eligible fo =
    fo.f_id <> op.id && rel_to_r fo.f_chain fo.f_rank && keep fo && bad fo
  in
  let interposes fo = fo.f_mask land (1 lsl fam) <> 0 && eligible fo in
  let cands =
    match Hashtbl.find_opt t.sums (loc, value) with
    | Some l -> List.filter (fun w -> rel_to_r w.s_chain w.s_rank) !l
    | None -> []
  in
  if List.exists (fun w -> not (List.exists interposes w.s_followers)) cands
  then Read_rule.Valid
  else if value = 0 then
    (* virtual initial write: every toucher of the location counts *)
    let touchers =
      match Hashtbl.find_opt t.locs loc with
      | Some ls -> ls.li_touchers
      | None -> []
    in
    match min_toucher eligible touchers with
    | None -> Read_rule.Valid
    | Some fo -> Read_rule.Overwritten fo.f_id
  else
    match cands with
    | [] -> Read_rule.No_matching_write
    | w :: _ -> (
      match min_toucher interposes w.s_followers with
      | Some fo -> Read_rule.Overwritten fo.f_id
      | None -> assert false)

(* --- the read rule on a fetch snapshot (partial view) ---------------- *)

(* Validity of a fetched read is membership of its value in the
   admissible set the runtime derived from the snapshot clock. For
   failure diagnostics the interposing write is named by the smallest
   live summary id of any admissible value (the admissible writes are
   exactly those the home had applied over the returned value); when no
   such summary has finalized yet the interposer is reported as [-1] —
   fetched diagnostics are best-effort, and the differential suite
   compares diagnostics on non-fetched reads only. *)
let fetched_verdict t ~loc ~value fn =
  let admissible_interposer () =
    let ids =
      List.concat_map
        (fun v ->
          if v = value then []
          else
            match Hashtbl.find_opt t.sums (loc, v) with
            | Some l -> List.map (fun s -> s.s_id) !l
            | None -> [])
        fn.fn_admissible
    in
    match ids with
    | [] -> Read_rule.Overwritten (-1)
    | ids -> Read_rule.Overwritten (List.fold_left min max_int ids)
  in
  if value = 0 then
    if fn.fn_zero_ok then Read_rule.Valid else admissible_interposer ()
  else if List.mem value fn.fn_admissible then Read_rule.Valid
  else if Hashtbl.mem t.sums (loc, value) then admissible_interposer ()
  else Read_rule.No_matching_write

(* --- the read rule at a session point -------------------------------- *)

(* Replicates [Read_rule.check] under [Lattice.axioms_of (Session gs)]:
   the relation is the reads-from edges touching the reader plus the
   reader's own write→read (ryw) / read→read (mr) edges, so

   - a real candidate writer [w] reaches an interposer o(x)u only
     through one of the reader's own reads: w →rf r1(x)v →mr o →mr r,
     or (own write, ryw) w →ryw o →mr r;
   - against the virtual initial write, the reader's own earlier reads
     (mr) and writes (ryw) of another value interpose, as do the
     foreign writers of a value an earlier read returned (rf;mr).

   Ids are compared to pick the same (smallest-id) interposer as the
   offline scan. Under the unique-writes assumption of Section 3 the
   writers a read's verdict consulted are exactly the streamed
   summaries at its finalization. *)
let session_verdict t (op : Op.t) ~loc ~value =
  let st = t.sess.(op.proc) in
  let recs tbl =
    match Hashtbl.find_opt tbl loc with Some l -> List.rev !l | None -> []
  in
  let reads = recs st.se_reads and writes = recs st.se_writes in
  let cands =
    match Hashtbl.find_opt t.sums (loc, value) with
    | Some l -> List.map (fun s -> (s.s_id, s.s_proc)) !l (* id ascending *)
    | None -> []
  in
  let min_id = function
    | [] -> None
    | ids -> Some (List.fold_left min max_int ids)
  in
  let interposers (w_id, w_proc) =
    if not t.sess_mr then []
    else
      let later_other_reads from_id =
        List.filter_map
          (fun r ->
            if r.sr_id > from_id && r.sr_value <> value then Some r.sr_id
            else None)
          reads
      in
      (match List.find_opt (fun r -> r.sr_value = value) reads with
      | Some rv -> later_other_reads rv.sr_id
      | None -> [])
      @
      if
        t.sess_ryw && w_proc = op.proc
        && List.exists (fun w -> w.sr_id = w_id) writes
      then later_other_reads w_id
      else []
  in
  let rec first_valid = function
    | [] -> None
    | c :: rest -> if interposers c = [] then Some c else first_valid rest
  in
  match first_valid cands with
  | Some _ -> Read_rule.Valid
  | None -> (
    if value = 0 then
      (* virtual initial write *)
      let virt =
        (if t.sess_mr then
           List.concat_map
             (fun r ->
               if r.sr_value <> value then r.sr_id :: r.sr_writers else [])
             reads
         else [])
        @
        if t.sess_ryw then
          List.filter_map
            (fun w -> if w.sr_value <> value then Some w.sr_id else None)
            writes
        else []
      in
      match min_id virt with
      | None -> Read_rule.Valid
      | Some o -> Read_rule.Overwritten o
    else
      match cands with
      | [] -> Read_rule.No_matching_write
      | c :: _ -> (
        match min_id (interposers c) with
        | Some o -> Read_rule.Overwritten o
        | None -> assert false))

(* the reader's own finalized memory operations, per location, in
   program order — consulted by [session_verdict] for later reads *)
let session_register t (op : Op.t) =
  if Array.length t.sess > 0 then begin
    let st = t.sess.(op.proc) in
    let push tbl loc r =
      match Hashtbl.find_opt tbl loc with
      | Some l -> l := r :: !l
      | None -> Hashtbl.add tbl loc (ref [ r ])
    in
    (* awaits never carry session edges: they are neither memory reads
       (mr) nor write-like (ryw), so only [Op.Read] enters [se_reads] *)
    (match (Op.is_memory_read op, Op.reads_value op) with
    | true, Some (loc, v) ->
      let sr_writers =
        match Hashtbl.find_opt t.sums (loc, v) with
        | Some l -> List.map (fun s -> s.s_id) !l
        | None -> []
      in
      push st.se_reads loc { sr_id = op.id; sr_value = v; sr_writers }
    | _ -> ());
    match Op.writes_value op with
    | Some (loc, v) ->
      push st.se_writes loc { sr_id = op.id; sr_value = v; sr_writers = [] }
    | None -> ()
  end

(* --- finalization ---------------------------------------------------- *)

let finalize t (info : Stream.info) =
  let op = info.Stream.op in
  t.ops_checked <- t.ops_checked + 1;
  if info.Stream.chain + 1 > t.ch then t.ch <- info.Stream.chain + 1;
  let strict = Array.init t.t_fams (fun _ -> Array.make t.ch 0) in
  let join_filtered ~filter clk ~sp =
    for f = 0 to t.t_fams - 1 do
      if filter t f ~sp ~np:op.proc then join_into strict.(f) clk.(f)
    done
  in
  List.iter
    (fun e ->
      match e with
      | Stream.U s ->
        let r = resident t s in
        Array.iteri (fun f d -> join_into d r.r_clk.(f)) strict
      | Stream.S s ->
        let r = resident t s in
        join_filtered ~filter:sync_edge_in_fam r.r_clk ~sp:r.r_proc
      | Stream.RF s -> (
        match Op.reads_value op with
        | Some (loc, value) ->
          let sm = rf_summary t ~loc ~value s in
          join_filtered ~filter:edge_in_fam sm.s_clk ~sp:sm.s_proc
        | None -> ()))
    info.Stream.in_edges;
  (* read validation, before this op registers as its own interposer *)
  (match op.kind with
  | Op.Read { loc; label; value } ->
    t.reads_checked <- t.reads_checked + 1;
    (match label with
    | Op.PRAM -> t.pram_reads <- t.pram_reads + 1
    | Op.Causal -> t.causal_reads <- t.causal_reads + 1
    | Op.Group _ -> t.group_reads <- t.group_reads + 1);
    (* a queued fetch note matches this read iff it heads the process's
       note queue with the same location: notes are enqueued immediately
       before the read is recorded (atomically — no suspension between),
       and per-process finalization order is program order, so the k-th
       noted read of a process finalizes k-th among its noted reads *)
    let fetch =
      match Hashtbl.find_opt t.fetch_notes op.proc with
      | Some q when (not (Queue.is_empty q)) && (Queue.peek q).fn_loc = loc ->
        Some (Queue.pop q)
      | _ -> None
    in
    let v =
      match (fetch, t.t_mode) with
      | Some fn, _ ->
        t.fetched <- op.id :: t.fetched;
        t.n_fetched <- t.n_fetched + 1;
        fetched_verdict t ~loc ~value fn
      | None, Uniform (Lattice.Session _) -> session_verdict t op ~loc ~value
      | None, _ ->
        let fam =
          match t.t_mode with
          | Per_label | Uniform Lattice.Mixed ->
            fam_of_label t ~reader:op.proc label
          | Uniform Lattice.Causal -> fam_causal
          | Uniform Lattice.PRAM -> 1 + op.proc
          | Uniform (Lattice.Group g) ->
            fam_of_label t ~reader:op.proc
              (Op.Group (List.sort_uniq compare (op.proc :: g)))
          | Uniform _ -> assert false (* rejected by [make] *)
        in
        verdict t op strict ~loc ~value ~fam
    in
    (match v with
    | Read_rule.Valid -> ()
    | v ->
      t.failures <-
        { Mixed.read_id = op.id; label; verdict = v } :: t.failures)
  | _ -> ());
  session_register t op;
  (* interposer registration *)
  (match
     match (Op.writes_value op, Op.reads_value op) with
     | Some (l, _), _ | None, Some (l, _) -> Some l
     | None, None -> None
   with
  | Some loc ->
    let vals = values_at op loc in
    if vals <> [] then begin
      let base mask =
        {
          f_id = op.id;
          f_chain = info.Stream.chain;
          f_rank = info.Stream.rank;
          f_proc = op.proc;
          f_read = Op.is_memory_read op;
          f_vals = vals;
          f_mask = mask;
        }
      in
      let ls = lstate t loc in
      if not ls.li_dead then
        ls.li_touchers <- base 0 :: ls.li_touchers;
      List.iter
        (fun v' ->
          match Hashtbl.find_opt t.sums (loc, v') with
          | Some l ->
            List.iter
              (fun w ->
                if w.s_id <> op.id then begin
                  let mask = ref 0 in
                  for f = 0 to t.t_fams - 1 do
                    if clk_get strict.(f) w.s_chain > w.s_rank then
                      mask := !mask lor (1 lsl f)
                  done;
                  if !mask <> 0 then
                    w.s_followers <- base !mask :: w.s_followers
                end)
              !l
          | None -> ())
        ls.li_values
    end
  | None -> ());
  (* bump own chain: [strict] becomes the inclusive clock set *)
  Array.iter
    (fun a ->
      let r = info.Stream.rank + 1 in
      if r > a.(info.Stream.chain) then a.(info.Stream.chain) <- r)
    strict;
  (* writer summary *)
  (match Op.writes_value op with
  | Some (loc, v) ->
    let s =
      {
        s_id = op.id;
        s_proc = op.proc;
        s_chain = info.Stream.chain;
        s_rank = info.Stream.rank;
        s_clk = strict;
        s_followers = [];
      }
    in
    (match Hashtbl.find_opt t.sums (loc, v) with
    | Some l -> l := insert_summary s !l
    | None -> Hashtbl.add t.sums (loc, v) (ref [ s ]));
    let ls = lstate t loc in
    if not (List.mem v ls.li_values) then ls.li_values <- v :: ls.li_values
  | None -> ());
  Hashtbl.replace t.clocks op.id { r_proc = op.proc; r_clk = strict }

let retire t id = Hashtbl.remove t.clocks id

let dead t loc value =
  Hashtbl.remove t.sums (loc, value);
  match Hashtbl.find_opt t.locs loc with
  | Some ls ->
    ls.li_values <- List.filter (fun v -> v <> value) ls.li_values;
    if value = 0 then begin
      ls.li_dead <- true;
      ls.li_touchers <- []
    end
  | None -> if value = 0 then (lstate t loc).li_dead <- true

let callbacks t =
  {
    Stream.on_finalize = (fun info -> finalize t info);
    on_retire = (fun id -> retire t id);
    on_dead_value = (fun ~loc ~value -> dead t loc value);
    on_end = (fun () -> ());
  }

(* --- public API ------------------------------------------------------ *)

let create ~procs ?groups ?model () =
  let t = make ~procs ?groups ?model () in
  let e = Stream.create ~procs (callbacks t) in
  t.t_engine <- Some e;
  t

let engine t =
  match t.t_engine with
  | Some e -> e
  | None -> invalid_arg "Online.engine: checker has no engine"

let sink t = Stream.sink (engine t)
let failures t = List.sort (fun a b -> compare a.Mixed.read_id b.Mixed.read_id) t.failures
let is_consistent t = t.failures = []

let note_fetch t ~proc ~loc ~admissible ~zero_ok =
  if proc < 0 || proc >= t.t_procs then
    invalid_arg "Online.note_fetch: process out of range";
  let note = { fn_loc = loc; fn_admissible = admissible; fn_zero_ok = zero_ok } in
  match Hashtbl.find_opt t.fetch_notes proc with
  | Some q -> Queue.push note q
  | None ->
    let q = Queue.create () in
    Queue.push note q;
    Hashtbl.add t.fetch_notes proc q

let fetched_ids t = List.sort compare t.fetched

let stats t =
  let live =
    Hashtbl.fold (fun _ l acc -> acc + List.length !l) t.sums 0
  in
  let e = t.t_engine in
  {
    ops_checked = t.ops_checked;
    reads_checked = t.reads_checked;
    pram_reads = t.pram_reads;
    causal_reads = t.causal_reads;
    group_reads = t.group_reads;
    fetched_reads = t.n_fetched;
    failure_count = List.length t.failures;
    chains = t.ch;
    max_resident = (match e with Some e -> Stream.max_resident e | None -> 0);
    live_summaries = live;
  }

let attach_metrics t reg =
  let module M = Mc_obs.Metrics in
  let fn name help f =
    M.Registry.gauge_fn reg ~help name (fun () -> float_of_int (f (stats t)))
  in
  fn "mc_online_ops_checked" "operations validated by the online checker" (fun s ->
      s.ops_checked);
  fn "mc_online_reads_checked" "reads validated" (fun s -> s.reads_checked);
  fn "mc_online_failures" "invalid reads found" (fun s -> s.failure_count);
  fn "mc_online_chains" "concurrency chains allocated" (fun s -> s.chains);
  fn "mc_online_window_high_water" "high-water of the in-flight window" (fun s ->
      s.max_resident);
  fn "mc_online_live_summaries" "writer summaries not yet reclaimed" (fun s ->
      s.live_summaries)

let groups_of_history h =
  let acc = ref [] in
  Array.iter
    (fun (o : Op.t) ->
      match o.kind with
      | Op.Read { label = Op.Group g; _ } ->
        let sg = List.sort_uniq compare g in
        if not (List.mem sg !acc) then acc := sg :: !acc
      | _ -> ())
    (History.ops h);
  !acc

let check ?groups ?model h =
  let groups =
    match groups with Some g -> g | None -> groups_of_history h
  in
  let t = create ~procs:(History.procs h) ~groups ?model () in
  Stream.replay (engine t) h;
  t
