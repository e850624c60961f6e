(* One combiner per node. Full barriers combine up the k-ary heap over
   0..n-1 rooted at node 0; subset barriers are a star at node 0. *)

let fanout = 32
let root = 0

type episode = {
  arrived : (int, unit) Hashtbl.t;
  mutable vc : int array; (* pointwise max so far; [||] in count mode *)
  mutable sent : (int * int * int) list; (* gathered count entries *)
}

type t = {
  id : int;
  n : int;
  send : dst:int -> Protocol.msg -> unit;
  deliver :
    members:int list -> episode:int -> dep:int array -> expect:(int * int) list -> unit;
  (* episodes are keyed by (member set, episode number); the empty member
     set denotes a barrier over all processes *)
  episodes : (int list * int, episode) Hashtbl.t;
  (* root only: receiver -> sender -> cumulative number of updates the
     sender reported having sent to the receiver (Section 6's count
     vectors, sparse) *)
  counts : (int, (int, int) Hashtbl.t) Hashtbl.t;
  mutable released : int;
}

let create ~id ~n ~send ~deliver =
  {
    id;
    n;
    send;
    deliver;
    episodes = Hashtbl.create 4;
    counts = Hashtbl.create (if id = root then 64 else 1);
    released = 0;
  }

let parent i = Mc_util.Heap_tree.parent ~fanout i
let children t = Mc_util.Heap_tree.children ~fanout ~size:t.n t.id

let first_hop ~n ~members p =
  if members <> [] then root
  else if p = root || (fanout * p) + 1 < n then p
  else parent p

(* [i] lies in the subtree of [top]: heap ancestors have smaller ids *)
let rec within ~top i = i = top || (i > top && within ~top (parent i))

(* the child of [t.id] whose subtree holds receiver [r <> t.id] *)
let rec toward t r =
  if r <= t.id then
    invalid_arg "Barrier_manager: release entry outside the subtree";
  let p = parent r in
  if p = t.id then r else toward t p

let state t key =
  match Hashtbl.find_opt t.episodes key with
  | Some e -> e
  | None ->
    let e = { arrived = Hashtbl.create 8; vc = [||]; sent = [] } in
    Hashtbl.add t.episodes key e;
    e

(* this node's (sender, count) entries: a sender's count to everyone
   plus its count to this node *)
let own t expect =
  List.filter_map
    (fun (r, s, c) ->
      if r = t.id || (r = Protocol.everyone && s <> t.id) then Some (s, c)
      else None)
    expect
  |> List.sort compare
  |> List.fold_left
       (fun acc (s, c) ->
         match acc with
         | (s', c') :: rest when s' = s -> (s, c + c') :: rest
         | _ -> (s, c) :: acc)
       []

let record_counts t sent =
  List.iter
    (fun (r, s, c) ->
      let row =
        match Hashtbl.find_opt t.counts r with
        | Some row -> row
        | None ->
          let row = Hashtbl.create 4 in
          Hashtbl.add t.counts r row;
          row
      in
      match Hashtbl.find_opt row s with
      | Some c' when c' >= c -> ()
      | _ -> Hashtbl.replace row s c)
    sent

(* Send each of [dsts] one release carrying the entries whose receiver
   [dest_of] maps to it, plus every [everyone] entry: one pass over the
   entries. *)
let send_releases t ~episode ~members ~dep ~dsts ~dest_of entries =
  let buckets = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace buckets d (ref [])) dsts;
  List.iter
    (fun ((r, _, _) as x) ->
      let push b = b := x :: !b in
      if r = Protocol.everyone then Hashtbl.iter (fun _ b -> push b) buckets
      else Option.iter push (Hashtbl.find_opt buckets (dest_of r)))
    entries;
  List.iter
    (fun dst ->
      t.send ~dst
        (Protocol.Barrier_release
           { episode; members; dep; expect = !(Hashtbl.find buckets dst) }))
    dsts

(* Root: release itself first (over the loopback), then its children or
   the subset's members, from the whole count table *)
let release t ~members ~episode ~dep =
  t.released <- t.released + 1;
  let entries =
    Hashtbl.fold
      (fun r row acc -> Hashtbl.fold (fun s c acc -> (r, s, c) :: acc) row acc)
      t.counts []
  in
  send_releases t ~episode ~members ~dep
    ~dsts:(if members = [] then t.id :: children t else members)
    ~dest_of:(fun r -> if members <> [] || r = t.id then r else toward t r)
    entries

let arrive t ~src ~proc ~episode ~members ~vc ~sent =
  if proc <> src then invalid_arg "Barrier_manager: forged arrival origin";
  let members = List.sort_uniq compare members in
  let expected =
    match members with
    | [] ->
      if proc <> t.id && not (proc > t.id && parent proc = t.id) then
        invalid_arg "Barrier_manager: arrival from a non-member";
      1 + List.length (children t)
    | _ ->
      if t.id <> root || not (List.mem proc members) then
        invalid_arg "Barrier_manager: arrival from a non-member";
      List.length members
  in
  List.iter
    (fun (r, s, _) ->
      let in_range i = i >= 0 && i < t.n in
      if
        not
          ((r = Protocol.everyone || in_range r) && in_range s
          && if members = [] then within ~top:proc s else s = proc)
      then invalid_arg "Barrier_manager: count entry outside the sender's subtree")
    sent;
  let key = (members, episode) in
  let e = state t key in
  if Hashtbl.mem e.arrived proc then
    invalid_arg
      (Printf.sprintf "Barrier_manager: process %d arrived twice at episode %d"
         proc episode);
  Hashtbl.add e.arrived proc ();
  if vc <> [||] then begin
    if e.vc = [||] then e.vc <- Array.copy vc
    else Array.iteri (fun i v -> if v > e.vc.(i) then e.vc.(i) <- v) vc
  end;
  e.sent <- List.rev_append sent e.sent;
  if Hashtbl.length e.arrived = expected then begin
    Hashtbl.remove t.episodes key;
    if t.id = root then begin
      record_counts t e.sent;
      release t ~members ~episode ~dep:e.vc
    end
    else
      t.send ~dst:(parent t.id)
        (Protocol.Barrier_arrive
           { proc = t.id; episode; members; vc = e.vc; sent = e.sent })
  end

(* A full-barrier release from the parent is forwarded to the children
   (each gets its subtree's entries) before it is delivered here; the
   root's own copy and subset releases are only delivered. *)
let on_release t ~src ~episode ~members ~dep ~expect =
  if members = [] && src <> t.id then begin
    if t.id = root || src <> parent t.id then
      invalid_arg "Barrier_manager: release from a non-parent";
    send_releases t ~episode ~members ~dep ~dsts:(children t)
      ~dest_of:(fun r -> if r = t.id then r else toward t r)
      expect
  end;
  t.deliver ~members ~episode ~dep ~expect:(own t expect)

let handle t ~src msg =
  match msg with
  | Protocol.Barrier_arrive { proc; episode; members; vc; sent } ->
    arrive t ~src ~proc ~episode ~members ~vc ~sent
  | Protocol.Barrier_release { episode; members; dep; expect } ->
    on_release t ~src ~episode ~members ~dep ~expect
  | _ -> invalid_arg "Barrier_manager.handle: unexpected message"

let episodes_released t = t.released
