(** Barrier combining tree (Section 6).

    Every node runs one combiner. A barrier over all [n] processes
    combines arrivals up the k-ary heap over nodes [0 .. n-1]
    ({!Mc_util.Heap_tree}, fan-out {!fanout}) rooted at node 0: a leaf
    process sends its arrival to its parent; an inner node waits for
    its own process and every child, then reports its whole subtree to
    its parent in one message. Once the root has heard from everyone it
    releases down the same tree, each node forwarding to its children
    the part of the release their subtrees need. Each episode therefore
    sends [n - 1] messages up and [n - 1] down, and for [n <= fanout + 1]
    the tree is a star at node 0. A barrier over a subset of the
    processes is always a star at node 0.

    Two flavours, fixed by the routing mode:

    - {e vector timestamps} (full replication): arrivals carry the
      pointwise maximum of their subtree's applied-update clocks and the
      release carries the global maximum, the updates every process
      must apply before leaving;
    - {e count vectors} (multicast or sharded routing): arrivals carry
      the sparse nonzero [(receiver, sender, count)] totals of updates
      sent by their subtree's processes, the root keeps the cumulative
      receiver → sender → count table, and each release carries only the
      entries whose receiver lies in the destination's subtree — each
      process learns how many updates to expect from each peer. *)

type t

(** The fan-out of the combining tree, an internal constant. *)
val fanout : int

(** [create ~id ~n ~send ~deliver] builds node [id]'s combiner for
    barriers over [n] processes. [send] transmits from node [id];
    [deliver ~members ~episode ~dep ~expect] hands a release to the local
    process, with [expect] its own [(sender, count)] entries. *)
val create :
  id:int ->
  n:int ->
  send:(dst:int -> Protocol.msg -> unit) ->
  deliver:
    (members:int list ->
    episode:int ->
    dep:int array ->
    expect:(int * int) list ->
    unit) ->
  t

(** [first_hop ~n ~members p] is the node process [p] sends its arrival
    to: itself when it combines a subtree (or is the root), else its
    parent; node 0 for subset barriers. *)
val first_hop : n:int -> members:int list -> int -> int

(** [handle t ~src msg] processes a [Barrier_arrive] or a
    [Barrier_release]. Raises [Invalid_argument] on a forged origin, a
    duplicate arrival, an arrival from a node that is neither this
    node's own process nor one of its children (or, at the root, not a
    subset member), count entries from outside the sender's subtree, and
    a release from a node other than the parent. *)
val handle : t -> src:int -> Protocol.msg -> unit

(** [episodes_released t] counts the episodes this node released as the
    root (for tests). *)
val episodes_released : t -> int
