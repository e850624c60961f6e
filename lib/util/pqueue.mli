(** Imperative binary-heap priority queue, stored as parallel arrays
    (unboxed float priorities, insertion sequence numbers, values).

    Elements are ordered by a priority supplied at insertion time; ties are
    broken by insertion order (FIFO), which the discrete-event engine relies
    on for determinism. *)

type 'a t

val create : unit -> 'a t

(** [add q ~priority x] inserts [x] with the given priority. *)
val add : 'a t -> priority:float -> 'a -> unit

(** [min_priority q] is the smallest priority in [q]. Raises [Not_found]
    on an empty queue. *)
val min_priority : 'a t -> float

(** [pop q] removes and returns the element with the smallest priority,
    FIFO among equal priorities; the queue keeps no reference to it.
    Raises [Not_found] on an empty queue. With {!min_priority} it serves
    hot loops without allocating a pair per element. *)
val pop : 'a t -> 'a

(** [pop_min q] is [(min_priority q, pop q)]. *)
val pop_min : 'a t -> float * 'a

(** [peek_min q] returns the smallest element without removing it. *)
val peek_min : 'a t -> (float * 'a) option

val is_empty : 'a t -> bool
val length : 'a t -> int
val clear : 'a t -> unit

(** [drain q f] pops every element in priority order and applies [f]. *)
val drain : 'a t -> (float -> 'a -> unit) -> unit
