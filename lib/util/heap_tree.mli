(** The k-ary heap layout of a tree over array positions [0 .. size-1]:
    position [i] has children [k*i+1 .. k*i+k] (those below [size]) and
    position [0] is the root. One layout serves both the per-shard
    dissemination trees of {!Mc_placement} and the barrier combining
    tree of the runtime. *)

(** [children ~fanout ~size i] are the positions below [i], in
    increasing order. *)
val children : fanout:int -> size:int -> int -> int list

(** [parent ~fanout i] is the position above [i > 0]. *)
val parent : fanout:int -> int -> int
