(** First-class memory interface.

    Applications are written against this record of operations so the
    same program can run on the mixed-consistency runtime or on any of
    the baseline memories (sequentially consistent central server,
    write-invalidate protocol, ...) for comparison experiments. *)

type t = {
  proc_id : int;
  n_procs : int;
  read : ?label:Mc_history.Op.label -> Mc_history.Op.location -> int;
  write : Mc_history.Op.location -> int -> unit;
  init_counter : Mc_history.Op.location -> int -> unit;
  decrement : Mc_history.Op.location -> amount:int -> unit;
  read_lock : Mc_history.Op.lock_name -> unit;
  read_unlock : Mc_history.Op.lock_name -> unit;
  write_lock : Mc_history.Op.lock_name -> unit;
  write_unlock : Mc_history.Op.lock_name -> unit;
  barrier : unit -> unit;
  await : Mc_history.Op.location -> int -> unit;
      (** [await loc v] blocks until [loc] holds [v]. It watches the
          states the local replica applies, not every value the location
          passes through: the updates of one coalesced message are
          applied together, so an await can miss a value that a batch
          overwrites (a counter decremented past it, say). Await only
          values that stay put — a counter's final value, as
          Section 5.3's counters start at the number of decrements to
          come. *)
  compute : float -> unit;
}

(** [of_proc p] wraps a mixed-consistency runtime process handle. *)
val of_proc : Runtime.proc -> t

(** [spawn rt i f] spawns process [i] of the runtime and hands [f] the
    wrapped interface. *)
val spawn : Runtime.t -> int -> (t -> unit) -> unit
