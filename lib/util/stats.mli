(** Streaming statistics accumulators and counters, used by the network
    and DSM layers to report message counts, bytes, and latencies. *)

(** Welford-style streaming summary of a sequence of floats. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float

  (** [pp] prints "n=.. mean=.. sd=.. min=.. max=..". *)
  val pp : Format.formatter -> t -> unit
end

(** Named integer counters. *)
module Counters : sig
  type t

  val create : unit -> t

  (** [counter t name] is the live cell behind [name], created at zero on
      first use. Callers on hot paths cache it to skip the per-increment
      hash lookup; increments through the cell and through {!incr}/{!add}
      are interchangeable. *)
  val counter : t -> string -> int ref

  val incr : t -> string -> unit
  val add : t -> string -> int -> unit
  val get : t -> string -> int
  val to_list : t -> (string * int) list

  (** [merge a b] adds all of [b]'s counters into [a]. *)
  val merge : t -> t -> unit

  val pp : Format.formatter -> t -> unit
end

(** [allocated_words f] runs [f] and returns its result with the exact
    number of words it allocated on the OCaml heap. A full major cycle
    runs on both sides, which makes the major-heap count exact; use it
    for deterministic allocation counts, not inside timed regions. *)
val allocated_words : (unit -> 'a) -> 'a * int
