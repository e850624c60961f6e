(* The three benchmark workloads: Section-5 programs run on the
   Section-6 runtime through the public Api/Runtime surface. Each is
   built from the workload seed alone, which drives the generated
   inputs and the uniform link-latency model; the program sees only
   those inputs. Every run is checked against an independent
   reference. *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Api = Mc_dsm.Api
module Latency = Mc_net.Latency
module Placement = Mc_placement.Placement
module Op = Mc_history.Op
module Online = Mc_consistency.Online
module Solver = Mc_apps.Linear_solver
module Cholesky = Mc_apps.Cholesky
module Sparse = Mc_apps.Sparse_spd

type size = Full | Tiny

(* What a benchmark run varies around a workload's fixed configuration:
   the recorder and metric switches, a hook on the created runtime, a
   wrapper around every process body, and a timer around each set-up
   phase ("placement.build", "runtime.create", "spawn"). *)
type mode = {
  record : bool;
  observe : bool;
  on_create : Runtime.t -> unit;
  wrap : Runtime.t -> proc:int -> (Api.t -> unit) -> Api.t -> unit;
  phase : 'a. string -> (unit -> 'a) -> 'a;
}

let plain =
  {
    record = false;
    observe = false;
    on_create = ignore;
    wrap = (fun _ ~proc:_ f -> f);
    phase = (fun _ f -> f ());
  }

type instance = {
  rt : Runtime.t;
  verify : unit -> (unit, string) result;
      (** after [Runtime.run]: the result equals the reference *)
}

type prepared = {
  setups : (mode -> instance) list;
      (** the instances one run sets up and runs, one after another *)
  routes : (unit -> Placement.t) option * (int * int) list;
      (** the workload's placement builder and the (shard, root) trees
          its writes are routed down; [None, []] without placement *)
}

type t = {
  name : string;
  params : size -> string;
  prepare : size -> seed:int -> prepared;
}

(* the runtime's default latency range, drawn from the workload seed *)
let latency ~seed = Latency.uniform (Mc_util.Rng.make (seed lxor 0x2545F491)) ~lo:30. ~hi:70.

let create mode ~seed cfg =
  let rt =
    mode.phase "runtime.create" (fun () ->
        Runtime.create (Engine.create ()) ~latency:(latency ~seed)
          { cfg with Config.record = mode.record; observe = mode.observe })
  in
  mode.on_create rt;
  rt

let spawn mode rt i f = Api.spawn rt i (mode.wrap rt ~proc:i f)

let checker_clean rt =
  match Runtime.online_checker rt with
  | None -> Ok ()
  | Some c -> (
    match Online.failures c with
    | [] -> Ok ()
    | fs -> Error (Printf.sprintf "online checker reported %d failures" (List.length fs)))

(* Fig. 3 handshake solver under the streaming checker. With [tol = 0]
   the generated n = 64 systems take 7 to 12 iterations to reach their
   fixed point; capping at 6 makes every seed run the same number of
   iterations, so a run's work does not depend on how fast its system
   converges. *)
let solver =
  let procs = 8 in
  let dims = function Full -> (64, 6) | Tiny -> (16, 3) in
  let variant = Solver.Handshake_causal in
  {
    name = "solver-checked";
    params =
      (fun size ->
        let n, iters = dims size in
        Printf.sprintf
          "Fig. 3 handshake solver (causal reads), procs=%d n=%d tol=0 \
           max_iters=%d, full replication, check_online with declared labels"
          procs n iters);
    prepare =
      (fun size ~seed ->
        let n, max_iters = dims size in
        let problem = Solver.Problem.generate ~seed ~n in
        let reference = Solver.reference ~variant ~max_iters ~tol:0 problem in
        let setup mode =
          let rt =
            create mode ~seed
              { (Config.default ~procs) with check_online = true }
          in
          let result =
            mode.phase "spawn" (fun () ->
                Solver.launch ~spawn:(spawn mode rt) ~procs ~variant ~max_iters
                  ~tol:0 problem)
          in
          let verify () =
            match !result with
            | None -> Error "solver produced no result"
            | Some r when r.x <> reference.x || r.iterations <> reference.iterations ->
              Error "solver result differs from Linear_solver.reference"
            | Some _ -> checker_clean rt
          in
          { rt; verify }
        in
        { setups = [ setup ]; routes = (None, []) });
  }

(* Fig. 5 lock-based sparse Cholesky with lazy release propagation.
   The fill of a random n = 64, density 0.2 matrix varies by a quarter
   from seed to seed, and messages and sim time with it. So each matrix
   is the first of its seed stream whose factor has [fill] nonzeros — a
   band around the median fill, hit by about a third of the draws — and
   every seed factors matrices of the same size. A run factors
   [matrices] of them, each on a fresh runtime with its own latency
   draws: the p99 of one factorization's ~1,700 sync waits moves by a
   fifth from seed to seed, of eight factorizations' by a tenth. *)
let cholesky =
  let procs = 8 in
  let dim = function Full -> 64 | Tiny -> 12 in
  let fill = function Full -> Some (1700, 1760) | Tiny -> None in
  let matrices = 8 in
  let density = 0.2 in
  let draw size ~seed =
    let rec go k =
      let m = Sparse.generate ~seed:((seed * 1000) + k) ~n:(dim size) ~density in
      match fill size with
      | Some (lo, hi) when Sparse.nnz m < lo || Sparse.nnz m > hi -> go (k + 1)
      | _ -> m
    in
    go 0
  in
  {
    name = "cholesky-locks";
    params =
      (fun size ->
        Printf.sprintf
          "Fig. 5 lock-based sparse Cholesky, %d matrices per run, procs=%d \
           n=%d density=%.1f%s, Lazy propagation, full replication, checker off"
          matrices procs (dim size) density
          (match fill size with
          | Some (lo, hi) -> Printf.sprintf " (factor fill %d..%d)" lo hi
          | None -> ""));
    prepare =
      (fun size ~seed ->
        (* instance [i] of seed [s] draws from stream [s * matrices + i] *)
        let instance i =
          let seed = (seed * matrices) + i in
          let problem = draw size ~seed in
          let reference = Sparse.factor_reference problem in
          fun mode ->
            let rt =
              create mode ~seed
                { (Config.default ~procs) with propagation = Config.Lazy }
            in
            let result =
              mode.phase "spawn" (fun () ->
                  Cholesky.launch ~spawn:(spawn mode rt) ~procs
                    ~variant:Cholesky.Lock_based problem)
            in
            let verify () =
              match !result with
              | None -> Error "cholesky produced no result"
              | Some r when r.l <> reference ->
                Error "cholesky factor differs from Sparse_spd.factor_reference"
              | Some _ -> Ok ()
            in
            { rt; verify }
        in
        { setups = List.init matrices instance; routes = (None, []) });
  }

(* The EXP-SHARD top point: range placement with one shard per process,
   each node subscribed to its own shard and its clockwise neighbour's.
   Per round a process writes [writes] slots of its own range, crosses a
   barrier, PRAM-reads the same slots of its two clockwise neighbours —
   the nearer subscribed (local), the farther not (demand fetch) — and
   crosses a second barrier. Written values are offset by the seed. *)
module Shard = struct
  let writes = 2

  let dims = function
    | Full -> (1_000, 100_000, 4)
    | Tiny -> (16, 1_600, 2)

  let loc id = "s:" ^ string_of_int id
  let value ~procs ~off ~proc ~slot = (slot * procs) + proc + 1 + off
  let slot_loc ~per ~proc ~slot = loc ((proc * per) + (slot mod per))
  let offset ~seed = seed land 0xFFFFF

  (* Closed form of the reads' sum. Over all readers i, (i+1) mod P and
     (i+2) mod P each run once through every process p, and
     sum_p value(p, s) = s*P^2 + P(P-1)/2 + P(1+off). The slots read are
     s = r*W + k for r < rounds, k < W. *)
  let expected ~procs ~rounds ~off =
    let p = procs and w = writes in
    let slots = rounds * w in
    let slot_sum = (w * w * rounds * (rounds - 1) / 2) + (rounds * w * (w - 1) / 2) in
    2 * ((slot_sum * p * p) + (slots * ((p * (p - 1) / 2) + (p * (1 + off)))))

  let placement ~procs ~objects () =
    let pl = Placement.create ~shards:procs ~policy:(Placement.Range { objects }) () in
    for i = 0 to procs - 1 do
      Placement.subscribe pl ~node:i ~shard:i;
      Placement.subscribe pl ~node:i ~shard:((i + 1) mod procs)
    done;
    pl

  let body ~procs ~per ~rounds ~off checksum (api : Api.t) =
    let i = api.proc_id in
    for r = 0 to rounds - 1 do
      for k = 0 to writes - 1 do
        let slot = (r * writes) + k in
        api.write (slot_loc ~per ~proc:i ~slot) (value ~procs ~off ~proc:i ~slot)
      done;
      api.barrier ();
      for k = 0 to writes - 1 do
        let slot = (r * writes) + k in
        let near = api.read ~label:Op.PRAM (slot_loc ~per ~proc:((i + 1) mod procs) ~slot) in
        let far = api.read ~label:Op.PRAM (slot_loc ~per ~proc:((i + 2) mod procs) ~slot) in
        checksum := !checksum + near + far
      done;
      api.barrier ()
    done

  let workload =
    {
      name = "shard-scale";
      params =
        (fun size ->
          let procs, objects, rounds = dims size in
          Printf.sprintf
            "EXP-SHARD top point, procs=%d objects=%d rounds=%d writes=reads=%d \
             per round, range placement (one shard per proc, own + clockwise \
             neighbour subscribed), PRAM reads, checker off"
            procs objects rounds writes);
      prepare =
        (fun size ~seed ->
          let procs, objects, rounds = dims size in
          let per = (objects + procs - 1) / procs in
          let off = offset ~seed in
          let expected = expected ~procs ~rounds ~off in
          let build = placement ~procs ~objects in
          let setup mode =
            let pl = mode.phase "placement.build" build in
            let rt =
              create mode ~seed
                {
                  (Config.default ~procs) with
                  timestamped_updates = false;
                  placement = Some pl;
                }
            in
            let checksum = ref 0 in
            mode.phase "spawn" (fun () ->
                for i = 0 to procs - 1 do
                  spawn mode rt i (body ~procs ~per ~rounds ~off checksum)
                done);
            let verify () =
              if !checksum = expected then Ok ()
              else
                Error
                  (Printf.sprintf "shard checksum %d differs from closed form %d"
                     !checksum expected)
            in
            { rt; verify }
          in
          { setups = [ setup ]; routes = (Some build, List.init procs (fun i -> (i, i))) });
    }
end

let all = [ solver; Shard.workload; cholesky ]
let find name = List.find_opt (fun w -> w.name = name) all

(* [fetched rt ~proc loc]: a read of [loc] by [proc] is served by a
   demand fetch — the location's shard is not subscribed at [proc]. *)
let fetched rt ~proc loc =
  match (Runtime.config rt).Config.placement with
  | None -> false
  | Some pl ->
    not (Placement.is_subscribed pl ~node:proc ~shard:(Placement.shard_of_loc pl loc))
