(* Spans recorded in memory from the benchmark's own code, around its
   calls into the program's layers. Times are host monotonic
   nanoseconds. A span's request id is workload/rep/proc. *)

type span = {
  id : int;
  name : string;
  cat : string;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  rep : int;
  proc : int;  (** DSM process the span ran for, -1 outside any *)
  start_ns : int;
  mutable stop_ns : int;
}

type t = {
  workload : string;
  mutable cur_rep : int;
  mutable next_id : int;
  mutable spans : span list;  (** newest first *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let create ~workload = { workload; cur_rep = 0; next_id = 0; spans = [] }
let set_rep t rep = t.cur_rep <- rep

let open_span t ?(parent = -1) ?(proc = -1) ~cat name =
  let s =
    {
      id = t.next_id;
      name;
      cat;
      parent;
      rep = t.cur_rep;
      proc;
      start_ns = now_ns ();
      stop_ns = -1;
    }
  in
  t.next_id <- t.next_id + 1;
  t.spans <- s :: t.spans;
  s

let close s = s.stop_ns <- now_ns ()

let with_span t ?parent ?proc ~cat name f =
  let s = open_span t ?parent ?proc ~cat name in
  Fun.protect ~finally:(fun () -> close s) (fun () -> f s)

(* [call t ~parent ~proc ~cat name f] runs [f] in a span. Every effect
   [f] performs — a simulator fiber suspending — is forwarded to the
   enclosing handler, and the host time until the fiber is resumed is
   recorded as a child span "suspended": while suspended, the engine
   runs other fibers and message handlers. The span's self time is thus
   the host time spent in the call itself. *)
let call t ?parent ?proc ~cat name f =
  let s = open_span t ?parent ?proc ~cat name in
  let effc (type a) (eff : a Effect.t) =
    Some
      (fun (k : (a, _) Effect.Deep.continuation) ->
        let w = open_span t ~parent:s.id ?proc ~cat:"engine" "suspended" in
        let v = Effect.perform eff in
        close w;
        Effect.Deep.continue k v)
  in
  let r =
    Effect.Deep.match_with f ()
      {
        retc = (fun v -> v);
        exnc =
          (fun e ->
            close s;
            raise e);
        effc;
      }
  in
  close s;
  r

let spans t = List.rev t.spans
let duration s = s.stop_ns - s.start_ns
let request t (s : span) = Printf.sprintf "%s/%d/%d" t.workload s.rep s.proc

(* Self time of every closed span: its duration minus the part of its
   interval covered by its children (overlapping children counted once,
   parts outside the parent ignored). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 && s.stop_ns >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let self = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.stop_ns >= 0 then begin
        let kids =
          List.sort compare
            (Option.value ~default:[] (Hashtbl.find_opt children s.id))
        in
        (* sweep the children in start order, merging overlaps *)
        let covered, cur =
          List.fold_left
            (fun (covered, cur) (a, b) ->
              let a = max a s.start_ns and b = min b s.stop_ns in
              if b <= a then (covered, cur)
              else
                match cur with
                | Some (ca, cb) when a <= cb -> (covered, Some (ca, max cb b))
                | Some (ca, cb) -> (covered + (cb - ca), Some (a, b))
                | None -> (covered, Some (a, b)))
            (0, None) kids
        in
        let covered =
          match cur with Some (ca, cb) -> covered + (cb - ca) | None -> covered
        in
        Hashtbl.replace self s.id (duration s - covered)
      end)
    spans;
  self

(* Chrome trace_event JSON: one complete event per closed span that
   [keep] selects, with ts/dur in µs from the first, pid = rep and
   tid = proc + 1. *)
let write_chrome t ~self ~keep oc =
  let spans = List.filter (fun s -> s.stop_ns >= 0 && keep s) (spans t) in
  let t0 = List.fold_left (fun m s -> min m s.start_ns) max_int spans in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"ts\": %.3f, \
         \"dur\": %.3f, \"pid\": %d, \"tid\": %d, \"args\": {\"id\": %d, \
         \"parent\": %d, \"req\": %S, \"self_us\": %.3f}}"
        (if i = 0 then "" else ",\n")
        s.name s.cat
        (float_of_int (s.start_ns - t0) /. 1e3)
        (float_of_int (duration s) /. 1e3)
        s.rep (s.proc + 1) s.id s.parent (request t s)
        (float_of_int (Option.value ~default:0 (Hashtbl.find_opt self s.id))
        /. 1e3))
    spans;
  output_string oc "\n], \"displayTimeUnit\": \"ns\"}\n"
