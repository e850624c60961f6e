(* Self-tests of the benchmark: tail-percentile selection, span self
   time on synthetic nested spans, suspension spans around a simulated
   fiber, and a tiny run of every workload whose gates must pass and
   whose metrics must be the ones BENCHMARK.json declares. *)

open Mcbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let ramp n = Array.init n (fun i -> float_of_int (n - i))

let test_tail () =
  let sel n = Pct.tail (ramp n) in
  (* nearest rank: p90 of 1..100 is 90, with 91..100 beyond it *)
  check "tail of 100 samples is p90" (sel 100 = ("p90", 90.));
  check "tail of 99 samples falls back to max" (sel 99 = ("max", 99.));
  check "tail of 999 samples is p90" (fst (sel 999) = "p90");
  check "tail of 1000 samples is p99" (sel 1000 = ("p99", 990.));
  check "tail of 10000 samples is p99" (sel 10_000 = ("p99", 9900.));
  check "median of 1..4 is 2" (Pct.median (ramp 4) = 2.);
  check "median of nothing is 0" (Pct.median [||] = 0.)

let span id ?(parent = -1) a b =
  { Spans.id; name = "s"; cat = "t"; parent; rep = 0; proc = 0; start_ns = a; stop_ns = b }

let test_self_time () =
  let spans =
    [
      span 0 0 100;
      span 1 ~parent:0 10 30;
      span 2 ~parent:0 20 40 (* overlaps 1: counted once *);
      span 3 ~parent:0 90 120 (* runs past the parent: clipped *);
      span 4 ~parent:1 12 15 (* grandchild: only its parent loses it *);
      span 5 ~parent:0 50 50 (* empty *);
    ]
  in
  let self = Spans.self_times spans in
  let get id = Hashtbl.find self id in
  check "parent self time" (get 0 = 100 - 30 - 10);
  check "child self time" (get 1 = 20 - 3);
  check "overlapping child self time" (get 2 = 20);
  check "clipped child self time" (get 3 = 30);
  check "leaf self time" (get 4 = 3)

(* A call that suspends its fiber gets a "suspended" child span; the
   engine still resumes the fiber with the suspension's result. *)
let test_call () =
  let module Engine = Mc_sim.Engine in
  let e = Engine.create () in
  let t = Spans.create ~workload:"selftest" in
  let got = ref 0 in
  Engine.spawn e (fun () ->
      got :=
        Spans.call t ~cat:"op" "wait" (fun () ->
            Engine.delay e 5.;
            Engine.suspend e (fun resume -> Engine.schedule e ~delay:1. (fun () -> resume 42))));
  ignore (Engine.run e);
  let spans = Spans.spans t in
  let suspended = List.filter (fun s -> s.Spans.name = "suspended") spans in
  check "call returns the resumed value" (!got = 42);
  check "call span closed" (List.for_all (fun s -> s.Spans.stop_ns >= s.start_ns) spans);
  check "one suspended span per suspension" (List.length suspended = 2);
  check "suspended spans are children of the call"
    (List.for_all (fun s -> s.Spans.parent = 0) suspended)

(* (name, unit) of every entry of a BENCHMARK.json list *)
let declared key =
  let module J = Mc_obs.Report.Json in
  let text =
    In_channel.with_open_bin
      (Filename.concat Filename.parent_dir_name "BENCHMARK.json")
      In_channel.input_all
  in
  let field f k = match List.assoc_opt k f with Some (J.Str s) -> s | _ -> "" in
  match J.parse text with
  | J.Obj top -> (
    match List.assoc_opt key top with
    | Some (J.List l) ->
      List.sort compare
        (List.filter_map (function J.Obj f -> Some (field f "name", field f "unit") | _ -> None) l)
    | _ -> [])
  | _ -> []

let names metrics =
  List.sort compare (List.map (fun (m : Measure.metric) -> (m.name, m.unit_)) metrics)

let test_workloads () =
  Measure.quiet := true;
  check "BENCHMARK.json lists the workloads"
    (List.map fst (declared "workloads")
    = List.sort compare (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
  List.iter
    (fun (w : Workloads.t) ->
      Measure.violations := [];
      let e2e = Measure.end_to_end w ~size:Workloads.Tiny ~seed:3 ~seconds:0.01 in
      let layer =
        Measure.per_layer w ~size:Workloads.Tiny ~seed:4 ~seconds:0.01 ~trace_out:None
      in
      List.iter (fun v -> Printf.printf "%s: %s\n" w.name v) !Measure.violations;
      check (w.name ^ " gates pass") (!Measure.violations = []);
      check (w.name ^ " end-to-end metrics are positive")
        (List.for_all (fun (m : Measure.metric) -> m.value > 0.) e2e);
      check (w.name ^ " per-layer metrics are finite")
        (List.for_all (fun (m : Measure.metric) -> Float.is_finite m.value) layer);
      check (w.name ^ " end-to-end metrics as declared") (names e2e = declared "end_to_end");
      check (w.name ^ " per-layer metrics as declared") (names layer = declared "per_layer"))
    Workloads.all;
  check "no failed runs" (!Measure.failed = 0)

let () =
  test_tail ();
  test_self_time ();
  test_call ();
  test_workloads ();
  if !failures > 0 then exit 1
