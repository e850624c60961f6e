(* mcdsm benchmark: see perfbench/README.md.

   main --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]

   --trace 0 prints the end-to-end metrics of untraced runs, --trace 1
   the per-layer metrics of a traced run. The last line of standard
   output is one JSON object; the exit code is 1 when a correctness or
   determinism gate failed. *)

open Mcbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let trace_out = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s), "FILE chrome trace output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
      exit 2
  in
  let metrics =
    match !trace with
    | 0 -> Measure.end_to_end w ~size:Workloads.Full ~seed:!seed ~seconds:!seconds
    | 1 ->
      Measure.per_layer w ~size:Workloads.Full ~seed:!seed ~seconds:!seconds
        ~trace_out:!trace_out
    | n ->
      Printf.eprintf "--trace must be 0 or 1, not %d\n" n;
      exit 2
  in
  List.iter
    (fun (m : Measure.metric) ->
      if not (Float.is_finite m.value) then Measure.violate "%s is not finite" m.name;
      Printf.printf "  %-32s %s %s\n" m.name (Measure.fmt_value m.value) m.unit_)
    metrics;
  let attempted = !Measure.attempted and failed = !Measure.failed in
  Printf.printf "  %-32s %s ratio (%d of %d ops)\n" "failed_op_share"
    (Measure.fmt_value (float_of_int failed /. float_of_int (max 1 attempted)))
    failed attempted;
  let correct = !Measure.violations = [] in
  List.iter (Printf.printf "  GATE FAILED: %s\n") (List.rev !Measure.violations);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (m : Measure.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (if Float.is_finite m.value then Measure.fmt_value m.value else "null")
              m.unit_)
          metrics));
  exit (if correct then 0 else 1)
