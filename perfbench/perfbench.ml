(** The benchmark's entry point:

    {v perfbench --workload NAME --seed N --seconds S --trace 0|1 v}

    runs one workload, checks every answer, and prints as its last line
    one JSON object with [correct], [attempted], [failed] and the
    measured values by metric name: the end-to-end set with [--trace 0],
    the per-layer set with [--trace 1] (run.py adds the units from
    BENCHMARK.json).  Exits 1 after that line when a check failed.
    Exact counts are stored per (workload, seed, seconds, executable)
    under [.perfbench/] and every later run of the same seed must repeat
    them bit for bit, or the run fails without a result. *)

open Common

let workloads = [ ("xmark-table1", Xmark_table1.run); ("acl-churn", Acl_churn.run) ]

let usage () =
  prerr_endline "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with Some r -> r | None -> usage ()
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 in
  let o = run ~seed:!seed ~seconds:!seconds ~trace in
  (* With the executable's digest in the key, a rebuilt program with
     other behaviour starts a fresh record instead of failing. *)
  let key = Printf.sprintf "%s-%d-%d-%s" !workload !seed !seconds (Lazy.force build_id) in
  (match check_repeat ~key o.exact with
  | [] -> ()
  | diffs ->
      List.iter (log "exact count did not repeat: %s") diffs;
      log "FAIL: %s is not deterministic for seed %d" !workload !seed;
      exit 1);
  if trace then begin
    ensure_state_dir ();
    write_spans (Filename.concat state_dir (Printf.sprintf "spans-%s.json" key))
  end;
  print_values ~correct:o.correct ~attempted:o.attempted ~failed:o.failed (if trace then o.layers else o.e2e);
  if not o.correct then begin
    log "FAIL: %s gave wrong answers or failed ops for seed %d" !workload !seed;
    exit 1
  end
