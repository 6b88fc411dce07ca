(** acl-churn: writes beside reads on the same core/storage layers.  One
    XMark document of about 10^5 nodes and 64 subjects; one thread runs
    a fixed seeded interleaving of about one accessibility update
    ([Update.set_node_accessibility] or [set_subtree_accessibility]) per
    four queries, each query on a fresh [Secure_store.reader].  Every
    update invalidates every subject's access runs, so readers rebuild
    them; a read-side gain that costs writes shows up here.  The traced
    run also peels the serving path ([Peel]) on a sample of the
    queries, after its timed window. *)

open Common

let nodes = 100_000

let subjects = 64

let warm = 40

let reps = 5

(* set-ups timed on their own after the repetitions, for [setup_s] *)
let more_setups = 4

(* The document and its labeling are fixed: --seed draws the op
   sequence only.  Measured across seeds, generated labelings alone moved
   update latency by up to 40%, which no run length averages away. *)
let doc_seed = 1

(* Nominal ops per second of --seconds, over all repetitions: the window
   is a fixed op count. *)
let rate = 180

(* one update per four queries *)
let update_every = 5

(* Every [check_every]-th query is checked against the oracle mirror. *)
let check_every = 2

(* The traced run peels every [peel_every]-th query of the window. *)
let peel_every = 8

type op = Query of Query_mix.entry | Write of upd

(** [n] ops: every [update_every]-th an update drawn against [m], which
    ends holding the labeling after all of them; the rest a balanced
    query mix. *)
let draw_ops ~seed ~n m =
  let ups = draw_updates ~seed ~subjects ~n:(n / update_every) m in
  let mix = balanced_mix ~seed:(seed + 1) ~n:(n - Array.length ups) ~subjects in
  Array.init n (fun k ->
      if k mod update_every = update_every - 1 then Write ups.(k / update_every)
      else Query mix.(k - (k / update_every)))

let add_window a b =
  let tbl = List.map (fun n -> (n, a.d n + b.d n)) counter_names in
  {
    d = (fun n -> List.assoc n tbl);
    d_sim_us = a.d_sim_us +. b.d_sim_us;
    d_minor_words = a.d_minor_words +. b.d_minor_words;
    d_major = a.d_major + b.d_major;
    wall_s = a.wall_s +. b.wall_s;
  }

let zero_window = { d = (fun _ -> 0); d_sim_us = 0.; d_minor_words = 0.; d_major = 0; wall_s = 0. }

(** Run [ops] on [sys]; returns per-query and per-update latencies, the
    answers of every query, the counter windows summed per op kind, and
    the failures. *)
let run_ops sys ops =
  let nq = Array.fold_left (fun n op -> match op with Query _ -> n + 1 | Write _ -> n) 0 ops in
  let lat = Array.make nq nan and ulat = Array.make (Array.length ops - nq) nan in
  let got = Array.make nq None in
  let q_win = ref zero_window and u_win = ref zero_window and failed = ref 0 in
  let qi = ref 0 and ui = ref 0 in
  Array.iteri
    (fun id op ->
      let p0 = probe () in
      let t0 = now () in
      (match op with
      | Query e -> (
          let sem = semantics e.semantics in
          match
            span "op.query" ~op:id (fun () ->
                let r = span "core.reader_open" ~op:id (fun () -> Store.reader sys.store) in
                Fun.protect
                  ~finally:(fun () -> span "core.reader_release" ~op:id (fun () -> Store.release r))
                  (fun () -> span "nok.query" ~op:id (fun () -> Engine.query r sys.index e.xpath sem)))
          with
          | r ->
              lat.(!qi) <- 1000.0 *. (now () -. t0);
              got.(!qi) <- Some r.Engine.answers
          | exception ex ->
              incr failed;
              log "query %s failed: %s" e.xpath (Printexc.to_string ex))
      | Write u -> (
          match span "core.update" ~op:id (fun () -> apply_update sys.store u) with
          | () -> ulat.(!ui) <- 1000.0 *. (now () -. t0)
          | exception ex ->
              incr failed;
              log "update failed: %s" (Printexc.to_string ex)));
      let w = diff p0 (probe ()) in
      match op with
      | Query _ ->
          q_win := add_window !q_win w;
          incr qi
      | Write _ ->
          u_win := add_window !u_win w;
          incr ui)
    ops;
  (lat, ulat, got, !q_win, !u_win, !failed)

(** Replay the ops on the oracle's accessibility matrix and check every
    [check_every]-th query's answer against brute-force evaluation in
    the state it ran in.  Returns (checked, mismatches). *)
let oracle_check input ops got =
  let o = Oracle.create (Array.init subjects (fun s -> Labeling.to_bool_array input.labeling ~subject:s)) in
  let bad = ref 0 and checked = ref 0 and qi = ref 0 in
  Array.iter
    (fun op ->
      match op with
      | Write u ->
          if u.subtree then
            Oracle.set_range o ~subject:u.subject ~grant:u.grant ~lo:u.node
              ~hi:(Tree.subtree_end input.gen_tree u.node)
          else Oracle.set_node o ~subject:u.subject ~grant:u.grant u.node
      | Query e ->
          (match got.(!qi) with
          | Some answers when !qi mod check_every = 0 ->
              incr checked;
              let acc s v = Oracle.accessible o ~subject:s v in
              if not (oracle_agrees input.gen_tree acc (e.query_id, semantics e.semantics) answers) then
                incr bad
          | _ -> ());
          incr qi)
    ops;
  (!checked, !bad)

let run ~seed ~seconds ~trace =
  let input = generated ~name:"acl-churn" (fun () -> make_input ~seed:doc_seed ~nodes ~subjects ~archetypes:8) in
  log "inputs generated";
  let m = mirror input.labeling input.gen_tree in
  let all = draw_ops ~seed:(seed + 2) ~n:(warm + (rate * seconds / reps)) m in
  let final = mirror_labeling m in
  let warm_ops = Array.sub all 0 warm and ops = Array.sub all warm (Array.length all - warm) in
  let queries = Array.of_list (List.filter_map (function Query e -> Some e | Write _ -> None) (Array.to_list ops)) in
  let ups = Array.of_list (List.filter_map (function Write u -> Some u | Query _ -> None) (Array.to_list ops)) in
  let q = Array.length queries in
  (* the first repetition's answers, warm-up included, which every later
     repetition must repeat *)
  let first_got = ref None and inconsistent = ref 0 in
  let dol_ok = ref true and layers = ref [] and peeled = ref None in
  let rep i =
    let sys, setup = marked_setup input in
    speed_mark ();
    let transitions_before = Dol.transition_count (Store.dol sys.store) in
    let _, _, warm_got, _, _, warm_failed = run_ops sys warm_ops in
    speed_mark ();
    Gc.full_major ();
    let t0 = now () in
    let lat, ulat, win_got, q_win, u_win, failed = run_ops sys ops in
    let wall_s = now () -. t0 in
    speed_mark ();
    let speed = speed () in
    let got = Array.append warm_got win_got in
    (match !first_got with
    | None -> first_got := Some got
    | Some g -> if g <> got then incr inconsistent);
    if !tracing then begin
      let dol = Dol.of_labeling input.labeling in
      layers :=
        query_layers q_win ~q
        @ update_layers ~speed ~ulat ~dlat:(dol_replay ~target:(fun _ -> (dol, sys.tree)) ups) u_win
            ~transitions_before
            ~transitions_after:(Dol.transition_count (Store.dol sys.store))
            ~versions:(Dolx_storage.Disk.live_versions (Store.disk sys.store))
        @ dol_layers (Store.dol sys.store) ~nodes:(Tree.size sys.tree)
        @ [ ("core.reader_open_us", speed *. reader_open_us ()) ]
    end;
    (match Dol.verify_against (Store.dol sys.store) final with
    | () -> ()
    | exception Failure msg ->
        dol_ok := false;
        log "DOL differs from the mirrored labeling: %s" msg);
    let pins = Dolx_storage.Epoch.pin_count (Dolx_storage.Disk.epoch (Store.disk sys.store)) in
    if pins > 0 then log "%d reader pins leaked" pins;
    let bytes = store_bytes sys.store in
    if i = 1 then
      log_properties ~pages:(store_pages sys.store) ~subjects ~run_capacity:(run_capacity sys.store)
        ~empty:(Array.fold_left (fun n g -> if g = Some [] then n + 1 else n) 0 win_got)
        ~queries:q ~updates:(Array.length ups);
    log "repetition %d: set-up %.3fs, %d queries and %d updates in %.2fs, speed factor so far %.3f" i setup.secs q
      (Array.length ups) wall_s speed;
    if !tracing then begin
      let p = Peel.run sys queries ~every:peel_every in
      layers := !layers @ List.map (fun (k, v) -> (k, v *. speed)) p.times @ p.counts;
      peeled := Some p
    end;
    {
      setup;
      lat;
      ulat;
      wall_s;
      done_ops = Array.length ops - failed;
      failed = warm_failed + failed + pins;
      exact =
        ("nodes", Tree.size sys.tree) :: ("store_bytes", bytes)
        :: (exact_counts "query." q_win exact_query_counts
           @ exact_counts "update." u_win exact_update_counts);
      q_win;
      u_win;
    }
  in
  let rs = List.init reps (fun i -> rep (i + 1)) in
  let setups = all_setups rs (extra_setups input more_setups) in
  let traced =
    if not trace then []
    else begin
      tracing := true;
      let rt = rep (reps + 1) in
      tracing := false;
      check_reps_agree (rs @ [ rt ]);
      ("obs.trace_overhead_frac", trace_overhead rt rs) :: !layers
    end
  in
  check_reps_agree rs;
  (* correctness, outside every timed window *)
  let checked, oracle_bad = oracle_check input all (Option.get !first_got) in
  log "checked %d queries against the oracle mirror" checked;
  if oracle_bad > 0 || !inconsistent > 0 then
    log "%d oracle mismatches, %d repetitions with other answers" oracle_bad !inconsistent;
  let r0 = List.hd rs in
  let peel_attempted, peel_failed, peel_disagree =
    match !peeled with Some p -> (p.attempted, p.failed, p.disagree) | None -> (0, 0, 0)
  in
  let attempted = (reps * Array.length all) + peel_attempted in
  let failed = List.fold_left (fun n (r : rep) -> n + r.failed) peel_failed rs in
  let n = List.assoc "nodes" r0.exact in
  {
    attempted;
    failed;
    correct = oracle_bad = 0 && !inconsistent = 0 && peel_disagree = 0 && !dol_ok && failed = 0;
    e2e =
      e2e_of rs ~setups
        ~cls:(fun i -> qclass_of queries.(i).query_id)
        ~pages_read:(ratio (r0.q_win.d "disk.reads") q)
        ~bytes_per_node:(float_of_int (List.assoc "store_bytes" r0.exact) /. float_of_int n)
        ~attempted ~failed;
    layers = setup_layers setups @ traced;
    exact = r0.exact;
  }
