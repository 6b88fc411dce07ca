(** §3.4 ablation — update costs and Proposition 1 in practice.

    Measures (a) page I/O of single-node accessibility updates ("a page
    read followed by a page write"), (b) subtree updates vs the naive
    per-node loop (the N/B claim), and (c) the empirical distribution of
    transition-count deltas, which Proposition 1 bounds by +2. *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Update = Dolx_core.Update
module Prng = Dolx_util.Prng
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
open Bench_common

let build () =
  let tree = Xmark.generate_nodes ~seed:81 (30_000 * scale) in
  let bools =
    Synth_acl.generate_bool tree ~params:Synth_acl.default (Prng.create 82)
  in
  let dol = Dol.of_bool_array bools in
  let store = Store.create ~page_size:4096 ~pool_capacity:64 ~fill:0.85 tree dol in
  (tree, store)

let run () =
  header "Update costs (§3.4) and Proposition 1";
  let tree, store = build () in
  let n = Tree.size tree in
  Printf.printf "document: %d nodes, %d pages\n" n
    (Dolx_storage.Nok_layout.page_count (Store.layout store));
  let rng = Prng.create 83 in
  (* (a) single-node updates *)
  let n_ops = 500 in
  let max_delta = ref min_int in
  let deltas = Array.make 5 0 in
  Metrics.reset Metrics.default;
  let _, secs =
    time ~reps:1 (fun () ->
        for _ = 1 to n_ops do
          let v = Prng.int rng n in
          let grant = Prng.bool rng ~p:0.5 in
          let before = Dol.transition_count (Store.dol store) in
          ignore (Update.set_node_accessibility store ~subject:0 ~grant v);
          let delta = Dol.transition_count (Store.dol store) - before in
          if delta > !max_delta then max_delta := delta;
          let bucket = max 0 (min 4 (delta + 2)) in
          deltas.(bucket) <- deltas.(bucket) + 1
        done)
  in
  Printf.printf
    "\nsingle-node updates: %d ops in %.1f ms; avg %.2f page reads, %.2f page writes per op\n"
    n_ops (secs *. 1000.0)
    (float_of_int (Metrics.counter_value "disk.reads") /. float_of_int n_ops)
    (float_of_int (Metrics.counter_value "disk.writes") /. float_of_int n_ops);
  Printf.printf "transition-count delta histogram (Proposition 1 bound: +2): ";
  Array.iteri (fun i c -> Printf.printf "[%+d]=%d " (i - 2) c) deltas;
  Printf.printf "max observed delta: %+d\n" !max_delta;
  assert (!max_delta <= 2);
  (* (b) subtree update vs per-node loop *)
  let subtree_roots =
    List.filter
      (fun v -> Tree.subtree_size tree v >= 500 && Tree.subtree_size tree v <= 5000)
      (List.init n Fun.id)
  in
  (match subtree_roots with
  | [] -> ()
  | v :: _ ->
      let size = Tree.subtree_size tree v in
      Metrics.reset Metrics.default;
      let _, bulk_s =
        time ~reps:1 (fun () ->
            Update.set_subtree_accessibility store ~subject:0 ~grant:true v)
      in
      let bulk_writes = Metrics.counter_value "disk.writes" in
      (* naive: one update per node, after resetting the grant *)
      Update.set_subtree_accessibility store ~subject:0 ~grant:false v;
      Metrics.reset Metrics.default;
      let _, naive_s =
        time ~reps:1 (fun () ->
            for u = v to Tree.subtree_end tree v do
              ignore (Update.set_node_accessibility store ~subject:0 ~grant:true u)
            done)
      in
      let naive_writes = Metrics.counter_value "disk.writes" in
      header "Subtree accessibility update: bulk (N/B pages) vs per-node loop";
      table
        [
          [ "method"; "subtree nodes"; "page writes"; "time ms" ];
          [ "bulk subtree op"; fmt_i size; fmt_i bulk_writes; fmt_f (bulk_s *. 1000.0) ];
          [ "per-node loop"; fmt_i size; fmt_i naive_writes; fmt_f (naive_s *. 1000.0) ];
        ]);
  (* (c) structural updates: logical insert/delete obey Proposition 1 *)
  let dol = Store.dol store in
  let sub_bools = Array.init 64 (fun i -> i mod 3 = 0) in
  let sub = Dol.of_bool_array sub_bools in
  let trials = 200 in
  let ok = ref 0 in
  for _ = 1 to trials do
    let at = 1 + Prng.int rng (Dol.n_nodes dol - 1) in
    let t0 = Dol.transition_count dol and ts = Dol.transition_count sub in
    let merged = Update.dol_insert dol ~at sub in
    if Dol.transition_count merged <= t0 + ts + 2 then incr ok
  done;
  Printf.printf "\nstructural inserts: %d/%d within the Proposition 1 bound\n" !ok trials
