(** Tests for the secured store: I/O accounting of access checks (§3.3),
    the header-skip optimization, and physical write-through of
    accessibility updates (§3.4). *)

module Tree = Dolx_xml.Tree
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Update = Dolx_core.Update
module Nok_layout = Dolx_storage.Nok_layout
module Buffer_pool = Dolx_storage.Buffer_pool
module Metrics = Dolx_obs.Metrics
module Prng = Dolx_util.Prng
module Engine = Dolx_nok.Engine
module Tag_index = Dolx_index.Tag_index
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl

let check = Alcotest.check

let make_store ?(page_size = 256) ?(pool_capacity = 64) n seed p =
  let rng = Prng.create seed in
  let tree = Fixtures.random_tree rng n in
  let bools = Fixtures.random_bools rng n p in
  let dol = Dol.of_bool_array bools in
  let store = Store.create ~page_size ~pool_capacity tree dol in
  (store, tree, bools)

let test_access_check_no_extra_io () =
  (* "Provided that d's disk block has been loaded … the access control
     check for d requires no additional I/O" (§3.3). *)
  let store, tree, bools = make_store 500 1 0.5 in
  for v = 0 to Tree.size tree - 1 do
    Store.touch store v;
    let misses_before = Metrics.counter_value "pool.misses" in
    let got = Store.accessible store ~subject:0 v in
    let misses_after = Metrics.counter_value "pool.misses" in
    Alcotest.(check bool) (Printf.sprintf "correct at %d" v) bools.(v) got;
    check Alcotest.int
      (Printf.sprintf "no extra miss at %d" v)
      misses_before misses_after
  done

let test_header_skip_no_io_on_cold_pool () =
  (* A fully inaccessible document: with the header optimization, access
     checks must not read any page at all. *)
  let rng = Prng.create 2 in
  let tree = Fixtures.random_tree rng 400 in
  let dol = Dol.of_bool_array (Array.make 400 false) in
  (* run index off: this test exercises the §3.3 header fallback *)
  let store = Store.create ~run_index:false ~page_size:128 tree dol in
  Metrics.reset Metrics.default;
  for v = 0 to 399 do
    Alcotest.(check bool) "denied" false (Store.accessible_with_skip store ~subject:0 v)
  done;
  check Alcotest.int "zero page touches" 0 (Metrics.counter_value "pool.touches");
  check Alcotest.int "all checks skipped" 400
    (Metrics.counter_value "store.header_skips")

let test_header_skip_correct_on_mixed_pages () =
  let store, tree, bools = make_store 600 3 0.4 in
  for v = 0 to Tree.size tree - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "agrees at %d" v)
      bools.(v)
      (Store.accessible_with_skip store ~subject:0 v)
  done

let test_update_node_write_through () =
  let store, tree, bools = make_store ~page_size:256 300 4 0.5 in
  ignore tree;
  let v = 137 in
  let target = not bools.(v) in
  Metrics.reset Metrics.default;
  let changed = Update.set_node_accessibility store ~subject:0 ~grant:target v in
  Alcotest.(check bool) "changed" true changed;
  (* a node update touches the node's page and possibly its successor's:
     "a page read followed by a page write" (§3.4) *)
  Alcotest.(check bool) "at most 3 page writes" true
    (Metrics.counter_value "disk.writes" <= 3);
  (* verify through the physical path *)
  Alcotest.(check bool) "new value visible" target (Store.accessible store ~subject:0 v);
  (* all other nodes unchanged *)
  Array.iteri
    (fun u b ->
      if u <> v then
        Alcotest.(check bool) (Printf.sprintf "node %d" u) b (Store.accessible store ~subject:0 u))
    bools

let test_update_subtree_write_through_io_bound () =
  let store, tree, _bools = make_store ~page_size:256 2000 5 0.5 in
  (* find a decently sized subtree *)
  let v =
    let best = ref 1 in
    for u = 1 to Tree.size tree - 1 do
      if Tree.subtree_size tree u > Tree.subtree_size tree !best
         && Tree.subtree_size tree u < 1500
      then best := u
    done;
    !best
  in
  let size = Tree.subtree_size tree v in
  Metrics.reset Metrics.default;
  Update.set_subtree_accessibility store ~subject:0 ~grant:true v;
  let writes = Metrics.counter_value "disk.writes" in
  let pages = Nok_layout.page_count (Store.layout store) in
  (* the paper's bound: ~N/B page I/Os, i.e. proportional to the range of
     pages the subtree spans, never the whole file per node *)
  Alcotest.(check bool)
    (Printf.sprintf "writes (%d) bounded by pages (%d) + slack" writes pages)
    true
    (writes <= pages + 4);
  Alcotest.(check bool) "far fewer writes than nodes" true (writes < size);
  (* semantics *)
  for u = v to Tree.subtree_end tree v do
    Alcotest.(check bool) (Printf.sprintf "granted %d" u) true
      (Store.accessible store ~subject:0 u)
  done

let prop_update_write_through_random =
  Fixtures.qtest ~count:40 "random physical updates keep disk = logical DOL"
    QCheck2.Gen.(
      quad (int_bound 100_000) (int_range 10 250) (int_range 6 9) (int_bound 1000))
    (fun (seed, n, psize_log, ops_seed) ->
      let rng = Prng.create seed in
      let tree = Fixtures.random_tree rng n in
      let bools = Fixtures.random_bools rng n 0.5 in
      let dol = Dol.of_bool_array bools in
      let store = Store.create ~page_size:(1 lsl psize_log) ~fill:0.8 tree dol in
      let oprng = Prng.create ops_seed in
      for _ = 1 to 15 do
        let v = Prng.int oprng n in
        let grant = Prng.bool oprng ~p:0.5 in
        if Prng.bool oprng ~p:0.7 then
          ignore (Update.set_node_accessibility store ~subject:0 ~grant v)
        else ignore (Update.set_subtree_accessibility store ~subject:0 ~grant v)
      done;
      (* physical codes must agree with the logical DOL everywhere *)
      let codes =
        Nok_layout.codes_of_all_nodes (Store.layout store) (Store.pool store)
      in
      let ok = ref true in
      Array.iteri
        (fun v c -> if c <> Dol.code_at (Store.dol store) v then ok := false)
        codes;
      (* and headers must stay consistent for the skip optimization *)
      for v = 0 to n - 1 do
        if
          Store.accessible_with_skip store ~subject:0 v
          <> Dol.accessible (Store.dol store) ~subject:0 v
        then ok := false
      done;
      !ok)

let test_epsilon_nok_same_misses_as_plain () =
  (* The ε-NoK claim (§5.2): access checking adds no I/O, so buffer
     misses must match the unsecured run on an all-accessible document. *)
  let tree = Xmark.generate_nodes ~seed:6 4000 in
  let n = Tree.size tree in
  let dol = Dol.of_bool_array (Array.make n true) in
  let store = Store.create ~page_size:4096 ~pool_capacity:32 tree dol in
  let index = Tag_index.build tree in
  List.iter
    (fun (name, q) ->
      Buffer_pool.clear (Store.pool store);
      Metrics.reset Metrics.default;
      let r_plain = Engine.query store index q Engine.Insecure in
      let plain = Metrics.counter_value "pool.misses" in
      Buffer_pool.clear (Store.pool store);
      Metrics.reset Metrics.default;
      let r_sec = Engine.query store index q (Engine.Secure 0) in
      let secure = Metrics.counter_value "pool.misses" in
      check Fixtures.int_list (name ^ " same answers") r_plain.Engine.answers
        r_sec.Engine.answers;
      check Alcotest.int (name ^ " same misses") plain secure)
    Xmark.queries

let test_skip_saves_io_when_mostly_inaccessible () =
  (* "Only when the accessibility ratio filters most of the answers …
     the secured NoK algorithm could save some page I/O by checking the
     in-memory DOL page headers" (§5.2). *)
  let tree = Xmark.generate_nodes ~seed:8 4000 in
  let n = Tree.size tree in
  let bools = Array.make n false in
  bools.(0) <- true;
  (* make the categories area accessible only *)
  let dol = Dol.of_bool_array bools in
  (* run index off: this test measures the §3.3 header skip in isolation *)
  let store =
    Store.create ~run_index:false ~page_size:1024 ~pool_capacity:16 tree dol
  in
  let index = Tag_index.build tree in
  Buffer_pool.clear (Store.pool store);
  Metrics.reset Metrics.default;
  ignore (Engine.query ~options:{ Engine.header_skip = false } store index "//item//emph" (Engine.Secure 0));
  let without = Metrics.counter_value "pool.touches" in
  Buffer_pool.clear (Store.pool store);
  Metrics.reset Metrics.default;
  ignore (Engine.query ~options:{ Engine.header_skip = true } store index "//item//emph" (Engine.Secure 0));
  let touches = Metrics.counter_value "pool.touches" in
  Alcotest.(check bool)
    (Printf.sprintf "fewer touches with skip (%d < %d)" touches without)
    true
    (touches < without);
  Alcotest.(check bool) "skips recorded" true
    (Metrics.counter_value "store.header_skips" > 0)

let suite =
  [
    Alcotest.test_case "access check: no extra I/O" `Quick test_access_check_no_extra_io;
    Alcotest.test_case "header skip: zero I/O on denied doc" `Quick
      test_header_skip_no_io_on_cold_pool;
    Alcotest.test_case "header skip: correct on mixed pages" `Quick
      test_header_skip_correct_on_mixed_pages;
    Alcotest.test_case "update: node write-through" `Quick test_update_node_write_through;
    Alcotest.test_case "update: subtree write-through I/O bound" `Quick
      test_update_subtree_write_through_io_bound;
    prop_update_write_through_random;
    Alcotest.test_case "ε-NoK: same misses as plain NoK" `Slow
      test_epsilon_nok_same_misses_as_plain;
    Alcotest.test_case "header skip saves I/O when inaccessible" `Quick
      test_skip_saves_io_when_mostly_inaccessible;
  ]
