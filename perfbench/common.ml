(** Shared plumbing of the benchmark: inputs, timed set-up, latency
    statistics, counter deltas, span recording, the oracle gate and the
    result line. *)

module Tree = Dolx_xml.Tree
module Parser = Dolx_xml.Parser
module Serializer = Dolx_xml.Serializer
module Labeling = Dolx_policy.Labeling
module Dol = Dolx_core.Dol
module Store = Dolx_core.Secure_store
module Db_file = Dolx_core.Db_file
module Tag_index = Dolx_index.Tag_index
module Engine = Dolx_nok.Engine
module Xpath = Dolx_nok.Xpath
module Metrics = Dolx_obs.Metrics
module Oracle = Dolx_fuzz.Oracle
module Xmark = Dolx_workload.Xmark
module Synth_acl = Dolx_workload.Synth_acl
module Query_mix = Dolx_workload.Query_mix
module Prng = Dolx_util.Prng

let now = Unix.gettimeofday

let start = now ()

(** Progress and report lines go to stderr, stamped with seconds since
    start; stdout carries only the result line. *)
let log fmt = Printf.ksprintf (fun s -> Printf.eprintf "[%6.2f] %s\n%!" (now () -. start) s) fmt

(* ---------- inputs ---------- *)

(** Everything the benchmark generates before set-up: the document as
    XML text, the ACL labeling, and the generator's own tree — the
    oracle evaluates on that tree, independently of the parser. *)
type input = { xml : string; labeling : Labeling.t; gen_tree : Tree.t }

let make_input ~seed ~nodes ~subjects ~archetypes =
  let gen_tree = Xmark.generate_nodes ~seed nodes in
  let labeling =
    Synth_acl.generate_multi gen_tree ~seed:(seed + 1) ~n_subjects:subjects
      ~n_archetypes:archetypes ~perturb:0.05 ()
  in
  { xml = Serializer.to_string gen_tree; labeling; gen_tree }

(** The executable's digest: keys everything stored under
    [state_dir], so a rebuilt program never reads another build's
    records. *)
let build_id = lazy (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12)

let state_dir = ".perfbench"

let ensure_state_dir () =
  if not (Sys.file_exists state_dir) then Unix.mkdir state_dir 0o755

(** [generated ~name f] returns the inputs [f ()] builds.  They are made
    once per build, in a child process, and kept marshalled under
    [state_dir]: the generator's garbage never enters this process, so
    its heap, GC work and peak RSS hold only the inputs and the program,
    and later runs skip generation.  Call it before any domain or thread
    is started. *)
let generated ~name (f : unit -> 'a) : 'a =
  ensure_state_dir ();
  let path = Filename.concat state_dir (Printf.sprintf "inputs-%s-%s.bin" name (Lazy.force build_id)) in
  if not (Sys.file_exists path) then begin
    let tmp = Printf.sprintf "%s.%d" path (Unix.getpid ()) in
    (match Unix.fork () with
    | 0 ->
        let code =
          match
            let oc = open_out_bin tmp in
            Marshal.to_channel oc (f ()) [];
            close_out oc
          with
          | () -> 0
          | exception _ -> 1
        in
        Unix._exit code
    | pid -> (
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> Unix.rename tmp path
        | _ ->
            (try Sys.remove tmp with Sys_error _ -> ());
            failwith "input generation failed"))
  end;
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> (input_value ic : 'a))

(** Buffer-pool frames of every store (the library default, pinned so
    the document-to-pool ratios below stay what the workloads claim). *)
let pool_pages = 64

(** The program as set up from one input. *)
type system = { tree : Tree.t; dol : Dol.t; store : Store.t; index : Tag_index.t }

(** Per-stage set-up seconds: parse, DOL build, store build, tag index. *)
type setup_times = { parse_s : float; dol_s : float; store_s : float; index_s : float }

let build input =
  let t0 = now () in
  let tree = Parser.parse input.xml in
  let t1 = now () in
  let dol = Dol.of_labeling input.labeling in
  let t2 = now () in
  let store = Store.create ~pool_capacity:pool_pages tree dol in
  let t3 = now () in
  let index = Tag_index.build tree in
  let t4 = now () in
  if Tree.size tree <> Tree.size input.gen_tree then
    failwith "parsed document differs in size from the generated one";
  ( { tree; dol; store; index },
    { parse_s = t1 -. t0; dol_s = t2 -. t1; store_s = t3 -. t2; index_s = t4 -. t3 } )

let median_f xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** One set-up after a full major collection: [f] builds the systems
    and returns them with their per-stage times (summed over tenants).
    Returns the systems, the total seconds and the stages. *)
let timed_setup f =
  Gc.full_major ();
  let t0 = now () in
  let sys, st = f () in
  (sys, now () -. t0, st)

(* ---------- operations ---------- *)

(** Table 1 splits by mechanism: Q1–Q3 are path queries (ε-NoK),
    Q4–Q6 are joins (ε-STD). *)
type qclass = Path | Join

let qclass_of id =
  match id with
  | "Q1" | "Q2" | "Q3" -> Path
  | "Q4" | "Q5" | "Q6" -> Join
  | _ -> invalid_arg ("unknown query id " ^ id)

let semantics = function
  | Query_mix.Insecure -> Engine.Insecure
  | Query_mix.Secure s -> Engine.Secure s
  | Query_mix.Secure_path s -> Engine.Secure_path s

(** A balanced Table-1 mix of [n] queries, shuffled by [seed]: the six
    queries equally often and, per query, the [Query_mix] semantics
    shares (1 in 10 insecure; of the secure ones 1 in 4 with path
    semantics: 4, 9 and 27 of every 40), subjects uniform.  Balancing
    keeps the mix, and with it every per-query average, the same from
    seed to seed. *)
let balanced_mix ~seed ~n ~subjects =
  let rng = Prng.create seed in
  let queries = Array.of_list Xmark.queries in
  let a =
    Array.init n (fun k ->
        let query_id, xpath = queries.(k mod Array.length queries) in
        let stratum = k / Array.length queries mod 40 in
        let s = Prng.int rng subjects in
        let semantics =
          if stratum < 4 then Query_mix.Insecure
          else if stratum < 13 then Query_mix.Secure_path s
          else Query_mix.Secure s
        in
        { Query_mix.query_id; xpath; semantics })
  in
  Prng.shuffle rng a;
  a

(* ---------- latency statistics ---------- *)

(** Growable float sample buffer. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 256 0.0; n = 0 }

let push s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort compare a;
  a

(** Linear-interpolated quantile [q] in [0, 1] of a sorted array. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(** The tail quantile reported: p99 when at least ten samples lie beyond
    it, otherwise the highest quantile that has ten beyond it. *)
let tail_q n = if n <= 10 then 0.0 else Float.min 0.99 (1.0 -. (10.0 /. float_of_int n))

let p50 s = quantile (sorted s) 0.5

let tail s = quantile (sorted s) (tail_q s.n)

let describe name s =
  Printf.sprintf "%s: n=%d p50=%.3fms p%.2f=%.3fms" name s.n (p50 s)
    (100.0 *. tail_q s.n) (tail s)

(* ---------- machine speed ---------- *)

(* The machine this benchmark was tuned on shares its memory system
   with other tenants: the same run went 40-55% slower for stretches of
   tens of seconds.  A fixed reference kernel that allocates and walks
   a 200 000-cell list, as the program's own loops do, slows down with
   it.  So the kernel is timed several times through a run, between
   its windows, and the run's times are reported at the reference
   speed: multiplied by [reference_ms] over the run's marks ([speed]).
   One factor for the whole run, from a dozen marks, spread less than
   a factor per repetition from three.  On an unloaded
   machine the factor is near 1.  Each mark starts with a full major
   collection, so the kernel never pays for garbage the program left;
   with the program's live heap grown from 0 to 800 MB it then took
   11.6, 11.7 and 12.1 ms (medians of six rounds), so the factor
   follows the machine, not the program's heap. *)

(** Kernel time at the reference speed (its median after a full major
    collection, 2 vCPUs at 2.0 GHz). *)
let reference_ms = 11.5

let kernel () =
  let l = List.init 200_000 (fun i -> (i, i)) in
  Sys.opaque_identity (List.fold_left (fun a (x, _) -> a + x) 0 l)

let speed_marks = ref []

(** After a full major collection and one untimed run, which grows the
    heap to the kernel's size, time the kernel (median of seven runs)
    and keep it for the run.  Call it outside every timed window. *)
let speed_mark () =
  Gc.full_major ();
  ignore (kernel ());
  let a =
    Array.init 7 (fun _ ->
        let t0 = now () in
        ignore (kernel ());
        1000.0 *. (now () -. t0))
  in
  Array.sort compare a;
  speed_marks := a.(3) :: !speed_marks

(** One timed set-up, with the kernel mark taken just before it. *)
type setup = { secs : float; stages : setup_times; mark : float }

(** Mark the speed, then set up [input] after a full major collection.
    The set-up is later corrected by its own mark: the machine's speed
    changes within a run, and a set-up has no best-of-repetitions to
    catch its faster moments. *)
let marked_setup input =
  speed_mark ();
  let mark = List.hd !speed_marks in
  let sys, secs, stages = timed_setup (fun () -> build input) in
  (sys, { secs; stages; mark })

(** [n] more marked set-ups of [input], their systems dropped.  Set-up
    time is bimodal (0.21 or 0.35 s on acl-churn, as the machine runs
    fast or slow), so its median needs more samples than the
    repetitions give. *)
let extra_setups input n = List.init n (fun _ -> snd (marked_setup input))

(** The run's speed factor: [reference_ms] over the lower quartile of
    its marks so far.  Latencies are each op's best over the
    repetitions, so they are set against the machine's faster moments
    too; the lower quartile also leaves out the marks a young process
    inflates (20-25 ms in the first repetition against 11-12 ms
    later). *)
let speed () =
  let a = Array.of_list !speed_marks in
  Array.sort compare a;
  reference_ms /. quantile a 0.25

(* ---------- counters ---------- *)

(** Snapshot of the process-wide counters named in [names]. *)
let counters names = List.map (fun n -> (n, Metrics.counter_value n)) names

let delta before after name =
  List.assoc name after - List.assoc name before

(* ---------- spans ---------- *)

(** A recorded span: layer call [name] made for operation [op]; [parent]
    is the index of the enclosing span, or -1.  Spans are recorded on
    the main thread only. *)
type span = { name : string; op : int; parent : int; t0 : float; t1 : float }

let spans : (int * span) list ref = ref []

let n_spans = ref 0

(* ids of the open spans, innermost first *)
let open_spans = ref []

let tracing = ref false

(** [span name ~op f] times [f ()] as one span when tracing is on; spans
    opened inside [f] become its children. *)
let span name ~op f =
  if not !tracing then f ()
  else begin
    let id = !n_spans in
    incr n_spans;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      open_spans := List.tl !open_spans;
      spans := (id, { name; op; parent; t0; t1 }) :: !spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(** Recorded spans, indexed by id. *)
let recorded () =
  let a = Array.make !n_spans { name = ""; op = -1; parent = -1; t0 = 0.; t1 = 0. } in
  List.iter (fun (id, s) -> a.(id) <- s) !spans;
  a

(** Self time in ms of every span named [name]: its duration minus the
    time covered by its direct children. *)
let self_ms name =
  let all = recorded () in
  let child = Array.make (Array.length all) 0.0 in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0))
    all;
  let out = samples () in
  Array.iteri
    (fun i s -> if s.name = name then push out (1000.0 *. (s.t1 -. s.t0 -. child.(i))))
    all;
  out

(** Per-op durations (ms) of spans named [name], indexed by op. *)
let by_op name =
  let h = Hashtbl.create 1024 in
  Array.iter
    (fun s -> if s.name = name then Hashtbl.replace h s.op (1000.0 *. (s.t1 -. s.t0)))
    (recorded ());
  h

(** Median over ops of the [core.reader_open] plus [core.reader_release]
    span durations, in microseconds. *)
let reader_open_us () =
  let opened = by_op "core.reader_open" and released = by_op "core.reader_release" in
  let out = samples () in
  Hashtbl.iter
    (fun op x -> push out (1000.0 *. (x +. Option.value (Hashtbl.find_opt released op) ~default:0.0)))
    opened;
  p50 out

let write_spans path =
  let all = recorded () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      Array.iteri
        (fun i s ->
          Printf.fprintf oc "%s{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_us\":%.1f,\"end_us\":%.1f}\n"
            (if i = 0 then "" else ",")
            i s.name s.op s.parent (1e6 *. s.t0) (1e6 *. s.t1))
        all;
      output_string oc "]\n")

(* ---------- correctness ---------- *)

(** Oracle semantics for a subject's accessibility predicate. *)
let oracle_sem acc = function
  | Engine.Insecure -> Oracle.Any
  | Engine.Secure s -> Oracle.Bound (acc s)
  | Engine.Secure_path s -> Oracle.Path (acc s)

(** Remembers the first answer of each distinct key and compares every
    later answer with it, so one oracle check per key covers all ops. *)
type 'k answers = { first : ('k, int list) Hashtbl.t; mutable mismatches : int }

let answers () = { first = Hashtbl.create 512; mismatches = 0 }

let record ans key got =
  match Hashtbl.find_opt ans.first key with
  | None -> Hashtbl.add ans.first key got
  | Some want -> if want <> got then ans.mismatches <- ans.mismatches + 1

let patterns = List.map (fun (id, xp) -> (id, Xpath.parse xp)) Xmark.queries

(** Does [got] equal the oracle's answer to query [qid] under [sem] on
    [tree], with [acc s v] the ground-truth accessibility? *)
let oracle_agrees tree acc (qid, sem) got =
  Oracle.eval tree (oracle_sem acc sem) (List.assoc qid patterns) = got

(* ---------- process ---------- *)

(** VmHWM of this process in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(** Exact counts must repeat bit-for-bit across runs of one seed: the
    first run of a (workload, seed, seconds) stores them, later runs
    compare.  Returns one line per count that differs. *)
let check_repeat ~key (counts : (string * int) list) =
  ensure_state_dir ();
  let path = Filename.concat state_dir ("counts-" ^ key ^ ".txt") in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let stored =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | line -> go (Scanf.sscanf line "%s %d" (fun k v -> (k, v)) :: acc)
            | exception End_of_file -> acc
          in
          go [])
    in
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k stored with
        | Some w when w = v -> None
        | Some w -> Some (Printf.sprintf "%s: %d now, %d in an earlier run" k v w)
        | None -> Some (Printf.sprintf "%s: missing from the earlier run" k))
      counts
  end
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> List.iter (fun (k, v) -> Printf.fprintf oc "%s %d\n" k v) counts);
    []
  end

(* ---------- result ---------- *)

(** Print the run's outcome as one JSON line: the checks, the op counts
    and the measured [values] by metric name.  Units and the set of
    metrics a run must report live in BENCHMARK.json alone; run.py joins
    them with these values into the result line. *)
let print_values ~correct ~attempted ~failed (values : (string * float) list) =
  List.iter
    (fun (n, v) -> if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not finite" n))
    values;
  let body = String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "\"%s\": %.17g" n v) values) in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"values\": {%s}}\n%!" correct
    attempted failed body

(* ---------- layer counters ---------- *)

let counter_names =
  [
    "engine.queries"; "engine.candidates_scanned"; "engine.answers"; "engine.joins";
    "engine.plan_summary_path"; "store.access_checks"; "store.run_answers";
    "runs.builds"; "runs.hits"; "pool.touches"; "pool.hits"; "pool.misses";
    "pool.evictions"; "disk.reads"; "disk.writes"; "update.pages_refreshed";
    "wire.frames_in"; "wire.frames_out";
  ]

(** Process-wide counters, simulated disk time and GC totals at one
    instant; two probes bracket a window. *)
type probe = {
  c : (string * int) list;
  sim_us : float;
  minor_words : float;
  major : int;
  at : float;
}

let probe () =
  let st = Gc.quick_stat () in
  {
    c = counters counter_names;
    sim_us = Metrics.gauge_value (Metrics.gauge "disk.simulated_us");
    minor_words = st.Gc.minor_words;
    major = st.Gc.major_collections;
    at = now ();
  }

(** Difference of two probes. *)
type window = {
  d : string -> int;
  d_sim_us : float;
  d_minor_words : float;
  d_major : int;
  wall_s : float;
}

let diff a b =
  {
    d = delta a.c b.c;
    d_sim_us = b.sim_us -. a.sim_us;
    d_minor_words = b.minor_words -. a.minor_words;
    d_major = b.major - a.major;
    wall_s = b.at -. a.at;
  }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(** Per-query layer metrics of a window that ran [q] queries. *)
let query_layers w ~q =
  let d = w.d in
  [
    ("nok.candidates_scanned_per_query", ratio (d "engine.candidates_scanned") q);
    ("nok.answers_per_candidate", ratio (d "engine.answers") (d "engine.candidates_scanned"));
    ("nok.joins_per_query", ratio (d "engine.joins") q);
    ("nok.summary_path_share", ratio (d "engine.plan_summary_path") q);
    ("core.access_checks_per_query", ratio (d "store.access_checks") q);
    ("core.run_answer_share", ratio (d "store.run_answers") (d "store.access_checks"));
    ("core.runs_builds_per_query", ratio (d "runs.builds") q);
    ("core.runs_hit_ratio", ratio (d "runs.hits") (d "runs.hits" + d "runs.builds"));
    ("storage.page_touches_per_query", ratio (d "pool.touches") q);
    ("storage.pool_hit_ratio", ratio (d "pool.hits") (d "pool.touches"));
    ("storage.pool_evictions_per_query", ratio (d "pool.evictions") q);
    ("storage.sim_io_ms_per_query", if q = 0 then 0.0 else w.d_sim_us /. 1000.0 /. float_of_int q);
    ("gc.minor_mwords_per_query", if q = 0 then 0.0 else w.d_minor_words /. 1e6 /. float_of_int q);
    ("gc.major_per_kop", if q = 0 then 0.0 else 1000.0 *. float_of_int w.d_major /. float_of_int q);
  ]

(** Counts of a window that a fixed op sequence on a fresh system must
    repeat exactly (single-threaded windows). *)
let exact_query_counts =
  [ "disk.reads"; "engine.candidates_scanned"; "engine.answers"; "store.access_checks"; "pool.touches"; "runs.builds" ]

let exact_update_counts = [ "disk.reads"; "disk.writes"; "update.pages_refreshed" ]

(** Exact per-window counts for the repeat check. *)
let exact_counts prefix w names = List.map (fun n -> (prefix ^ n, w.d n)) names

(* ---------- ACL updates ---------- *)

module Acl = Dolx_policy.Acl
module Update = Dolx_core.Update

(** One accessibility update: flip [subject]'s right on [node] alone or
    on its whole subtree.  [grant] is fixed when the sequence is drawn,
    as the negation of the current right, so every update changes the
    labeling. *)
type upd = { subject : int; node : int; subtree : bool; grant : bool }

(** The labeling as a mutable per-node ACL array: decides each update's
    direction and gives the final labeling for [Dol.verify_against]. *)
type mirror = { acls : Acl.store; node_acl : Acl.id array; tree : Tree.t }

let mirror labeling tree =
  {
    acls = Labeling.store labeling;
    node_acl = Array.init (Labeling.size labeling) (Labeling.acl_id labeling);
    tree;
  }

let mirror_accessible m ~subject v = Acl.grants m.acls m.node_acl.(v) subject

let upd_hi m u = if u.subtree then Tree.subtree_end m.tree u.node else u.node

let mirror_apply m u =
  for v = u.node to upd_hi m u do
    m.node_acl.(v) <- Acl.with_bit m.acls m.node_acl.(v) u.subject u.grant
  done

let mirror_labeling m = Labeling.create ~store:m.acls ~node_acl:(Array.copy m.node_acl)

(** [n] updates alternating single-node and subtree, each on a random
    subject and drawn against [m]'s current state, which they are
    applied to.  The nodes are stratified: each kind's updates take one
    node from each of equal shares of the non-root nodes ordered by
    subtree size, in shuffled order.  An update's cost grows with its
    subtree, so every seed then draws the same mix of small and large
    subtrees; uniformly drawn nodes moved the update tail by 28% from
    seed to seed. *)
let draw_updates ~seed ~subjects ~n m =
  let rng = Prng.create seed in
  let by_size = Array.init (Tree.size m.tree - 1) (fun i -> i + 1) in
  let size v = Tree.subtree_end m.tree v - v in
  Array.stable_sort (fun u v -> compare (size u) (size v)) by_size;
  let strata kind =
    let k = (n + 1 - kind) / 2 in
    let a = Array.init k Fun.id in
    Prng.shuffle rng a;
    (k, a)
  in
  let kinds = [| strata 0; strata 1 |] in
  Array.init n (fun i ->
      let k, order = kinds.(i land 1) in
      let stratum = order.(i / 2) and len = Array.length by_size in
      let lo = stratum * len / k and hi = (stratum + 1) * len / k in
      let node = by_size.(lo + Prng.int rng (hi - lo)) in
      let subject = Prng.int rng subjects in
      let u = { subject; node; subtree = i land 1 = 1; grant = not (mirror_accessible m ~subject node) } in
      mirror_apply m u;
      u)

let apply_update store u =
  if u.subtree then
    Update.set_subtree_accessibility store ~subject:u.subject ~grant:u.grant u.node
  else ignore (Update.set_node_accessibility store ~subject:u.subject ~grant:u.grant u.node)

(** Time a sequence of updates, op [i] on [store i]; returns per-op
    latencies (ms), [nan] for an update that raised. *)
let timed_updates ~store ups =
  Array.mapi
    (fun i u ->
      let t0 = now () in
      match span "core.update" ~op:i (fun () -> apply_update (store i) u) with
      | () -> 1000.0 *. (now () -. t0)
      | exception ex ->
          log "update failed: %s" (Printexc.to_string ex);
          nan)
    ups

(** Bytes of the serialized store per node — the compactness claim. *)
let store_bytes store = Bytes.length (Db_file.to_bytes store)

(* ---------- repetitions ---------- *)

(** One repetition: a fresh set-up, then the op sequence.  Every
    workload runs the same sequence [reps] times on fresh systems.
    Times are raw, at the machine's speed. *)
type rep = {
  setup : setup;
  lat : float array;  (** per query of the window, ms; [nan] if it failed *)
  ulat : float array;  (** per update, ms; [nan] if it failed *)
  wall_s : float;  (** the window's wall time *)
  done_ops : int;  (** ops the window completed *)
  failed : int;  (** failed ops, warm-up included *)
  exact : (string * int) list;  (** counts every repetition must repeat *)
  q_win : window;  (** counters over the window's queries *)
  u_win : window;  (** counters over the updates *)
}

(** Per-op minimum over repetitions of one op sequence: each op's time
    on its fastest repetition, which keeps the program's own cost and
    drops most of the machine's speed drift between repetitions.  [nan]
    when the op failed every time. *)
let best_per_op arrays =
  match arrays with
  | [] -> [||]
  | first :: _ ->
      Array.init (Array.length first) (fun i ->
          List.fold_left
            (fun m a -> if Float.is_nan a.(i) then m else if Float.is_nan m then a.(i) else Float.min m a.(i))
            nan arrays)

let samples_of ?(keep = fun _ -> true) best =
  let s = samples () in
  Array.iteri (fun i x -> if keep i && Float.is_finite x then push s x) best;
  s

(** Every repetition must repeat the first one's exact counts. *)
let check_reps_agree reps =
  match reps with
  | [] -> ()
  | r0 :: rest ->
      List.iteri
        (fun i r ->
          List.iter2
            (fun (k, a) (_, b) ->
              if a <> b then
                failwith
                  (Printf.sprintf "exact count %s differs between repetition 1 (%d) and %d (%d)" k a (i + 2) b))
            r0.exact r.exact)
        rest

(** [r] with its window's times rescaled by [f], the run's [speed ()]. *)
let at_speed f r =
  let ms = Array.map (( *. ) f) in
  {
    r with
    lat = ms r.lat;
    ulat = ms r.ulat;
    wall_s = r.wall_s *. f;
  }

(** [s]'s time at the reference speed by its own mark. *)
let setup_at_speed s = s.secs *. reference_ms /. s.mark

(** The timed end-to-end metrics of raw repetitions at speed factor
    [f]: latencies best-per-op over the repetitions ([cls i] is the
    class of query [i]), the fastest repetition's throughput, and the
    median over [setups], every set-up of the run, each timed by
    [setup_time]. *)
let e2e_times ~f ~setup_time reps ~setups ~cls =
  let reps = List.map (at_speed f) reps in
  let best = best_per_op (List.map (fun r -> r.lat) reps) in
  let path = samples_of ~keep:(fun i -> cls i = Path) best in
  let join = samples_of ~keep:(fun i -> cls i = Join) best in
  let upd = samples_of (best_per_op (List.map (fun r -> r.ulat) reps)) in
  ( [
      ("setup_s", median_f (List.map setup_time setups));
      ("ops_per_s", List.fold_left (fun m r -> Float.max m (float_of_int r.done_ops /. r.wall_s)) 0.0 reps);
      ("path_p50_ms", p50 path);
      ("path_tail_ms", tail path);
      ("join_p50_ms", p50 join);
      ("join_tail_ms", tail join);
      ("update_p50_ms", p50 upd);
      ("update_tail_ms", tail upd);
    ],
    [ describe "path" path; describe "join" join; describe "update" upd ] )

(** Every set-up of a run: the repetitions' and the [extra] ones. *)
let all_setups reps extra = List.map (fun r -> r.setup) reps @ extra

(** End-to-end metrics shared by all workloads, from raw repetitions:
    the timed ones at the reference speed, then the counts.  The raw
    figures are logged next to the scaled ones. *)
let e2e_of reps ~setups ~cls ~pages_read ~bytes_per_node ~attempted ~failed =
  let f = speed () in
  let raw, _ = e2e_times ~f:1.0 ~setup_time:(fun s -> s.secs) reps ~setups ~cls in
  let scaled, lines = e2e_times ~f ~setup_time:setup_at_speed reps ~setups ~cls in
  log "kernel marks %s ms: speed factor %.3f"
    (String.concat " " (List.rev_map (Printf.sprintf "%.2f") !speed_marks))
    f;
  log "set-ups %s s" (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" s.secs) setups));
  List.iter (log "at reference speed: %s") lines;
  List.iter2 (fun (k, r) (_, v) -> log "%s: raw %.4g, at reference speed %.4g" k r v) raw scaled;
  scaled
  @ [
      ("pages_read_per_query", pages_read);
      ("peak_rss_mb", peak_rss_mb ());
      ("store_bytes_per_node", bytes_per_node);
      ("completed_frac", 1.0 -. ratio failed attempted);
    ]

(** The traced repetition's wall time against the untraced ones'. *)
let trace_overhead rt reps = (rt.wall_s /. median_f (List.map (fun r -> r.wall_s) reps)) -. 1.0

(** Median per-stage times over [setups], each at the reference speed by
    its own mark. *)
let setup_layers setups =
  let med g = median_f (List.map (fun s -> g s.stages *. reference_ms /. s.mark) setups) in
  [
    ("xml.parse_s", med (fun s -> s.parse_s));
    ("core.dol_build_s", med (fun s -> s.dol_s));
    ("core.store_build_s", med (fun s -> s.store_s));
    ("index.tag_build_s", med (fun s -> s.index_s));
  ]

(** Log the workload properties later changes are judged against: the
    document's pages per pool frame, subjects per run-index slot, the
    share of queries with an empty answer, and the share of updates. *)
let log_properties ~pages ~subjects ~run_capacity ~empty ~queries ~updates =
  log "properties: document pages / pool pages = %.1f, subjects / run-index capacity = %.2f, empty answers %.1f%% of %d queries, updates %.1f%% of ops"
    (float_of_int pages /. float_of_int pool_pages)
    (float_of_int subjects /. float_of_int run_capacity)
    (100.0 *. ratio empty queries) queries
    (100.0 *. ratio updates (queries + updates))

let store_pages store = Dolx_storage.Nok_layout.page_count (Store.layout store)

let run_capacity store = Dolx_core.Access_runs.capacity (Store.run_index store)

(* ---------- outcome ---------- *)

(** What one workload run produces: values by metric name. *)
type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  e2e : (string * float) list;
  layers : (string * float) list;
  exact : (string * int) list;
}

(** Standalone logical-DOL replay of [ups]: per-op ms of the
    [Update.dol_set_*] call alone, recorded as [core.dol_update] spans;
    op [i] goes to the DOL and tree [target i]. *)
let dol_replay ~target ups =
  Array.mapi
    (fun i u ->
      let dol, tree = target i in
      let t0 = now () in
      span "core.dol_update" ~op:i (fun () ->
          if u.subtree then Update.dol_set_subtree dol tree ~subject:u.subject ~grant:u.grant u.node
          else ignore (Update.dol_set_node dol ~subject:u.subject ~grant:u.grant u.node));
      1000.0 *. (now () -. t0))
    ups

(** Update-side layer metrics: [ulat] are the store updates' latencies,
    [w] their counter window, [dlat] the logical replay's latencies;
    times are scaled to the reference speed by [speed]. *)
let update_layers ~speed ~ulat ~dlat w ~transitions_before ~transitions_after ~versions =
  let n = Array.length ulat in
  let ulat = Array.map (( *. ) speed) ulat and dlat = Array.map (( *. ) speed) dlat in
  [
    ("core.update_dol_ms", p50 (samples_of dlat));
    ("core.update_writeback_ms", p50 (samples_of (Array.map2 ( -. ) ulat dlat)));
    ("core.pages_refreshed_per_update", ratio (w.d "update.pages_refreshed") n);
    ("storage.disk_writes_per_update", ratio (w.d "disk.writes") n);
    ("storage.versions_live", float_of_int versions);
    ("core.dol_transitions_growth", ratio transitions_after transitions_before);
  ]

let dol_layers dol ~nodes =
  [
    ("core.dol_bytes_per_node", float_of_int (Dol.storage_bytes dol) /. float_of_int nodes);
    ("core.codebook_entries", float_of_int (Dolx_core.Codebook.count (Dol.codebook dol)));
  ]
