(** A simulated block device with modeled faults.

    Pages are stored in memory; the point is faithful accounting of page
    reads and writes (and an optional synthetic latency model) so that the
    paper's I/O arguments — "the access control check for d requires no
    additional I/O" (§3.3), "the cost for updating accessibility of a
    subtree with N nodes would be N/B page reads and writes" (§3.4) — can
    be measured rather than asserted.

    On top of the idealized device sits a fault model, because an access
    control store must not fail open when hardware misbehaves:

    - every write records a CRC32C of the intended page image; every read
      re-verifies it, so any divergence between intended and stored bytes
      surfaces as a typed {!Fault} instead of silently corrupt labels;
    - a {!fault_plan} (driven by an explicit [Prng.t], so every failure
      schedule is reproducible) injects transient read errors, permanent
      bad pages, torn writes (only a prefix of the page persists) and
      random bit flips. *)

module Prng = Dolx_util.Prng
module Crc = Dolx_util.Crc
module Metrics = Dolx_obs.Metrics

(* The device's I/O accounting lives only in the process-wide registry
   (see docs/ARCHITECTURE.md, "Observability"). *)
let c_reads = Metrics.counter "disk.reads"

let c_writes = Metrics.counter "disk.writes"

let c_allocations = Metrics.counter "disk.allocations"

let c_transient_faults = Metrics.counter "disk.transient_faults"

let c_torn_writes = Metrics.counter "disk.torn_writes"

let c_bit_flips = Metrics.counter "disk.bit_flips"

let c_checksum_failures = Metrics.counter "disk.checksum_failures"

let c_bad_page_faults = Metrics.counter "disk.bad_page_faults"

let g_simulated_us = Metrics.gauge "disk.simulated_us"

let g_crc_us = Metrics.gauge "disk.crc_us"

let c_versions_saved = Metrics.counter "disk.versions_saved"

let c_versions_retired = Metrics.counter "disk.versions_retired"

let g_versions_live = Metrics.gauge "disk.versions_live"

type fault_kind =
  | Transient_read  (** the read failed but a retry may succeed *)
  | Bad_page  (** the page is permanently unreadable/unwritable *)
  | Checksum_mismatch  (** stored bytes do not match the recorded CRC32C *)

let fault_kind_name = function
  | Transient_read -> "transient read error"
  | Bad_page -> "bad page"
  | Checksum_mismatch -> "checksum mismatch"

exception Fault of { page : int; kind : fault_kind }

let () =
  Printexc.register_printer (function
    | Fault { page; kind } ->
        Some (Printf.sprintf "Disk.Fault(page %d: %s)" page (fault_kind_name kind))
    | _ -> None)

type fault_plan = {
  fault_prng : Prng.t;
  transient_read_p : float;  (** per read: raise [Transient_read] *)
  torn_write_p : float;  (** per write: persist only a random prefix *)
  bit_flip_p : float;  (** per write: flip one random stored bit *)
  bad_page_p : float;  (** per write: page goes permanently bad after *)
}

let fault_plan ?(transient_read_p = 0.0) ?(torn_write_p = 0.0)
    ?(bit_flip_p = 0.0) ?(bad_page_p = 0.0) prng =
  { fault_prng = prng; transient_read_p; torn_write_p; bit_flip_p; bad_page_p }

type t = {
  page_size : int;
  mutable pages : Page.t array;
  mutable crcs : int array; (* CRC32C of the *intended* image of each page *)
  mutable count : int;
  (* Synthetic cost model: simulated microseconds charged per page I/O,
     accumulated in the [disk.simulated_us] gauge so experiments can
     report "disk time". *)
  read_cost_us : float;
  write_cost_us : float;
  crc_cost_us : float;
  mutable verify_reads : bool;
  mutable plan : fault_plan option;
  bad : (int, unit) Hashtbl.t; (* permanently failed pages *)
  zero_crc : int; (* CRC of an all-zero page, stored at allocation *)
  (* MVCC: the epoch clock plus per-page version chains.  A chain entry
     [(visible_until, crc, image)] is the image a page had before the
     update window ending at epoch [visible_until] overwrote it — a
     reader pinned at epoch [e] sees the oldest entry with
     [visible_until > e], or the live page when the chain has none.
     Chains are kept newest-first (descending [visible_until]). *)
  epoch : Epoch.t;
  versions : (int, (int * int * Page.t) list) Hashtbl.t;
  mutable live : int; (* total length of all version chains *)
  (* One device, many domains: [Dolx_exec] readers share the disk while
     holding private buffer pools, so the page store, the version chains
     and the fault machinery are serialized here.  Contention is low by
     construction — the pools absorb > 95% of touches, so the lock is
     taken only on real page I/O. *)
  m : Mutex.t;
}

let locked t f =
  Mutex.lock t.m;
  match f () with
  | v ->
      Mutex.unlock t.m;
      v
  | exception e ->
      Mutex.unlock t.m;
      raise e

let create ?(page_size = Page.default_size) ?(read_cost_us = 100.0)
    ?(write_cost_us = 120.0) ?(crc_cost_us = 2.0) ?(verify_reads = true) () =
  {
    page_size;
    pages = Array.make 16 (Page.create 0);
    crcs = Array.make 16 0;
    count = 0;
    read_cost_us;
    write_cost_us;
    crc_cost_us;
    verify_reads;
    plan = None;
    bad = Hashtbl.create 8;
    zero_crc = Crc.digest (Page.create page_size);
    epoch = Epoch.create ();
    versions = Hashtbl.create 16;
    live = 0;
    m = Mutex.create ();
  }

let page_size t = t.page_size

let epoch t = t.epoch

let page_count t = t.count

let set_fault_plan t plan = t.plan <- plan

let set_verify_reads t b = t.verify_reads <- b

let mark_bad t id =
  if id < 0 || id >= t.count then
    invalid_arg
      (Printf.sprintf "Disk.mark_bad: page %d out of range (page count %d)" id
         t.count);
  locked t (fun () -> Hashtbl.replace t.bad id ())

(** Undo {!mark_bad} / an injected bad page — the "sector remapped"
    event of a fault-injection schedule, letting tests exercise recovery
    after a write failure. *)
let clear_bad t id = locked t (fun () -> Hashtbl.remove t.bad id)

let is_bad t id = Hashtbl.mem t.bad id

(** Allocate a fresh zeroed page, returning its id. *)
let allocate t =
  locked t @@ fun () ->
  if t.count >= Array.length t.pages then begin
    let pages = Array.make (2 * Array.length t.pages) (Page.create 0) in
    Array.blit t.pages 0 pages 0 t.count;
    t.pages <- pages;
    let crcs = Array.make (Array.length pages) 0 in
    Array.blit t.crcs 0 crcs 0 t.count;
    t.crcs <- crcs
  end;
  let id = t.count in
  t.pages.(id) <- Page.create t.page_size;
  t.crcs.(id) <- t.zero_crc;
  t.count <- id + 1;
  Metrics.incr c_allocations;
  id

let check t id op =
  if id < 0 || id >= t.count then
    invalid_arg
      (Printf.sprintf "Disk.%s: page %d out of range (page count %d)" op id
         t.count)

let draw plan p = p > 0.0 && Prng.bool plan.fault_prng ~p

(* The image of [id] visible at epoch [e]: the oldest retained version
   with [visible_until > e], or the live page.  Chains are descending by
   [visible_until], so the scan stops at the first entry at or below [e]. *)
let version_at t id e =
  match Hashtbl.find_opt t.versions id with
  | None -> None
  | Some chain ->
      let rec oldest_above acc = function
        | (vu, crc, img) :: rest when vu > e ->
            oldest_above (Some (crc, img)) rest
        | _ -> acc
      in
      oldest_above None chain

(** Read page [id] into [dst] (a full-page buffer).  With [?epoch], read
    the image that was live at that (pinned) epoch: superseded images
    come from the version chain, still verified against the CRC they had
    when retained.
    @raise Fault on a bad page, an injected transient error, or a
    checksum mismatch between the stored bytes and the CRC recorded at
    write time (torn write or bit rot). *)
let read ?epoch t id dst =
  locked t @@ fun () ->
  check t id "read";
  Metrics.incr c_reads;
  Metrics.gauge_add g_simulated_us t.read_cost_us;
  if Hashtbl.mem t.bad id then begin
    Metrics.incr c_bad_page_faults;
    raise (Fault { page = id; kind = Bad_page })
  end;
  (match t.plan with
  | Some plan when draw plan plan.transient_read_p ->
      Metrics.incr c_transient_faults;
      raise (Fault { page = id; kind = Transient_read })
  | _ -> ());
  let src, crc =
    match epoch with
    | None -> (t.pages.(id), t.crcs.(id))
    | Some e -> (
        match version_at t id e with
        | Some (crc, img) -> (img, crc)
        | None -> (t.pages.(id), t.crcs.(id)))
  in
  Bytes.blit src 0 dst 0 t.page_size;
  if t.verify_reads then begin
    Metrics.gauge_add g_simulated_us t.crc_cost_us;
    Metrics.gauge_add g_crc_us t.crc_cost_us;
    if Crc.digest_sub dst ~pos:0 ~len:t.page_size <> crc then begin
      Metrics.incr c_checksum_failures;
      raise (Fault { page = id; kind = Checksum_mismatch })
    end
  end

(** Write [src] to page [id].  The CRC of the *intended* image is always
    recorded; an injected torn write or bit flip corrupts the stored
    bytes without touching it, so the damage is caught by the next
    verified read.
    @raise Fault when the page has gone permanently bad. *)
let write t id src =
  locked t @@ fun () ->
  check t id "write";
  Metrics.incr c_writes;
  Metrics.gauge_add g_simulated_us t.write_cost_us;
  if Hashtbl.mem t.bad id then begin
    Metrics.incr c_bad_page_faults;
    raise (Fault { page = id; kind = Bad_page })
  end;
  (* Copy-on-write: with readers pinned, retain the image being
     overwritten.  All writes of one update window share the tag
     [current + 1] (the epoch the update will publish as), so only the
     first overwrite of a page per window saves a copy. *)
  if Epoch.pinned t.epoch then begin
    let vu = Epoch.current t.epoch + 1 in
    let chain = Option.value (Hashtbl.find_opt t.versions id) ~default:[] in
    match chain with
    | (vu0, _, _) :: _ when vu0 = vu -> ()
    | _ ->
        Hashtbl.replace t.versions id
          ((vu, t.crcs.(id), Bytes.copy t.pages.(id)) :: chain);
        t.live <- t.live + 1;
        Metrics.incr c_versions_saved;
        Metrics.gauge_set g_versions_live (float_of_int t.live)
  end;
  t.crcs.(id) <- Crc.digest_sub src ~pos:0 ~len:t.page_size;
  (match t.plan with
  | Some plan when draw plan plan.torn_write_p ->
      Metrics.incr c_torn_writes;
      let keep = Prng.int plan.fault_prng t.page_size in
      Bytes.blit src 0 t.pages.(id) 0 keep
  | _ -> Bytes.blit src 0 t.pages.(id) 0 t.page_size);
  (match t.plan with
  | Some plan when draw plan plan.bit_flip_p ->
      Metrics.incr c_bit_flips;
      let bit = Prng.int plan.fault_prng (t.page_size * 8) in
      let b = Bytes.get_uint8 t.pages.(id) (bit / 8) in
      Bytes.set_uint8 t.pages.(id) (bit / 8) (b lxor (1 lsl (bit mod 8)))
  | _ -> ());
  match t.plan with
  | Some plan when draw plan plan.bad_page_p -> Hashtbl.replace t.bad id ()
  | _ -> ()

(** Drop retained page versions that no reader can reach any more: a
    version whose [visible_until] is at or below the epoch horizon (the
    oldest pinned epoch, or the current epoch when nothing is pinned)
    has no possible reader left.  Returns the number of versions
    dropped. *)
let retire t =
  locked t @@ fun () ->
  let horizon = Epoch.horizon t.epoch in
  let updates =
    Hashtbl.fold
      (fun id chain acc ->
        let keep = List.filter (fun (vu, _, _) -> vu > horizon) chain in
        if List.length keep = List.length chain then acc
        else (id, keep, List.length chain - List.length keep) :: acc)
      t.versions []
  in
  let dropped = ref 0 in
  List.iter
    (fun (id, keep, n) ->
      dropped := !dropped + n;
      if keep = [] then Hashtbl.remove t.versions id
      else Hashtbl.replace t.versions id keep)
    updates;
  if !dropped > 0 then begin
    t.live <- t.live - !dropped;
    Metrics.add c_versions_retired !dropped;
    Metrics.gauge_set g_versions_live (float_of_int t.live)
  end;
  !dropped

(** Number of page versions currently retained for pinned readers. *)
let live_versions t = locked t @@ fun () -> t.live
