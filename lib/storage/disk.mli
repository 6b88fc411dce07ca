(** A simulated block device: in-memory pages with faithful accounting of
    reads, writes and a synthetic latency model, so the paper's I/O
    claims (§3.3, §3.4) are measured rather than asserted — plus a
    modeled fault layer (per-page CRC32C verified on read, and
    PRNG-driven injection of transient read errors, permanent bad pages,
    torn writes and bit flips) so the storage stack above can be tested
    for fail-secure behavior.

    Thread-safety: {!read}, {!write}, {!allocate}, {!mark_bad} and
    {!clear_bad} are serialized by an internal mutex, so one disk can be
    shared by the per-domain buffer pools of [Dolx_exec] readers.
    Configuration setters ({!set_fault_plan}, {!set_verify_reads}) are
    for quiescent use between runs.

    I/O accounting lives in {!Dolx_obs.Metrics.default}: counters
    [disk.reads], [disk.writes], [disk.allocations],
    [disk.transient_faults], [disk.torn_writes], [disk.bit_flips],
    [disk.checksum_failures], [disk.bad_page_faults],
    [disk.versions_saved], [disk.versions_retired]; gauges
    [disk.simulated_us] (accumulated simulated I/O time), [disk.crc_us]
    (its share spent verifying checksums) and [disk.versions_live]
    (set to {!live_versions} of the disk that last saved or retired a
    version). *)

type fault_kind =
  | Transient_read  (** the read failed but a retry may succeed *)
  | Bad_page  (** the page is permanently unreadable/unwritable *)
  | Checksum_mismatch  (** stored bytes do not match the recorded CRC32C *)

val fault_kind_name : fault_kind -> string

exception Fault of { page : int; kind : fault_kind }

(** A reproducible failure schedule.  All probabilities are per-I/O and
    drawn from [fault_prng]; see {!fault_plan} for defaults (all 0). *)
type fault_plan = {
  fault_prng : Dolx_util.Prng.t;
  transient_read_p : float;  (** per read: raise [Transient_read] *)
  torn_write_p : float;  (** per write: persist only a random prefix *)
  bit_flip_p : float;  (** per write: flip one random stored bit *)
  bad_page_p : float;  (** per write: page goes permanently bad after *)
}

val fault_plan :
  ?transient_read_p:float ->
  ?torn_write_p:float ->
  ?bit_flip_p:float ->
  ?bad_page_p:float ->
  Dolx_util.Prng.t ->
  fault_plan

type t

(** [read_cost_us]/[write_cost_us]: simulated microseconds charged per
    page I/O (defaults 100/120, SSD-like).  [crc_cost_us] (default 2.0,
    hardware-CRC32C-like for a 4K page) is charged per verified read;
    [verify_reads] (default [true]) controls whether reads verify the
    per-page checksum at all. *)
val create :
  ?page_size:int ->
  ?read_cost_us:float ->
  ?write_cost_us:float ->
  ?crc_cost_us:float ->
  ?verify_reads:bool ->
  unit ->
  t

val page_size : t -> int

val page_count : t -> int

(** The epoch clock of this device.  Readers pin it to get a stable
    image; writers advance it when they publish an update (see
    {!Epoch}). *)
val epoch : t -> Epoch.t

(** Install ([Some]) or clear ([None]) the failure schedule.  Pages that
    already went permanently bad stay bad. *)
val set_fault_plan : t -> fault_plan option -> unit

(** Toggle read-time checksum verification (for overhead A/B runs). *)
val set_verify_reads : t -> bool -> unit

(** Make a page permanently bad (reads and writes raise [Bad_page]).
    @raise Invalid_argument on an out-of-range id. *)
val mark_bad : t -> int -> unit

(** Undo {!mark_bad} / an injected bad page — the "sector remapped"
    event of a fault schedule; lets tests drive recovery after a write
    failure.  No-op when the page is not bad. *)
val clear_bad : t -> int -> unit

val is_bad : t -> int -> bool

(** Allocate a fresh zeroed page; returns its id. *)
val allocate : t -> int

(** Read page [id] into [dst] (a full-page buffer).  With [?epoch], read
    the image that was live at that (pinned) epoch: superseded images
    come from the copy-on-write version chain, still CRC-verified against
    the checksum they had when retained.
    @raise Fault on a bad page, an injected transient error, or a
    checksum mismatch (torn write or bit rot detected).
    @raise Invalid_argument on an out-of-range id (the message names the
    page id and the page count). *)
val read : ?epoch:int -> t -> int -> Page.t -> unit

(** Write [src] to page [id].  The CRC of the intended image is always
    recorded; injected torn writes and bit flips corrupt the stored
    bytes without touching it, so damage surfaces on the next verified
    read.
    While any epoch is pinned, the image being overwritten is retained
    on the page's version chain (copy-on-write) so pinned readers keep a
    consistent view; see {!retire}.
    @raise Fault when the page is permanently bad.
    @raise Invalid_argument on an out-of-range id. *)
val write : t -> int -> Page.t -> unit

(** Drop retained page versions no reader can reach any more (those
    whose visibility ends at or below {!Epoch.horizon}); returns the
    number dropped.  Called by the store after each publish and each
    reader release. *)
val retire : t -> int

(** Number of page versions currently retained for pinned readers. *)
val live_versions : t -> int
