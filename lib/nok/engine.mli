(** Secure twig-query evaluation (paper §4): tag-index seeded NoK
    subtree matching combined with (ε-)Stack-Tree-Desc structural joins.

    Semantics: under {!Secure} (Cho et al., the paper's default) a
    binding survives iff every bound node is accessible — intermediate
    nodes on ancestor–descendant paths are unconstrained, so plain STD
    suffices after ε-NoK (the paper's Theorem 1).  Under {!Secure_path}
    (Gabillon–Bruno, §4.2) connecting paths must be fully accessible
    too, enforced by ε-STD and path-checked predicates. *)

module Store = Dolx_core.Secure_store

type semantics =
  | Insecure            (** plain NoK evaluation, no access control *)
  | Secure of int       (** ε-NoK for the given subject (Cho et al.) *)
  | Secure_path of int  (** ε-NoK + ε-STD (Gabillon–Bruno, §4.2) *)

(** Evaluation options. *)
type options = {
  header_skip : bool;  (** use the in-memory page-header optimization (§3.3) *)
}

val default_options : options

type result = {
  answers : int list;  (** returning-node bindings, document order, distinct *)
  segments : int;      (** NoK subtrees evaluated *)
  joins : int;         (** structural joins performed *)
  candidates_scanned : int;
}

(** Evaluate a pattern.  When a [value_index] is supplied, segment roots
    with a text-equality constraint draw their candidates from it
    instead of the (larger) tag postings. *)
val run :
  ?options:options -> ?value_index:Dolx_index.Value_index.t -> Store.t ->
  Dolx_index.Tag_index.t -> Pattern.t -> semantics -> result

(** Parse and evaluate an XPath string.
    @raise Xpath.Parse_error on a malformed query. *)
val query :
  ?options:options -> ?value_index:Dolx_index.Value_index.t -> Store.t ->
  Dolx_index.Tag_index.t -> string -> semantics -> result

(** Number of answers only. *)
val count :
  ?options:options -> ?value_index:Dolx_index.Value_index.t -> Store.t ->
  Dolx_index.Tag_index.t -> string -> semantics -> int

(** Materialize full trunk-binding tuples — the paper's §4 result model
    ("all of the possible sets of bindings"): each tuple lists one data
    node per trunk step, in trunk order; predicates remain existential.
    A navigational product for result construction and auditing, not the
    I/O-optimal join path.  [limit] caps the tuples materialized. *)
val bindings :
  ?options:options -> ?limit:int -> Store.t -> Dolx_index.Tag_index.t ->
  Pattern.t -> semantics -> Dolx_xml.Tree.node list list

(** Human-readable evaluation plan: a [plan:] line naming the plan
    {!run} takes on this store (summary-path, or segments + structural
    joins), then the segments with their index candidate counts. *)
val explain : Store.t -> Dolx_index.Tag_index.t -> Pattern.t -> string

(** Deliberate fault site for the differential fuzzer's self-test: when
    armed, run-index candidate pruning silently drops node 2 from every
    pruned candidate set (run index on, secure semantics only).  Armed at
    startup by [DOLX_FUZZ_PLANT_BUG=prune]; tests may toggle the ref
    directly.  Never set on production paths. *)
val planted_bug : bool ref

(** {1 Streaming evaluation}

    A pull cursor over the {!run} pipeline: all segments but the last
    (and their joins) are staged when the stream is built; answers are
    then produced chunk by chunk from the last segment's candidate
    roots, so per-query buffered-result memory is bounded by the chunk
    size plus the document-order reorder margin — never by the answer
    count.  Draining a stream yields exactly {!run}'s answer list and
    flushes the same [engine.*] counters, once, at exhaustion (or at
    {!stream_close} for a stream abandoned early). *)

type stream

(** Stage a pattern into a stream (the lazy counterpart of {!run}).
    [chunk] (default 256) bounds each {!stream_next} batch.
    @raise Invalid_argument on [chunk < 1]. *)
val stream :
  ?options:options -> ?value_index:Dolx_index.Value_index.t -> ?chunk:int ->
  Store.t -> Dolx_index.Tag_index.t -> Pattern.t -> semantics -> stream

(** Next chunk of answers, document order, distinct, at most [chunk]
    long.  [[]] means exhausted; the stream is finalized and every later
    call returns [[]]. *)
val stream_next : stream -> int list

(** Finalize early: flush the partial statistics and drop the source.
    Idempotent; a later {!stream_next} returns [[]]. *)
val stream_close : stream -> unit

(** Drain to a list — equals [(run ...).answers] from the same inputs. *)
val stream_collect : stream -> int list

val stream_finished : stream -> bool
val stream_emitted : stream -> int

(** High-water mark of answers buffered at once (chunk in progress +
    reorder margin) — the bound asserted by [bench serve]. *)
val stream_peak_buffered : stream -> int

val stream_chunk_size : stream -> int
val stream_scanned : stream -> int
val stream_joins : stream -> int
val stream_segments : stream -> int
