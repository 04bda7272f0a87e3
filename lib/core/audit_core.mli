(** The auditor's per-pledge judgement, and offline drivers for
    differential testing.

    A recorded pledge stream plus a re-execution oracle fully determine
    the auditor's verdicts; these drivers compute them two independent
    ways.  [run_naive] is the reference semantics (every pledge fully
    signature-checked and re-executed); [run_dedup] folds
    {!audit_pledge}, the judgement the live {!Auditor} runs, over the
    stream.  The [differential-audit] fuzz invariant asserts they emit
    identical verdict lists on any scenario. *)

type verdict = Ok_pledge | Caught | Bad_signature

val equal_verdict : verdict -> verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit

val run_naive :
  slave_public:(int -> Secrep_crypto.Sig_scheme.public option) ->
  reexec:(version:int -> Secrep_store.Query.t -> string option) ->
  Pledge.t list ->
  verdict list
(** One verdict per pledge, in order.  [reexec] returns the honest
    canonical result digest at a version ([None] = unanswerable, which
    convicts nobody and yields [Bad_signature], matching the live
    auditor's treatment of unexecutable queries). *)

type memo = {
  roots : (int * string * string, bool) Hashtbl.t;
      (** (slave, batch root, signature) -> did the root signature verify? *)
  index : Secrep_store.Audit_index.t;  (** re-execution memo *)
}
(** What the auditor remembers across pledges. *)

val memo : ?capacity:int -> unit -> memo
(** Empty memo; [capacity] bounds the re-execution index
    ({!Secrep_store.Audit_index.create}). *)

type signature_work =
  | Full_verify  (** a [Single] pledge, or no key for its slave *)
  | Root_verify  (** the first pledge under a batch root: one full verification *)
  | Root_cached  (** a later pledge under a known root: hash-only *)

type 'work query_work =
  | Memo_hit
  | Reexecuted of 'work  (** what [reexec] reported besides the digest *)
  | Unanswerable  (** [reexec] returned [None] *)

type 'work judgement = {
  verdict : verdict;
  signature : signature_work;
  query : 'work query_work option;  (** [None] when the signature failed *)
}

val audit_pledge :
  memo ->
  slave_public:(int -> Secrep_crypto.Sig_scheme.public option) ->
  reexec:(version:int -> Secrep_store.Query.t -> (string * 'work) option) ->
  Pledge.t ->
  'work judgement
(** Judge one pledge at its own version: check the signature (through
    [memo.roots] for a batched pledge), then settle the query from
    [memo.index] or re-execute it and memoize the digest, then compare
    digests.  A failed signature or an unanswerable query yields
    [Bad_signature]; a digest mismatch yields [Caught]. *)

val run_dedup :
  slave_public:(int -> Secrep_crypto.Sig_scheme.public option) ->
  reexec:(version:int -> Secrep_store.Query.t -> string option) ->
  Pledge.t list ->
  verdict list * memo
(** Same verdict contract as {!run_naive}, computed by folding
    {!audit_pledge} over the stream with one fresh {!memo}, which is
    returned so callers can see how much work it saved. *)

type sampled = {
  audited : int;  (** pledges the sampler chose to audit *)
  caught : int;  (** [Caught] verdicts among audited pledges *)
  first_caught : int option;  (** stream index of the first catch *)
  caught_by_slave : (int * int) list;  (** sorted [(slave, catches)] *)
}

val run_sampled :
  draws:float array ->
  fraction:float ->
  adaptive:bool ->
  ?floor:float ->
  slave_public:(int -> Secrep_crypto.Sig_scheme.public option) ->
  reexec:(version:int -> Secrep_store.Query.t -> string option) ->
  Pledge.t list ->
  sampled
(** Offline sampled auditing over a recorded stream, for the
    adaptive-no-worse differential.  Pledge [i] is audited iff
    [draws.(i) < p_i]; supplying the same [draws] to a uniform and an
    adaptive run gives common random numbers, so the comparison is
    deterministic per seed.  With [adaptive = false], [p_i] is always
    [fraction]; with [adaptive = true], [p_i] is the live auditor's
    suspicion-weighted probability
    [clamp (fraction * (1+s_i) / (1+mean_s), floor*fraction, 1.0)],
    where suspicion is bumped by the conviction amount on each [Caught]
    verdict (no decay offline).  Until the first catch both samplers
    behave identically, so the first detection index coincides; after
    it, a lone liar's probability can only sit at or above [fraction].
    Raises [Invalid_argument] if [draws] is shorter than the stream. *)
