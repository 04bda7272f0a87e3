type t = {
  max_latency : float;
  keepalive_period : float;
  double_check_probability : float;
  audit_enabled : bool;
  audit_fraction : float;
  audit_lag_slack : float;
  audit_cache_capacity : int;
  scheme : Secrep_crypto.Sig_scheme.scheme;
  per_doc_cost : float;
  signature_cost : float;
  verify_cost : float;
  greedy_window : float;
  greedy_factor : float;
  greedy_min_samples : int;
  read_retry_limit : int;
  breaker_cooldown : float;
  degraded_reads : bool;
  auditor_queue_capacity : int;
  pledge_batch_size : int;
  pledge_batch_window : float;
  read_nonces : bool;
  audit_adaptive : bool;
}

let default =
  {
    max_latency = 5.0;
    keepalive_period = 1.0;
    double_check_probability = 0.05;
    audit_enabled = true;
    audit_fraction = 1.0;
    audit_lag_slack = 1.0;
    audit_cache_capacity = 4096;
    scheme = Secrep_crypto.Sig_scheme.Hmac_sim;
    (* Cost constants are loosely calibrated to 2003-era hardware the
       paper assumes: ~50 us/doc scanned, ~5 ms RSA sign, ~0.2 ms
       verify.  The micro-benchmarks measure our real implementations
       for comparison. *)
    per_doc_cost = 50e-6;
    signature_cost = 5e-3;
    verify_cost = 0.2e-3;
    greedy_window = 60.0;
    greedy_factor = 4.0;
    greedy_min_samples = 10;
    read_retry_limit = 5;
    breaker_cooldown = 10.0;
    degraded_reads = true;
    auditor_queue_capacity = 100_000;
    (* Batch size 1 reproduces the unbatched protocol bit-for-bit; E11
       batches to measure the saving. *)
    pledge_batch_size = 1;
    pledge_batch_window = 0.05;
    (* Replay-nonces and suspicion-weighted auditing both default off:
       pledges carry no nonce and the auditor keeps uniform sampling,
       as in the paper's protocol.  E13 turns them on to measure the
       hardening. *)
    read_nonces = false;
    audit_adaptive = false;
  }

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.max_latency <= 0.0 then err "max_latency must be positive"
  else if t.keepalive_period <= 0.0 then err "keepalive_period must be positive"
  else if t.keepalive_period >= t.max_latency then
    err "keepalive_period (%g) must be below max_latency (%g) or honest slaves starve"
      t.keepalive_period t.max_latency
  else if t.double_check_probability < 0.0 || t.double_check_probability > 1.0 then
    err "double_check_probability must be in [0,1]"
  else if t.audit_fraction < 0.0 || t.audit_fraction > 1.0 then
    err "audit_fraction must be in [0,1]"
  else if t.audit_lag_slack < 0.0 then err "audit_lag_slack must be non-negative"
  else if t.audit_cache_capacity < 1 then err "audit_cache_capacity must be at least 1"
  else if t.per_doc_cost < 0.0 || t.signature_cost < 0.0 || t.verify_cost < 0.0 then
    err "cost constants must be non-negative"
  else if t.greedy_window <= 0.0 then err "greedy_window must be positive"
  else if t.greedy_factor < 1.0 then err "greedy_factor must be at least 1"
  else if t.greedy_min_samples < 1 then err "greedy_min_samples must be at least 1"
  else if t.read_retry_limit < 0 then err "read_retry_limit must be non-negative"
  else if t.breaker_cooldown < 0.0 then err "breaker_cooldown must be non-negative"
  else if t.auditor_queue_capacity < 1 then err "auditor_queue_capacity must be at least 1"
  else if t.pledge_batch_size < 1 then err "pledge_batch_size must be at least 1"
  else if t.pledge_batch_window <= 0.0 then err "pledge_batch_window must be positive"
  else if t.pledge_batch_window >= t.max_latency then
    err "pledge_batch_window (%g) must be below max_latency (%g) or batched pledges go stale"
      t.pledge_batch_window t.max_latency
  else Ok ()

let validate_exn t =
  match validate t with Ok () -> t | Error msg -> invalid_arg ("Config: " ^ msg)

let read_timeout_factor = 2.0
let retry_backoff_cap = 2.0
let suspicion_floor = 0.25
let quarantine_threshold = 3.0

let read_give_up_bound t =
  float_of_int (t.read_retry_limit + 2)
  *. ((read_timeout_factor *. t.max_latency) +. retry_backoff_cap)
