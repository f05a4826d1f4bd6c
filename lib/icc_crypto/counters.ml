(* Crypto-operation counters, backed by the {!Icc_obs.Registry}.

   The counters keep their historical names and ordering — the benchmark
   reports them as its [crypto.*] rows — and live in the process-global
   registry, so `icc profile`, the Prometheus exposition and the
   trace-bus [prof-counter] snapshots all see them too.  They remain write-only inside lib/ (nothing reads them back into protocol
   decisions), so they cannot affect scheduling or determinism. *)

let sha256_digests = Icc_obs.Registry.counter "sha256_digests"
let schnorr_signs = Icc_obs.Registry.counter "schnorr_signs"
let schnorr_verifies = Icc_obs.Registry.counter "schnorr_verifies"
let dleq_proves = Icc_obs.Registry.counter "dleq_proves"
let dleq_verifies = Icc_obs.Registry.counter "dleq_verifies"
let pow_generic = Icc_obs.Registry.counter "pow_generic"
let pow_fixed_base = Icc_obs.Registry.counter "pow_fixed_base"
let fixed_base_tables = Icc_obs.Registry.counter "fixed_base_tables"
let fixed_base_evictions = Icc_obs.Registry.counter "fixed_base_evictions"
let zero_rederives = Icc_obs.Registry.counter "zero_rederives"

let all =
  [
    ("sha256_digests", sha256_digests);
    ("schnorr_signs", schnorr_signs);
    ("schnorr_verifies", schnorr_verifies);
    ("dleq_proves", dleq_proves);
    ("dleq_verifies", dleq_verifies);
    ("pow_generic", pow_generic);
    ("pow_fixed_base", pow_fixed_base);
    ("fixed_base_tables", fixed_base_tables);
    ("fixed_base_evictions", fixed_base_evictions);
    ("zero_rederives", zero_rederives);
  ]

let bump = Icc_obs.Registry.inc
let reset () = List.iter (fun (_, c) -> Icc_obs.Registry.add c (- Icc_obs.Registry.value c)) all
let snapshot () = List.map (fun (name, c) -> (name, Icc_obs.Registry.value c)) all
