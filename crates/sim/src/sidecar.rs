//! Persisted lock-state checkpoint sidecar.
//!
//! A checkpointed campaign pays its settle transient once per process:
//! the runner under [`crate::scenario::run_plan`] settles one engine,
//! snapshots it, and every point restores the snapshot. Across a **process death**
//! that settle was repaid on every restart — for the crash-only campaign
//! service that is the dominant recovery cost on small grids. The
//! [`LockSidecar`] closes the gap: after the settle, the snapshot is
//! serialised bit-exactly (via [`PllEngine::encode_checkpoint`]) into a
//! small JSONL file next to the campaign results file, and a resumed run
//! loads it instead of re-settling.
//!
//! The sidecar is pure cache, never truth:
//!
//! * it stores the campaign's **config digest** and the engine's
//!   [`backend_name`](PllEngine::backend_name); a mismatch on load —
//!   different config, different backend, stale file — rejects the
//!   sidecar and the run re-settles exactly as before;
//! * a torn or garbled file (kill mid-write) likewise rejects — the
//!   token codecs refuse any truncated prefix;
//! * the file is written by `durable::replace` (temp file,
//!   fsync, rename, directory fsync), so a crash during `store` leaves
//!   either the old sidecar or the new one, never a half-written file at
//!   the final path;
//! * backends whose state cannot be persisted bit-exactly (noise RNG
//!   attached, gate-level cosim) simply decline
//!   ([`PllEngine::encode_checkpoint`] returns `None`) and nothing is
//!   written.
//!
//! Because [`PllEngine::restore`] is bit-exact and the encode/decode
//! pair round-trips f64 bits, a sidecar-resumed campaign produces a
//! byte-identical results file — the workspace's standing determinism
//! invariant extended across process death (asserted end-to-end by
//! `abl15_crash_only_service`).

use crate::durable;
use crate::engine::PllEngine;
use pllbist_telemetry::json::json_str_field;
use pllbist_telemetry::{Fields, Record, Value, SCHEMA_VERSION};
use std::path::{Path, PathBuf};

/// The `bin` tag in a sidecar's run header.
const SIDECAR_BIN: &str = "ckpt";

/// The outcome of [`LockSidecar::load`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SidecarOutcome<C> {
    /// Checkpoint loaded, validated against digest and backend.
    Hit(C),
    /// No sidecar file on disk — the normal first-run case.
    Absent,
    /// A file exists but is unusable (torn, foreign digest, wrong
    /// backend, undecodable token); the reason feeds the flight
    /// recorder's note event. The run re-settles.
    Rejected(String),
}

/// A lock-state checkpoint cache bound to one campaign digest.
///
/// See the [module docs](self) for the contract. The struct itself is
/// engine-agnostic; [`store`](Self::store) and [`load`](Self::load) are
/// generic over the backend so one sidecar path serves every engine.
#[derive(Clone, Debug)]
pub struct LockSidecar {
    path: PathBuf,
    digest: String,
}

impl LockSidecar {
    /// A sidecar at an explicit path for the campaign with `digest`.
    pub fn at(path: impl Into<PathBuf>, digest: impl Into<String>) -> Self {
        Self {
            path: path.into(),
            digest: digest.into(),
        }
    }

    /// The conventional sidecar next to a campaign results file:
    /// `results.jsonl` → `results.ckpt`.
    pub fn for_results_file(results: impl AsRef<Path>, digest: impl Into<String>) -> Self {
        Self::at(results.as_ref().with_extension("ckpt"), digest)
    }

    /// The sidecar file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Persists a settled-lock snapshot. Returns `Ok(true)` when the
    /// file was written, `Ok(false)` when the backend declines
    /// persistence (nothing written, any stale sidecar removed so it
    /// cannot outlive the state it cached).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from `durable::replace`.
    pub fn store<E: PllEngine>(&self, snapshot: &E::Checkpoint) -> Result<bool, std::io::Error> {
        let Some(token) = E::encode_checkpoint(snapshot) else {
            let _ = std::fs::remove_file(&self.path);
            return Ok(false);
        };
        let fields: Fields = vec![
            ("digest".to_string(), Value::Str(self.digest.clone())),
            (
                "backend".to_string(),
                Value::Str(E::backend_name().to_string()),
            ),
            ("state".to_string(), Value::Str(token)),
        ];
        let body = format!(
            "{}\n{}\n",
            Record::Run {
                bin: SIDECAR_BIN.to_string(),
                schema: SCHEMA_VERSION,
            }
            .to_json(),
            Record::Result {
                name: "ckpt.state".to_string(),
                fields,
            }
            .to_json()
        );
        durable::replace(&self.path, body.as_bytes())?;
        Ok(true)
    }

    /// Loads and validates the cached snapshot. Never errors: every
    /// failure mode degrades to [`SidecarOutcome::Absent`] /
    /// [`SidecarOutcome::Rejected`] and the campaign re-settles.
    pub fn load<E: PllEngine>(&self) -> SidecarOutcome<E::Checkpoint> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(_) => return SidecarOutcome::Absent,
        };
        if !text.ends_with('\n') {
            return SidecarOutcome::Rejected("torn sidecar (no trailing newline)".to_string());
        }
        let lines: Vec<&str> = text.lines().collect();
        if lines.len() != 2 {
            return SidecarOutcome::Rejected(format!(
                "sidecar has {} lines, expected 2",
                lines.len()
            ));
        }
        let expected_header = Record::Run {
            bin: SIDECAR_BIN.to_string(),
            schema: SCHEMA_VERSION,
        }
        .to_json();
        if lines[0] != expected_header {
            return SidecarOutcome::Rejected("sidecar run header mismatch".to_string());
        }
        let (Some(digest), Some(backend), Some(state)) = (
            json_str_field(lines[1], "digest"),
            json_str_field(lines[1], "backend"),
            json_str_field(lines[1], "state"),
        ) else {
            return SidecarOutcome::Rejected("sidecar state line malformed".to_string());
        };
        if digest != self.digest {
            return SidecarOutcome::Rejected(format!(
                "sidecar digest {digest} does not match campaign {}",
                self.digest
            ));
        }
        if backend != E::backend_name() {
            return SidecarOutcome::Rejected(format!(
                "sidecar backend {backend} does not match engine {}",
                E::backend_name()
            ));
        }
        match E::decode_checkpoint(&state) {
            Some(snapshot) => SidecarOutcome::Hit(snapshot),
            None => SidecarOutcome::Rejected("sidecar state token undecodable".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavioral::CpPll;
    use crate::config::FilterConfig;
    use crate::config::PllConfig;
    use crate::engine::ClosedFormPll;
    use crate::scenario::Scenario;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pllbist_sidecar_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn settled<E: PllEngine>(cfg: PllConfig, secs: f64) -> (PllConfig, E) {
        let scenario = Scenario::with_lock_settle(&cfg, secs);
        let pll = scenario.settle_fresh::<E>();
        (cfg, pll)
    }

    #[test]
    fn store_load_round_trip_is_bit_exact_for_both_engines() {
        // The closed-form kernel's one-state token, and a ripple
        // capacitor's two-state token on micro-steps.
        fn check<E: PllEngine>(name: &str, cfg: PllConfig) {
            let (cfg, pll) = settled::<E>(cfg, 0.05);
            let snap = pll.checkpoint();
            let sidecar = LockSidecar::at(tmp(name), "1111222233334444");
            assert!(sidecar.store::<E>(&snap).unwrap());
            let SidecarOutcome::Hit(loaded) = sidecar.load::<E>() else {
                panic!("expected a hit");
            };
            // Bit-exactness: advance both restored engines and compare.
            let mut a = E::new_locked(&cfg);
            a.restore(&snap);
            let mut b = E::new_locked(&cfg);
            b.restore(&loaded);
            let t = a.time() + 0.1;
            a.advance_to(t);
            b.advance_to(t);
            assert_eq!(
                a.vco_phase_cycles().to_bits(),
                b.vco_phase_cycles().to_bits()
            );
            assert_eq!(a.control_voltage().to_bits(), b.control_voltage().to_bits());
            assert_eq!(a.work_stats(), b.work_stats());
            std::fs::remove_file(sidecar.path()).unwrap();
            assert_eq!(
                std::mem::discriminant(&sidecar.load::<E>()),
                std::mem::discriminant(&SidecarOutcome::Absent)
            );
        }
        let mut ripple = PllConfig::integer_n_charge_pump();
        if let FilterConfig::SeriesRc { ref mut c2, .. } = ripple.filter {
            *c2 = Some(3.3e-9);
        }
        check::<CpPll>("roundtrip_cp.ckpt", PllConfig::paper_table3());
        check::<CpPll>("roundtrip_ripple.ckpt", ripple);
    }

    #[test]
    fn wrong_digest_backend_or_torn_file_rejects() {
        let (_cfg, pll) = settled::<CpPll>(PllConfig::paper_table3(), 0.02);
        let snap = pll.checkpoint();
        let sidecar = LockSidecar::at(tmp("guards.ckpt"), "aaaabbbbccccdddd");
        assert!(sidecar.store::<CpPll>(&snap).unwrap());

        // Foreign digest.
        let foreign = LockSidecar::at(sidecar.path(), "eeeeffff00001111");
        assert!(matches!(
            foreign.load::<CpPll>(),
            SidecarOutcome::Rejected(reason) if reason.contains("digest")
        ));
        // Wrong backend.
        assert!(matches!(
            sidecar.load::<ClosedFormPll>(),
            SidecarOutcome::Rejected(reason) if reason.contains("backend")
        ));
        // Torn file: every truncation of the stored bytes rejects (or is
        // absent when empty) — never a bogus hit.
        let full = std::fs::read_to_string(sidecar.path()).unwrap();
        for cut in 0..full.len() {
            std::fs::write(sidecar.path(), &full[..cut]).unwrap();
            assert!(
                !matches!(sidecar.load::<CpPll>(), SidecarOutcome::Hit(_)),
                "truncation at {cut} must not load"
            );
        }
        std::fs::remove_file(sidecar.path()).unwrap();
    }

    #[test]
    fn unsupported_backend_declines_and_clears_stale_files() {
        let (_cfg, pll) = settled::<CpPll>(PllConfig::paper_table3(), 0.02);
        let snap = pll.checkpoint();
        let sidecar = LockSidecar::at(tmp("decline.ckpt"), "9999888877776666");
        assert!(sidecar.store::<CpPll>(&snap).unwrap());
        // The closed-form adapter keeps the trait default (no
        // persistence); storing through it must remove the stale file.
        let cfg = PllConfig::paper_table3();
        let cf = ClosedFormPll::new(&cfg);
        let cf_snap = cf.checkpoint();
        assert!(!sidecar.store::<ClosedFormPll>(&cf_snap).unwrap());
        assert!(matches!(sidecar.load::<CpPll>(), SidecarOutcome::Absent));
    }

    #[test]
    fn noisy_engine_declines_persistence() {
        let cfg = PllConfig::paper_table3();
        let mut pll = CpPll::new_locked(&cfg);
        pll.set_noise(Some(crate::noise::NoiseConfig::symmetric(2e-7, 42)));
        pll.advance_to(0.02);
        let snap = pll.checkpoint();
        assert!(
            <CpPll as PllEngine>::encode_checkpoint(&snap).is_none(),
            "RNG state must decline persistence"
        );
        let sidecar = LockSidecar::at(tmp("noisy.ckpt"), "5555444433332222");
        assert!(!sidecar.store::<CpPll>(&snap).unwrap());
    }
}
