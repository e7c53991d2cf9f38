//! Resumable campaign runs: an append-only JSONL results file with a
//! config digest and a completed-point bitmap.
//!
//! A 10⁶-point (Kd, Kvco, Icp, filter, N) campaign that dies at point
//! 900 001 must not recompute the first 900 000.
//! This module streams each completed point — healthy *or* quarantined —
//! as one JSONL record to a results file, and on restart loads that file,
//! skips every completed point and recomputes only the rest, such that
//! the **resumed file is byte-identical to an uninterrupted run's**.
//!
//! File format (reusing the telemetry crate's
//! [`pllbist_telemetry::SCHEMA_VERSION`] framing):
//!
//! ```text
//! {"type":"run","bin":"campaign","schema":1}          ← line 1
//! {"type":"campaign","digest":"<16 hex>","points":N}  ← line 2
//! {"type":"result","name":"campaign.point","fields":{"index":0,"ok":true,…}}
//! {"type":"result","name":"campaign.point","fields":{"index":1,"ok":false,"kind":…}}
//! …one line per point, in index order…
//! ```
//!
//! * The **digest** ([`config_digest`]) is an FNV-1a 64 hash over every
//!   result-affecting input (config, grid, measurement settings — *not*
//!   thread count or telemetry, which never change results). A resume
//!   with a different digest or point count is refused with
//!   [`CampaignError::HeaderMismatch`] instead of silently merging
//!   foreign points.
//! * Point payloads store every `f64` as **bit-pattern hex**
//!   ([`bits_hex`]), so decode→encode round-trips exactly and byte
//!   identity survives resume.
//! * Workers complete points out of order under the work-stealing
//!   scheduler; [`CampaignLog::record`] buffers out-of-order results and
//!   hands them to the OS **in index order**, one `write` per line, so
//!   a killed process leaves at most one truncated trailing line — which
//!   the next resume cuts off. Completion is therefore always a
//!   contiguous prefix on disk; [`CampaignLog::completed`] exposes it as
//!   a per-point bitmap.
//! * Every write is a durable step of [`crate::durable`]: lines reach
//!   the disk itself when [`CampaignLog::finish`] fsyncs the file, so a
//!   finished campaign survives an OS crash, not only a killed process.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::config::FaultWiringError;
use crate::durable;
use crate::error::{CampaignError, SweepPointError};
use pllbist_telemetry::{Fields, Record, Value, SCHEMA_VERSION};

/// The `bin` tag of a campaign results file's `run` header line.
pub const CAMPAIGN_BIN: &str = "campaign";

/// The `name` of every per-point result record.
pub const POINT_RECORD: &str = "campaign.point";

/// Hashes every result-affecting campaign input into the 16-hex-char
/// digest stored in the file header: the config (via its `Debug` form —
/// exhaustive over fields by construction), the modulation grid (exact
/// bit patterns) and a caller-supplied salt for measurement settings.
///
/// Deliberately **excluded**: thread count and telemetry, which never
/// change results — so a campaign may be killed on 16 threads and
/// resumed on 1 and still produce the identical file.
pub fn config_digest(config: &crate::config::PllConfig, f_mod_hz: &[f64], salt: &str) -> String {
    let mut hash = Fnv1a64::new();
    hash.write(format!("{config:?}").as_bytes());
    hash.write(b"|grid|");
    for &f in f_mod_hz {
        hash.write(&f.to_bits().to_le_bytes());
    }
    hash.write(b"|salt|");
    hash.write(salt.as_bytes());
    format!("{:016x}", hash.finish())
}

/// FNV-1a 64 — tiny, dependency-free, stable across platforms.
struct Fnv1a64(u64);

impl Fnv1a64 {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Renders an `f64` as its exact bit pattern (16 lowercase hex chars) —
/// the only encoding that survives a JSON round trip bit-for-bit.
pub fn bits_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Inverse of [`bits_hex`].
pub fn f64_from_bits_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

// The hand-rolled line parsers now live in `pllbist_telemetry::json`
// (the flight recorder and bench ledger parse the same line shapes);
// re-exported here because the campaign file format is their original
// home and external callers import them from this module. Their
// adversarial surface (torn lines, escaped quotes, duplicate keys) is
// pinned by property tests in `tests/campaign_json_props.rs`.
pub use pllbist_telemetry::json::{json_bool_field, json_str_field, json_u64_field};

/// Maps a decoded string back to a `&'static str`, preferring the known
/// interning table (the strings this workspace actually emits) and
/// leaking the rare unknown value — bounded by the results file size,
/// and only on the resume path.
fn as_static(s: String, known: &[&'static str]) -> &'static str {
    known
        .iter()
        .find(|k| **k == s)
        .copied()
        .unwrap_or_else(|| Box::leak(s.into_boxed_str()))
}

/// The divergence-quantity tags the supervisor and bench emit.
const KNOWN_QUANTITIES: &[&str] = &[
    "control_voltage",
    "vco_frequency_hz",
    "vco_phase_cycles",
    "control_voltage_out_of_range",
    "control_voltage_rail_pinned",
    "bench_fit_gain",
];

/// Encodes the payload of a quarantined point (flat keys; every `f64`
/// as bits-hex).
pub fn error_fields(error: &SweepPointError) -> Fields {
    let mut fields: Fields = vec![("kind".to_string(), Value::Str(error.kind().to_string()))];
    let mut push = |key: &str, value: Value| fields.push((key.to_string(), value));
    match error {
        SweepPointError::LockTimeout {
            timeout_secs,
            consecutive_cycles,
            required_cycles,
        } => {
            push("timeout_bits", Value::Str(bits_hex(*timeout_secs)));
            push("cycles", Value::U64(u64::from(*consecutive_cycles)));
            push("required", Value::U64(u64::from(*required_cycles)));
        }
        SweepPointError::NumericalDivergence { t, quantity, value } => {
            push("t_bits", Value::Str(bits_hex(*t)));
            push("value_bits", Value::Str(bits_hex(*value)));
            push("quantity", Value::Str((*quantity).to_string()));
        }
        SweepPointError::StepBudgetExhausted { t, steps, budget } => {
            push("t_bits", Value::Str(bits_hex(*t)));
            push("steps", Value::U64(*steps));
            push("budget", Value::U64(*budget));
        }
        SweepPointError::FaultWiring(wiring) => match wiring {
            FaultWiringError::PumpFaultOnVoltageDrive => {
                push("wiring", Value::Str("pump_on_voltage".to_string()));
            }
            FaultWiringError::FilterElementAbsent { element, filter } => {
                push("wiring", Value::Str("element_absent".to_string()));
                push("element", Value::Str((*element).to_string()));
                push("filter", Value::Str((*filter).to_string()));
            }
        },
        SweepPointError::DegenerateFit { f_mod_hz } => {
            push("f_mod_bits", Value::Str(bits_hex(*f_mod_hz)));
        }
        // Free-text payload last, so tag keys stay first-occurrence-safe.
        SweepPointError::WorkerPanic { message } => {
            push("message", Value::Str(message.clone()));
        }
    }
    fields
}

/// Inverse of [`error_fields`], reading from the encoded line.
pub fn decode_error(line: &str) -> Option<SweepPointError> {
    let kind = json_str_field(line, "kind")?;
    match kind.as_str() {
        "lock_timeout" => Some(SweepPointError::LockTimeout {
            timeout_secs: f64_from_bits_hex(&json_str_field(line, "timeout_bits")?)?,
            consecutive_cycles: u32::try_from(json_u64_field(line, "cycles")?).ok()?,
            required_cycles: u32::try_from(json_u64_field(line, "required")?).ok()?,
        }),
        "numerical_divergence" => Some(SweepPointError::NumericalDivergence {
            t: f64_from_bits_hex(&json_str_field(line, "t_bits")?)?,
            value: f64_from_bits_hex(&json_str_field(line, "value_bits")?)?,
            quantity: as_static(json_str_field(line, "quantity")?, KNOWN_QUANTITIES),
        }),
        "step_budget_exhausted" => Some(SweepPointError::StepBudgetExhausted {
            t: f64_from_bits_hex(&json_str_field(line, "t_bits")?)?,
            steps: json_u64_field(line, "steps")?,
            budget: json_u64_field(line, "budget")?,
        }),
        "fault_wiring" => match json_str_field(line, "wiring")?.as_str() {
            "pump_on_voltage" => Some(SweepPointError::FaultWiring(
                FaultWiringError::PumpFaultOnVoltageDrive,
            )),
            "element_absent" => Some(SweepPointError::FaultWiring(
                FaultWiringError::FilterElementAbsent {
                    element: as_static(
                        json_str_field(line, "element")?,
                        &["R1", "R2", "leakage path"],
                    ),
                    filter: as_static(json_str_field(line, "filter")?, &[]),
                },
            )),
            _ => None,
        },
        "worker_panic" => Some(SweepPointError::WorkerPanic {
            message: json_str_field(line, "message")?,
        }),
        "degenerate_fit" => Some(SweepPointError::DegenerateFit {
            f_mod_hz: f64_from_bits_hex(&json_str_field(line, "f_mod_bits")?)?,
        }),
        _ => None,
    }
}

/// How one point type serialises into (and back out of) a campaign
/// results file.
///
/// `encode` must be injective on the payloads a campaign can produce and
/// `decode(encode(p)) == Some(p)` must hold exactly — the resume
/// machinery's byte-identity guarantee rests on it. Keep free-text
/// fields (if any) *after* fixed tag fields; the line parser matches
/// first occurrences.
pub trait PointCodec: Sync {
    /// The per-point payload.
    type Point: Send;

    /// The payload's fields (appended after `index`/`ok`).
    fn encode(&self, point: &Self::Point) -> Fields;

    /// Rebuilds the payload from an encoded line.
    fn decode(&self, line: &str) -> Option<Self::Point>;
}

/// The codec for plans that never touch a results file: encodes
/// nothing, decodes nothing. The runner is generic over a [`PointCodec`]
/// even when no [`CampaignLog`] is attached, so in-memory runs pass
/// `NullCodec<P>` to name their point type.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullCodec<P>(std::marker::PhantomData<fn() -> P>);

impl<P> NullCodec<P> {
    /// A fresh null codec.
    pub fn new() -> Self {
        Self(std::marker::PhantomData)
    }
}

impl<P: Send> PointCodec for NullCodec<P> {
    type Point = P;

    fn encode(&self, _point: &P) -> Fields {
        Vec::new()
    }

    fn decode(&self, _line: &str) -> Option<P> {
        None
    }
}

/// Serialises one point outcome — `Ok` payload or quarantining error —
/// as its JSONL line (no trailing newline).
pub fn encode_point_line<C: PointCodec>(
    codec: &C,
    index: usize,
    outcome: &Result<C::Point, SweepPointError>,
) -> String {
    let mut fields: Fields = vec![("index".to_string(), Value::U64(index as u64))];
    match outcome {
        Ok(point) => {
            fields.push(("ok".to_string(), Value::Bool(true)));
            fields.extend(codec.encode(point));
        }
        Err(error) => {
            fields.push(("ok".to_string(), Value::Bool(false)));
            fields.extend(error_fields(error));
        }
    }
    Record::Result {
        name: POINT_RECORD.to_string(),
        fields,
    }
    .to_json()
}

/// Inverse of [`encode_point_line`]: `(index, outcome)` from a line.
pub fn decode_point_line<C: PointCodec>(
    codec: &C,
    line: &str,
) -> Option<(usize, Result<C::Point, SweepPointError>)> {
    if !line.contains("\"campaign.point\"") {
        return None;
    }
    let index = usize::try_from(json_u64_field(line, "index")?).ok()?;
    let outcome = if json_bool_field(line, "ok")? {
        Ok(codec.decode(line)?)
    } else {
        Err(decode_error(line)?)
    };
    Some((index, outcome))
}

struct Writer {
    file: std::fs::File,
    /// First index not yet written to the file.
    next_flush: usize,
    /// Out-of-order completions waiting for their turn (encoded lines).
    pending: BTreeMap<usize, String>,
    /// First I/O error, surfaced at [`CampaignLog::finish`] so a disk
    /// hiccup doesn't unwind sweep workers mid-point.
    io_error: Option<std::io::Error>,
}

/// An open campaign results file: the loaded completed-point prefix plus
/// the in-order streaming writer for new completions.
///
/// `Sync` — sweep workers under the work-stealing scheduler call
/// [`record`](Self::record) directly as each point completes.
pub struct CampaignLog<C: PointCodec> {
    codec: C,
    path: PathBuf,
    points: usize,
    loaded: Vec<Option<Result<C::Point, SweepPointError>>>,
    writer: Mutex<Writer>,
}

impl<C: PointCodec> CampaignLog<C> {
    /// Opens (or creates) the results file at `path` for a campaign of
    /// `points` points with the given config `digest`.
    ///
    /// An existing file is validated — header lines must match `digest`
    /// and `points` exactly ([`CampaignError::HeaderMismatch`] otherwise)
    /// — and its contiguous completed prefix is loaded. Only
    /// newline-terminated lines count: a torn final line (what a kill
    /// mid-write leaves) is dropped, and a file that died before both
    /// header lines landed starts over. Malformed records anywhere else
    /// fail with [`CampaignError::Malformed`]. The file is then cut back
    /// to header + loaded prefix, never rewritten, so a kill during the
    /// open loses no completed record.
    pub fn open(
        path: impl AsRef<Path>,
        codec: C,
        digest: String,
        points: usize,
    ) -> Result<Self, CampaignError> {
        let path = path.as_ref().to_path_buf();
        let run_header = Record::Run {
            bin: CAMPAIGN_BIN.to_string(),
            schema: SCHEMA_VERSION,
        }
        .to_json();
        let campaign_header = Record::Campaign {
            digest,
            points: points as u64,
        }
        .to_json();

        let existing = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        // Newline-terminated lines without their newline; `None` for a
        // line that is not UTF-8, which matches nothing.
        let lines: Vec<Option<&str>> = existing
            .split_inclusive(|&b| b == b'\n')
            .filter_map(|line| line.strip_suffix(b"\n"))
            .map(|line| std::str::from_utf8(line).ok())
            .collect();
        // Only a line that round-trips exactly (decode → re-encode
        // reproduces the bytes) counts as a record: a tear can leave a
        // lexically parseable prefix (e.g. only the closing brace lost)
        // that would otherwise poison byte-identical resume.
        let exact = |line: Option<&str>| {
            let line = line?;
            decode_point_line(&codec, line).filter(|(index, outcome)| {
                *index < points && encode_point_line(&codec, *index, outcome) == line
            })
        };
        let mut loaded: Vec<Option<Result<C::Point, SweepPointError>>> =
            (0..points).map(|_| None).collect();
        let mut completed = 0;
        let mut keep = 0;
        if lines.len() >= 2 {
            if lines[0] != Some(run_header.as_str()) || lines[1] != Some(campaign_header.as_str()) {
                return Err(CampaignError::HeaderMismatch {
                    expected: format!("{run_header} / {campaign_header}"),
                    found: format!(
                        "{} / {}",
                        lines[0].unwrap_or("<not UTF-8>"),
                        lines[1].unwrap_or("<not UTF-8>")
                    ),
                });
            }
            keep = run_header.len() + campaign_header.len() + 2;
            let body = &lines[2..];
            // Accept the longest prefix of in-order records, then treat
            // everything after it as a (possibly multi-line) torn tail: a
            // crash mid-flush — or a filesystem journal replay zeroing
            // trailing blocks — can damage more than one trailing line,
            // and all of it is safely recomputable.
            let torn_at = body.iter().position(|line| match exact(*line) {
                Some((index, outcome)) if index == completed => {
                    loaded[index] = Some(outcome);
                    completed += 1;
                    keep += line.map_or(0, str::len) + 1;
                    false
                }
                _ => true,
            });
            // The torn tail may only contain *incomplete* lines. A
            // record that still round-trips exactly is provably finished
            // work sitting after a hole — structural corruption a
            // recompute would silently discard, so refuse instead.
            if let Some(start) = torn_at {
                for (offset, line) in body.iter().enumerate().skip(start) {
                    if let Some((index, _)) = exact(*line) {
                        return Err(CampaignError::Malformed {
                            line: offset + 3,
                            reason: format!(
                                "complete record (index {index}) after a torn tail \
                                 starting at line {}",
                                start + 3
                            ),
                        });
                    }
                }
            }
        }

        let mut file = durable::open_truncated(&path, keep as u64)?;
        if keep == 0 {
            durable::write(
                &mut file,
                &path,
                format!("{run_header}\n{campaign_header}\n").as_bytes(),
            )?;
        }

        Ok(Self {
            codec,
            path,
            points,
            loaded,
            writer: Mutex::new(Writer {
                file,
                next_flush: completed,
                pending: BTreeMap::new(),
                io_error: None,
            }),
        })
    }

    /// Completed-point bitmap: `true` where the loaded file already
    /// holds this point's outcome (healthy or quarantined).
    pub fn completed(&self) -> Vec<bool> {
        self.loaded.iter().map(Option::is_some).collect()
    }

    /// Number of points loaded from the existing file.
    pub fn completed_count(&self) -> usize {
        self.loaded.iter().filter(|p| p.is_some()).count()
    }

    /// Whether point `index` was loaded from the existing file.
    pub fn is_completed(&self, index: usize) -> bool {
        self.loaded.get(index).is_some_and(Option::is_some)
    }

    /// The loaded outcome for `index`, if the file had it.
    pub fn loaded(&self, index: usize) -> Option<&Result<C::Point, SweepPointError>> {
        self.loaded.get(index).and_then(Option::as_ref)
    }

    /// Streams one newly computed point outcome.
    ///
    /// Callable from any worker thread; lines are buffered until every
    /// lower index has been written, then written in index order (one
    /// OS write per line, so a killed process loses at most the line in
    /// flight; [`finish`](Self::finish) makes them durable). I/O errors
    /// are latched and surfaced by [`finish`](Self::finish), not panicked
    /// mid-sweep.
    pub fn record(&self, index: usize, outcome: &Result<C::Point, SweepPointError>) {
        let line = encode_point_line(&self.codec, index, outcome);
        let mut writer = match self.writer.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        writer.pending.insert(index, line);
        let writer = &mut *writer;
        loop {
            let flush_index = writer.next_flush;
            let Some(line) = writer.pending.remove(&flush_index) else {
                break;
            };
            let mut buf = line.into_bytes();
            buf.push(b'\n');
            if let Err(e) = durable::write(&mut writer.file, &self.path, &buf) {
                if writer.io_error.is_none() {
                    writer.io_error = Some(e);
                }
                return;
            }
            writer.next_flush += 1;
        }
    }

    /// Surfaces any latched I/O error, verifies every point landed (when
    /// `expect_complete`) and fsyncs the file, so an `Ok` means the
    /// written lines survive an OS crash.
    pub fn finish(&self, expect_complete: bool) -> Result<(), CampaignError> {
        let mut writer = match self.writer.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(e) = writer.io_error.take() {
            return Err(CampaignError::Io(e));
        }
        if expect_complete && writer.next_flush != self.points {
            return Err(CampaignError::Malformed {
                line: writer.next_flush + 3,
                reason: format!(
                    "campaign incomplete: {}/{} points flushed",
                    writer.next_flush, self.points
                ),
            });
        }
        durable::sync(&writer.file, &self.path).map_err(CampaignError::Io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PllConfig;

    /// A minimal codec: the point is one `f64`.
    struct F64Codec;

    impl PointCodec for F64Codec {
        type Point = f64;

        fn encode(&self, point: &f64) -> Fields {
            vec![("value_bits".to_string(), Value::Str(bits_hex(*point)))]
        }

        fn decode(&self, line: &str) -> Option<f64> {
            f64_from_bits_hex(&json_str_field(line, "value_bits")?)
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pllbist_campaign_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        let cfg = PllConfig::paper_table3();
        let tones = [1.0, 8.0];
        let a = config_digest(&cfg, &tones, "salt");
        assert_eq!(a, config_digest(&cfg, &tones, "salt"));
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, config_digest(&cfg, &tones, "other-salt"));
        assert_ne!(a, config_digest(&cfg, &[1.0, 9.0], "salt"));
        let mut other = cfg.clone();
        other.vco_curvature = (0.125, 0.0);
        assert_ne!(a, config_digest(&other, &tones, "salt"));
    }

    #[test]
    fn bits_hex_round_trips_every_shape_of_f64() {
        for v in [
            0.0,
            -0.0,
            1.5,
            -3.25e-9,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let back = f64_from_bits_hex(&bits_hex(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        let nan_back = f64_from_bits_hex(&bits_hex(f64::NAN)).unwrap();
        assert_eq!(nan_back.to_bits(), f64::NAN.to_bits());
        assert_eq!(f64_from_bits_hex("xyz"), None);
        assert_eq!(f64_from_bits_hex("00"), None);
    }

    #[test]
    fn every_error_variant_round_trips_through_its_line() {
        let errors = [
            SweepPointError::LockTimeout {
                timeout_secs: 0.125,
                consecutive_cycles: 3,
                required_cycles: 16,
            },
            SweepPointError::NumericalDivergence {
                t: 1.0e-3,
                quantity: "control_voltage_rail_pinned",
                value: f64::NAN,
            },
            SweepPointError::StepBudgetExhausted {
                t: 2.5,
                steps: 1_000_001,
                budget: 1_000_000,
            },
            SweepPointError::FaultWiring(FaultWiringError::PumpFaultOnVoltageDrive),
            SweepPointError::FaultWiring(FaultWiringError::FilterElementAbsent {
                element: "R2",
                filter: "passive-lag",
            }),
            SweepPointError::WorkerPanic {
                message: "tricky \"quoted\" payload with \\ and \n newline".to_string(),
            },
            SweepPointError::DegenerateFit { f_mod_hz: 8.0 },
        ];
        for (i, error) in errors.iter().enumerate() {
            let line = encode_point_line(&F64Codec, i, &Err(error.clone()));
            let (index, outcome) = decode_point_line(&F64Codec, &line).expect(&line);
            assert_eq!(index, i);
            match (&outcome, error) {
                // NaN payloads compare by bits, not PartialEq.
                (
                    Err(SweepPointError::NumericalDivergence { t, quantity, value }),
                    SweepPointError::NumericalDivergence {
                        t: t0,
                        quantity: q0,
                        value: v0,
                    },
                ) => {
                    assert_eq!(t.to_bits(), t0.to_bits());
                    assert_eq!(quantity, q0);
                    assert_eq!(value.to_bits(), v0.to_bits());
                }
                (Err(got), want) => assert_eq!(got, want),
                (Ok(_), _) => panic!("decoded Ok from an Err line"),
            }
            // Re-encoding the decoded outcome reproduces the exact line —
            // the byte-identity guarantee resume depends on.
            assert_eq!(encode_point_line(&F64Codec, i, &outcome), line);
        }
    }

    #[test]
    fn ok_points_round_trip() {
        let outcome: Result<f64, SweepPointError> = Ok(-1.25e-7);
        let line = encode_point_line(&F64Codec, 42, &outcome);
        let (index, back) = decode_point_line(&F64Codec, &line).unwrap();
        assert_eq!(index, 42);
        assert_eq!(back.unwrap().to_bits(), (-1.25e-7f64).to_bits());
    }

    #[test]
    fn fresh_log_streams_out_of_order_records_in_index_order() {
        let path = tmp("fresh.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = CampaignLog::open(&path, F64Codec, "0123456789abcdef".into(), 4).unwrap();
        assert_eq!(log.completed_count(), 0);
        // Workers complete out of order; the file stays in index order.
        log.record(2, &Ok(2.0));
        log.record(0, &Ok(0.5));
        log.record(1, &Err(SweepPointError::DegenerateFit { f_mod_hz: 1.0 }));
        log.record(3, &Ok(3.0));
        log.finish(true).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("\"type\":\"run\""));
        assert!(lines[1].contains("\"digest\":\"0123456789abcdef\",\"points\":4"));
        for (i, line) in lines[2..].iter().enumerate() {
            assert_eq!(json_u64_field(line, "index"), Some(i as u64));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_loads_prefix_and_appends_identically() {
        let path = tmp("resume.jsonl");
        let _ = std::fs::remove_file(&path);
        let digest = "00000000deadbeef".to_string();
        // Uninterrupted reference run.
        let full = CampaignLog::open(&path, F64Codec, digest.clone(), 3).unwrap();
        full.record(0, &Ok(0.5));
        full.record(1, &Ok(1.5));
        full.record(2, &Ok(2.5));
        full.finish(true).unwrap();
        let reference = std::fs::read_to_string(&path).unwrap();

        // Kill after point 0: truncate to header + 1 point + a partial
        // trailing line (mid-write of point 1).
        let mut killed: Vec<&str> = reference.lines().collect();
        killed.truncate(3);
        let mut killed_text = killed.join("\n");
        killed_text.push('\n');
        killed_text.push_str("{\"type\":\"result\",\"name\":\"campaign.po");
        std::fs::write(&path, &killed_text).unwrap();

        let resumed = CampaignLog::open(&path, F64Codec, digest, 3).unwrap();
        assert_eq!(resumed.completed(), vec![true, false, false]);
        assert_eq!(
            resumed.loaded(0).unwrap().as_ref().unwrap().to_bits(),
            0.5f64.to_bits()
        );
        resumed.record(1, &Ok(1.5));
        resumed.record(2, &Ok(2.5));
        resumed.finish(true).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), reference);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_refuses_foreign_files() {
        let path = tmp("foreign.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = CampaignLog::open(&path, F64Codec, "aaaaaaaaaaaaaaaa".into(), 2).unwrap();
        log.record(0, &Ok(1.0));
        drop(log);
        // Different digest → refused.
        let err = CampaignLog::open(&path, F64Codec, "bbbbbbbbbbbbbbbb".to_string(), 2)
            .err()
            .expect("digest mismatch must be refused");
        assert!(matches!(err, CampaignError::HeaderMismatch { .. }), "{err}");
        // Different point count → refused.
        let err = CampaignLog::open(&path, F64Codec, "aaaaaaaaaaaaaaaa".to_string(), 3)
            .err()
            .expect("grid-size mismatch must be refused");
        assert!(matches!(err, CampaignError::HeaderMismatch { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_before_the_tail_is_a_typed_error() {
        let path = tmp("corrupt.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = CampaignLog::open(&path, F64Codec, "cccccccccccccccc".into(), 3).unwrap();
        log.record(0, &Ok(1.0));
        log.record(1, &Ok(2.0));
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"ok\":true", "\"ok\":maybe", 1);
        assert_ne!(corrupted, text);
        std::fs::write(&path, corrupted).unwrap();
        // Record 0 is damaged but record 1 after it still round-trips:
        // that's structural corruption (finished work after a hole),
        // not a torn tail, and must be refused — the complete record is
        // what the error points at.
        let err = CampaignLog::open(&path, F64Codec, "cccccccccccccccc".to_string(), 3)
            .err()
            .expect("mid-file corruption must be refused");
        assert!(
            matches!(err, CampaignError::Malformed { line: 4, .. }),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn multi_record_torn_tail_is_dropped_and_recomputed() {
        let path = tmp("torn_tail.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = CampaignLog::open(&path, F64Codec, "abababababababab".into(), 4).unwrap();
        for (i, v) in [1.0, 2.0, 3.0].iter().enumerate() {
            log.record(i, &Ok(*v));
        }
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        // Damage the last TWO records (journal-replay style): truncate
        // record 2 mid-line and chop record 1 down to a fragment that
        // no longer parses. Only the clean record 0 should survive.
        let lines: Vec<&str> = text.lines().collect();
        let torn = format!(
            "{}\n{}\n{}\n{}\n{}",
            lines[0],
            lines[1],
            lines[2],
            &lines[3][..lines[3].len() / 3],
            &lines[4][..lines[4].len() - 5],
        );
        std::fs::write(&path, torn).unwrap();
        let log = CampaignLog::open(&path, F64Codec, "abababababababab".into(), 4).unwrap();
        assert_eq!(log.completed_count(), 1);
        assert!(log.is_completed(0));
        assert!(!log.is_completed(1));
        // The rewrite leaves a clean file: header + the surviving prefix.
        drop(log);
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert_eq!(rewritten.lines().count(), 3);
        assert!(rewritten.ends_with('\n'));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_error_latches_and_reopen_resumes_from_the_clean_prefix() {
        let path = tmp("write_error.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = CampaignLog::open(&path, F64Codec, "efefefefefefefef".into(), 3).unwrap();
        log.record(0, &Ok(10.0));
        // A read-only handle on the same file: the next write fails with
        // EBADF, as a dying disk would fail it.
        log.writer.lock().unwrap().file = std::fs::File::open(&path).unwrap();
        log.record(1, &Ok(20.0));
        // The log is dead after the error: later records buffer but
        // never land, and finish() surfaces the latched error.
        log.record(2, &Ok(30.0));
        let err = log.finish(true).expect_err("latched error must surface");
        assert!(matches!(err, CampaignError::Io(_)), "{err}");
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        // On disk: both headers and record 0, nothing after.
        assert_eq!(text.lines().count(), 3);
        assert!(text.ends_with('\n'));
        // Crash-only restart recovers record 0 and recomputes the rest.
        let log = CampaignLog::open(&path, F64Codec, "efefefefefefefef".into(), 3).unwrap();
        assert_eq!(log.completed(), vec![true, false, false]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_cuts_the_torn_tail_and_keeps_the_prefix_bytes() {
        let path = tmp("cut.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = CampaignLog::open(&path, F64Codec, "1212121212121212".into(), 3).unwrap();
        log.record(0, &Ok(1.0));
        log.record(1, &Ok(2.0));
        log.finish(false).unwrap();
        drop(log);
        let clean = std::fs::read(&path).unwrap();
        let mut torn = clean.clone();
        torn.extend_from_slice(b"{\"type\":\"result\",\"na");
        std::fs::write(&path, &torn).unwrap();
        let log = CampaignLog::open(&path, F64Codec, "1212121212121212".into(), 3).unwrap();
        assert_eq!(log.completed_count(), 2);
        drop(log);
        assert_eq!(std::fs::read(&path).unwrap(), clean);
        // A header torn before its newline starts the file over.
        let header_end = clean.iter().position(|&b| b == b'\n').unwrap();
        std::fs::write(&path, &clean[..header_end + 5]).unwrap();
        let log = CampaignLog::open(&path, F64Codec, "1212121212121212".into(), 3).unwrap();
        assert_eq!(log.completed_count(), 0);
        drop(log);
        let headers: Vec<u8> = clean
            .split_inclusive(|&b| b == b'\n')
            .take(2)
            .flatten()
            .copied()
            .collect();
        assert_eq!(std::fs::read(&path).unwrap(), headers);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn headerless_or_empty_files_start_fresh() {
        let path = tmp("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        let log = CampaignLog::open(&path, F64Codec, "dddddddddddddddd".into(), 2).unwrap();
        assert_eq!(log.completed_count(), 0);
        drop(log);
        // A file killed mid-header (single partial line) also restarts.
        std::fs::write(&path, "{\"type\":\"ru").unwrap();
        let log = CampaignLog::open(&path, F64Codec, "dddddddddddddddd".into(), 2).unwrap();
        assert_eq!(log.completed_count(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
