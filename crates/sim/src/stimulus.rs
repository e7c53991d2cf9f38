//! Reference-input frequency-modulation stimuli.
//!
//! The transfer-function test modulates the PLL's reference frequency
//! sinusoidally (paper §2). On chip, a true sine is unavailable; the DCO of
//! fig. 4 approximates it by **stepping between a small set of discrete
//! frequencies** (frequency-shift keying). This module defines the three
//! stimulus classes the paper compares in figs. 11/12 —
//! [`FmStimulus::pure_sine`], [`FmStimulus::two_tone`],
//! [`FmStimulus::multi_tone`] — as instantaneous-frequency functions with
//! exact phase integrals, so the behavioural engine can place reference
//! edges with machine precision.
//!
//! A staircase tabulates its dwells once, at construction (frequency,
//! start time, start and end phase), so its phase is one `floor`, one
//! table index and one multiply-add at any time, however many levels it
//! has.
//!
//! Every engine places each reference edge by inverting the phase
//! (`FmStimulus::solve_phase`), and each kind has an exact inverse:
//! the staircase and constant kinds are piecewise linear in phase (one
//! division inside the dwell that holds the target), and sine FM/PM is
//! Newton from the sixth-order series inverse of the phase at the
//! previous edge, which the seed's own evaluation usually finishes.

use std::f64::consts::TAU;

/// Newton steps allowed to the smooth kinds' phase inverse. From the
/// sixth-order seed the first evaluation meets the tolerance up to
/// `f_mod ≈ 10 Hz` on a 1 kHz reference, and one step more finishes it
/// beyond; the cap only bounds a bisecting fallback on a pathological
/// stimulus.
const MAX_NEWTON_STEPS: usize = 64;

/// A stimulus evaluated at one instant: accumulated phase, frequency and
/// frequency slope, all from one evaluation. A pure function of
/// `(stimulus, t)`, so a point carried over from the previous edge solve
/// seeds the next one bit-identically to a fresh evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PhasePoint {
    /// The instant, in seconds.
    pub(crate) t: f64,
    /// [`FmStimulus::phase_cycles`] at `t`.
    pub(crate) phase: f64,
    /// [`FmStimulus::frequency_at`] at `t`, in Hz (exactly on a staircase
    /// step, the level on either side of it).
    pub(crate) f: f64,
    /// The frequency's time derivative at `t`, in Hz/s (zero for the
    /// piecewise-constant kinds).
    pub(crate) df: f64,
}

/// A frequency-modulated reference stimulus.
///
/// The reference signal's instantaneous frequency is
/// `f(t) = f_nominal + deviation(t)` where `deviation(t)` is periodic with
/// the modulation frequency. Phase is measured in **cycles** so that edge
/// `k` occurs when `phase(t) = k`.
#[derive(Clone, Debug, PartialEq)]
pub struct FmStimulus {
    f_nominal_hz: f64,
    f_mod_hz: f64,
    kind: Kind,
}

#[derive(Clone, Debug, PartialEq)]
enum Kind {
    /// Ideal sinusoidal FM with the given peak deviation.
    Sine { deviation_hz: f64 },
    /// Ideal sinusoidal PM with the given peak phase deviation in cycles
    /// (delay-line style modulation, paper §2/§3).
    SinePm { amplitude_cycles: f64 },
    /// Staircase FSK through the given deviation levels, each held for an
    /// equal fraction of the modulation period.
    Staircase(Staircase),
    /// Constant deviation (used to park the DCO at one tone).
    Constant { deviation_hz: f64 },
}

/// A staircase's levels and the per-dwell table its phase is read from.
/// The table is derived from `(f_nom, f_mod, levels)` at construction, so
/// it is never serialised: decoding a token rebuilds it.
#[derive(Clone, Debug, PartialEq)]
struct Staircase {
    levels: Vec<f64>,
    dwells: Vec<Dwell>,
    /// The modulation frequency, in Hz, and its period `1/f_mod`, in
    /// seconds.
    f_mod: f64,
    period: f64,
    /// Dwells per second, `n·f_mod`.
    rate: f64,
    /// The phase accumulated over one whole period, in cycles (the last
    /// dwell's end), and its reciprocal.
    period_phase: f64,
    periods_per_cycle: f64,
}

/// One dwell of a staircase, as seen from the start of its period.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Dwell {
    /// Instantaneous frequency `f_nom + level`, in Hz.
    f: f64,
    /// Start time in the period, in seconds.
    start: f64,
    /// Phase at the dwell start and at its end (the next dwell's start),
    /// in cycles from the period start.
    phase: f64,
    end_phase: f64,
}

impl Staircase {
    /// Tabulates the dwells: each start phase is `f_nom·start` plus the
    /// deviation phase of the dwells before it.
    fn new(f_nominal_hz: f64, f_mod_hz: f64, levels: Vec<f64>) -> Self {
        let n = levels.len();
        let period = 1.0 / f_mod_hz;
        let rate = f_mod_hz * n as f64;
        let start = |i: usize| if i == n { period } else { i as f64 / rate };
        let mut dev_phase = 0.0f64;
        let mut dwells: Vec<Dwell> = Vec::with_capacity(n);
        for (i, &level) in levels.iter().enumerate() {
            let (from, to) = (start(i), start(i + 1));
            let phase = f_nominal_hz * from + dev_phase;
            dev_phase += level * (to - from);
            dwells.push(Dwell {
                f: f_nominal_hz + level,
                start: from,
                phase,
                end_phase: f_nominal_hz * to + dev_phase,
            });
        }
        let period_phase = f_nominal_hz * period + dev_phase;
        Self {
            levels,
            dwells,
            f_mod: f_mod_hz,
            period,
            rate,
            period_phase,
            periods_per_cycle: 1.0 / period_phase,
        }
    }

    /// The whole periods before `t`, the time into the current period,
    /// and the index of the dwell holding it.
    #[inline]
    fn locate(&self, t: f64) -> (f64, f64, usize) {
        let periods = (t * self.f_mod).floor();
        let into = t - periods * self.period;
        // A float-to-int cast saturates: a rounding-negative `into`
        // lands in dwell 0, a rounding-long one in the last.
        let i = ((into * self.rate) as usize).min(self.dwells.len() - 1);
        (periods, into, i)
    }

    /// The accumulated phase at `t` and the dwell holding it: one
    /// multiply-add inside the dwell, clamped to the dwell's own start
    /// and end phases (and the period's) so that rounding never makes
    /// the phase step down across a dwell or period boundary.
    #[inline]
    fn phase_at(&self, t: f64) -> (f64, &Dwell) {
        let (periods, into, i) = self.locate(t);
        let d = &self.dwells[i];
        let local = (d.phase + d.f * (into - d.start))
            .max(d.phase)
            .min(d.end_phase);
        let phase = (periods * self.period_phase + local).min((periods + 1.0) * self.period_phase);
        (phase, d)
    }

    /// The time at which the phase reaches `target`, before rounding
    /// fix-up: whole periods by one `floor`, the dwell holding the rest by
    /// at most n comparisons, then one division. A period count that
    /// rounding puts one off leaves the rest just outside `[0, P)`, which
    /// the first or last dwell extends over.
    fn time_at(&self, target: f64) -> f64 {
        let periods = (target * self.periods_per_cycle).floor();
        let rest = target - periods * self.period_phase;
        let i = self.dwells[1..]
            .iter()
            .take_while(|d| d.phase <= rest)
            .count();
        let d = &self.dwells[i];
        periods * self.period + d.start + (rest - d.phase) / d.f
    }
}

impl FmStimulus {
    /// Ideal sinusoidal FM: `f(t) = f_nom + Δf·sin(2π·f_mod·t)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < |Δf| < f_nom` and both frequencies are positive.
    pub fn pure_sine(f_nominal_hz: f64, deviation_hz: f64, f_mod_hz: f64) -> Self {
        validate(f_nominal_hz, deviation_hz, f_mod_hz);
        Self {
            f_nominal_hz,
            f_mod_hz,
            kind: Kind::Sine { deviation_hz },
        }
    }

    /// Ideal sinusoidal **phase** modulation:
    /// `θ(t) = f_nom·t + a·sin(2π·f_mod·t)` with `a` in cycles — what a
    /// tapped-delay-line modulator produces (paper §3's alternative). Per
    /// the paper's §2 remark, PM with amplitude `a` is equivalent to FM
    /// with peak deviation `Δf = a·2π·f_mod` shifted by 90°.
    ///
    /// # Panics
    ///
    /// Panics unless the frequencies are positive and the resulting peak
    /// frequency deviation `a·2π·f_mod` stays below `f_nom` (so phase
    /// remains monotone and edges stay well ordered).
    pub fn phase_modulated(f_nominal_hz: f64, amplitude_cycles: f64, f_mod_hz: f64) -> Self {
        assert!(
            f_nominal_hz > 0.0 && f_mod_hz > 0.0,
            "frequencies must be positive"
        );
        let peak_dev = amplitude_cycles.abs() * TAU * f_mod_hz;
        assert!(
            amplitude_cycles != 0.0 && peak_dev < f_nominal_hz,
            "PM amplitude must be nonzero and keep the phase monotone"
        );
        Self {
            f_nominal_hz,
            f_mod_hz,
            kind: Kind::SinePm { amplitude_cycles },
        }
    }

    /// Two-tone FSK: a square-wave deviation of ±Δf (the paper's "Two Tone
    /// FS" trace) phased like the sine it approximates (+Δf over the first
    /// half period).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < |Δf| < f_nom` and both frequencies are positive.
    pub fn two_tone(f_nominal_hz: f64, deviation_hz: f64, f_mod_hz: f64) -> Self {
        validate(f_nominal_hz, deviation_hz, f_mod_hz);
        Self {
            f_nominal_hz,
            f_mod_hz,
            kind: Kind::Staircase(Staircase::new(
                f_nominal_hz,
                f_mod_hz,
                vec![deviation_hz, -deviation_hz],
            )),
        }
    }

    /// Multi-tone FSK with `steps` equal-duration levels per modulation
    /// period, sampling the sine at interval midpoints — the paper's
    /// "Multi Tone FS" with ten steps (fig. 4 DCO output).
    ///
    /// # Panics
    ///
    /// Panics if `steps < 2`, or on the frequency conditions of
    /// [`FmStimulus::pure_sine`].
    pub fn multi_tone(f_nominal_hz: f64, deviation_hz: f64, f_mod_hz: f64, steps: usize) -> Self {
        assert!(steps >= 2, "multi-tone FSK needs at least two steps");
        validate(f_nominal_hz, deviation_hz, f_mod_hz);
        let levels = (0..steps)
            .map(|k| deviation_hz * (TAU * (k as f64 + 0.5) / steps as f64).sin())
            .collect();
        Self {
            f_nominal_hz,
            f_mod_hz,
            kind: Kind::Staircase(Staircase::new(f_nominal_hz, f_mod_hz, levels)),
        }
    }

    /// Staircase FSK through explicit deviation levels (one DCO tone per
    /// level, equal dwell times) — for quantised-DCO studies where the
    /// levels come from the actual divider tone grid.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two levels are given or any level's magnitude
    /// reaches `f_nom`.
    pub fn staircase(f_nominal_hz: f64, levels: Vec<f64>, f_mod_hz: f64) -> Self {
        assert!(levels.len() >= 2, "staircase needs at least two levels");
        for &l in &levels {
            assert!(l.abs() < f_nominal_hz, "deviation must stay below f_nom");
        }
        assert!(
            f_nominal_hz > 0.0 && f_mod_hz > 0.0,
            "frequencies must be positive"
        );
        Self {
            f_nominal_hz,
            f_mod_hz,
            kind: Kind::Staircase(Staircase::new(f_nominal_hz, f_mod_hz, levels)),
        }
    }

    /// An unmodulated carrier at `f_nom + Δf` (the `f_mod` is kept for
    /// bookkeeping but nothing varies).
    pub fn constant(f_nominal_hz: f64, deviation_hz: f64) -> Self {
        assert!(
            f_nominal_hz > 0.0 && deviation_hz.abs() < f_nominal_hz,
            "deviation must stay below f_nom"
        );
        Self {
            f_nominal_hz,
            f_mod_hz: 1.0,
            kind: Kind::Constant { deviation_hz },
        }
    }

    /// Nominal (carrier) frequency in Hz.
    pub fn f_nominal_hz(&self) -> f64 {
        self.f_nominal_hz
    }

    /// Modulation frequency in Hz.
    pub fn f_mod_hz(&self) -> f64 {
        self.f_mod_hz
    }

    /// Peak deviation magnitude in Hz.
    pub fn peak_deviation_hz(&self) -> f64 {
        match &self.kind {
            Kind::Sine { deviation_hz } | Kind::Constant { deviation_hz } => deviation_hz.abs(),
            Kind::SinePm { amplitude_cycles } => amplitude_cycles.abs() * TAU * self.f_mod_hz,
            Kind::Staircase(st) => st.levels.iter().fold(0.0, |m, l| m.max(l.abs())),
        }
    }

    /// Instantaneous frequency deviation from nominal at time `t`, in Hz.
    pub fn deviation_at(&self, t: f64) -> f64 {
        match &self.kind {
            Kind::Sine { deviation_hz } => deviation_hz * (TAU * self.f_mod_hz * t).sin(),
            Kind::SinePm { amplitude_cycles } => {
                // d/dt [a·sin(ωm·t)] = a·ωm·cos(ωm·t), in Hz.
                amplitude_cycles * TAU * self.f_mod_hz * (TAU * self.f_mod_hz * t).cos()
            }
            Kind::Constant { deviation_hz } => *deviation_hz,
            Kind::Staircase(st) => st.levels[st.locate(t).2],
        }
    }

    /// Instantaneous frequency at time `t`, in Hz.
    pub fn frequency_at(&self, t: f64) -> f64 {
        self.f_nominal_hz + self.deviation_at(t)
    }

    /// Accumulated phase in **cycles** from `t = 0`, exact (closed form for
    /// the sine, per-segment sums for the staircase).
    pub fn phase_cycles(&self, t: f64) -> f64 {
        self.eval(t).phase
    }

    /// Phase, frequency and frequency slope at `t` from one evaluation
    /// (one `sin_cos` for the smooth kinds; for a staircase, a `floor`, a
    /// table lookup and one multiply-add); the one formula behind
    /// [`phase_cycles`](Self::phase_cycles).
    pub(crate) fn eval(&self, t: f64) -> PhasePoint {
        let (dev_phase, dev, df) = match &self.kind {
            Kind::Sine { deviation_hz } => {
                // ∫Δf·sin(2πfm·τ)dτ = Δf(1 − cos(2πfm·t))/(2πfm)
                let w = TAU * self.f_mod_hz;
                let (s, c) = (w * t).sin_cos();
                (
                    deviation_hz / w * (1.0 - c),
                    deviation_hz * s,
                    deviation_hz * w * c,
                )
            }
            Kind::SinePm { amplitude_cycles } => {
                let w = TAU * self.f_mod_hz;
                let (s, c) = (w * t).sin_cos();
                (
                    amplitude_cycles * s,
                    amplitude_cycles * TAU * self.f_mod_hz * c,
                    -amplitude_cycles * w * w * s,
                )
            }
            Kind::Constant { deviation_hz } => (deviation_hz * t, *deviation_hz, 0.0),
            Kind::Staircase(st) => {
                let (phase, d) = st.phase_at(t);
                return PhasePoint {
                    t,
                    phase,
                    f: d.f,
                    df: 0.0,
                };
            }
        };
        PhasePoint {
            t,
            phase: self.f_nominal_hz * t + dev_phase,
            f: self.f_nominal_hz + dev,
            df,
        }
    }

    /// The time of the next rising reference edge strictly after `t`
    /// (edge `k` occurs at `phase_cycles = k`), by the exact phase
    /// inverse the engines place their edges with.
    pub fn next_edge_after(&self, t: f64) -> f64 {
        let from = self.eval(t);
        self.solve_phase(from.phase.floor() + 1.0, from).t
    }

    /// The earliest time `≥ from.t` at which the accumulated phase
    /// reaches `target` cycles — the first representable time at or past
    /// the crossing of the computed phase, to within a few ulps — solved
    /// from an already evaluated `from`, and returned as the edge's own
    /// evaluation, so an engine seeds each reference edge from the
    /// previous one. A pure function of `(self, target, from.t)`.
    ///
    /// Each kind has an exact inverse: one division for a constant
    /// deviation; for a staircase, whole modulation periods by `floor`,
    /// the dwell holding the target by at most n comparisons against the
    /// tabulated dwell phases, then one division; for sine FM/PM, Newton
    /// from the sixth-order series inverse of the phase at `from`, whose
    /// derivatives all follow from `from.f` and `from.df`. At
    /// `f_mod ≤ 10 Hz` and the paper's reference rates the seed already
    /// meets the `1e-15·max(t, 1)` tolerance, so the seed's own
    /// evaluation ends the solve; faster modulation takes one Newton
    /// step more. All
    /// kinds then step forward by at least one ulp until the computed
    /// phase reaches the target, which keeps the at-or-past contract:
    /// a later call starting from the returned time does not rediscover
    /// the same edge.
    ///
    /// # Panics
    ///
    /// Panics if the target lies in the past (`from.phase > target`).
    pub(crate) fn solve_phase(&self, target: f64, from: PhasePoint) -> PhasePoint {
        self.solve_phase_counted(target, from).0
    }

    /// [`solve_phase`](Self::solve_phase), with the number of stimulus
    /// evaluations it took (the work the edge cost).
    #[inline(always)]
    pub(crate) fn solve_phase_counted(&self, target: f64, from: PhasePoint) -> (PhasePoint, u32) {
        assert!(
            from.phase <= target,
            "phase target {target} is in the past (phase({}) = {})",
            from.t,
            from.phase
        );
        let (mut p, mut evaluations) = match &self.kind {
            Kind::Constant { deviation_hz } => {
                let t = target / (self.f_nominal_hz + deviation_hz);
                (self.eval(t.max(from.t)), 1)
            }
            Kind::Staircase(st) => (self.eval(st.time_at(target).max(from.t)), 1),
            Kind::Sine { .. } | Kind::SinePm { .. } => self.smooth_time_at(target, from),
        };
        // Forward steps of at least one ulp (a Newton step when the
        // residual is larger) until the computed phase reaches the target.
        while p.phase < target {
            let t = p.t + (target - p.phase) / p.f;
            p = self.eval(t.max(p.t.next_up()));
            evaluations += 1;
        }
        (p, evaluations)
    }

    /// Safeguarded Newton on the smooth kinds' phase, seeded by
    /// [`series_inverse`](Self::series_inverse), with the evaluations it
    /// took. The bracket `[from.t, from.t + Δφ/f_min]` only catches a
    /// step that escapes it (bisection then); the caller's forward fix-up
    /// owns the at-or-past contract.
    fn smooth_time_at(&self, target: f64, from: PhasePoint) -> (PhasePoint, u32) {
        let dphi = target - from.phase;
        let f_min = self.f_nominal_hz - self.peak_deviation_hz();
        let mut lo = from.t;
        let mut hi = from.t + dphi / f_min;
        let mut cand = from.t + self.series_inverse(dphi, from);
        let mut p = from;
        let mut evaluations = 0;
        for _ in 0..MAX_NEWTON_STEPS {
            if !(cand > lo && cand < hi) {
                cand = 0.5 * (lo + hi);
            }
            p = self.eval(cand);
            evaluations += 1;
            if p.phase < target {
                lo = cand;
            } else {
                hi = cand;
            }
            let delta = (target - p.phase) / p.f;
            if delta.abs() <= 1e-15 * cand.max(1.0) {
                break;
            }
            cand += delta;
        }
        (p, evaluations)
    }

    /// The time `τ` after `at.t` at which a smooth kind's phase has
    /// advanced by `dphi` cycles: the series reversion of the phase's
    /// Taylor expansion at `at`, through sixth order in `dphi`.
    ///
    /// Both smooth kinds obey `f″ = −ω²·(f − f_nom)` and
    /// `f⁽ⁿ⁺²⁾ = −ω²·f⁽ⁿ⁾` (`ω = 2π·f_mod`), so every derivative follows
    /// from `at.f` and `at.df` with no further evaluation. With
    /// `h = Δφ/f`, the expansion reads `1 = x + c₂x² + … + c₆x⁶` in
    /// `x = τ/h`, where `c₂ = ½·f′h/f`, `c₃ = −(ωh)²·e/6`,
    /// `c₄ = −(ωh)²·c₂/12`, `c₅ = (ωh)⁴·e/120`, `c₆ = (ωh)⁴·c₂/360` and
    /// `e = (f − f_nom)/f`; its reversion is `x = 1 + b₂ + … + b₆`.
    /// The first term left out is of order `(Δf/f)·(ωh)⁶/7!`: a few
    /// 1e-16 s at 10 Hz modulation of a 1 kHz reference.
    fn series_inverse(&self, dphi: f64, at: PhasePoint) -> f64 {
        let r = 1.0 / at.f;
        let h = dphi * r;
        let w = TAU * self.f_mod_hz;
        let w2 = (w * h) * (w * h);
        let e = (at.f - self.f_nominal_hz) * r;
        let c2 = 0.5 * at.df * h * r;
        let c3 = -w2 * e * (1.0 / 6.0);
        let c4 = -w2 * c2 * (1.0 / 12.0);
        let c5 = w2 * w2 * e * (1.0 / 120.0);
        let c6 = w2 * w2 * c2 * (1.0 / 360.0);
        let c2c2 = c2 * c2;
        let b2 = -c2;
        let b3 = 2.0 * c2c2 - c3;
        let b4 = c2 * (5.0 * (c3 - c2c2)) - c4;
        let b5 = c2c2 * (14.0 * c2c2 - 21.0 * c3) + 6.0 * c2 * c4 + 3.0 * c3 * c3 - c5;
        let b6 = c2 * (c2c2 * (84.0 * c3 - 42.0 * c2c2) - 28.0 * (c2 * c4 + c3 * c3) + 7.0 * c5)
            + 7.0 * c3 * c4
            - c6;
        h + h * ((((b6 + b5) + b4) + b3) + b2)
    }

    /// Serialises the stimulus as a compact token (floats as 16-digit
    /// lowercase bit hex, staircase levels comma-joined) for the
    /// lock-state checkpoint sidecar. No quotes/braces/backslashes, so
    /// it embeds verbatim in a JSONL string field;
    /// [`decode_state`](Self::decode_state) is the exact inverse.
    pub(crate) fn encode_state(&self) -> String {
        let hx = |v: f64| format!("{:016x}", v.to_bits());
        let kind = match &self.kind {
            Kind::Sine { deviation_hz } => format!("sine:{}", hx(*deviation_hz)),
            Kind::SinePm { amplitude_cycles } => format!("pm:{}", hx(*amplitude_cycles)),
            Kind::Constant { deviation_hz } => format!("const:{}", hx(*deviation_hz)),
            Kind::Staircase(st) => {
                let joined: Vec<String> = st.levels.iter().map(|l| hx(*l)).collect();
                format!("stair:{}", joined.join(","))
            }
        };
        format!("{};{};{kind}", hx(self.f_nominal_hz), hx(self.f_mod_hz))
    }

    /// Rebuilds a stimulus from [`encode_state`](Self::encode_state)
    /// output; `None` on any malformed token (torn checkpoint → the
    /// loader falls back to re-settling).
    pub(crate) fn decode_state(code: &str) -> Option<Self> {
        fn f64_bits(s: &str) -> Option<f64> {
            (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok().map(f64::from_bits))?
        }
        let mut parts = code.splitn(3, ';');
        let f_nominal_hz = f64_bits(parts.next()?)?;
        let f_mod_hz = f64_bits(parts.next()?)?;
        let kind_token = parts.next()?;
        let (tag, payload) = kind_token.split_once(':')?;
        let kind = match tag {
            "sine" => Kind::Sine {
                deviation_hz: f64_bits(payload)?,
            },
            "pm" => Kind::SinePm {
                amplitude_cycles: f64_bits(payload)?,
            },
            "const" => Kind::Constant {
                deviation_hz: f64_bits(payload)?,
            },
            "stair" => {
                let levels: Option<Vec<f64>> = payload.split(',').map(f64_bits).collect();
                Kind::Staircase(Staircase::new(f_nominal_hz, f_mod_hz, levels?))
            }
            _ => return None,
        };
        Some(Self {
            f_nominal_hz,
            f_mod_hz,
            kind,
        })
    }

    /// Times within `[0, 1/f_mod)` where the *deviation* waveform peaks
    /// (maximum positive deviation) — the paper's "peak of the input
    /// modulation", the phase-counter start reference.
    pub fn deviation_peak_time(&self) -> f64 {
        match &self.kind {
            Kind::Sine { .. } => 0.25 / self.f_mod_hz,
            Kind::SinePm { .. } => 0.0, // cos peaks at t = 0 (mod T)
            Kind::Constant { .. } => 0.0,
            Kind::Staircase(Staircase { levels, .. }) => {
                let n = levels.len() as f64;
                let idx = levels
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                // Centre of the peak dwell interval.
                (idx as f64 + 0.5) / (self.f_mod_hz * n)
            }
        }
    }
}

fn validate(f_nom: f64, dev: f64, f_mod: f64) {
    assert!(
        f_nom > 0.0 && f_nom.is_finite(),
        "f_nominal must be positive"
    );
    assert!(f_mod > 0.0 && f_mod.is_finite(), "f_mod must be positive");
    assert!(
        dev != 0.0 && dev.abs() < f_nom,
        "deviation must be nonzero and below f_nom"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pllbist_testkit::prop::Gen;
    use pllbist_testkit::{prop_assert, prop_check};

    /// The bracket-safeguarded Newton that placed every reference edge
    /// before the exact inverses, kept as the reference the properties
    /// compare against: at or past the crossing, within
    /// `1e-15·max(t, 1)` of it.
    fn reference_time_at_phase(s: &FmStimulus, target: f64, t_min: f64) -> f64 {
        let t = t_min;
        let start = s.phase_cycles(t);
        assert!(start <= target, "phase target {target} is in the past");
        let f_min = s.f_nominal_hz - s.peak_deviation_hz();
        let f_max = s.f_nominal_hz + s.peak_deviation_hz();
        let mut lo = (t + (target - start) / f_max).max(t);
        let mut hi = t + (target - start) / f_min;
        hi = hi.max(lo + 1e-18);
        while s.phase_cycles(hi) < target {
            hi += 0.1 / s.f_nominal_hz;
        }
        let tol = 1e-15 * hi.max(1.0);
        let mut cand = lo;
        for _ in 0..200 {
            if hi - lo < tol {
                break;
            }
            if cand <= lo || cand >= hi {
                cand = 0.5 * (lo + hi);
                if cand <= lo || cand >= hi {
                    break;
                }
            }
            let phi = s.phase_cycles(cand);
            if phi < target {
                lo = cand;
            } else {
                hi = cand;
            }
            let f = s.frequency_at(cand);
            if f <= 0.0 {
                cand = 0.5 * (lo + hi);
                continue;
            }
            let delta = (target - phi) / f;
            if delta.abs() <= tol {
                if phi >= target {
                    return cand;
                }
                let past = (cand + delta + tol).min(hi);
                if s.phase_cycles(past) >= target {
                    return past;
                }
                return hi;
            }
            cand += delta;
        }
        hi
    }

    /// The staircase phase as it was computed before the per-dwell
    /// table: whole periods, then a walk over the dwells. Kept as the
    /// reference the table is checked against.
    fn walked_staircase_phase(s: &FmStimulus, t: f64) -> f64 {
        let Kind::Staircase(st) = &s.kind else {
            panic!("not a staircase: {s:?}")
        };
        let levels = &st.levels;
        let n = levels.len() as f64;
        let dwell = 1.0 / (s.f_mod_hz * n);
        let per_period: f64 = levels.iter().sum::<f64>() / (s.f_mod_hz * n);
        let periods = (t * s.f_mod_hz).floor();
        let mut acc = periods * per_period;
        let mut rem = t - periods / s.f_mod_hz;
        for &l in levels {
            if rem <= 0.0 {
                break;
            }
            let seg = rem.min(dwell);
            acc += l * seg;
            rem -= seg;
        }
        s.f_nominal_hz * t + acc
    }

    /// `x` stepped `k` representable values up (`k > 0`) or down.
    fn ulps_from(x: f64, k: i32) -> f64 {
        (0..k.unsigned_abs()).fold(x, |v, _| if k > 0 { v.next_up() } else { v.next_down() })
    }

    /// A stimulus of `kind` (0 sine, 1 PM, 2 two-tone, 3 ten-step,
    /// 4 explicit staircase, 5 constant) with f_mod up to 200 Hz and
    /// peak deviation up to 0.9·f_nom.
    fn any_stimulus(g: &mut Gen, kind: usize) -> FmStimulus {
        let f_nom = g.f64_range(200.0, 50_000.0);
        let f_mod = g.f64_range(0.5, 200.0);
        let dev = g.f64_range(0.001, 0.9) * f_nom * if g.bool() { 1.0 } else { -1.0 };
        match kind {
            0 => FmStimulus::pure_sine(f_nom, dev, f_mod),
            1 => FmStimulus::phase_modulated(f_nom, dev / (TAU * f_mod), f_mod),
            2 => FmStimulus::two_tone(f_nom, dev, f_mod),
            3 => FmStimulus::multi_tone(f_nom, dev, f_mod, 10),
            4 => {
                let n = g.usize_range(2, 13);
                FmStimulus::staircase(f_nom, g.vec_f64(-0.9 * f_nom, 0.9 * f_nom, n, n + 1), f_mod)
            }
            _ => FmStimulus::constant(f_nom, dev),
        }
    }

    /// Walks 64 reference edges of a stimulus switched in at `t0` with
    /// phase offset `base`, as the loop shell schedules them, checking
    /// each edge against the reference solver.
    fn edges_match_reference(kind: usize) {
        prop_check!(cases: 96, |g| {
            let s = any_stimulus(g, kind);
            let mut t = if g.bool() {
                g.f64_range(0.0, 2.0)
            } else {
                g.f64_range(1e3, 1e5)
            };
            let base = g.f64_range(-1e4, 1e4);
            let mut cursor = s.eval(t);
            for edge in 0..64 {
                let phase_now = base + cursor.phase;
                let mut target = phase_now.floor() + 1.0;
                if target - phase_now < 1e-9 {
                    target += 1.0;
                }
                let local = target - base;
                let got = s.solve_phase(local, s.eval(t)).t;
                let want = reference_time_at_phase(&s, local, t);
                let tol = 1e-15 * want.max(1.0);
                let at = s.eval(got);
                prop_assert!(
                    at.phase >= local,
                    "{s:?} edge {edge}: phase({got}) = {} < {local}",
                    at.phase
                );
                prop_assert!(got > t, "{s:?} edge {edge}: {got} not after {t}");
                // The computed phase's resolution in time: a few ulps of
                // its largest term over the local frequency. Where it
                // exceeds tol (10⁴–10⁵ s, a deep deviation) it, not tol,
                // limits both solvers.
                let scale = 2.0 * s.f_nominal_hz * got.max(1.0);
                let f_local = at.f.min(s.eval(want).f);
                let resolution = 4.0 * (scale.next_up() - scale) / f_local;
                let margin = 2.0 * tol.max(resolution);
                let late = |x: f64| s.phase_cycles(x - margin) >= local;
                prop_assert!(!late(got), "{s:?} edge {edge}: {got} is past the crossing");
                if late(want) {
                    // The reference's Newton does not converge where the
                    // phase noise exceeds its tolerance; it then returns
                    // its widened bracket, up to 0.1 nominal periods late.
                    prop_assert!(
                        resolution > tol,
                        "{s:?} edge {edge}: reference {want} late at resolution {resolution:e}"
                    );
                } else {
                    prop_assert!(
                        (got - want).abs() <= margin,
                        "{s:?} edge {edge}: {got} vs reference {want} ({:e} s, tol {tol:e}, \
                         resolution {resolution:e})",
                        got - want
                    );
                }
                // A solve seeded from the carried cursor is the same
                // solve: the loop shell relies on it across restores.
                cursor = s.solve_phase(local, cursor);
                prop_assert!(
                    cursor.t.to_bits() == got.to_bits() && cursor == s.eval(got),
                    "{s:?} edge {edge}: cursor solve {} vs fresh {got}",
                    cursor.t
                );
                t = got;
            }
            Ok(())
        });
    }

    #[test]
    fn sine_edges_match_the_reference_newton() {
        edges_match_reference(0);
    }

    #[test]
    fn pm_edges_match_the_reference_newton() {
        edges_match_reference(1);
    }

    #[test]
    fn two_tone_edges_match_the_reference_newton() {
        edges_match_reference(2);
    }

    #[test]
    fn multi_tone_edges_match_the_reference_newton() {
        edges_match_reference(3);
    }

    #[test]
    fn explicit_staircase_edges_match_the_reference_newton() {
        edges_match_reference(4);
    }

    #[test]
    fn constant_edges_match_the_reference_newton() {
        edges_match_reference(5);
    }

    #[test]
    fn tabulated_staircase_phase_matches_the_walk() {
        prop_check!(cases: 512, |g| {
            let kind = g.usize_range(2, 5);
            let s = any_stimulus(g, kind);
            let t = if g.bool() {
                g.f64_range(0.0, 2.0)
            } else {
                g.f64_range(1e3, 1e5)
            };
            let (got, want) = (s.phase_cycles(t), walked_staircase_phase(&s, t));
            // In ulps of the nominal phase term, which sets the rounding
            // scale of both formulas (40,000 cases: at most 4).
            let scale = (s.f_nominal_hz * t.max(1e-3)).abs();
            let ulps = (got - want).abs() / (scale.next_up() - scale);
            prop_assert!(ulps <= 16.0, "{s:?} at {t}: table {got} vs walk {want} ({ulps} ulps)");
            Ok(())
        });
    }

    #[test]
    fn staircase_phase_never_steps_down_at_a_dwell_boundary() {
        prop_check!(cases: 256, |g| {
            let kind = g.usize_range(2, 5);
            let s = any_stimulus(g, kind);
            let Kind::Staircase(st) = &s.kind else {
                unreachable!()
            };
            let periods = if g.bool() {
                g.f64_range(0.0, 100.0)
            } else {
                g.f64_range(1e3, 1e6)
            }
            .floor();
            for d in &st.dwells {
                let boundary = periods * st.period + d.start;
                let mut last = s.eval(ulps_from(boundary, -8));
                for k in -7..=8 {
                    let here = s.eval(ulps_from(boundary, k));
                    prop_assert!(
                        here.phase >= last.phase,
                        "{s:?}: phase({}) = {} < phase({}) = {}",
                        here.t,
                        here.phase,
                        last.t,
                        last.phase
                    );
                    last = here;
                }
            }
            Ok(())
        });
    }

    #[test]
    fn eval_agrees_with_frequency_and_its_slope() {
        for s in [
            FmStimulus::pure_sine(1000.0, 10.0, 8.0),
            FmStimulus::phase_modulated(1_000.0, 0.3, 8.0),
            FmStimulus::multi_tone(1000.0, 10.0, 8.0, 10),
            FmStimulus::constant(1000.0, 5.0),
        ] {
            for k in 0..50 {
                let t = 0.0137 * k as f64 + 0.001;
                let p = s.eval(t);
                assert_eq!(p.f.to_bits(), s.frequency_at(t).to_bits(), "{s:?}");
                if !matches!(s.kind, Kind::Staircase(_)) {
                    let dt = 1e-7;
                    let slope = (s.frequency_at(t + dt) - s.frequency_at(t - dt)) / (2.0 * dt);
                    assert!((p.df - slope).abs() <= 1e-5 * (1.0 + slope.abs()), "{s:?}");
                }
            }
        }
    }

    #[test]
    fn sine_phase_is_integral_of_frequency() {
        let s = FmStimulus::pure_sine(1000.0, 10.0, 8.0);
        // Numeric integral vs closed form.
        let t_end = 0.37;
        let n = 200_000;
        let dt = t_end / n as f64;
        let mut acc = 0.0;
        for k in 0..n {
            let t0 = k as f64 * dt;
            acc += 0.5 * (s.frequency_at(t0) + s.frequency_at(t0 + dt)) * dt;
        }
        assert!((acc - s.phase_cycles(t_end)).abs() < 1e-6);
    }

    #[test]
    fn staircase_phase_is_integral_of_frequency() {
        let s = FmStimulus::multi_tone(1000.0, 10.0, 8.0, 10);
        let t_end = 0.41;
        let n = 400_000;
        let dt = t_end / n as f64;
        let mut acc = 0.0;
        for k in 0..n {
            acc += s.frequency_at((k as f64 + 0.5) * dt) * dt;
        }
        assert!((acc - s.phase_cycles(t_end)).abs() < 1e-4);
    }

    #[test]
    fn multi_tone_tracks_the_sine() {
        let sine = FmStimulus::pure_sine(1000.0, 10.0, 5.0);
        let fsk = FmStimulus::multi_tone(1000.0, 10.0, 5.0, 10);
        // Mid-dwell the staircase equals the sine at the same sample point.
        for k in 0..10 {
            let t = (k as f64 + 0.5) / (5.0 * 10.0);
            assert!(
                (fsk.deviation_at(t) - sine.deviation_at(t)).abs() < 1e-9,
                "step {k}"
            );
        }
    }

    #[test]
    fn two_tone_is_square() {
        let s = FmStimulus::two_tone(1000.0, 10.0, 4.0);
        assert_eq!(s.deviation_at(0.01), 10.0); // first half period
        assert_eq!(s.deviation_at(0.2), -10.0); // second half
        assert_eq!(s.peak_deviation_hz(), 10.0);
    }

    #[test]
    fn edges_are_monotone_and_consistent() {
        for s in [
            FmStimulus::pure_sine(1000.0, 10.0, 8.0),
            FmStimulus::multi_tone(1000.0, 10.0, 8.0, 10),
            FmStimulus::two_tone(1000.0, 10.0, 8.0),
        ] {
            let mut t = 0.0;
            let mut prev_phase = s.phase_cycles(t);
            for _ in 0..50 {
                let te = s.next_edge_after(t);
                assert!(te > t);
                let ph = s.phase_cycles(te);
                assert!(
                    (ph - ph.round()).abs() < 1e-6,
                    "edge lands on integer phase"
                );
                assert!(ph > prev_phase);
                prev_phase = ph;
                t = te;
            }
        }
    }

    #[test]
    fn edge_rate_matches_frequency() {
        let s = FmStimulus::constant(1000.0, 5.0);
        let mut t = 0.0;
        let mut count = 0;
        while t < 1.0 {
            t = s.next_edge_after(t);
            if t < 1.0 {
                count += 1;
            }
        }
        assert!((count as i64 - 1005).abs() <= 1, "{count} edges in 1 s");
    }

    #[test]
    fn peak_times() {
        let sine = FmStimulus::pure_sine(1000.0, 10.0, 8.0);
        assert!((sine.deviation_peak_time() - 0.03125).abs() < 1e-12);
        let fsk = FmStimulus::multi_tone(1000.0, 10.0, 8.0, 10);
        let tp = fsk.deviation_peak_time();
        // The staircase peaks where the sine does (within one dwell).
        assert!(
            (tp - 0.03125).abs() <= 0.5 / (8.0 * 10.0) + 1e-12,
            "tp={tp}"
        );
        let d = fsk.deviation_at(tp);
        assert!((d - fsk.peak_deviation_hz()).abs() < 1e-9);
    }

    #[test]
    fn average_frequency_preserved_over_full_period() {
        // Symmetric staircase: zero net deviation per period.
        let s = FmStimulus::multi_tone(1000.0, 10.0, 8.0, 10);
        let per = 1.0 / 8.0;
        let ph = s.phase_cycles(per) - s.phase_cycles(0.0);
        assert!((ph - 1000.0 * per).abs() < 1e-9);
    }

    #[test]
    fn pm_equals_fm_shifted_by_quarter_period() {
        // Paper §2: "it is possible to replace phase modulation by
        // frequency modulation". PM with amplitude a ≡ FM with peak
        // deviation a·2π·fm, advanced by T/4.
        let fm_mod = 5.0;
        let a = 0.2; // cycles
        let dev = a * TAU * fm_mod;
        let pm = FmStimulus::phase_modulated(1_000.0, a, fm_mod);
        let fm = FmStimulus::pure_sine(1_000.0, dev, fm_mod);
        assert!((pm.peak_deviation_hz() - dev).abs() < 1e-12);
        for k in 0..40 {
            let t = 0.3 + k as f64 * 0.011;
            // cos(x) = sin(x + π/2): the FM deviation a quarter period later.
            let fm_shifted = fm.deviation_at(t + 0.25 / fm_mod);
            assert!((pm.deviation_at(t) - fm_shifted).abs() < 1e-9, "t = {t}");
        }
        // Phase is the exact integral of the deviation (spot check).
        let t = 0.777;
        let dt = 1e-6;
        let num_dev = (pm.phase_cycles(t + dt) - pm.phase_cycles(t)) / dt - 1_000.0;
        assert!((num_dev - pm.deviation_at(t + dt / 2.0)).abs() < 1e-3);
    }

    #[test]
    fn pm_edges_land_on_integer_phase_too() {
        let pm = FmStimulus::phase_modulated(1_000.0, 0.3, 8.0);
        let mut t = 0.0;
        for _ in 0..30 {
            t = pm.next_edge_after(t);
            let ph = pm.phase_cycles(t);
            assert!((ph - ph.round()).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "keep the phase monotone")]
    fn excessive_pm_amplitude_rejected() {
        // a·2π·fm = 0.5·2π·400 > 1000 Hz.
        let _ = FmStimulus::phase_modulated(1_000.0, 0.5, 400.0);
    }

    #[test]
    #[should_panic(expected = "deviation must be nonzero")]
    fn zero_deviation_rejected() {
        let _ = FmStimulus::pure_sine(1000.0, 0.0, 8.0);
    }

    #[test]
    #[should_panic(expected = "at least two steps")]
    fn single_step_rejected() {
        let _ = FmStimulus::multi_tone(1000.0, 10.0, 8.0, 1);
    }

    #[test]
    fn state_codec_round_trips_every_kind_bit_exactly() {
        for s in [
            FmStimulus::pure_sine(1000.0, 10.0, 8.0),
            FmStimulus::phase_modulated(1_000.0, 0.3, 8.0),
            FmStimulus::two_tone(1000.0, 10.0, 4.0),
            FmStimulus::multi_tone(1000.0, 10.0, 8.0, 10),
            FmStimulus::staircase(1000.0, vec![3.5, -1.25, 7.0], 2.0),
            FmStimulus::constant(1000.0, 5.0),
        ] {
            let code = s.encode_state();
            assert!(
                !code.contains('"') && !code.contains('\\') && !code.contains('{'),
                "token must embed in a JSONL string field: {code}"
            );
            let back = FmStimulus::decode_state(&code).unwrap();
            assert_eq!(back, s, "{code}");
            assert_eq!(back.encode_state(), code);
        }
    }

    #[test]
    fn torn_state_codes_are_rejected() {
        let code = FmStimulus::multi_tone(1000.0, 10.0, 8.0, 10).encode_state();
        for cut in 0..code.len() {
            let torn = &code[..cut];
            if let Some(parsed) = FmStimulus::decode_state(torn) {
                // A prefix may only parse when it is itself a complete
                // token (e.g. a staircase cut at a level boundary) — it
                // must re-encode to exactly the prefix, never fabricate
                // the full stimulus.
                assert_eq!(parsed.encode_state(), torn, "cut at {cut}");
            }
        }
        assert!(FmStimulus::decode_state("junk").is_none());
    }
}
