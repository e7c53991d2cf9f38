//! The Table 2 test sequence.
//!
//! The paper drives the measurement with a five-stage sequence per
//! modulation frequency, controlling the two loop-break multiplexers
//! M1/M2 of fig. 6 (`A=C, B=D` = normal loop; `A=C, A=D` = both PFD
//! inputs fed from the same source, freezing the VCO — §4 point 3).
//! [`TestSequencer`] is that state machine; the
//! [`monitor`](crate::monitor) executes it and the `tab02` bench binary
//! prints its transcript as the paper's table.

use std::fmt;

/// M1/M2 multiplexer configuration (fig. 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MuxConfig {
    /// `A=C, B=D`: the loop is closed normally.
    NormalLoop,
    /// `A=C, A=D`: one identical signal feeds both PFD inputs — the PFD
    /// emits nothing and the output frequency is held constant.
    HoldLoop,
}

impl fmt::Display for MuxConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MuxConfig::NormalLoop => write!(f, "A=C B=D"),
            MuxConfig::HoldLoop => write!(f, "A=C A=D"),
        }
    }
}

/// One stage of the paper's Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Stage 1 — "Ref set": apply digital modulation at the tone under
    /// test; the phase counter's reference (EXTREF) starts.
    ApplyModulation,
    /// Stage 2 — "Set phase counter / Monitor peak": start the phase
    /// counter at the peak of the input modulation and watch for the peak
    /// of the output frequency.
    MonitorPeak,
    /// Stage 3 — "Peak occurred": lock (hold) the PLL output and stop the
    /// phase counter.
    HoldOutput,
    /// Stage 4 — "Measure frequency and phase": gate the frequency counter
    /// on the held output; store both counters.
    Measure,
    /// Stage 5 — advance the modulation frequency and repeat (or finish).
    NextTone,
}

impl Stage {
    /// The mux configuration this stage requires (Table 2's M1/M2
    /// columns).
    pub fn mux(self) -> MuxConfig {
        match self {
            Stage::ApplyModulation | Stage::MonitorPeak | Stage::NextTone => MuxConfig::NormalLoop,
            Stage::HoldOutput | Stage::Measure => MuxConfig::HoldLoop,
        }
    }

    /// The paper's stage number (1–5).
    pub fn number(self) -> u8 {
        match self {
            Stage::ApplyModulation => 1,
            Stage::MonitorPeak => 2,
            Stage::HoldOutput => 3,
            Stage::Measure => 4,
            Stage::NextTone => 5,
        }
    }

    /// The paper's comment column, abridged.
    pub fn comment(self) -> &'static str {
        match self {
            Stage::ApplyModulation => {
                "apply digital modulation at FN; start phase counter reference"
            }
            Stage::MonitorPeak => {
                "start phase counter at input-modulation peak; monitor for output peak"
            }
            Stage::HoldOutput => "peak occurred: hold output frequency, stop phase counter",
            Stage::Measure => "count output frequency and store; store phase counter",
            Stage::NextTone => "increase FN and repeat stages 1-4",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) {:?} [{}]", self.number(), self, self.mux())
    }
}

/// A recorded transition of the sequencer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transition {
    /// Simulation time of the transition in seconds.
    pub t: f64,
    /// The stage entered.
    pub stage: Stage,
    /// The tone index (0-based) the stage belongs to.
    pub tone_index: usize,
}

/// The Table 2 state machine with a transcript.
///
/// # Example
///
/// ```
/// use pllbist::sequencer::{Stage, TestSequencer};
///
/// let mut seq = TestSequencer::new(3, 0.0); // three tones, starting at t = 0
/// assert_eq!(seq.stage(), Stage::ApplyModulation);
/// seq.advance(0.1); // modulation settled
/// seq.advance(0.2); // output peak found
/// assert_eq!(seq.stage(), Stage::HoldOutput);
/// assert!(seq.stage().mux().to_string().contains("A=D"));
/// ```
#[derive(Clone, Debug)]
pub struct TestSequencer {
    stage: Stage,
    tone_index: usize,
    tones: usize,
    transcript: Vec<Transition>,
    record: bool,
    finished: bool,
}

impl TestSequencer {
    /// Creates a sequencer for a sweep of `tones` modulation frequencies
    /// whose first stage 1 is entered at simulation time `t_start` (the
    /// engine's time when the first modulation is applied).
    ///
    /// # Panics
    ///
    /// Panics if `tones` is zero.
    pub fn new(tones: usize, t_start: f64) -> Self {
        Self::with_transcript(tones, true, t_start)
    }

    /// Creates a sequencer that does not record its transcript — the
    /// state machine is identical, but long sweeps stop accreting one
    /// [`Transition`] per stage (the monitor's `capture_transcript`
    /// knob).
    ///
    /// # Panics
    ///
    /// Panics if `tones` is zero.
    pub fn silent(tones: usize, t_start: f64) -> Self {
        Self::with_transcript(tones, false, t_start)
    }

    fn with_transcript(tones: usize, record: bool, t_start: f64) -> Self {
        assert!(tones >= 1, "a sweep needs at least one tone");
        let transcript = if record {
            vec![Transition {
                t: t_start,
                stage: Stage::ApplyModulation,
                tone_index: 0,
            }]
        } else {
            Vec::new()
        };
        Self {
            stage: Stage::ApplyModulation,
            tone_index: 0,
            tones,
            transcript,
            record,
            finished: false,
        }
    }

    /// The current stage.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The current tone index (0-based).
    pub fn tone_index(&self) -> usize {
        self.tone_index
    }

    /// `true` once every tone has completed stage 5.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The full transition transcript.
    pub fn transcript(&self) -> &[Transition] {
        &self.transcript
    }

    /// Advances to the next stage at simulation time `t`, wrapping through
    /// stage 5 into stage 1 of the next tone. Returns the stage entered,
    /// or `None` when the sweep has finished.
    pub fn advance(&mut self, t: f64) -> Option<Stage> {
        if self.finished {
            return None;
        }
        let next = match self.stage {
            Stage::ApplyModulation => Stage::MonitorPeak,
            Stage::MonitorPeak => Stage::HoldOutput,
            Stage::HoldOutput => Stage::Measure,
            Stage::Measure => Stage::NextTone,
            Stage::NextTone => {
                self.tone_index += 1;
                if self.tone_index >= self.tones {
                    self.finished = true;
                    return None;
                }
                Stage::ApplyModulation
            }
        };
        self.stage = next;
        if self.record {
            self.transcript.push(Transition {
                t,
                stage: next,
                tone_index: self.tone_index,
            });
        }
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_order_matches_table2() {
        let mut seq = TestSequencer::new(1, 0.0);
        let mut order = vec![seq.stage()];
        while let Some(s) = seq.advance(0.0) {
            order.push(s);
        }
        assert_eq!(
            order,
            vec![
                Stage::ApplyModulation,
                Stage::MonitorPeak,
                Stage::HoldOutput,
                Stage::Measure,
                Stage::NextTone,
            ]
        );
        assert!(seq.is_finished());
    }

    #[test]
    fn mux_states_match_table2_columns() {
        assert_eq!(Stage::ApplyModulation.mux(), MuxConfig::NormalLoop);
        assert_eq!(Stage::MonitorPeak.mux(), MuxConfig::NormalLoop);
        assert_eq!(Stage::HoldOutput.mux(), MuxConfig::HoldLoop);
        assert_eq!(Stage::Measure.mux(), MuxConfig::HoldLoop);
        assert_eq!(Stage::NextTone.mux(), MuxConfig::NormalLoop);
    }

    #[test]
    fn multi_tone_sweep_repeats_stages() {
        let mut seq = TestSequencer::new(3, 0.0);
        let mut count = 0;
        while seq.advance(count as f64).is_some() {
            count += 1;
        }
        // 3 tones × 5 stages − the initial stage already recorded.
        assert_eq!(seq.transcript().len(), 3 * 5 - 1 + 1);
        assert_eq!(seq.tone_index(), 3);
        assert!(seq.is_finished());
        // Tone indices are non-decreasing.
        assert!(seq
            .transcript()
            .windows(2)
            .all(|w| w[0].tone_index <= w[1].tone_index));
    }

    #[test]
    fn silent_sequencer_walks_the_same_machine_without_transcript() {
        let mut loud = TestSequencer::new(2, 0.5);
        let mut quiet = TestSequencer::silent(2, 0.5);
        loop {
            let a = loud.advance(0.5);
            let b = quiet.advance(0.5);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert!(loud.transcript().len() > 1);
        assert!(quiet.transcript().is_empty());
        assert!(quiet.is_finished());
    }

    #[test]
    fn first_stage_is_stamped_at_the_start_time() {
        let mut seq = TestSequencer::new(2, 0.3);
        assert_eq!(seq.transcript()[0].t, 0.3);
        assert_eq!(seq.transcript()[0].stage, Stage::ApplyModulation);
        seq.advance(0.7);
        assert_eq!(seq.transcript()[1].t, 0.7);
    }

    #[test]
    fn advance_after_finish_is_none() {
        let mut seq = TestSequencer::new(1, 0.0);
        while seq.advance(0.0).is_some() {}
        assert_eq!(seq.advance(1.0), None);
        assert_eq!(seq.advance(2.0), None);
    }

    #[test]
    fn stage_numbers_and_comments() {
        for (stage, n) in [
            (Stage::ApplyModulation, 1),
            (Stage::MonitorPeak, 2),
            (Stage::HoldOutput, 3),
            (Stage::Measure, 4),
            (Stage::NextTone, 5),
        ] {
            assert_eq!(stage.number(), n);
            assert!(!stage.comment().is_empty());
        }
        assert!(Stage::HoldOutput.to_string().contains("A=C A=D"));
    }
}
