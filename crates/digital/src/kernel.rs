//! The discrete-event simulation kernel.
//!
//! A [`Circuit`] owns nets, gate instances and a time-ordered event queue.
//! Gates drive their output nets through **inertial delays**: when a gate
//! re-evaluates before its previously scheduled transition has matured, the
//! stale transition is cancelled — pulses narrower than a gate's delay are
//! swallowed, as in real logic. Ties in time are broken by insertion order,
//! making runs fully deterministic.

use crate::gates::GateKind;
use crate::logic::Logic;
use crate::time::SimTime;
use crate::trace::Trace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a net (a single-driver wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(u32);

impl NetId {
    /// Reconstructs a `NetId` from a raw index (for table-driven tests).
    pub fn from_index(i: usize) -> Self {
        Self(i as u32)
    }

    /// The raw index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a gate instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GateId(u32);

#[derive(Clone)]
struct Net {
    name: String,
    value: Logic,
    driver: Option<GateId>,
    rising_edges: u64,
    last_rising: Option<SimTime>,
    traced: bool,
}

#[derive(Clone)]
struct Gate {
    kind: GateKind,
    output: Option<NetId>,
    delay: SimTime,
    /// Pending inertial transition: (scheduled value, generation).
    pending: Option<(Logic, u64)>,
    generation: u64,
}

#[derive(Clone, PartialEq, Eq)]
struct Event {
    time: SimTime,
    seq: u64,
    net: NetId,
    value: Logic,
    /// Driving gate and its scheduling generation; `None` for external pokes
    /// and clock re-arms.
    driver: Option<(GateId, u64)>,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// An event-driven gate-level circuit simulator.
///
/// # Example
///
/// Build the classic PFD reset path and watch the dead-zone glitch appear:
///
/// ```
/// use pllbist_digital::{Circuit, Logic, SimTime};
///
/// let mut c = Circuit::new();
/// let vdd = c.constant("vdd", Logic::High);
/// let refclk = c.input("ref", Logic::Low);
/// let fbclk = c.input("fb", Logic::Low);
/// let rst = c.input("rst_seed", Logic::Low); // placeholder, rewired below
/// # let _ = rst;
/// let d = SimTime::from_nanos(1);
/// // Two DFFs with D tied high, reset by the AND of their outputs.
/// let up = c.dff("up", vdd, refclk, None, d);
/// let dn = c.dff("dn", vdd, fbclk, None, d);
/// let reset = c.and("reset", &[up, dn], d);
/// c.rewire_dff_reset(up, reset);
/// c.rewire_dff_reset(dn, reset);
/// // Reference leads: UP goes high and stays.
/// c.poke(refclk, Logic::High, SimTime::from_nanos(10));
/// c.run_until(SimTime::from_nanos(20));
/// assert!(c.value(up).is_high());
/// assert!(c.value(dn).is_low());
/// ```
///
/// `Circuit` is `Clone`: every field is plain data (the event queue
/// included), so a clone is a **bit-exact checkpoint** of the whole
/// digital domain — replaying the same pokes from a clone reproduces the
/// original run event for event. The mixed-signal engine's lock-state
/// snapshots rely on this.
#[derive(Clone)]
pub struct Circuit {
    nets: Vec<Net>,
    gates: Vec<Gate>,
    fanout: Vec<Vec<GateId>>,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    now: SimTime,
    trace: Trace,
    /// Events popped and applied by [`run_until`](Self::run_until) since
    /// construction (includes cancelled inertial transitions). Plain
    /// counter for telemetry — never affects simulation behaviour.
    events_dispatched: u64,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// Creates an empty circuit at time zero.
    pub fn new() -> Self {
        Self {
            nets: Vec::new(),
            gates: Vec::new(),
            fanout: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            trace: Trace::new(),
            events_dispatched: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn add_net(&mut self, name: &str, value: Logic, driver: Option<GateId>) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name: name.to_string(),
            value,
            driver,
            rising_edges: 0,
            last_rising: None,
            traced: false,
        });
        self.fanout.push(Vec::new());
        id
    }

    /// Creates an externally driven input net with an initial level.
    pub fn input(&mut self, name: &str, initial: Logic) -> NetId {
        self.add_net(name, initial, None)
    }

    /// Creates a net held at a constant level.
    pub fn constant(&mut self, name: &str, value: Logic) -> NetId {
        self.add_net(name, value, None)
    }

    fn add_gate(&mut self, name: &str, kind: GateKind, delay: SimTime, initial: Logic) -> NetId {
        let gid = GateId(self.gates.len() as u32);
        let out = self.add_net(name, initial, Some(gid));
        for input in kind.inputs() {
            self.fanout[input.index()].push(gid);
        }
        self.gates.push(Gate {
            kind,
            output: Some(out),
            delay,
            pending: None,
            generation: 0,
        });
        out
    }

    /// Adds an N-input AND gate; returns its output net.
    pub fn and(&mut self, name: &str, inputs: &[NetId], delay: SimTime) -> NetId {
        self.add_gate(name, GateKind::And(inputs.to_vec()), delay, Logic::Unknown)
    }

    /// Adds an N-input OR gate; returns its output net.
    pub fn or(&mut self, name: &str, inputs: &[NetId], delay: SimTime) -> NetId {
        self.add_gate(name, GateKind::Or(inputs.to_vec()), delay, Logic::Unknown)
    }

    /// Adds an N-input NAND gate; returns its output net.
    pub fn nand(&mut self, name: &str, inputs: &[NetId], delay: SimTime) -> NetId {
        self.add_gate(name, GateKind::Nand(inputs.to_vec()), delay, Logic::Unknown)
    }

    /// Adds an N-input NOR gate; returns its output net.
    pub fn nor(&mut self, name: &str, inputs: &[NetId], delay: SimTime) -> NetId {
        self.add_gate(name, GateKind::Nor(inputs.to_vec()), delay, Logic::Unknown)
    }

    /// Adds a two-input XOR gate; returns its output net.
    pub fn xor(&mut self, name: &str, a: NetId, b: NetId, delay: SimTime) -> NetId {
        self.add_gate(name, GateKind::Xor(a, b), delay, Logic::Unknown)
    }

    /// Adds an inverter; returns its output net.
    pub fn not(&mut self, name: &str, input: NetId, delay: SimTime) -> NetId {
        self.add_gate(name, GateKind::Not(input), delay, Logic::Unknown)
    }

    /// Adds a buffer (pure delay element); returns its output net.
    pub fn buf(&mut self, name: &str, input: NetId, delay: SimTime) -> NetId {
        self.add_gate(name, GateKind::Buf(input), delay, Logic::Unknown)
    }

    /// Adds a 2:1 multiplexer (`sel` high routes `b`); returns its output
    /// net.
    pub fn mux2(&mut self, name: &str, sel: NetId, a: NetId, b: NetId, delay: SimTime) -> NetId {
        self.add_gate(name, GateKind::Mux2 { sel, a, b }, delay, Logic::Unknown)
    }

    /// Adds a positive-edge D flip-flop with optional asynchronous
    /// active-high reset; returns its Q output net. The output powers up
    /// `Low` (matching the reset state the paper's test sequence begins
    /// from).
    pub fn dff(
        &mut self,
        name: &str,
        d: NetId,
        clk: NetId,
        rst: Option<NetId>,
        delay: SimTime,
    ) -> NetId {
        // A missing reset is wired to a constant low net.
        let rst = rst.unwrap_or_else(|| self.constant(&format!("{name}_rst_tie"), Logic::Low));
        self.add_gate(
            name,
            GateKind::Dff {
                d,
                clk,
                rst,
                last_clk: Logic::Unknown,
                state: Logic::Low,
            },
            delay,
            Logic::Low,
        )
    }

    /// Rewires the reset input of a DFF identified by its output net —
    /// needed to close the PFD reset loop, where the reset is the AND of
    /// the DFF outputs and therefore does not exist yet when the DFFs are
    /// created.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not driven by a DFF.
    pub fn rewire_dff_reset(&mut self, q: NetId, new_rst: NetId) {
        let gid = self.nets[q.index()]
            .driver
            .expect("net must be driven by a gate");
        let gate = &mut self.gates[gid.0 as usize];
        match &mut gate.kind {
            GateKind::Dff { rst, .. } => {
                let old = *rst;
                *rst = new_rst;
                self.fanout[old.index()].retain(|g| *g != gid);
                self.fanout[new_rst.index()].push(gid);
            }
            _ => panic!("rewire_dff_reset target is not a D flip-flop"),
        }
    }

    /// Adds a free-running clock with the given half period, starting low
    /// with its first rising edge after one half period; returns its output
    /// net.
    ///
    /// # Panics
    ///
    /// Panics if `half_period` is zero.
    pub fn clock(&mut self, name: &str, half_period: SimTime) -> NetId {
        assert!(
            half_period > SimTime::ZERO,
            "clock half period must be nonzero"
        );
        let gid = GateId(self.gates.len() as u32);
        let out = self.add_net(name, Logic::Low, Some(gid));
        self.gates.push(Gate {
            kind: GateKind::Clock { half_period },
            output: Some(out),
            delay: SimTime::ZERO,
            pending: None,
            generation: 0,
        });
        // First rising edge.
        let seq = self.next_seq();
        self.queue.push(Reverse(Event {
            time: self.now + half_period,
            seq,
            net: out,
            value: Logic::High,
            driver: None,
        }));
        out
    }

    /// Adds a behavioural pulse divider (÷`modulus`); returns its output
    /// net. Emits a one-input-period-wide high pulse every `modulus` rising
    /// input edges, with a 1 ns propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn pulse_divider(&mut self, name: &str, input: NetId, modulus: u64) -> NetId {
        assert!(modulus >= 1, "divider modulus must be at least 1");
        self.add_gate(
            name,
            GateKind::PulseDivider {
                input,
                modulus,
                count: 0,
                last_in: Logic::Unknown,
            },
            SimTime::from_nanos(1),
            Logic::Low,
        )
    }

    /// Changes the modulus of a pulse divider identified by its output net;
    /// takes effect from the current count onwards (like reprogramming the
    /// DCO's output-decode mux in fig. 4).
    ///
    /// # Panics
    ///
    /// Panics if the net is not driven by a pulse divider or `modulus` is 0.
    pub fn set_divider_modulus(&mut self, divider_out: NetId, modulus: u64) {
        assert!(modulus >= 1, "divider modulus must be at least 1");
        let gid = self.nets[divider_out.index()]
            .driver
            .expect("net must be driven by a gate");
        match &mut self.gates[gid.0 as usize].kind {
            GateKind::PulseDivider { modulus: m, .. } => *m = modulus,
            _ => panic!("set_divider_modulus target is not a pulse divider"),
        }
    }

    /// Adds a behavioural rising-edge counter on `input`, gated by an
    /// optional `enable` net; returns a handle for reading and clearing it.
    pub fn edge_counter(&mut self, input: NetId, enable: Option<NetId>) -> GateId {
        let gid = GateId(self.gates.len() as u32);
        let kind = GateKind::EdgeCounter {
            input,
            enable,
            count: 0,
            last_in: Logic::Unknown,
            last_edge: None,
        };
        for i in kind.inputs() {
            self.fanout[i.index()].push(gid);
        }
        self.gates.push(Gate {
            kind,
            output: None,
            delay: SimTime::ZERO,
            pending: None,
            generation: 0,
        });
        gid
    }

    /// Current value of an edge counter.
    ///
    /// # Panics
    ///
    /// Panics if the id does not refer to an edge counter.
    pub fn counter_value(&self, counter: GateId) -> u64 {
        match &self.gates[counter.0 as usize].kind {
            GateKind::EdgeCounter { count, .. } => *count,
            _ => panic!("gate is not an edge counter"),
        }
    }

    /// Time of the last edge an edge counter accepted.
    ///
    /// # Panics
    ///
    /// Panics if the id does not refer to an edge counter.
    pub fn counter_last_edge(&self, counter: GateId) -> Option<SimTime> {
        match &self.gates[counter.0 as usize].kind {
            GateKind::EdgeCounter { last_edge, .. } => *last_edge,
            _ => panic!("gate is not an edge counter"),
        }
    }

    /// Resets an edge counter to zero.
    ///
    /// # Panics
    ///
    /// Panics if the id does not refer to an edge counter.
    pub fn counter_clear(&mut self, counter: GateId) {
        match &mut self.gates[counter.0 as usize].kind {
            GateKind::EdgeCounter {
                count, last_edge, ..
            } => {
                *count = 0;
                *last_edge = None;
            }
            _ => panic!("gate is not an edge counter"),
        }
    }

    /// Schedules an external level change on an input net at absolute time
    /// `at` (transport delay — external pokes are never cancelled).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or the net is gate-driven.
    pub fn poke(&mut self, net: NetId, value: Logic, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot poke in the past ({at} < {})",
            self.now
        );
        assert!(
            self.nets[net.index()].driver.is_none(),
            "cannot poke gate-driven net '{}'",
            self.nets[net.index()].name
        );
        let seq = self.next_seq();
        self.queue.push(Reverse(Event {
            time: at,
            seq,
            net,
            value,
            driver: None,
        }));
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> Logic {
        self.nets[net.index()].value
    }

    /// Total rising edges observed on a net since construction.
    pub fn rising_edge_count(&self, net: NetId) -> u64 {
        self.nets[net.index()].rising_edges
    }

    /// Time of the most recent rising edge on a net.
    pub fn last_rising_edge(&self, net: NetId) -> Option<SimTime> {
        self.nets[net.index()].last_rising
    }

    /// Enables waveform tracing on a net (see [`Circuit::trace`]).
    pub fn trace_net(&mut self, net: NetId) {
        self.nets[net.index()].traced = true;
        self.trace.declare(
            net,
            &self.nets[net.index()].name,
            self.now,
            self.nets[net.index()].value,
        );
    }

    /// The recorded waveform trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Time of the earliest pending event, if any (stale cancelled events
    /// may be reported; they are harmless upper bounds).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(e)| e.time)
    }

    /// Events dispatched by the kernel since construction — the
    /// event-driven equivalent of "ODE steps taken" for telemetry.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Runs all events up to and including time `t`, then sets the clock to
    /// `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn run_until(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot run backwards ({t} < {})", self.now);
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.time > t {
                break;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked event exists");
            self.now = ev.time;
            self.events_dispatched += 1;
            self.apply_event(ev);
        }
        self.now = t;
    }

    fn apply_event(&mut self, ev: Event) {
        // Stale inertial transition?
        if let Some((gid, generation)) = ev.driver {
            let gate = &mut self.gates[gid.0 as usize];
            match gate.pending {
                Some((_, g)) if g == generation => gate.pending = None,
                _ => return, // cancelled
            }
        }
        let old = self.nets[ev.net.index()].value;

        // Clock self-re-arm (identified by the net's driver being a Clock).
        if let Some(gid) = self.nets[ev.net.index()].driver {
            if let GateKind::Clock { half_period } = self.gates[gid.0 as usize].kind {
                self.seq += 1;
                self.queue.push(Reverse(Event {
                    time: self.now + half_period,
                    seq: self.seq,
                    net: ev.net,
                    value: ev.value.not(),
                    driver: None,
                }));
            }
        }

        if old == ev.value {
            return;
        }
        let now = self.now;
        let net = &mut self.nets[ev.net.index()];
        net.value = ev.value;
        if ev.value.is_high() && !old.is_high() {
            net.rising_edges += 1;
            net.last_rising = Some(now);
        }
        if net.traced {
            self.trace.record(ev.net, now, ev.value);
        }
        // Re-evaluate fanout.
        let fanout = self.fanout[ev.net.index()].clone();
        for gid in fanout {
            self.evaluate_gate(gid);
        }
    }

    fn evaluate_gate(&mut self, gid: GateId) {
        let now = self.now;
        // Disjoint field borrows: nets are read-only while one gate mutates.
        let (new_value, out, pending, delay) = {
            let nets = &self.nets;
            let read = move |n: NetId| nets[n.index()].value;
            let gate = &mut self.gates[gid.0 as usize];
            let Some(new_value) = gate.kind.evaluate(&read, now) else {
                return;
            };
            let Some(out) = gate.output else {
                return;
            };
            (new_value, out, gate.pending, gate.delay)
        };
        let current = self.nets[out.index()].value;
        match pending {
            // Same value already in flight: keep the earlier event.
            Some((v, _)) if v == new_value => {}
            Some(_) | None => {
                let had_pending = pending.is_some();
                let gate = &mut self.gates[gid.0 as usize];
                if had_pending {
                    // Cancel the stale transition (inertial delay).
                    gate.generation += 1;
                    gate.pending = None;
                }
                if new_value != current {
                    gate.generation += 1;
                    let generation = gate.generation;
                    gate.pending = Some((new_value, generation));
                    self.seq += 1;
                    self.queue.push(Reverse(Event {
                        time: now + delay,
                        seq: self.seq,
                        net: out,
                        value: new_value,
                        driver: Some((gid, generation)),
                    }));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::Logic::{High, Low};

    #[test]
    fn inverter_propagates_with_delay() {
        let mut c = Circuit::new();
        let a = c.input("a", Low);
        let y = c.not("y", a, SimTime::from_nanos(2));
        c.poke(a, High, SimTime::from_nanos(10));
        // Force initial evaluation by running; output starts Unknown until
        // the first input event arrives.
        c.run_until(SimTime::from_nanos(11));
        assert!(c.value(y).is_unknown() || c.value(y).is_low());
        c.run_until(SimTime::from_nanos(13));
        assert!(c.value(y).is_low());
    }

    #[test]
    fn and_gate_chain() {
        let mut c = Circuit::new();
        let a = c.input("a", Low);
        let b = c.input("b", Low);
        let y = c.and("y", &[a, b], SimTime::from_nanos(1));
        c.poke(a, High, SimTime::from_nanos(5));
        c.poke(b, High, SimTime::from_nanos(7));
        c.run_until(SimTime::from_nanos(6));
        assert!(!c.value(y).is_high());
        c.run_until(SimTime::from_nanos(9));
        assert!(c.value(y).is_high());
    }

    #[test]
    fn inertial_delay_swallows_narrow_pulse() {
        let mut c = Circuit::new();
        let a = c.input("a", Low);
        let y = c.buf("y", a, SimTime::from_nanos(10));
        // 3 ns pulse through a 10 ns buffer: swallowed.
        c.poke(a, High, SimTime::from_nanos(100));
        c.poke(a, Low, SimTime::from_nanos(103));
        c.run_until(SimTime::from_micros(1));
        assert_eq!(c.rising_edge_count(y), 0);
        // 30 ns pulse: passes.
        c.poke(a, High, SimTime::from_micros(2));
        c.poke(a, Low, SimTime::from_ps(2_030_000));
        c.run_until(SimTime::from_micros(3));
        assert_eq!(c.rising_edge_count(y), 1);
        assert!(c.value(y).is_low());
    }

    #[test]
    fn clock_runs_at_set_frequency() {
        let mut c = Circuit::new();
        let clk = c.clock("clk", SimTime::from_nanos(500)); // 1 MHz
        c.run_until(SimTime::from_micros(100));
        assert_eq!(c.rising_edge_count(clk), 100);
        c.run_until(SimTime::from_micros(200));
        assert_eq!(c.rising_edge_count(clk), 200);
    }

    #[test]
    fn dff_captures_data_on_clock_edge() {
        let mut c = Circuit::new();
        let clk = c.clock("clk", SimTime::from_nanos(100));
        let d = c.input("d", Low);
        let q = c.dff("q", d, clk, None, SimTime::from_nanos(1));
        c.poke(d, High, SimTime::from_nanos(10));
        c.run_until(SimTime::from_nanos(90));
        assert!(c.value(q).is_low(), "no clock edge yet");
        c.run_until(SimTime::from_nanos(150));
        assert!(c.value(q).is_high(), "captured at the 100 ns edge");
        c.poke(d, Low, SimTime::from_nanos(250));
        c.run_until(SimTime::from_nanos(290));
        assert!(c.value(q).is_high(), "change waits for the next edge");
        c.run_until(SimTime::from_nanos(350));
        assert!(c.value(q).is_low());
    }

    #[test]
    fn divider_chain_frequencies() {
        let mut c = Circuit::new();
        let clk = c.clock("clk", SimTime::from_nanos(500)); // 1 MHz
        let d10 = c.pulse_divider("d10", clk, 10); // 100 kHz
        let d100 = c.pulse_divider("d100", d10, 10); // 10 kHz
        c.run_until(SimTime::from_millis(1));
        assert_eq!(c.rising_edge_count(clk), 1000);
        assert_eq!(c.rising_edge_count(d10), 100);
        assert_eq!(c.rising_edge_count(d100), 10);
    }

    #[test]
    fn divider_modulus_reprogramming() {
        let mut c = Circuit::new();
        let clk = c.clock("clk", SimTime::from_micros(1)); // 500 kHz
        let div = c.pulse_divider("div", clk, 4);
        c.run_until(SimTime::from_millis(1));
        let edges_at_div4 = c.rising_edge_count(div);
        c.set_divider_modulus(div, 2);
        c.run_until(SimTime::from_millis(2));
        let edges_delta = c.rising_edge_count(div) - edges_at_div4;
        // Twice the output rate after halving the modulus.
        assert!(
            edges_delta > 3 * edges_at_div4 / 2,
            "{edges_delta} vs {edges_at_div4}"
        );
    }

    #[test]
    fn edge_counter_with_enable_gate() {
        let mut c = Circuit::new();
        let clk = c.clock("clk", SimTime::from_micros(1));
        let en = c.input("en", Low);
        let ctr = c.edge_counter(clk, Some(en));
        c.run_until(SimTime::from_millis(1));
        assert_eq!(c.counter_value(ctr), 0);
        c.poke(en, High, SimTime::from_millis(1));
        c.run_until(SimTime::from_millis(2));
        let counted = c.counter_value(ctr);
        assert!((499..=501).contains(&counted), "counted {counted}");
        c.counter_clear(ctr);
        assert_eq!(c.counter_value(ctr), 0);
        assert_eq!(c.counter_last_edge(ctr), None);
    }

    #[test]
    fn mux_switches_sources() {
        let mut c = Circuit::new();
        let a = c.input("a", Low);
        let b = c.input("b", High);
        let sel = c.input("sel", Low);
        let y = c.mux2("y", sel, a, b, SimTime::from_nanos(1));
        c.poke(sel, High, SimTime::from_nanos(10));
        // Kick an initial evaluation via a dummy transition on `a`.
        c.poke(a, Low, SimTime::from_nanos(1));
        c.poke(a, High, SimTime::from_nanos(2));
        c.poke(a, Low, SimTime::from_nanos(3));
        c.run_until(SimTime::from_nanos(8));
        assert!(c.value(y).is_low());
        c.run_until(SimTime::from_nanos(15));
        assert!(c.value(y).is_high());
    }

    #[test]
    fn pfd_structure_up_down_behaviour() {
        // Full tri-state PFD: REF leading → UP wide, DN glitches only.
        let mut c = Circuit::new();
        let vdd = c.constant("vdd", High);
        let refclk = c.input("ref", Low);
        let fbclk = c.input("fb", Low);
        let d = SimTime::from_nanos(1);
        let up = c.dff("up", vdd, refclk, None, d);
        let dn = c.dff("dn", vdd, fbclk, None, d);
        let rst = c.and("rst", &[up, dn], d);
        c.rewire_dff_reset(up, rst);
        c.rewire_dff_reset(dn, rst);
        c.trace_net(up);
        c.trace_net(dn);

        // REF at 1 MHz, FB at 1 MHz but lagging by 200 ns.
        let mut t = SimTime::from_micros(1);
        for _ in 0..20 {
            c.poke(refclk, High, t);
            c.poke(refclk, Low, t + SimTime::from_nanos(400));
            c.poke(fbclk, High, t + SimTime::from_nanos(200));
            c.poke(fbclk, Low, t + SimTime::from_nanos(600));
            t += SimTime::from_micros(1);
        }
        c.run_until(t);
        // UP pulses: one per cycle, ~200 ns wide. DN: glitches ~2 ns wide.
        assert_eq!(c.rising_edge_count(up), 20);
        assert_eq!(c.rising_edge_count(dn), 20);
        let up_high: u64 = c.trace().total_high_time(up).as_ps();
        let dn_high: u64 = c.trace().total_high_time(dn).as_ps();
        assert!(up_high > 15 * dn_high, "up {up_high} dn {dn_high}");
    }

    #[test]
    fn deterministic_replay() {
        let build = || {
            let mut c = Circuit::new();
            let clk = c.clock("clk", SimTime::from_nanos(333));
            let d3 = c.pulse_divider("d3", clk, 3);
            let d5 = c.pulse_divider("d5", clk, 5);
            let x = c.xor("x", d3, d5, SimTime::from_nanos(2));
            c.run_until(SimTime::from_micros(500));
            (c.rising_edge_count(x), c.value(x))
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn events_dispatched_counts_kernel_work() {
        let mut c = Circuit::new();
        assert_eq!(c.events_dispatched(), 0);
        let clk = c.clock("clk", SimTime::from_nanos(500));
        let _div = c.pulse_divider("div", clk, 4);
        c.run_until(SimTime::from_micros(100));
        let after = c.events_dispatched();
        // 100 µs of a 1 MHz clock: 200 clock toggles plus divider events.
        assert!(after >= 200, "only {after} events dispatched");
        c.run_until(SimTime::from_micros(200));
        assert!(c.events_dispatched() > after, "counter must keep rising");
    }

    #[test]
    #[should_panic(expected = "cannot poke in the past")]
    fn poke_in_past_panics() {
        let mut c = Circuit::new();
        let a = c.input("a", Low);
        c.run_until(SimTime::from_micros(1));
        c.poke(a, High, SimTime::from_nanos(10));
    }

    #[test]
    #[should_panic(expected = "gate-driven net")]
    fn poke_driven_net_panics() {
        let mut c = Circuit::new();
        let a = c.input("a", Low);
        let y = c.not("y", a, SimTime::from_nanos(1));
        c.poke(y, High, SimTime::from_nanos(5));
    }
}
