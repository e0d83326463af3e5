//! A deterministic discrete-event simulation engine.
//!
//! The engine is generic over a [`Model`]: the model owns all simulation
//! state and handles events; the engine owns the clock and the pending-event
//! queue. Events scheduled for the same instant are delivered in the order
//! they were scheduled (FIFO tie-breaking by a monotone sequence number), so
//! a run is bit-for-bit reproducible.

use crate::queue::EventQueue;
use crate::time::{Cycles, SimTime};

/// A simulation model: the state machine driven by the engine.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Handle one event at instant `now`, scheduling any follow-up events
    /// through `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Why a schedule request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedError {
    /// The requested instant is before the scheduler's current time;
    /// delivering it would reorder causality.
    InPast {
        /// The instant that was requested.
        requested: SimTime,
        /// The scheduler's clock at the time of the request.
        now: SimTime,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::InPast { requested, now } => {
                write!(f, "scheduling into the past: {requested:?} < {now:?}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// The pending-event queue, handed to the model during event handling so it
/// can schedule follow-ups.
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    queue: EventQueue<E>,
    /// How many `at` calls asked for a past instant and were clamped to
    /// `now` (each one is a causality bug in the model, papered over in
    /// release builds).
    clamped: u64,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            clamped: 0,
        }
    }

    /// Pre-size the queue for `n` simultaneously pending events.
    pub fn reserve(&mut self, n: usize) {
        self.queue.reserve(n);
    }

    /// Current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Validate a requested instant against the current clock.
    #[inline]
    fn check(&self, t: SimTime) -> Result<(), SchedError> {
        if t < self.now {
            Err(SchedError::InPast {
                requested: t,
                now: self.now,
            })
        } else {
            Ok(())
        }
    }

    /// Unchecked enqueue at `t` with the next FIFO sequence number.
    #[inline]
    fn push(&mut self, t: SimTime, event: E) {
        self.queue.push(t, self.seq, event);
        self.seq += 1;
    }

    /// Schedule `event` at absolute instant `t`, rejecting past instants
    /// instead of clamping them. On `Err` the event is dropped.
    pub fn try_at(&mut self, t: SimTime, event: E) -> Result<(), SchedError> {
        self.check(t)?;
        self.push(t, event);
        Ok(())
    }

    /// Schedule `event` at absolute instant `t`. Scheduling in the past
    /// panics in debug builds (it would silently reorder causality); release
    /// builds clamp to `now`, deliver in FIFO position at the current
    /// instant, and count the violation (see
    /// [`Scheduler::causality_clamps`]).
    pub fn at(&mut self, t: SimTime, event: E) {
        match self.check(t) {
            Ok(()) => self.push(t, event),
            Err(e) => {
                debug_assert!(false, "{e}");
                self.clamped += 1;
                self.push(self.now, event);
            }
        }
    }

    /// How many [`Scheduler::at`] calls were clamped from a past instant to
    /// `now`. Always zero in a causally sound model.
    #[inline]
    pub fn causality_clamps(&self) -> u64 {
        self.clamped
    }

    /// Schedule `event` after a relative delay `d`.
    #[inline]
    pub fn after(&mut self, d: Cycles, event: E) {
        self.at(self.now + d, event);
    }

    /// Schedule `event` at the current instant (delivered after the events
    /// already queued for this instant).
    #[inline]
    pub fn immediately(&mut self, event: E) {
        self.at(self.now, event);
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.queue.pop()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Claim the next FIFO sequence number without enqueueing an event.
    ///
    /// A model that wants to enqueue an event later (via
    /// [`Scheduler::push_claimed`]) claims its seq at the exact point it
    /// would otherwise have scheduled it, so tie-breaking order is the
    /// same as if it had been scheduled there.
    #[inline]
    pub fn claim_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Enqueue an event under a previously [claimed](Scheduler::claim_seq)
    /// sequence number.
    #[inline]
    pub fn push_claimed(&mut self, t: SimTime, seq: u64, event: E) {
        debug_assert!(t >= self.now, "claimed push into the past");
        debug_assert!(seq < self.seq, "seq {seq} was never claimed");
        self.queue.push(t, seq, event);
    }
}

/// Why a [`Engine::run_until`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the horizon.
    Idle,
    /// The horizon instant was reached with events still pending.
    Horizon,
    /// The event-count safety limit was hit (almost certainly a livelock in
    /// the model).
    EventLimit,
}

/// The simulation engine: a clock, a queue, and a model.
///
/// ```
/// use sim_core::engine::{Engine, Model, Scheduler};
/// use sim_core::time::{Cycles, SimTime};
///
/// // A model that counts down, rescheduling itself every 100 cycles.
/// struct Countdown(u32);
/// impl Model for Countdown {
///     type Event = ();
///     fn handle(&mut self, _t: SimTime, _e: (), sched: &mut Scheduler<()>) {
///         if self.0 > 0 {
///             self.0 -= 1;
///             sched.after(Cycles(100), ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new(Countdown(5));
/// engine.schedule_at(SimTime::ZERO, ());
/// engine.run_to_idle();
/// assert_eq!(engine.model.0, 0);
/// assert_eq!(engine.now(), SimTime(500));
/// ```
pub struct Engine<M: Model> {
    /// The simulation model. Public so drivers can inspect/instrument state
    /// between runs.
    pub model: M,
    sched: Scheduler<M::Event>,
    events_processed: u64,
    /// Safety valve against model livelocks (an event chain that never
    /// advances time). Checked by [`Engine::run_until`].
    pub event_limit: u64,
    /// Maps an event to a kind index (for dispatch counters and the run
    /// digest). `None` folds every event into kind 0.
    classifier: Option<fn(&M::Event) -> usize>,
    /// Kind names parallel to the counter vector.
    kind_names: &'static [&'static str],
    /// Events dispatched, per kind index.
    kind_counts: Vec<u64>,
    /// FNV-1a over the `(time, kind)` stream of every dispatched event —
    /// a cheap fingerprint of the whole run's delivery order.
    digest: u64,
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

impl<M: Model> Engine<M> {
    /// Create an engine at time zero with an empty queue.
    pub fn new(model: M) -> Self {
        Engine {
            model,
            sched: Scheduler::new(),
            events_processed: 0,
            event_limit: u64::MAX,
            classifier: None,
            kind_names: &["event"],
            kind_counts: vec![0],
            digest: FNV_OFFSET,
        }
    }

    /// Install an event-kind classifier: `names[classify(&e)]` is the kind
    /// of `e`. Kinds feed the per-kind dispatch counters and the run
    /// digest, so the mapping must be stable for digests to be comparable.
    /// Resets the counters (not the digest — install before running).
    pub fn set_event_kinds(
        &mut self,
        names: &'static [&'static str],
        classify: fn(&M::Event) -> usize,
    ) {
        assert!(!names.is_empty(), "need at least one kind name");
        self.classifier = Some(classify);
        self.kind_names = names;
        self.kind_counts = vec![0; names.len()];
    }

    /// Dispatch counts per event kind, as `(name, count)` pairs.
    pub fn dispatch_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kind_names
            .iter()
            .copied()
            .zip(self.kind_counts.iter().copied())
    }

    /// FNV-1a fingerprint of the `(time, kind)` stream of every event
    /// dispatched so far. Two runs of the same model with the same inputs
    /// must produce the same digest; a changed digest means the delivery
    /// order (or timing) diverged.
    #[inline]
    pub fn stream_digest(&self) -> u64 {
        self.digest
    }

    /// How many schedule calls were clamped from a past instant to `now`.
    #[inline]
    pub fn causality_clamps(&self) -> u64 {
        self.sched.causality_clamps()
    }

    /// Current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Total events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Total logical events dispatched. Every event goes through the
    /// queue, so this equals [`Engine::events_processed`]; it is kept for
    /// callers that report the logical event count by name.
    #[inline]
    pub fn logical_events(&self) -> u64 {
        self.events_processed
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.sched.pending()
    }

    /// Pre-size the pending queue for `n` simultaneously pending events.
    pub fn reserve_events(&mut self, n: usize) {
        self.sched.reserve(n);
    }

    /// Schedule an event at an absolute instant (driver-side).
    pub fn schedule_at(&mut self, t: SimTime, event: M::Event) {
        self.sched.at(t, event);
    }

    /// Schedule an event after a delay (driver-side).
    pub fn schedule_after(&mut self, d: Cycles, event: M::Event) {
        self.sched.after(d, event);
    }

    /// Give a driver combined access to the model and the scheduler at the
    /// current instant — for injecting state changes that need to schedule
    /// follow-up events (e.g. exercising an API between runs).
    pub fn drive<R>(&mut self, f: impl FnOnce(&mut M, &mut Scheduler<M::Event>) -> R) -> R {
        f(&mut self.model, &mut self.sched)
    }

    /// Process a single event, if any. Returns the instant it fired.
    pub fn step(&mut self) -> Option<SimTime> {
        let (time, event) = self.sched.pop()?;
        debug_assert!(time >= self.sched.now);
        self.sched.now = time;
        self.events_processed += 1;
        let kind = match self.classifier {
            Some(f) => f(&event),
            None => 0,
        };
        debug_assert!(kind < self.kind_counts.len(), "kind index out of range");
        if let Some(c) = self.kind_counts.get_mut(kind) {
            *c += 1;
        }
        self.digest = fnv1a(fnv1a(self.digest, time.raw()), kind as u64);
        self.model.handle(time, event, &mut self.sched);
        Some(time)
    }

    /// Process the single earliest event if it is due at or before
    /// `horizon`. Returns the instant the event fired, or `None` when
    /// nothing is due. The clock is left alone on `None` — a driver
    /// stepping event by event finalizes it itself.
    pub fn step_bounded(&mut self, horizon: SimTime) -> Option<SimTime> {
        match self.sched.peek_time() {
            Some(t) if t <= horizon => self.step(),
            _ => None,
        }
    }

    /// Run until the queue drains or `horizon` is reached. Events scheduled
    /// exactly at the horizon are processed; afterwards the clock is advanced
    /// to the horizon even if the queue drained earlier.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let start_events = self.events_processed;
        loop {
            match self.sched.peek_time() {
                Some(t) if t <= horizon => {
                    self.step();
                    if self.events_processed - start_events >= self.event_limit {
                        return RunOutcome::EventLimit;
                    }
                }
                Some(_) => {
                    self.sched.now = horizon;
                    return RunOutcome::Horizon;
                }
                None => {
                    self.sched.now = horizon.max(self.sched.now);
                    return RunOutcome::Idle;
                }
            }
        }
    }

    /// Run until the queue drains completely.
    pub fn run_to_idle(&mut self) -> RunOutcome {
        let start_events = self.events_processed;
        while self.step().is_some() {
            if self.events_processed - start_events >= self.event_limit {
                return RunOutcome::EventLimit;
            }
        }
        RunOutcome::Idle
    }

    /// Run until `pred` over the model becomes true (checked after every
    /// event), the queue drains, or the horizon passes.
    pub fn run_until_pred(
        &mut self,
        horizon: SimTime,
        mut pred: impl FnMut(&M) -> bool,
    ) -> RunOutcome {
        let start_events = self.events_processed;
        loop {
            if pred(&self.model) {
                return RunOutcome::Horizon;
            }
            match self.sched.peek_time() {
                Some(t) if t <= horizon => {
                    self.step();
                    if self.events_processed - start_events >= self.event_limit {
                        return RunOutcome::EventLimit;
                    }
                }
                Some(_) => {
                    self.sched.now = horizon;
                    return RunOutcome::Horizon;
                }
                None => return RunOutcome::Idle,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy model that records the order events fire in.
    struct Recorder {
        fired: Vec<(u64, u32)>,
        chain_left: u32,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.fired.push((now.raw(), ev));
            if ev == 99 && self.chain_left > 0 {
                self.chain_left -= 1;
                sched.after(Cycles(10), 99);
            }
        }
    }

    fn engine() -> Engine<Recorder> {
        Engine::new(Recorder {
            fired: Vec::new(),
            chain_left: 0,
        })
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e = engine();
        e.schedule_at(SimTime(30), 3);
        e.schedule_at(SimTime(10), 1);
        e.schedule_at(SimTime(20), 2);
        assert_eq!(e.run_to_idle(), RunOutcome::Idle);
        assert_eq!(e.model.fired, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(e.events_processed(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut e = engine();
        for i in 0..100 {
            e.schedule_at(SimTime(5), i);
        }
        e.run_to_idle();
        let expect: Vec<_> = (0..100).map(|i| (5, i)).collect();
        assert_eq!(e.model.fired, expect);
    }

    #[test]
    fn chained_events_advance_time() {
        let mut e = engine();
        e.model.chain_left = 5;
        e.schedule_at(SimTime(0), 99);
        e.run_to_idle();
        assert_eq!(e.now(), SimTime(50));
        assert_eq!(e.model.fired.len(), 6);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut e = engine();
        e.schedule_at(SimTime(10), 1);
        e.schedule_at(SimTime(100), 2);
        assert_eq!(e.run_until(SimTime(50)), RunOutcome::Horizon);
        assert_eq!(e.now(), SimTime(50));
        assert_eq!(e.model.fired, vec![(10, 1)]);
        // Event exactly at the horizon is included.
        assert_eq!(e.run_until(SimTime(100)), RunOutcome::Idle);
        assert_eq!(e.model.fired, vec![(10, 1), (100, 2)]);
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        let mut e = engine();
        assert_eq!(e.run_until(SimTime(1234)), RunOutcome::Idle);
        assert_eq!(e.now(), SimTime(1234));
    }

    #[test]
    fn event_limit_catches_livelock() {
        struct Livelock;
        impl Model for Livelock {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), sched: &mut Scheduler<()>) {
                sched.immediately(());
            }
        }
        let mut e = Engine::new(Livelock);
        e.event_limit = 1000;
        e.schedule_at(SimTime(0), ());
        assert_eq!(e.run_to_idle(), RunOutcome::EventLimit);
        assert_eq!(e.events_processed(), 1000);
    }

    #[test]
    fn run_until_pred_stops_early() {
        let mut e = engine();
        for i in 0..10 {
            e.schedule_at(SimTime(i as u64 * 10), i);
        }
        let out = e.run_until_pred(SimTime(1000), |m| m.fired.len() == 4);
        assert_eq!(out, RunOutcome::Horizon);
        assert_eq!(e.model.fired.len(), 4);
    }

    #[test]
    fn try_at_rejects_past_instants() {
        let mut e = engine();
        e.schedule_at(SimTime(100), 1);
        e.run_to_idle();
        assert_eq!(e.now(), SimTime(100));
        let err = e.drive(|_, s| s.try_at(SimTime(50), 2)).unwrap_err();
        assert_eq!(
            err,
            SchedError::InPast {
                requested: SimTime(50),
                now: SimTime(100),
            }
        );
        // The rejected event was not enqueued; the clamp counter is
        // untouched (try_at refuses rather than papering over).
        assert_eq!(e.pending(), 0);
        assert_eq!(e.causality_clamps(), 0);
        // Scheduling at exactly `now` is fine.
        e.drive(|_, s| s.try_at(SimTime(100), 3)).unwrap();
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn dispatch_counters_follow_classifier() {
        let mut e = engine();
        e.set_event_kinds(&["even", "odd"], |ev| (*ev % 2) as usize);
        for i in 0..10 {
            e.schedule_at(SimTime(i as u64), i);
        }
        e.run_to_idle();
        let counts: Vec<_> = e.dispatch_counts().collect();
        assert_eq!(counts, vec![("even", 5), ("odd", 5)]);
    }

    #[test]
    fn stream_digest_is_reproducible_and_order_sensitive() {
        let run = |order: &[u64]| {
            let mut e = engine();
            for &t in order {
                e.schedule_at(SimTime(t), t as u32);
            }
            e.run_to_idle();
            e.stream_digest()
        };
        // Same schedule, same digest (insertion order at distinct times is
        // irrelevant — delivery order is what is hashed).
        assert_eq!(run(&[10, 20, 30]), run(&[30, 10, 20]));
        // Different delivery times diverge.
        assert_ne!(run(&[10, 20, 30]), run(&[10, 20, 40]));
        // An empty run keeps the FNV offset basis.
        assert_eq!(engine().stream_digest(), run(&[]));
    }

    #[test]
    fn same_instant_rescheduling_is_fifo_not_starving() {
        // An event scheduled "immediately" during handling runs after other
        // events already queued at that instant.
        struct M2(Vec<u32>);
        impl Model for M2 {
            type Event = u32;
            fn handle(&mut self, _: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.0.push(ev);
                if ev == 0 {
                    sched.immediately(100);
                }
            }
        }
        let mut e = Engine::new(M2(Vec::new()));
        e.schedule_at(SimTime(0), 0);
        e.schedule_at(SimTime(0), 1);
        e.run_to_idle();
        assert_eq!(e.model.0, vec![0, 1, 100]);
    }
}
