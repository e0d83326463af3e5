//! The typed event bus: how subsystem handlers schedule follow-up events.
//!
//! [`Bus`] is a view over the engine's [`Scheduler`] that accepts any
//! subsystem sub-enum (anything `Into<Event>`), so a handler emits its own
//! event vocabulary — `bus.emit(t, NicEvent::SendEngineDone { node })` —
//! without naming the top-level wrapper.
//!
//! The bus runs in one of two modes:
//!
//! - **Direct** (`batch` off): every emission goes straight to the
//!   scheduler, exactly as the pre-batching code did.
//! - **Deferred** (packet-train fast path): emissions are parked in a
//!   local agenda instead of the heap, each stamped with a sequence number
//!   [claimed](Scheduler::claim_seq) at the moment of emission. The
//!   [`crate::world::World`] trampoline then handles agenda entries inline
//!   while they provably precede every queued event, and flushes the rest
//!   to the heap under their claimed seqs. Because seqs are claimed at the
//!   same program points in both modes, FIFO tie-breaking — and therefore
//!   every timestamp, credit and statistic — is bit-identical.
//!
//! In both modes the bus carries the *logical* now of the event being
//! handled: during inline run-ahead the scheduler's clock still shows the
//! outer dispatch instant, so `emit_now`/`emit_after` must anchor on the
//! bus's time, not the scheduler's.
//!
//! A handler may also claim seqs itself ([`Bus::claim_seq`]) and enqueue
//! the events later under them ([`Bus::push_claimed`],
//! [`Bus::requeue_claimed`]). The serial halt/ready broadcasts use this to
//! keep one event per broadcast pending instead of one per peer (see
//! `handlers::nic`).

use sim_core::engine::{SchedError, Scheduler};
use sim_core::time::{Cycles, SimTime};

use crate::event::Event;

/// A deferred emission: `(time, claimed seq, event)`.
pub(crate) type Pending = (SimTime, u64, Event);

/// A typed view over the pending-event queue, handed to subsystem
/// handlers during event handling.
pub struct Bus<'a> {
    sched: &'a mut Scheduler<Event>,
    now: SimTime,
    agenda: Option<&'a mut Vec<Pending>>,
    /// The event being handled came off the agenda (inline run-ahead), not
    /// out of the scheduler's queue.
    inline: bool,
}

impl<'a> Bus<'a> {
    /// Wrap a scheduler for one direct dispatch at the scheduler's clock.
    #[inline]
    pub fn new(sched: &'a mut Scheduler<Event>) -> Self {
        let now = sched.now();
        Bus {
            sched,
            now,
            agenda: None,
            inline: false,
        }
    }

    /// Deferred dispatch: emissions claim a seq and park in `agenda`.
    /// `inline` says whether the event being handled was itself taken off
    /// the agenda.
    #[inline]
    pub(crate) fn deferred(
        sched: &'a mut Scheduler<Event>,
        now: SimTime,
        agenda: &'a mut Vec<Pending>,
        inline: bool,
    ) -> Self {
        Bus {
            sched,
            now,
            agenda: Some(agenda),
            inline,
        }
    }

    /// Logical instant of the event being handled.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Emit `event` at absolute instant `t`.
    #[inline]
    pub fn emit<E: Into<Event>>(&mut self, t: SimTime, event: E) {
        match &mut self.agenda {
            None => self.sched.at(t, event.into()),
            Some(agenda) => {
                // Mirror Scheduler::at's past-instant clamp against the
                // *logical* clock (the scheduler's may lag during run-ahead).
                let t = if t < self.now {
                    debug_assert!(false, "scheduling into the past: {t:?} < {:?}", self.now);
                    self.now
                } else {
                    t
                };
                let seq = self.sched.claim_seq();
                agenda.push((t, seq, event.into()));
            }
        }
    }

    /// Emit `event` after a relative delay `d`.
    #[inline]
    pub fn emit_after<E: Into<Event>>(&mut self, d: Cycles, event: E) {
        self.emit(self.now + d, event);
    }

    /// Emit `event` at the current instant (delivered after the events
    /// already queued for this instant).
    #[inline]
    pub fn emit_now<E: Into<Event>>(&mut self, event: E) {
        self.emit(self.now, event);
    }

    /// Claim the next FIFO sequence number without emitting anything: the
    /// seq an [`Bus::emit`] at this point would have drawn.
    #[inline]
    pub(crate) fn claim_seq(&mut self) -> u64 {
        self.sched.claim_seq()
    }

    /// Emit `event` at `t` under a seq [claimed](Bus::claim_seq) earlier
    /// in this dispatch: it lands where an [`Bus::emit`] at the claim
    /// point would have put it (the queue when direct, the agenda when
    /// deferred).
    #[inline]
    pub(crate) fn push_claimed<E: Into<Event>>(&mut self, t: SimTime, seq: u64, event: E) {
        debug_assert!(t >= self.now, "claimed push into the past");
        match &mut self.agenda {
            None => self.sched.push_claimed(t, seq, event.into()),
            Some(agenda) => agenda.push((t, seq, event.into())),
        }
    }

    /// Enqueue `event` at `t` under a seq claimed in an *earlier* dispatch
    /// together with the event being handled (its sibling). It goes where
    /// an [`Bus::emit`] at the claim point would have put it by now: if the
    /// event being handled ran inline off the agenda, both were emitted in
    /// this same engine dispatch and the sibling would still be on the
    /// agenda; if it came out of the queue, the sibling was flushed to the
    /// queue with it.
    #[inline]
    pub(crate) fn requeue_claimed<E: Into<Event>>(&mut self, t: SimTime, seq: u64, event: E) {
        debug_assert!(t >= self.now, "claimed push into the past");
        match &mut self.agenda {
            Some(agenda) if self.inline => agenda.push((t, seq, event.into())),
            _ => self.sched.push_claimed(t, seq, event.into()),
        }
    }

    /// The window `(limit, fence)` inside which the burst fast path may
    /// run ahead, or `None` when the bus is direct (batching off).
    ///
    /// `limit` is the earliest instant of any *other* pending work — the
    /// queue head or a parked agenda entry — and `fence` is the horizon the
    /// current `run_until*` call must not overrun. A fused fragment whose
    /// every effect lands strictly before `limit` and at-or-before `fence`
    /// cannot interleave with foreign events, so eliding its events is
    /// unobservable.
    #[inline]
    pub(crate) fn run_ahead_window(&self) -> Option<(SimTime, SimTime)> {
        let agenda = self.agenda.as_ref()?;
        let mut limit = match self.sched.peek_key() {
            Some((t, _)) => t,
            None => SimTime::MAX,
        };
        for &(t, _, _) in agenda.iter() {
            limit = limit.min(t);
        }
        Some((limit, self.sched.fence()))
    }

    /// Record `n` events the burst fast path retired without materializing,
    /// keeping logical event counts identical to unbatched mode.
    #[inline]
    pub(crate) fn note_elided(&mut self, n: u64) {
        self.sched.note_inline_dispatches(n);
    }

    /// Emit `event` at `t`, rejecting past instants instead of clamping.
    #[inline]
    pub fn try_emit<E: Into<Event>>(&mut self, t: SimTime, event: E) -> Result<(), SchedError> {
        if t < self.now {
            return Err(SchedError::InPast {
                requested: t,
                now: self.now,
            });
        }
        match &mut self.agenda {
            None => self.sched.try_at(t, event.into()),
            Some(agenda) => {
                let seq = self.sched.claim_seq();
                agenda.push((t, seq, event.into()));
                Ok(())
            }
        }
    }
}
