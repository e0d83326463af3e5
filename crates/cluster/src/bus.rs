//! The typed event bus: how subsystem handlers schedule follow-up events.
//!
//! [`Bus`] is a view over the engine's [`Scheduler`] that accepts any
//! subsystem sub-enum (anything `Into<Event>`), so a handler emits its own
//! event vocabulary — `bus.emit(t, NicEvent::SendEngineDone { node })` —
//! without naming the top-level wrapper.
//!
//! A handler may also claim seqs itself (`Bus::claim_seq`) and enqueue
//! the events later under them (`Bus::push_claimed`). The serial
//! halt/ready broadcasts use this to keep one event per broadcast pending
//! instead of one per peer (see `handlers::nic`).

use sim_core::engine::Scheduler;
use sim_core::time::SimTime;

use crate::event::Event;

/// A typed view over the pending-event queue, handed to subsystem
/// handlers during event handling.
pub struct Bus<'a> {
    sched: &'a mut Scheduler<Event>,
}

impl<'a> Bus<'a> {
    /// Wrap a scheduler for one dispatch at the scheduler's clock.
    #[inline]
    pub fn new(sched: &'a mut Scheduler<Event>) -> Self {
        Bus { sched }
    }

    /// Instant of the event being handled.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Emit `event` at absolute instant `t`.
    #[inline]
    pub fn emit<E: Into<Event>>(&mut self, t: SimTime, event: E) {
        self.sched.at(t, event.into());
    }

    /// Emit `event` at the current instant (delivered after the events
    /// already queued for this instant).
    #[inline]
    pub fn emit_now<E: Into<Event>>(&mut self, event: E) {
        self.sched.immediately(event.into());
    }

    /// Claim the next FIFO sequence number without emitting anything: the
    /// seq an [`Bus::emit`] at this point would have drawn.
    #[inline]
    pub(crate) fn claim_seq(&mut self) -> u64 {
        self.sched.claim_seq()
    }

    /// Enqueue `event` at `t` under a seq [claimed](Bus::claim_seq) earlier
    /// (in this dispatch or an earlier one): it is delivered where an
    /// [`Bus::emit`] at the claim point would have put it.
    #[inline]
    pub(crate) fn push_claimed<E: Into<Event>>(&mut self, t: SimTime, seq: u64, event: E) {
        self.sched.push_claimed(t, seq, event.into());
    }
}
