//! The host CPU as a serial resource.
//!
//! ParPar nodes are uniprocessor Pentium-Pros: the application, the FM
//! library code it calls, and the noded daemon all share one CPU. Work is
//! charged by reserving an interval on the CPU timeline; the reservation
//! discipline is first-come-first-served, which matches the paper's
//! observation that "the host processor cannot generate messages fast
//! enough to fill the \[send\] queue" — the CPU, not the NIC, is the
//! bottleneck on the send side.

use sim_core::time::{Cycles, SimTime};

/// One host CPU's availability timeline.
#[derive(Debug, Clone)]
pub struct HostCpu {
    next_free: SimTime,
    busy_total: Cycles,
}

/// A granted CPU reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the work begins (>= request time).
    pub start: SimTime,
    /// When the work completes.
    pub end: SimTime,
}

impl Default for HostCpu {
    fn default() -> Self {
        Self::new()
    }
}

impl HostCpu {
    /// An idle CPU.
    pub fn new() -> Self {
        HostCpu {
            next_free: SimTime::ZERO,
            busy_total: Cycles::ZERO,
        }
    }

    /// Reserve `work` cycles starting no earlier than `now`.
    pub fn reserve(&mut self, now: SimTime, work: Cycles) -> Reservation {
        let start = now.max(self.next_free);
        let end = start + work;
        self.next_free = end;
        self.busy_total += work;
        Reservation { start, end }
    }

    /// Total cycles of work executed.
    pub fn busy_total(&self) -> Cycles {
        self.busy_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_cpu_starts_immediately() {
        let mut cpu = HostCpu::new();
        let r = cpu.reserve(SimTime(100), Cycles(50));
        assert_eq!(r.start, SimTime(100));
        assert_eq!(r.end, SimTime(150));
    }

    #[test]
    fn busy_cpu_queues_work_fifo() {
        let mut cpu = HostCpu::new();
        cpu.reserve(SimTime(0), Cycles(100));
        let r = cpu.reserve(SimTime(10), Cycles(5));
        assert_eq!(r.start, SimTime(100));
        assert_eq!(r.end, SimTime(105));
    }

    #[test]
    fn busy_total_accounts_work() {
        let mut cpu = HostCpu::new();
        cpu.reserve(SimTime(0), Cycles(250));
        cpu.reserve(SimTime(500), Cycles(250));
        assert_eq!(cpu.busy_total(), Cycles(500));
    }

    #[test]
    fn zero_work_reservation_is_instant() {
        let mut cpu = HostCpu::new();
        let r = cpu.reserve(SimTime(42), Cycles::ZERO);
        assert_eq!(r.start, r.end);
        assert_eq!(r.end, SimTime(42));
    }
}
