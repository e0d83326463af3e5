//! Host-side operation cost constants.
//!
//! Scaled to the paper's 200 MHz Pentium-Pro / BSDI 3.1 testbed. Syscall
//! and scheduling costs are mid-1990s BSD magnitudes (tens of
//! microseconds); they only matter for the halt/release phases of the
//! context switch, where the paper attributes the growth with node count to
//! "a global protocol between unsynchronized computers".

use sim_core::time::Cycles;

/// Tunable host operation costs.
#[derive(Debug, Clone)]
pub struct HostCosts {
    /// fork() + exec environment setup of an application process.
    pub fork: Cycles,
    /// Delivering SIGSTOP/SIGCONT to a process (kill() + context ripple).
    pub signal: Cycles,
    /// Writing the sync byte into the noded↔process pipe.
    pub pipe_write: Cycles,
    /// Reading the sync byte (once available).
    pub pipe_read: Cycles,
    /// noded waking up and dispatching one control message.
    pub daemon_dispatch: Cycles,
    /// Upper bound of the uniform daemon scheduling jitter: the noded is a
    /// user-level daemon, so reacting to a control message lands anywhere
    /// within this window. This skew is what makes the halt phase grow with
    /// the number of unsynchronized nodes (paper Fig. 7).
    pub daemon_jitter_max: Cycles,
}

impl Default for HostCosts {
    fn default() -> Self {
        HostCosts {
            fork: Cycles::from_us(800),
            signal: Cycles::from_us(25),
            pipe_write: Cycles::from_us(10),
            pipe_read: Cycles::from_us(10),
            daemon_dispatch: Cycles::from_us(50),
            daemon_jitter_max: Cycles::from_ms(4),
        }
    }
}

impl HostCosts {
    /// Costs with all jitter removed — for tests that need exact timings.
    pub fn deterministic() -> Self {
        HostCosts {
            daemon_jitter_max: Cycles::ZERO,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_magnitudes() {
        let c = HostCosts::default();
        assert!(c.signal.raw() < c.fork.raw());
        assert!(c.pipe_write.raw() < c.signal.raw() * 10);
        // Jitter dominates the fixed dispatch cost, as Fig. 7 requires.
        assert!(c.daemon_jitter_max.raw() > 10 * c.daemon_dispatch.raw());
    }

    #[test]
    fn deterministic_variant_has_no_jitter() {
        assert_eq!(HostCosts::deterministic().daemon_jitter_max, Cycles::ZERO);
    }
}
