//! Host-side operation cost constants.
//!
//! Scaled to the paper's 200 MHz Pentium-Pro / BSDI 3.1 testbed. Syscall
//! and scheduling costs are mid-1990s BSD magnitudes (tens of
//! microseconds); they only matter for the halt/release phases of the
//! context switch, where the paper attributes the growth with node count to
//! "a global protocol between unsynchronized computers". The one host cost
//! a run may vary, the noded's scheduling-jitter bound, is the cluster
//! configuration's `daemon_jitter_max`.

use sim_core::time::Cycles;

/// fork() + exec environment setup of an application process.
pub const FORK: Cycles = Cycles::from_us(800);
/// Delivering SIGSTOP/SIGCONT to a process (kill() + context ripple).
pub const SIGNAL: Cycles = Cycles::from_us(25);
/// Writing the sync byte into the noded↔process pipe.
pub const PIPE_WRITE: Cycles = Cycles::from_us(10);
/// Reading the sync byte (once available).
pub const PIPE_READ: Cycles = Cycles::from_us(10);
/// noded waking up and dispatching one control message.
pub const DAEMON_DISPATCH: Cycles = Cycles::from_us(50);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitudes_are_ordered() {
        const { assert!(SIGNAL.raw() < FORK.raw()) };
        const { assert!(PIPE_WRITE.raw() < SIGNAL.raw() * 10) };
    }
}
