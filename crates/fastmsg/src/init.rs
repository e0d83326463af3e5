//! The FM_initialize sequence (paper §2.2 and §3.2, Fig. 2).
//!
//! Stock FM contacts the GRM (job-name → job-ID mapping) and then the local
//! CM (context allocation) over the control network — "additional costly
//! communication operations" at every process start. The ParPar
//! integration replaces both round trips with environment variables set by
//! the noded before the fork, leaving only the queue mapping and the
//! single-byte pipe read that provides the global synchronization point.
//!
//! The simulator models that environment handoff by its cost alone: the
//! [`InitMode::ParPar`] start-up charges [`ENV_READ`] of host work, and the
//! job, rank and placement reach the library state directly rather than as
//! strings (no simulated process keeps an environment).
//!
//! The state machine is pure: each [`InitMachine::advance`] returns the
//! next [`InitStep`] for the driver to execute (charge host time, perform a
//! daemon round trip, block on the pipe); the driver reports completion
//! back via `advance`.

use sim_core::time::Cycles;

/// Which initialization protocol is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitMode {
    /// Stock FM: GRM + CM round trips over the control network.
    OriginalFm,
    /// ParPar integration: environment variables + pipe synchronization.
    ParPar,
}

/// An action the driver must perform to make progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStep {
    /// Charge this much host CPU time, then call `advance` again.
    HostWork(Cycles),
    /// Perform a request/response with the GRM over the control network.
    GrmRoundTrip,
    /// Perform a request/response with the local CM.
    CmRoundTrip,
    /// Block until the noded writes the sync byte on the pipe.
    WaitSyncByte,
    /// Initialization complete; the process may start sending.
    Ready,
}

/// Progress through FM_initialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start,
    Identified,   // job id + rank known
    ContextKnown, // NIC context assigned
    QueuesMapped, // send/recv queues mapped into the address space
    Synchronized, // global sync point passed
}

/// Host cost of reading the environment variables (ParPar mode).
pub const ENV_READ: Cycles = Cycles::from_us(5);
/// Host cost of mapping the queues into the process address space.
pub const MAP_QUEUES: Cycles = Cycles::from_us(300);

/// The FM_initialize state machine for one process.
#[derive(Debug, Clone)]
pub struct InitMachine {
    mode: InitMode,
    phase: Phase,
}

impl InitMachine {
    /// A fresh machine in the given mode.
    pub fn new(mode: InitMode) -> Self {
        InitMachine {
            mode,
            phase: Phase::Start,
        }
    }

    /// Report completion of the previous step and receive the next one.
    pub fn advance(&mut self) -> InitStep {
        match (self.mode, self.phase) {
            (InitMode::OriginalFm, Phase::Start) => {
                self.phase = Phase::Identified;
                InitStep::GrmRoundTrip
            }
            (InitMode::OriginalFm, Phase::Identified) => {
                self.phase = Phase::ContextKnown;
                InitStep::CmRoundTrip
            }
            (InitMode::ParPar, Phase::Start) => {
                // Job id, rank and context come from the environment — no
                // network traffic at all.
                self.phase = Phase::ContextKnown;
                InitStep::HostWork(ENV_READ)
            }
            (_, Phase::ContextKnown) => {
                self.phase = Phase::QueuesMapped;
                InitStep::HostWork(MAP_QUEUES)
            }
            (InitMode::ParPar, Phase::QueuesMapped) => {
                self.phase = Phase::Synchronized;
                InitStep::WaitSyncByte
            }
            (InitMode::OriginalFm, Phase::QueuesMapped) => {
                // Stock FM synchronizes through its own three-stage GRM
                // protocol; model it as one more control round trip.
                self.phase = Phase::Synchronized;
                InitStep::GrmRoundTrip
            }
            (_, Phase::Synchronized) => InitStep::Ready,
            (InitMode::ParPar, Phase::Identified) => {
                unreachable!("ParPar mode learns identity and context together")
            }
        }
    }

    /// Has initialization finished?
    pub fn is_ready(&self) -> bool {
        self.phase == Phase::Synchronized
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps(mode: InitMode) -> Vec<InitStep> {
        let mut m = InitMachine::new(mode);
        let mut out = Vec::new();
        loop {
            let s = m.advance();
            out.push(s);
            if s == InitStep::Ready {
                return out;
            }
            assert!(out.len() < 16, "machine does not terminate");
        }
    }

    #[test]
    fn parpar_sequence_has_no_control_round_trips() {
        let s = steps(InitMode::ParPar);
        assert!(
            !s.contains(&InitStep::GrmRoundTrip) && !s.contains(&InitStep::CmRoundTrip),
            "{s:?}"
        );
        assert_eq!(*s.last().unwrap(), InitStep::Ready);
        assert!(s.contains(&InitStep::WaitSyncByte));
    }

    #[test]
    fn original_fm_pays_grm_and_cm_round_trips() {
        let s = steps(InitMode::OriginalFm);
        assert!(s.contains(&InitStep::GrmRoundTrip));
        assert!(s.contains(&InitStep::CmRoundTrip));
        assert_eq!(*s.last().unwrap(), InitStep::Ready);
    }

    #[test]
    fn ready_is_terminal_and_idempotent() {
        let mut m = InitMachine::new(InitMode::ParPar);
        while m.advance() != InitStep::Ready {}
        assert!(m.is_ready());
        assert_eq!(m.advance(), InitStep::Ready);
        assert_eq!(m.advance(), InitStep::Ready);
    }

    #[test]
    fn both_modes_map_queues_exactly_once() {
        for mode in [InitMode::ParPar, InitMode::OriginalFm] {
            let s = steps(mode);
            let maps = s
                .iter()
                .filter(|x| matches!(x, InitStep::HostWork(c) if c.raw() >= 10_000))
                .count();
            assert_eq!(maps, 1, "{mode:?}: {s:?}");
        }
    }
}
