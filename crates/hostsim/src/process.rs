//! Processes and the signals the gang scheduler drives them with.
//!
//! The ParPar integration passes FM context data to freshly forked
//! processes in environment variables (paper §3.2: "this data is simply
//! transferred to the process using environment variables"). A simulated
//! process keeps no environment: the handoff is modelled by its cost, the
//! host work of `fastmsg::init`'s `InitMode::ParPar` start-up.

use std::collections::BTreeMap;
use std::fmt;

/// Process identifier, unique per simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Scheduling state, driven by signals from the noded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedState {
    /// Eligible to run (its gang slot is active).
    Active,
    /// SIGSTOPped (descheduled by the gang scheduler).
    Stopped,
    /// Terminated.
    Exited,
}

/// The POSIX signals the gang scheduler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Deschedule (SIGSTOP): the process produces no further work.
    Stop,
    /// Reschedule (SIGCONT).
    Cont,
    /// Terminate (SIGKILL).
    Kill,
}

/// A simulated user process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Identifier on its host.
    pub pid: Pid,
    /// Scheduling state.
    pub state: SchedState,
    stops: u64,
    conts: u64,
}

impl Process {
    /// A fresh process in the `Active` state.
    pub fn new(pid: Pid) -> Self {
        Process {
            pid,
            state: SchedState::Active,
            stops: 0,
            conts: 0,
        }
    }

    /// Deliver a signal. Returns `true` if the state changed.
    pub fn signal(&mut self, sig: Signal) -> bool {
        if self.state == SchedState::Exited {
            return false;
        }
        match sig {
            Signal::Stop => {
                self.stops += 1;
                if self.state != SchedState::Stopped {
                    self.state = SchedState::Stopped;
                    return true;
                }
            }
            Signal::Cont => {
                self.conts += 1;
                if self.state != SchedState::Active {
                    self.state = SchedState::Active;
                    return true;
                }
            }
            Signal::Kill => {
                self.state = SchedState::Exited;
                return true;
            }
        }
        false
    }

    /// Is the process currently eligible to run?
    pub fn is_active(&self) -> bool {
        self.state == SchedState::Active
    }

    /// Total SIGSTOPs delivered (one per gang deschedule).
    pub fn stop_count(&self) -> u64 {
        self.stops
    }

    /// Total SIGCONTs delivered.
    pub fn cont_count(&self) -> u64 {
        self.conts
    }
}

/// The per-host process table.
#[derive(Debug, Clone, Default)]
pub struct ProcessTable {
    procs: BTreeMap<Pid, Process>,
    next_pid: u32,
}

impl ProcessTable {
    /// An empty table.
    pub fn new() -> Self {
        ProcessTable {
            procs: BTreeMap::new(),
            next_pid: 100, // leave room for "daemon" pids in traces
        }
    }

    /// Fork a new process, returning its pid.
    pub fn fork(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(pid, Process::new(pid));
        pid
    }

    /// Look up a process.
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// Look up a process mutably.
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(&pid)
    }

    /// Deliver a signal to a process; returns whether state changed.
    /// Panics on an unknown pid (a simulation bug, not a runtime condition).
    pub fn signal(&mut self, pid: Pid, sig: Signal) -> bool {
        self.procs
            .get_mut(&pid)
            .unwrap_or_else(|| panic!("no such process {pid}"))
            .signal(sig)
    }

    /// All pids, in creation order.
    pub fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.procs.keys().copied()
    }

    /// Number of live (non-exited) processes.
    pub fn live_count(&self) -> usize {
        self.procs
            .values()
            .filter(|p| p.state != SchedState::Exited)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_assigns_fresh_pids() {
        let mut t = ProcessTable::new();
        let a = t.fork();
        let b = t.fork();
        assert_ne!(a, b);
        assert_eq!(t.live_count(), 2);
    }

    #[test]
    fn stop_cont_cycle() {
        let mut t = ProcessTable::new();
        let p = t.fork();
        assert!(t.get(p).unwrap().is_active());
        assert!(t.signal(p, Signal::Stop));
        assert!(!t.get(p).unwrap().is_active());
        // Redundant stop: no state change, but counted.
        assert!(!t.signal(p, Signal::Stop));
        assert!(t.signal(p, Signal::Cont));
        assert!(t.get(p).unwrap().is_active());
        assert_eq!(t.get(p).unwrap().stop_count(), 2);
        assert_eq!(t.get(p).unwrap().cont_count(), 1);
    }

    #[test]
    fn signals_after_exit_are_ignored() {
        let mut t = ProcessTable::new();
        let p = t.fork();
        assert!(t.signal(p, Signal::Kill));
        assert!(!t.signal(p, Signal::Cont));
        assert!(!t.signal(p, Signal::Stop));
        assert_eq!(t.live_count(), 0);
    }

    #[test]
    #[should_panic(expected = "no such process")]
    fn signal_to_unknown_pid_panics() {
        ProcessTable::new().signal(Pid(9), Signal::Stop);
    }
}
