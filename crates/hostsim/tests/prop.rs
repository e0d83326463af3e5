//! Property tests for host-side primitives.

use hostsim::backing::BackingStore;
use hostsim::cpu::HostCpu;
use hostsim::pipe::Pipe;
use hostsim::process::Pid;
use proptest::prelude::*;
use sim_core::time::{Cycles, SimTime};

proptest! {
    /// CPU reservations never overlap and are granted FIFO; busy time is
    /// the exact sum of requested work.
    #[test]
    fn cpu_reservations_are_serial(jobs in proptest::collection::vec((0u64..10_000, 1u64..5_000), 1..100)) {
        let mut cpu = HostCpu::new();
        let mut prev_end = SimTime::ZERO;
        let mut total = 0u64;
        let mut t = SimTime::ZERO;
        for (dt, work) in jobs {
            t = SimTime(t.raw() + dt);
            let r = cpu.reserve(t, Cycles(work));
            prop_assert!(r.start >= t);
            prop_assert!(r.start >= prev_end);
            prop_assert_eq!(r.end.raw() - r.start.raw(), work);
            prev_end = r.end;
            total += work;
        }
        prop_assert_eq!(cpu.busy_total().raw(), total);
    }

    /// A pipe delivers exactly the bytes written, in order, and a blocked
    /// reader is woken exactly when data becomes available.
    #[test]
    fn pipe_is_a_lossless_fifo(ops in proptest::collection::vec(any::<Option<u8>>(), 0..200)) {
        let mut p = Pipe::new();
        let mut model: std::collections::VecDeque<u8> = Default::default();
        for op in ops {
            match op {
                Some(b) => {
                    let was_blocked = p.reader_blocked();
                    let woke = p.write(&[b]);
                    model.push_back(b);
                    prop_assert_eq!(woke, was_blocked);
                }
                None => {
                    let got = p.read_byte();
                    prop_assert_eq!(got, model.pop_front());
                    prop_assert_eq!(p.reader_blocked(), got.is_none());
                }
            }
            prop_assert_eq!(p.buffered(), model.len());
        }
    }

    /// Backing store byte accounting: total equals the sum of live saves
    /// and the high-water mark never decreases.
    #[test]
    fn backing_store_accounting(ops in proptest::collection::vec((0u32..8, 0u64..100_000, any::<bool>()), 0..100)) {
        let mut bs: BackingStore<u64> = BackingStore::new();
        let mut model: std::collections::BTreeMap<Pid, u64> = Default::default();
        let mut hw = 0u64;
        for (slot, bytes, save) in ops {
            let pid = Pid(slot);
            if save {
                bs.save(pid, bytes, bytes);
                model.insert(pid, bytes);
                hw = hw.max(model.values().sum());
            } else {
                let got = bs.restore(pid);
                prop_assert_eq!(got, model.remove(&pid));
            }
            prop_assert_eq!(bs.total_bytes(), model.values().sum::<u64>());
            prop_assert_eq!(bs.len(), model.len());
        }
        prop_assert_eq!(bs.high_water_bytes(), hw);
    }
}
