//! Lightweight event tracing.
//!
//! Components emit categorized, timestamped records into a bounded ring;
//! tests and examples use it to inspect protocol interleavings (e.g. the
//! halt/ready broadcasts of the network flush). Disabled traces cost one
//! branch per call and never format their message.

use std::collections::VecDeque;
use std::fmt;

use crate::time::SimTime;

/// Trace record categories, one per subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Myrinet links and switches.
    Net,
    /// LANai NIC firmware.
    Nic,
    /// Host CPU / processes / signals.
    Host,
    /// FM library operations.
    Fm,
    /// Gang scheduler (masterd/noded).
    Gang,
    /// Context-switch phases (halt / buffer switch / release).
    Switch,
    /// Application programs.
    App,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Net => "net",
            Category::Nic => "nic",
            Category::Host => "host",
            Category::Fm => "fm",
            Category::Gang => "gang",
            Category::Switch => "switch",
            Category::App => "app",
        };
        f.write_str(s)
    }
}

/// One trace record.
#[derive(Debug, Clone)]
pub struct Record {
    /// When it happened.
    pub t: SimTime,
    /// Which subsystem emitted it.
    pub cat: Category,
    /// Emitting node, if meaningful.
    pub node: Option<usize>,
    /// Human-readable payload.
    pub msg: String,
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(f, "[{} {:>9} n{}] {}", self.cat, self.t, n, self.msg),
            None => write!(f, "[{} {:>9}] {}", self.cat, self.t, self.msg),
        }
    }
}

/// A bounded trace ring.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    capacity: usize,
    records: VecDeque<Record>,
    dropped: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::disabled()
    }
}

impl Trace {
    /// A trace that records nothing (the default).
    pub fn disabled() -> Self {
        Trace {
            enabled: false,
            capacity: 0,
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A trace that keeps the most recent `capacity` records.
    pub fn enabled(capacity: usize) -> Self {
        Trace {
            enabled: true,
            capacity,
            records: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// Emit a record. `msg` is only evaluated when enabled, so callers pass
    /// a closure.
    #[inline]
    pub fn emit(
        &mut self,
        t: SimTime,
        cat: Category,
        node: Option<usize>,
        msg: impl FnOnce() -> String,
    ) {
        if !self.enabled {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(Record {
            t,
            cat,
            node,
            msg: msg(),
        });
    }

    /// Records currently held (oldest first).
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.records.iter()
    }

    /// Records of a single category.
    pub fn by_category(&self, cat: Category) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(move |r| r.cat == cat)
    }

    /// How many records were evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop all records.
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.emit(SimTime(1), Category::Net, None, || {
            panic!("message must not be evaluated when disabled")
        });
        assert!(t.is_empty());
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Trace::enabled(3);
        for i in 0..5u64 {
            t.emit(SimTime(i), Category::Fm, Some(0), || format!("m{i}"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let msgs: Vec<_> = t.records().map(|r| r.msg.as_str()).collect();
        assert_eq!(msgs, vec!["m2", "m3", "m4"]);
    }

    #[test]
    fn category_filter() {
        let mut t = Trace::enabled(16);
        t.emit(SimTime(0), Category::Net, None, || "a".into());
        t.emit(SimTime(1), Category::Switch, Some(2), || "b".into());
        t.emit(SimTime(2), Category::Net, None, || "c".into());
        assert_eq!(t.by_category(Category::Net).count(), 2);
        assert_eq!(t.by_category(Category::Switch).count(), 1);
        assert_eq!(t.by_category(Category::App).count(), 0);
    }

    #[test]
    fn display_formats() {
        let r = Record {
            t: SimTime(200),
            cat: Category::Switch,
            node: Some(3),
            msg: "halt".into(),
        };
        let s = format!("{r}");
        assert!(s.contains("switch"), "{s}");
        assert!(s.contains("n3"), "{s}");
        assert!(s.contains("halt"), "{s}");
    }
}
