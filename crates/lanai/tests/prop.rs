//! Model-based property tests for the packet ring.

use lanai::queue::PacketRing;
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
enum Action {
    Push(u32),
    Pop,
    DrainAndReload,
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => any::<u32>().prop_map(Action::Push),
        2 => Just(Action::Pop),
        1 => Just(Action::DrainAndReload),
    ]
}

proptest! {
    /// The ring behaves exactly like a bounded FIFO model, including
    /// across drain/reload cycles (the buffer-switch path).
    #[test]
    fn ring_matches_bounded_fifo_model(
        cap in 1usize..64,
        actions in proptest::collection::vec(action(), 0..300),
    ) {
        let mut ring = PacketRing::new(cap);
        let mut model: VecDeque<u32> = VecDeque::new();
        for a in actions {
            match a {
                Action::Push(v) => {
                    let ok = ring.push(v).is_ok();
                    prop_assert_eq!(ok, model.len() < cap);
                    if ok {
                        model.push_back(v);
                    }
                }
                Action::Pop => {
                    prop_assert_eq!(ring.pop(), model.pop_front());
                }
                Action::DrainAndReload => {
                    let mut saved = Vec::new();
                    ring.drain_into(&mut saved);
                    prop_assert_eq!(&saved, &model.iter().copied().collect::<Vec<_>>());
                    ring.load_from(&mut saved);
                }
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.is_full(), model.len() == cap);
            prop_assert_eq!(ring.peek(), model.front());
        }
    }
}
