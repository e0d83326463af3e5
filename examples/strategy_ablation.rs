//! Ablation: the paper's gang-flush switch vs the §5 related-work
//! alternatives — SHARE-style discard (no flush, drop stragglers by ID)
//! and PM/SCore-style ack-drain (per-node quiescence, no broadcasts).
//!
//! ```text
//! cargo run --release --example strategy_ablation
//! ```

use cluster::measure::Measurement;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher::CopyStrategy;
use sim_core::report::Table;

fn main() {
    let strategies = [
        SwitchStrategy::GangFlush,
        SwitchStrategy::ShareDiscard,
        SwitchStrategy::AckDrain,
    ];
    let mut table = Table::new(
        "switch strategies on 8 nodes (all-to-all, valid-only copy, 6 switches)",
        &[
            "strategy",
            "halt cyc",
            "copy cyc",
            "release cyc",
            "total cyc",
            "dropped pkts",
        ],
    );
    for s in strategies {
        let r = Measurement::switch_overhead(8, CopyStrategy::ValidOnly, s, 6)
            .seed(21)
            .run();
        let (h, c, rel) = r.ledger.mean_stages();
        table.row(vec![
            s.name().into(),
            (h as u64).into(),
            (c as u64).into(),
            (rel as u64).into(),
            (r.ledger.mean_total() as u64).into(),
            r.drops.into(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "gang-flush pays the halt/ready broadcasts but never drops a\n\
         packet; SHARE-style switching is nearly free but discards whatever\n\
         was in flight (left to TCP/MPI retransmission on the real system);\n\
         ack-drain avoids broadcasts at the cost of an ack per data packet\n\
         and nacks for races. FM itself has no retransmission, which is why\n\
         the paper's design insists on the flush (§2.2, §5)."
    );
}
