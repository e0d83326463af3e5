use cluster::measure::*;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher::CopyStrategy;
use sim_core::time::Cycles;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    if arg.is_empty() || arg == "fig5" {
        println!("== fig5: MB/s by (contexts, msgsize) ==");
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8] {
            let mut row = format!("n={n} (C0={}):", {
                let c = Measurement::fig5(n, 64, 10).seed(1).run();
                c.credits
            });
            for sz in [64u64, 1024, 16384, 65536] {
                let count = if sz <= 1024 { 2000 } else { 300 };
                let c = Measurement::fig5(n, sz, count).seed(1).run();
                row += &format!(" {:>7.2}", c.mbps);
            }
            println!("{row}");
        }
    }
    if arg.is_empty() || arg == "fig6" {
        println!("== fig6: total MB/s by (jobs, msgsize), quantum 100ms ==");
        for k in [1usize, 2, 4, 8] {
            let mut row = format!("k={k}:");
            for sz in [96u64, 1536, 24576, 98304] {
                let c = Measurement::fig6(k, sz, Cycles::from_ms(100), Cycles::from_ms(400))
                    .seed(1)
                    .run();
                row += &format!(" {:>7.2}", c.total_mbps);
            }
            println!("{row}");
        }
    }
    if arg.is_empty() || arg == "fig7" {
        println!("== fig7/8/9 by nodes ==");
        for nodes in [2usize, 4, 8, 16] {
            let full = Measurement::switch_overhead(
                nodes,
                CopyStrategy::Full,
                SwitchStrategy::GangFlush,
                6,
            )
            .seed(1)
            .run();
            let valid = Measurement::switch_overhead(
                nodes,
                CopyStrategy::ValidOnly,
                SwitchStrategy::GangFlush,
                6,
            )
            .seed(1)
            .run();
            let (h, b, r) = full.ledger.mean_stages();
            let (h2, b2, r2) = valid.ledger.mean_stages();
            println!("N={nodes:>2} full: halt={h:>9.0} bswitch={b:>10.0} release={r:>9.0} | valid: halt={h2:>9.0} bswitch={b2:>9.0} release={r2:>9.0} | occ send={:.1} recv={:.1}",
                valid.mean_send_valid, valid.mean_recv_valid);
        }
    }
}
