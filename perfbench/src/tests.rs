//! The benchmark's own checks: layer attribution is total, the traced
//! step loop changes nothing the simulation computes, the hand-built
//! serving cell is the packaged one, and `BENCHMARK.json` names exactly the
//! metrics the program prints.

use cluster::event::KIND_NAMES;

use crate::metrics::{self, RunCounts};
use crate::traced::{self, Recorder, LAYERS};
use crate::workload::{check, Scale, Workload};

#[test]
fn every_event_kind_maps_to_exactly_one_layer() {
    for kind in KIND_NAMES {
        let owners: Vec<_> = LAYERS
            .iter()
            .filter(|(_, kinds)| kinds.contains(kind))
            .map(|(layer, _)| *layer)
            .collect();
        assert_eq!(owners.len(), 1, "kind {kind} is owned by {owners:?}");
    }
    for (layer, kinds) in LAYERS {
        for kind in *kinds {
            assert!(
                KIND_NAMES.contains(kind),
                "layer {layer} lists unknown kind {kind}"
            );
        }
    }
}

/// Run `w`'s first small input untraced and traced; both must reach the
/// end condition with identical fingerprints. The untraced side is the
/// library's own run helper, so for `pairs64_stream` it is
/// `Sim::run_until_jobs_done`.
fn traced_matches_untraced(w: Workload) -> (RunCounts, Recorder) {
    let seed = w.inputs(7, Scale::Small)[0];
    let mut plain = w.prepare(seed, Scale::Small);
    plain.run();
    assert!(check(&plain).is_empty(), "{:?}", check(&plain));

    let mut rec = Recorder::new(7);
    let mut traced_run = w.prepare(seed, Scale::Small);
    traced::run_traced(&mut traced_run, &mut rec, 0);
    assert!(check(&traced_run).is_empty(), "{:?}", check(&traced_run));
    assert_eq!(
        plain.sim.logical_fingerprint(),
        traced_run.sim.logical_fingerprint(),
        "{}",
        w.name()
    );
    assert_eq!(
        plain.sim.engine.stream_digest(),
        traced_run.sim.engine.stream_digest(),
        "{}",
        w.name()
    );
    assert!(rec.sampled.iter().sum::<u64>() > 0, "nothing was sampled");
    (RunCounts::of(&traced_run.sim), rec)
}

#[test]
fn traced_loop_reproduces_every_workload() {
    for w in Workload::ALL {
        traced_matches_untraced(w);
    }
}

#[test]
fn hand_built_serving_cell_is_the_packaged_one() {
    let w = Workload::ServeGang12;
    let seed = w.inputs(3, Scale::Small)[0];
    let mut p = w.prepare(seed, Scale::Small);
    p.run();
    assert_eq!(
        Some(p.sim.logical_fingerprint()),
        w.reference_fingerprint(seed, Scale::Small)
    );
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for w in Workload::ALL {
        assert_eq!(w.inputs(5, Scale::Full), w.inputs(5, Scale::Full));
        assert_ne!(w.inputs(5, Scale::Full), w.inputs(6, Scale::Full));
    }
}

/// The `name` fields of one metric list in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.trim_start().trim_start_matches('"'))
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_the_per_layer_metrics_printed() {
    let (counts, rec) = traced_matches_untraced(Workload::GangRotate256);
    let printed: Vec<String> = metrics::per_layer(&[&counts], &rec, 1.0, 1.0, 0.0, 0.0)
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(listed("per_layer"), printed);
}

#[test]
fn benchmark_json_lists_the_end_to_end_metrics_printed() {
    let names: Vec<_> = crate::END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    assert_eq!(listed("end_to_end"), names);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(metrics::tail(&v), 90.0);
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(metrics::tail(&v), 990.0);
    // Too few samples for p90: the median stands in.
    let v: Vec<f64> = (1..=9).map(f64::from).collect();
    assert_eq!(metrics::tail(&v), 5.0);
}
