//! Multi-word regression for the engine's node sweep sets.
//!
//! The engine confines its periodic sweeps to bitsets of node ids, one bit
//! per node in 64-bit words. A 160-node cluster spans three words, so ids on
//! both sides of each word boundary are inserted, removed and iterated. The
//! runs are V-Reconfiguration with commit-aware placement on paper-sized
//! 384 MB nodes, so nodes block and the blocked set is exercised too; the
//! staggered run adds the path that re-queues held-back nodes for the next
//! refresh. In debug builds every settled refresh cross-checks the sets and
//! the incremental load index against a full rebuild. Each report's
//! `encode_report` digest is pinned: the sets must not change what the
//! engine does, only how fast it finds the nodes to visit.

use vr_simcore::hash::{fnv1a128, hex128};
use vr_workload::scale::ScaleSpec;
use vrecon::config::{LoadInfoMode, PlacementMode};
use vrecon::encode_report;
use vrecon_repro::prelude::*;

const NODES: usize = 160;

fn scale_run(load_info: LoadInfoMode) -> RunReport {
    let spec = ScaleSpec {
        horizon: SimSpan::from_secs(300),
        ..ScaleSpec::new(NODES, 600)
    }
    .with_node_memory(Bytes::from_mb(384))
    .with_utilization(0.9);
    let trace = spec.trace(&mut SimRng::seed_from(42));
    Simulation::new(
        SimConfig::new(spec.cluster(), PolicyKind::VReconfiguration)
            .with_seed(7)
            .with_placement(PlacementMode::CommitAware)
            .with_load_info(load_info),
    )
    .run(&trace)
}

fn check(report: &RunReport, digest: &str) {
    assert!(
        report.all_completed(),
        "{} jobs unfinished",
        report.unfinished_jobs
    );
    assert!(
        report.node_counters[128..].iter().any(|c| c.admitted > 0),
        "no job reached the third word of the sweep sets"
    );
    assert!(
        report.counters.blocking_detections > 0,
        "no node blocked: the blocked set was never exercised"
    );
    assert_eq!(hex128(fnv1a128(encode_report(report).as_bytes())), digest);
}

#[test]
fn multi_word_sweep_sets_global() {
    check(
        &scale_run(LoadInfoMode::Global),
        "f6c816a762516c82026e7a755b40ac52",
    );
}

#[test]
fn multi_word_sweep_sets_staggered() {
    check(
        &scale_run(LoadInfoMode::Staggered { groups: 3 }),
        "6ddcc28e626e201bdc8d8201d83aa6ad",
    );
}
