//! `scale_bench` — scale-out benchmark suite behind `BENCH_scale.json`.
//!
//! Runs a nodes × jobs grid of [`ScaleSpec`] scenarios (cluster 1 node
//! type, V-Reconfiguration, scheduler seed 7, trace seed 42) from the
//! paper's 32-node origin up to 10,000 nodes / 1,000,000 jobs, and records
//! engine throughput at each cell. This is where the O(log n) placement
//! index earns its keep: with the old full-rebuild load index the top cell
//! does quadratic work and does not finish in any reasonable time.
//!
//! Modes:
//!
//! * `scale_bench --out BENCH_scale.json` — measure the full grid and
//!   write the JSON artifact (the committed scale baseline).
//! * `scale_bench --check BENCH_scale.json [--tolerance 0.25]` — measure
//!   again and gate: deterministic fields (engine events, completed jobs,
//!   blocking detections) must match *exactly*; `events_per_sec` may not
//!   regress by more than the tolerance. Exits non-zero on violation — the
//!   CI `bench-gate` entry point.
//! * `scale_bench --smoke --budget-secs 120` — run only the 1k-node /
//!   100k-job cell and fail if it misses the wall-clock budget. The CI
//!   `scale-smoke` entry point; no baseline required.

use std::time::Instant;

use vr_simcore::jsonio::Json;
use vr_simcore::rng::SimRng;
use vr_workload::scale::ScaleSpec;
use vrecon::config::{PlacementMode, SimConfig};
use vrecon::policy::PolicyKind;
use vrecon::sim::Simulation;

use vr_bench::{SIM_SEED, TRACE_SEED};

/// Schema version of `BENCH_scale.json`.
const SCHEMA: u64 = 1;
/// Default allowed relative `events_per_sec` regression in `--check` mode.
/// Looser than `engine_bench`'s 0.10: grid cells run once (the top cell is
/// too large for best-of-N), so single-run scheduler noise must fit inside.
const DEFAULT_TOLERANCE: f64 = 0.25;

/// The nodes × jobs grid. The first cell overlaps `engine_bench` scale;
/// the last is ROADMAP item 2's thousands-of-nodes / million-job target.
const GRID: [(usize, usize); 3] = [(128, 10_000), (1024, 100_000), (10_000, 1_000_000)];

/// The cell the CI `scale-smoke` job runs under a wall-clock budget.
const SMOKE_CELL: (usize, usize) = (1024, 100_000);

/// One grid cell's measurements.
struct CellResult {
    nodes: usize,
    jobs: usize,
    trace_name: String,
    engine_events: u64,
    completed: u64,
    blocking_detections: u64,
    wall_secs: f64,
    events_per_sec: f64,
}

fn measure(nodes: usize, jobs: usize) -> CellResult {
    let spec = ScaleSpec::new(nodes, jobs);
    let trace = spec.trace(&mut SimRng::seed_from(TRACE_SEED));
    let config = SimConfig::new(spec.cluster(), PolicyKind::VReconfiguration)
        .with_seed(SIM_SEED)
        .with_placement(PlacementMode::CommitAware);
    let sim = Simulation::new(config);
    let started = Instant::now();
    let report = sim.run(&trace);
    let wall_secs = started.elapsed().as_secs_f64();
    let engine_events = report.run_stats.events_processed;
    CellResult {
        nodes,
        jobs,
        trace_name: trace.name.clone(),
        engine_events,
        completed: (report.summary.jobs - report.unfinished_jobs) as u64,
        blocking_detections: report.counters.blocking_detections,
        wall_secs,
        events_per_sec: if wall_secs > 0.0 {
            engine_events as f64 / wall_secs
        } else {
            0.0
        },
    }
}

fn to_json(results: &[CellResult]) -> Json {
    Json::obj([
        ("schema", Json::U64(SCHEMA)),
        (
            "scenario",
            Json::obj([
                ("generator", Json::str("scale")),
                ("node_type", Json::str("cluster1")),
                ("policy", Json::str("vrecon")),
                ("seed", Json::U64(SIM_SEED)),
                ("trace_seed", Json::U64(TRACE_SEED)),
            ]),
        ),
        (
            "cells",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("nodes", Json::U64(r.nodes as u64)),
                            ("jobs", Json::U64(r.jobs as u64)),
                            ("trace", Json::str(r.trace_name.clone())),
                            ("engine_events", Json::U64(r.engine_events)),
                            ("completed", Json::U64(r.completed)),
                            ("blocking_detections", Json::U64(r.blocking_detections)),
                            ("wall_secs", Json::f64(r.wall_secs)),
                            ("events_per_sec", Json::f64(r.events_per_sec)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Compares fresh results against a parsed baseline document. Returns the
/// list of violations (empty = gate passes).
fn check(results: &[CellResult], baseline: &Json, tolerance: f64) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(cells) = baseline.get("cells").and_then(Json::as_arr) else {
        return vec!["baseline has no `cells` array".to_owned()];
    };
    if cells.len() != results.len() {
        problems.push(format!(
            "baseline has {} cells, measured {}",
            cells.len(),
            results.len()
        ));
    }
    for r in results {
        let label = format!("{}x{}", r.nodes, r.jobs);
        let Some(base) = cells.iter().find(|c| {
            c.get("nodes").and_then(Json::as_u64) == Some(r.nodes as u64)
                && c.get("jobs").and_then(Json::as_u64) == Some(r.jobs as u64)
        }) else {
            problems.push(format!("cell {label}: missing from baseline"));
            continue;
        };
        let exact_u64 = |field: &str, got: u64, problems: &mut Vec<String>| match base
            .get(field)
            .and_then(Json::as_u64)
        {
            Some(want) if want == got => {}
            Some(want) => problems.push(format!(
                "cell {label}: {field} changed: baseline {want}, measured {got}"
            )),
            None => problems.push(format!("cell {label}: baseline lacks {field}")),
        };
        exact_u64("engine_events", r.engine_events, &mut problems);
        exact_u64("completed", r.completed, &mut problems);
        exact_u64("blocking_detections", r.blocking_detections, &mut problems);
        match base.get("events_per_sec").and_then(Json::as_f64) {
            Some(base_rate) => {
                let floor = base_rate * (1.0 - tolerance);
                if r.events_per_sec < floor {
                    problems.push(format!(
                        "cell {label}: throughput regressed beyond {:.0}%: baseline {:.0} ev/s, \
                         measured {:.0} ev/s (floor {:.0})",
                        tolerance * 100.0,
                        base_rate,
                        r.events_per_sec,
                        floor
                    ));
                }
            }
            None => problems.push(format!("cell {label}: baseline lacks events_per_sec")),
        }
    }
    problems
}

struct Cli {
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
    smoke: bool,
    budget_secs: Option<f64>,
    cell: Option<(usize, usize)>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        out: None,
        check: None,
        tolerance: DEFAULT_TOLERANCE,
        smoke: false,
        budget_secs: None,
        cell: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => cli.out = args.next(),
            "--check" => cli.check = args.next(),
            "--tolerance" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if (0.0..1.0).contains(&t) => cli.tolerance = t,
                _ => die("--tolerance requires a value in [0, 1)"),
            },
            "--smoke" => cli.smoke = true,
            "--budget-secs" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(b) if b > 0.0 => cli.budget_secs = Some(b),
                _ => die("--budget-secs requires a positive number"),
            },
            "--cell" => {
                let parsed = args.next().and_then(|v| {
                    let (n, m) = v.split_once(',')?;
                    Some((n.parse().ok()?, m.parse().ok()?))
                });
                match parsed {
                    Some((n, m)) if n > 0 && m > 0 => cli.cell = Some((n, m)),
                    _ => die("--cell requires NODES,JOBS with both positive"),
                }
            }
            other => die(&format!(
                "unknown argument {other}; supported: --out FILE, --check FILE, \
                 --tolerance T, --smoke, --budget-secs S, --cell NODES,JOBS"
            )),
        }
    }
    if cli.budget_secs.is_some() && !cli.smoke {
        die("--budget-secs only applies to --smoke mode");
    }
    if cli.smoke && cli.cell.is_some() {
        die("--smoke and --cell are mutually exclusive");
    }
    if cli.out.is_none() && cli.check.is_none() && !cli.smoke && cli.cell.is_none() {
        cli.out = Some("BENCH_scale.json".to_owned());
    }
    cli
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn main() {
    let cli = parse_cli();
    let one_cell;
    let grid: &[(usize, usize)] = if cli.smoke {
        &[SMOKE_CELL]
    } else if let Some(cell) = cli.cell {
        one_cell = [cell];
        &one_cell
    } else {
        &GRID
    };
    let mut results = Vec::new();
    for &(nodes, jobs) in grid {
        let r = measure(nodes, jobs);
        eprintln!(
            "{} ({} nodes, {} jobs): {} events in {:.3}s = {:.0} events/sec, \
             {} completed, {} blocking detections",
            r.trace_name,
            r.nodes,
            r.jobs,
            r.engine_events,
            r.wall_secs,
            r.events_per_sec,
            r.completed,
            r.blocking_detections
        );
        results.push(r);
    }

    if cli.smoke {
        if let Some(budget) = cli.budget_secs {
            let wall = results[0].wall_secs;
            if wall > budget {
                eprintln!("scale smoke FAILED: {wall:.1}s exceeds the {budget:.1}s budget");
                std::process::exit(1);
            }
            println!("scale smoke passed: {wall:.1}s within the {budget:.1}s budget");
        }
    }

    if let Some(path) = &cli.out {
        let mut text = to_json(&results).render();
        text.push('\n');
        if let Err(e) = std::fs::write(path, &text) {
            die(&format!("cannot write {path}: {e}"));
        }
        println!("wrote {path}");
    }

    if let Some(path) = &cli.check {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => die(&format!("cannot read baseline {path}: {e}")),
        };
        let baseline = match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => die(&format!("baseline {path} is not valid JSON: {e}")),
        };
        let problems = check(&results, &baseline, cli.tolerance);
        if problems.is_empty() {
            println!(
                "scale gate passed: {} cells within {:.0}% of {path}",
                results.len(),
                cli.tolerance * 100.0
            );
        } else {
            for p in &problems {
                eprintln!("scale gate: {p}");
            }
            eprintln!("scale gate FAILED: {} violation(s)", problems.len());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline the CI gate checks against.
    const BASELINE: &str = include_str!("../../../../BENCH_scale.json");

    /// Results that reproduce `doc` exactly, as a run matching it would.
    fn results_of(doc: &Json) -> Vec<CellResult> {
        let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
        cells
            .iter()
            .map(|c| {
                let u = |field: &str| c.get(field).and_then(Json::as_u64).unwrap();
                let f = |field: &str| c.get(field).and_then(Json::as_f64).unwrap();
                CellResult {
                    nodes: u("nodes") as usize,
                    jobs: u("jobs") as usize,
                    trace_name: c.get("trace").and_then(Json::as_str).unwrap().to_owned(),
                    engine_events: u("engine_events"),
                    completed: u("completed"),
                    blocking_detections: u("blocking_detections"),
                    wall_secs: f("wall_secs"),
                    events_per_sec: f("events_per_sec"),
                }
            })
            .collect()
    }

    /// `doc` with the counter at `path` (object keys, array indices) one
    /// higher.
    fn bumped(doc: &Json, path: &[&str]) -> Json {
        let mut doc = doc.clone();
        let mut node = &mut doc;
        for key in path {
            node = match node {
                Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
                Json::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
                other => panic!("cannot descend into {other:?}"),
            };
        }
        let Json::U64(n) = node else {
            panic!("{path:?} is not a counter");
        };
        *n += 1;
        doc
    }

    #[test]
    fn unperturbed_baseline_passes() {
        let doc = Json::parse(BASELINE).unwrap();
        assert_eq!(
            check(&results_of(&doc), &doc, DEFAULT_TOLERANCE),
            Vec::<String>::new()
        );
    }

    #[test]
    fn each_perturbed_exact_counter_is_a_violation() {
        let doc = Json::parse(BASELINE).unwrap();
        let results = results_of(&doc);
        assert_eq!(results.len(), GRID.len());
        for cell in 0..results.len() {
            for field in ["engine_events", "completed", "blocking_detections"] {
                let path = ["cells", &cell.to_string(), field];
                let problems = check(&results, &bumped(&doc, &path), DEFAULT_TOLERANCE);
                assert_eq!(problems.len(), 1, "cell {cell} {field}: {problems:?}");
            }
        }
    }
}
