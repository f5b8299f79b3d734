//! The benchmark's own self-test, at `--tiny` size. Run it with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! * every workload, traced and untraced, at the default and the
//!   held-back seed, runs clean and prints exactly the metric names and
//!   units `BENCHMARK.json` declares;
//! * every per-layer metric has a rationale in `perfbench/reference.json`;
//! * a deliberately wrong pinned digest makes the run fail, so the gate
//!   cannot be satisfied by moving its reference.

use std::path::{Path, PathBuf};
use std::process::Command;

use vr_simcore::jsonio::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark() -> Json {
    load(&repo_root().join("BENCHMARK.json"))
}

fn reference_path() -> PathBuf {
    repo_root().join("perfbench/reference.json")
}

/// Runs the benchmark binary from the repository root; returns whether it
/// exited 0 and its last stdout line parsed as JSON.
fn run(args: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).unwrap_or_else(|e| {
        panic!(
            "last line of {args:?} is not JSON ({e}): {last:?}\nstderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), result)
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark()
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit are strings")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    benchmark()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_owned()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_runs_clean_and_prints_the_declared_metrics() {
    let held_back = load(&reference_path())
        .get("held_back_seed")
        .and_then(Json::as_u64)
        .expect("reference names a held-back seed")
        .to_string();
    for workload in workloads() {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let expected = declared(list);
            for seed in ["7", held_back.as_str()] {
                let args = [
                    "--workload",
                    &workload,
                    "--seed",
                    seed,
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--tiny",
                ];
                let (ok, result) = run(&args);
                assert!(ok, "{args:?} failed: {}", result.render());
                assert_eq!(
                    result.get("correct").and_then(Json::as_bool),
                    Some(true),
                    "{args:?}"
                );
                assert_eq!(
                    result.get("failed").and_then(Json::as_u64),
                    Some(0),
                    "{args:?}"
                );
                assert!(
                    result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
                    "{args:?}"
                );
                let Some(Json::Obj(metrics)) = result.get("metrics") else {
                    panic!("{args:?}: no metrics object");
                };
                let printed: Vec<(String, String)> = metrics
                    .iter()
                    .map(|(name, m)| {
                        assert!(
                            m.get("value").and_then(Json::as_f64).is_some(),
                            "{name} has no value"
                        );
                        (
                            name.clone(),
                            m.get("unit")
                                .and_then(Json::as_str)
                                .unwrap_or("")
                                .to_owned(),
                        )
                    })
                    .collect();
                assert_eq!(
                    printed, expected,
                    "{args:?}: names or units differ from BENCHMARK.json"
                );
                for (name, unit) in &printed {
                    assert!(valid_name(name), "bad metric name {name:?}");
                    assert!(!unit.is_empty(), "{name} has no unit");
                }
            }
        }
    }
}

#[test]
fn every_per_layer_metric_has_a_rationale() {
    let reference = load(&reference_path());
    let Some(Json::Obj(moves)) = reference.get("moves") else {
        panic!("reference.json lacks a moves object");
    };
    for (name, _) in declared("per_layer") {
        let covered = moves
            .iter()
            .any(|(key, _)| name == *key || name.starts_with(&format!("{key}.")));
        assert!(
            covered,
            "per-layer metric {name} has no entry in reference.json moves"
        );
    }
    for (key, why) in moves {
        for field in ["metric", "workloads", "why"] {
            assert!(why.get(field).is_some(), "moves.{key} lacks {field}");
        }
    }
}

#[test]
fn a_wrong_pinned_digest_fails_the_run() {
    let text = std::fs::read_to_string(reference_path()).expect("reference readable");
    let reference = Json::parse(&text).expect("reference parses");
    let Some(Json::Obj(digests)) = reference.get("digests") else {
        panic!("reference.json lacks digests");
    };
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for (workload, label) in [
        ("paper-traces", "paper-traces/L1/g-loadsharing"),
        ("scale-wide", "scale-wide/256x2000/v-reconfiguration"),
        ("serve-whatif", "serve-whatif/12-specs"),
    ] {
        let pinned = digests
            .iter()
            .find(|(k, _)| k == label)
            .and_then(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("no pinned digest for {label}"));
        let wrong = tmp.join(format!("reference-wrong-{workload}.json"));
        std::fs::write(&wrong, text.replace(pinned, &"0".repeat(pinned.len())))
            .expect("temp file writable");
        let args = [
            "--workload",
            workload,
            "--seconds",
            "1",
            "--trace",
            "0",
            "--tiny",
            "--reference",
            wrong.to_str().expect("utf-8 path"),
        ];
        let (ok, result) = run(&args);
        assert!(!ok, "{workload} passed against a wrong digest");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
        assert!(result.get("failed").and_then(Json::as_u64).unwrap_or(0) >= 1);
    }
}
