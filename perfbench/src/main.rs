//! `perfbench` — the repository benchmark described by `BENCHMARK.json`.
//!
//! One command per workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-traces|scale-wide|serve-whatif> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation
//! between the benchmark and the program. `--trace 1` is the separate
//! traced run: it records spans around the benchmark's own calls into each
//! layer and prints the per-layer metrics. Both print a human-readable
//! table (every metric with its unit and sample count) followed, as the
//! last line of standard output, by one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--seed` is the scheduler seed (default 7) and `--trace-seed` the seed
//! of the input traces and what-if specs (default 42), as in
//! `engine_bench`; only the defaults have report digests pinned in
//! `perfbench/reference.json`. A different `--seed` keeps each workload's
//! inputs the same size and shape but changes every random scheduling
//! decision (home nodes, the specs' scheduler seeds, the warm request
//! mix), so runs with different seeds measure comparable work.

mod calib;
mod engine;
mod heap;
mod layers;
mod serve;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use vr_simcore::jsonio::Json;

use crate::spans::Recorder;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("run_s", "s"), ("peak_heap_mb", "MB")];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// the workload does not exercise reports 0 (see `moves` in
/// `perfbench/reference.json` for which workload each metric describes).
pub const PER_LAYER: [(&str, &str); 56] = [
    ("workload.gen_s", "s"),
    ("workload.jobs", "count"),
    ("core.sim.run_s", "s"),
    ("core.sim.events", "count"),
    ("core.sim.sim_s", "sim-s"),
    ("core.sim.ns_per_event", "ns"),
    ("core.sim.trace_overhead_frac", "ratio"),
    ("core.sim.unattributed_frac", "ratio"),
    ("core.sim.placed", "count"),
    ("core.sim.blocked", "count"),
    ("core.sim.transits", "count"),
    ("core.sim.migrations", "count"),
    ("core.sim.blocking_detections", "count"),
    ("core.sim.reservations", "count"),
    ("core.sim.resizes", "count"),
    ("simcore.event.ops", "count"),
    ("simcore.event.ns_per_op", "ns"),
    ("simcore.event.est_s", "s"),
    ("cluster.node.advance_ns", "ns"),
    ("cluster.node.advance_calls_est", "count"),
    ("cluster.node.est_s", "s"),
    ("cluster.node.replay_paging_frac", "ratio"),
    ("cluster.loadinfo.refresh_ns_per_node", "ns"),
    ("cluster.loadinfo.query_ns", "ns"),
    ("cluster.loadinfo.est_s", "s"),
    ("metrics.sampler.samples", "count"),
    ("metrics.sampler.sample_ns", "ns"),
    ("metrics.sampler.est_s", "s"),
    ("core.plugin.place_ns.g-loadsharing", "ns"),
    ("core.plugin.place_ns.v-reconfiguration", "ns"),
    ("core.plugin.place_ns.malleable", "ns"),
    ("core.plugin.place_ns.fractional", "ns"),
    ("core.plugin.place_calls", "count"),
    ("core.plugin.est_s", "s"),
    ("core.report_json.bytes", "bytes"),
    ("core.report_json.encode_s", "s"),
    ("core.report_json.decode_s", "s"),
    ("runner.cache.store_ms", "ms"),
    ("runner.cache.lookup_raw_ms", "ms"),
    ("runner.scenario.hash_us", "us"),
    ("check.spec.parse_us", "us"),
    ("serve.server.hot_hit_ratio", "ratio"),
    ("serve.server.disk_hit_ratio", "ratio"),
    ("serve.server.sims_executed", "count"),
    ("serve.server.coalesced", "count"),
    ("serve.server.refused", "count"),
    ("serve.server.http_overhead_ms", "ms"),
    ("serve.loadgen.cold_p50_ms", "ms"),
    ("serve.loadgen.cold_p90_ms", "ms"),
    ("serve.loadgen.cold_samples", "count"),
    ("serve.loadgen.warm_p50_ms", "ms"),
    ("serve.loadgen.warm_p99_ms", "ms"),
    ("serve.loadgen.warm_samples", "count"),
    ("serve.loadgen.warm_goodput_qps", "1/s"),
    ("serve.loadgen.late_ms", "ms"),
    ("serve.loadgen.ladder_samples", "count"),
];

/// The benchmark's workloads (the `name`s in `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperTraces,
    ScaleWide,
    ServeWhatif,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-traces" => Some(Workload::PaperTraces),
            "scale-wide" => Some(Workload::ScaleWide),
            "serve-whatif" => Some(Workload::ServeWhatif),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTraces => "paper-traces",
            Workload::ScaleWide => "scale-wide",
            Workload::ServeWhatif => "serve-whatif",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    /// Scheduler seed (`--seed`).
    pub seed: u64,
    /// Seed of the input traces and what-if specs (`--trace-seed`).
    pub trace_seed: u64,
    /// Measurement budget of the run.
    pub seconds: f64,
    pub trace: bool,
    /// Self-test size: a subset (or a smaller cell) of each workload.
    pub tiny: bool,
    pub reference: PathBuf,
}

impl Args {
    /// `true` when both seeds are the pinned defaults.
    pub fn default_seeds(&self, reference: &Reference) -> bool {
        self.trace_seed == reference.trace_seed && self.seed == reference.sim_seed
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PaperTraces,
        seed: 7,
        trace_seed: 42,
        seconds: 10.0,
        trace: false,
        tiny: false,
        reference: PathBuf::from("perfbench/reference.json"),
    };
    // vr-lint::allow(env-read, reason = "the command line is the benchmark's only input")
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--trace-seed" => args.trace_seed = number()?,
            "--seconds" => args.seconds = number()?.max(1) as f64,
            "--trace" => args.trace = number()? != 0,
            "--reference" => args.reference = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Pinned expectations read from `perfbench/reference.json`.
pub struct Reference {
    pub trace_seed: u64,
    pub sim_seed: u64,
    /// `label -> hex digest of encode_report bytes`, default seeds only.
    pub digests: Vec<(String, String)>,
    /// Latency limit of the open-loop ladder (warm p99, ms).
    pub warm_p99_limit_ms: f64,
    /// Offered rates of the open-loop ladder, ascending.
    pub ladder_qps: Vec<f64>,
}

impl Reference {
    fn load(path: &std::path::Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let u = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("reference lacks {key}"))
        };
        let digests = match doc.get("digests") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_owned()))
                        .ok_or_else(|| format!("digest {k} is not a string"))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("reference lacks a digests object".into()),
        };
        let serve = doc.get("serve").ok_or("reference lacks serve")?;
        Ok(Reference {
            trace_seed: u("trace_seed")?,
            sim_seed: u("sim_seed")?,
            digests,
            warm_p99_limit_ms: serve
                .get("warm_p99_limit_ms")
                .and_then(Json::as_f64)
                .ok_or("reference lacks serve.warm_p99_limit_ms")?,
            ladder_qps: serve
                .get("ladder_qps")
                .and_then(Json::as_arr)
                .ok_or("reference lacks serve.ladder_qps")?
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
        })
    }

    /// The pinned digest for `label`, if any.
    pub fn digest(&self, label: &str) -> Option<&str> {
        self.digests
            .iter()
            .find(|(k, _)| k == label)
            .map(|(_, v)| v.as_str())
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// How many measurements the value summarises (1 for counts).
    pub samples: usize,
}

/// What a workload run produced: operations attempted and failed, the
/// metrics, and a description of each failure.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    /// Context printed above the metric table.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Counts one checked operation, recording `problem` if it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `values` (which need not be sorted); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Interpolated percentile `q` of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    vr_simcore::stats::percentile(&sorted, q)
}

/// Scratch directory for the run's spans and caches, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench/out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let reference = match Reference::load(&args.reference) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let recorder = args.trace.then(Recorder::new);
    let mut outcome = match args.workload {
        Workload::PaperTraces | Workload::ScaleWide => {
            engine::run(&args, &reference, recorder.as_ref())
        }
        Workload::ServeWhatif => serve::run(&args, &reference, recorder.as_ref()),
    };
    if !args.trace {
        outcome.note(format!("process VmHWM {:.1} MB", peak_rss_mb()));
        outcome.metric("peak_heap_mb", heap::peak_mb(), 1);
    }
    if let Some(rec) = &recorder {
        let path = out_dir().join(format!("{}-spans.json", args.workload.name()));
        match rec.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        rec.print_self_times();
    }

    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{:<42} {:>18} {:<6} samples", "metric", "value", "unit");
    for &(name, unit) in expected {
        let found: Vec<&Metric> = outcome.metrics.iter().filter(|m| m.name == name).collect();
        let [m] = found.as_slice() else {
            panic!("metric {name} emitted {} times", found.len());
        };
        println!("{name:<42} {:>18.6} {unit:<6} {}", m.value, m.samples);
        fields.push((
            name,
            Json::obj([("value", Json::f64(m.value)), ("unit", Json::str(unit))]),
        ));
    }
    assert_eq!(
        outcome.metrics.len(),
        expected.len(),
        "workload emitted a metric missing from the expected list"
    );
    for p in &outcome.problems {
        eprintln!("FAILED: {p}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::U64(outcome.attempted)),
            ("failed", Json::U64(outcome.failed)),
            ("metrics", Json::obj(fields)),
        ])
        .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
