//! The engine workloads, `paper-traces` and `scale-wide`, and the engine
//! layer profile every workload's traced run reports.

use std::collections::BTreeMap;
use std::sync::Arc;

use vr_cluster::job::MalleableSpec;
use vr_cluster::params::ClusterParams;
use vr_runner::{ResultCache, Scenario};
use vr_serve::clock::Stopwatch;
use vr_simcore::hash::{fnv1a128, hex128};
use vr_simcore::rng::SimRng;
use vr_simcore::time::SimSpan;
use vr_workload::scale::ScaleSpec;
use vr_workload::trace::{spec_trace_scaled, Trace, TraceLevel, SPEC_LIFETIME_SCALE};
use vrecon::config::{PlacementMode, SimConfig};
use vrecon::plugin::ParamBag;
use vrecon::PolicyKind;
use vrecon::{decode_report, encode_report, RunReport, Simulation};

use crate::calib::{Calibration, KERNELS_PER_PASS};
use crate::layers::{self, NodeCosts};
use crate::spans::{traced, Recorder, SpanId};
use crate::{median, Args, Outcome, Reference, Workload};

// vr-analyze::rng-authority(reason = "the benchmark roots each workload's input traces at its --trace-seed, as engine_bench does")

/// How many times set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 201;
/// Submission window of the `scale-wide` cell, in seconds.
const SCALE_HORIZON_S: u64 = 1200;
/// Most cases whose layer costs are replayed in one traced run.
const MAX_REPLAYS: usize = 12;

/// One simulation scenario of a workload.
pub struct Case {
    /// `<workload>/<input>/<policy>`; keys the pinned digest.
    pub label: String,
    /// Registry name of the case's policy.
    pub policy: &'static str,
    pub sim: Simulation,
    pub trace: Arc<Trace>,
}

impl Case {
    pub fn new(label: String, policy: &'static str, config: SimConfig, trace: Arc<Trace>) -> Case {
        Case {
            label,
            policy,
            sim: Simulation::new(config),
            trace,
        }
    }

    pub fn config(&self) -> &SimConfig {
        self.sim.config()
    }
}

/// Hex digest of a report's canonical encoding.
pub fn digest(encoded: &str) -> String {
    hex128(fnv1a128(encoded.as_bytes()))
}

/// The paper's Figure 1 matrix on the 32-node cluster 1: SPEC traces L1–L5
/// under G-Loadsharing and V-Reconfiguration, plus the malleable and
/// fractional rows on L3. `--tiny` keeps the two L1 rows.
fn paper_cases(trace_seed: u64, sim_seed: u64, tiny: bool) -> Vec<Case> {
    let levels: &[TraceLevel] = if tiny {
        &[TraceLevel::Light]
    } else {
        &[
            TraceLevel::Light,
            TraceLevel::Moderate,
            TraceLevel::Normal,
            TraceLevel::ModeratelyIntensive,
            TraceLevel::HighlyIntensive,
        ]
    };
    let case = |level: TraceLevel, policy: &(&'static str, PolicyKind, ParamBag), trace| {
        let (name, kind, params) = policy;
        let config = SimConfig::new(ClusterParams::cluster1(), *kind)
            .with_policy_params(params.clone())
            .with_seed(sim_seed);
        Case::new(
            format!("paper-traces/L{}/{name}", level.number()),
            name,
            config,
            trace,
        )
    };
    let [gls, vr, malleable, fractional] = layers::policies();
    let mut cases = Vec::new();
    for &level in levels {
        let trace = Arc::new(spec_trace_scaled(
            level,
            &mut SimRng::seed_from(trace_seed),
            SPEC_LIFETIME_SCALE,
        ));
        cases.push(case(level, &gls, Arc::clone(&trace)));
        cases.push(case(level, &vr, Arc::clone(&trace)));
        if level == TraceLevel::Normal {
            let mut annotated = (*trace).clone();
            for job in annotated.jobs.iter_mut().step_by(2) {
                job.malleable = Some(MalleableSpec {
                    min_width: 1,
                    max_width: 2,
                });
            }
            cases.push(case(level, &malleable, Arc::new(annotated)));
            cases.push(case(level, &fractional, trace));
        }
    }
    cases
}

/// One `ScaleSpec` cell under V-Reconfiguration with commit-aware
/// placement: 2048 nodes × 6000 jobs, or 256 × 2000 with `--tiny`,
/// submitted over [`SCALE_HORIZON_S`]. Run time tracks nodes × simulated
/// seconds, so the short window keeps the per-node sweeps dominant at
/// ~1 s a run, and one measurement fits enough runs to be steady.
fn scale_cases(trace_seed: u64, sim_seed: u64, tiny: bool) -> Vec<Case> {
    let (nodes, jobs) = if tiny { (256, 2000) } else { (2048, 6_000) };
    let spec = ScaleSpec {
        horizon: SimSpan::from_secs(SCALE_HORIZON_S),
        ..ScaleSpec::new(nodes, jobs)
    };
    let trace = Arc::new(spec.trace(&mut SimRng::seed_from(trace_seed)));
    let config = SimConfig::new(spec.cluster(), PolicyKind::VReconfiguration)
        .with_seed(sim_seed)
        .with_placement(PlacementMode::CommitAware);
    vec![Case::new(
        format!("scale-wide/{nodes}x{jobs}/v-reconfiguration"),
        "v-reconfiguration",
        config,
        trace,
    )]
}

/// Checks one run's report: it drained with every job complete and no
/// audit violation, re-encodes identically after a decode (first pass
/// only), and its digest equals `expected` when one is known.
pub fn check_report(
    label: &str,
    report: &RunReport,
    encoded: &str,
    expected: Option<&str>,
    round_trip: bool,
) -> Option<String> {
    if !report.run_stats.drained || !report.all_completed() {
        return Some(format!(
            "{label}: run did not drain ({} jobs unfinished)",
            report.unfinished_jobs
        ));
    }
    if let Some(v) = report.audit_violations.first() {
        return Some(format!("{label}: audit violation: {v}"));
    }
    let got = digest(encoded);
    if let Some(want) = expected {
        if got != want {
            return Some(format!("{label}: report digest {got}, expected {want}"));
        }
    }
    if round_trip {
        match decode_report(encoded) {
            Ok(decoded) if encode_report(&decoded) == encoded => {}
            Ok(_) => return Some(format!("{label}: report does not re-encode identically")),
            Err(e) => return Some(format!("{label}: report does not decode: {e}")),
        }
    }
    None
}

/// Runs `paper-traces` or `scale-wide`.
pub fn run(args: &Args, reference: &Reference, rec: Option<&Recorder>) -> Outcome {
    let build = || match args.workload {
        Workload::ScaleWide => scale_cases(args.trace_seed, args.seed, args.tiny),
        _ => paper_cases(args.trace_seed, args.seed, args.tiny),
    };
    let mut cal = Calibration::default();
    let mut setup = Vec::new();
    let mut cases = Vec::new();
    let mut set_up = || {
        traced(rec, "workload.setup", None, |_| {
            for _ in 0..SETUP_REPEATS {
                let started = Stopwatch::start();
                cases = build();
                setup.push(started.elapsed_secs());
            }
        })
    };
    let setup_kernel = match rec {
        None => cal.bracket(set_up).1,
        Some(_) => {
            set_up();
            0.0
        }
    };
    let pinned: Vec<Option<&str>> = cases
        .iter()
        .map(|c| {
            args.default_seeds(reference)
                .then(|| reference.digest(&c.label))
                .flatten()
        })
        .collect();
    let mut outcome = Outcome::default();
    let digests = match rec {
        None => {
            let passes = untraced_passes(
                &cases,
                &pinned,
                args.seconds,
                &mut outcome,
                Some(&mut cal),
                None,
            );
            let kernel = cal.median_s();
            outcome.note(format!(
            "raw: setup {:.6} s, pass {:.4} s (median of {}); calibration kernel {:.2} ms (median of {})",
            median(&setup),
            median(&passes.raw),
            passes.raw.len(),
            kernel * 1e3,
            cal.len()
        ));
            outcome.metric(
                "setup_s",
                Calibration::normalise(median(&setup), setup_kernel),
                setup.len(),
            );
            outcome.metric("run_s", median(&passes.calibrated), passes.calibrated.len());
            passes.digests
        }
        Some(rec) => {
            let jobs: usize = cases.iter().map(|c| c.trace.len()).sum::<usize>();
            outcome.metric("workload.gen_s", median(&setup), setup.len());
            outcome.metric("workload.jobs", jobs as f64, 1);
            for name in SERVE_ONLY {
                outcome.metric(name, 0.0, 0);
            }
            profile(&cases, &pinned, args.seconds / 2.0, rec, &mut outcome)
        }
    };
    if args.default_seeds(reference) {
        for ((case, pin), got) in cases.iter().zip(&pinned).zip(&digests) {
            if pin.is_none() {
                outcome.check(Some(format!(
                    "{}: no pinned digest for the default seeds (got {got})",
                    case.label
                )));
            }
        }
    }
    outcome
}

/// Per-layer metrics that only `serve-whatif` exercises; the engine
/// workloads report them as 0.
const SERVE_ONLY: [&str; 16] = [
    "check.spec.parse_us",
    "serve.server.hot_hit_ratio",
    "serve.server.disk_hit_ratio",
    "serve.server.sims_executed",
    "serve.server.coalesced",
    "serve.server.refused",
    "serve.server.http_overhead_ms",
    "serve.loadgen.cold_p50_ms",
    "serve.loadgen.cold_p90_ms",
    "serve.loadgen.cold_samples",
    "serve.loadgen.warm_p50_ms",
    "serve.loadgen.warm_p99_ms",
    "serve.loadgen.warm_samples",
    "serve.loadgen.warm_goodput_qps",
    "serve.loadgen.late_ms",
    "serve.loadgen.ladder_samples",
];

/// What [`untraced_passes`] measured.
pub struct Passes {
    /// Simulation wall time of each pass (the checks are not timed).
    pub raw: Vec<f64>,
    /// Each pass's wall time calibrated by the kernel runs around its cases
    /// (empty without calibration).
    pub calibrated: Vec<f64>,
    /// Each case's report digest.
    pub digests: Vec<String>,
}

/// Untraced passes over every case, each run checked against its pin (or,
/// without one, against the first pass). With `cal`, kernel batches run
/// before the first case and after every case. Runs passes until the next
/// one would overrun `budget_s`, at least one.
pub fn untraced_passes(
    cases: &[Case],
    pinned: &[Option<&str>],
    budget_s: f64,
    outcome: &mut Outcome,
    mut cal: Option<&mut Calibration>,
    rec: Option<(&Recorder, Option<SpanId>)>,
) -> Passes {
    let started = Stopwatch::start();
    let mut first: Vec<Option<String>> = vec![None; cases.len()];
    let mut passes = Passes {
        raw: Vec::new(),
        calibrated: Vec::new(),
        digests: Vec::new(),
    };
    // Each pass is calibrated by the kernel batch before its first case
    // (the previous pass's last batch) and the batches after its cases.
    let per_case = KERNELS_PER_PASS.div_ceil(cases.len());
    let batch = |cal: &mut Option<&mut Calibration>| {
        cal.as_mut().map_or_else(Vec::new, |c| c.batch(per_case))
    };
    let mut before = batch(&mut cal);
    loop {
        let mut pass = 0.0;
        let mut kernels = before.clone();
        for (i, case) in cases.iter().enumerate() {
            let run_started = Stopwatch::start();
            let report = match rec {
                Some((r, parent)) => r.span("core.sim.run", parent, |_| case.sim.run(&case.trace)),
                None => case.sim.run(&case.trace),
            };
            pass += run_started.elapsed_secs();
            before = batch(&mut cal);
            kernels.extend(&before);
            let encoded = encode_report(&report);
            let expected = pinned[i].or(first[i].as_deref());
            outcome.check(check_report(
                &case.label,
                &report,
                &encoded,
                expected,
                first[i].is_none(),
            ));
            if first[i].is_none() {
                first[i] = Some(digest(&encoded));
            }
        }
        passes.raw.push(pass);
        if !kernels.is_empty() {
            let mean_kernel = kernels.iter().sum::<f64>() / kernels.len() as f64;
            passes
                .calibrated
                .push(Calibration::normalise(pass, mean_kernel));
        }
        let used = started.elapsed_secs();
        if used + used / passes.raw.len() as f64 > budget_s {
            passes.digests = first.into_iter().flatten().collect();
            return passes;
        }
    }
}

/// Exact work counts of one traced run plus its replayed costs.
struct CaseProfile {
    events: u64,
    sim_s: f64,
    samples: u64,
    exchanges: u64,
    /// Nodes hosting work at mean occupancy, `min(nodes, resident jobs)`:
    /// what each sample advances and each exchange recaptures.
    hosting: f64,
    kinds: BTreeMap<&'static str, u64>,
    report: RunReport,
    costs: NodeCosts,
    event_ns: f64,
}

impl CaseProfile {
    fn kind(&self, token: &str) -> u64 {
        self.kinds.get(token).copied().unwrap_or(0)
    }
    fn place_calls(&self) -> u64 {
        self.kind("placed") + self.kind("blocked")
    }
}

/// The engine-layer half of a traced run over `cases`: untraced passes for
/// `core.sim.run_s`, one traced pass for the exact work counts, replays
/// for each layer's cost per call, and the report, cache and scenario-hash
/// layers on the produced reports. Emits every engine-layer metric of
/// [`crate::PER_LAYER`] into `outcome`. Returns each case's report digest.
pub fn profile(
    cases: &[Case],
    pinned: &[Option<&str>],
    budget_s: f64,
    rec: &Recorder,
    outcome: &mut Outcome,
) -> Vec<String> {
    let Passes {
        raw: passes,
        digests,
        ..
    } = rec.span("perfbench.untraced_passes", None, |id| {
        untraced_passes(
            cases,
            pinned,
            budget_s,
            outcome,
            None,
            Some((rec, Some(id))),
        )
    });
    let run_s = median(&passes);

    let mut traced_s = 0.0;
    let mut profiles: Vec<CaseProfile> = Vec::new();
    // Replays are costly; with many small cases (serve-whatif's specs)
    // every `stride`-th case is replayed and its neighbours reuse its costs.
    let stride = cases.len().div_ceil(MAX_REPLAYS);
    rec.span("perfbench.traced_pass", None, |pass| {
        for ((case, pin), untraced) in cases.iter().zip(pinned).zip(&digests) {
            let started = Stopwatch::start();
            let (report, data) = rec.span("core.sim.run_traced", Some(pass), |_| {
                case.sim.run_traced(&case.trace)
            });
            traced_s += started.elapsed_secs();
            let encoded = encode_report(&report);
            // The traced report must equal the untraced one byte for byte.
            let expected = pin.unwrap_or(untraced.as_str());
            outcome.check(check_report(
                &case.label,
                &report,
                &encoded,
                Some(expected),
                false,
            ));
            let horizon = report.run_stats.final_time;
            let sim_s = horizon.as_secs_f64();
            let resident: f64 = report
                .jobs
                .iter()
                .map(|j| j.breakdown.cpu + j.breakdown.page + j.breakdown.queue)
                .sum::<f64>()
                / sim_s.max(1.0);
            let (event_ns, costs) = match profiles.last() {
                Some(prev) if !profiles.len().is_multiple_of(stride) => {
                    (prev.event_ns, prev.costs.clone())
                }
                _ => (
                    rec.span("simcore.event.replay", Some(pass), |_| {
                        layers::event_queue_ns_per_op(&case.trace, horizon)
                    }),
                    rec.span("cluster.replay", Some(pass), |id| {
                        layers::node_costs(case.config(), &case.trace, resident, rec, id)
                    }),
                ),
            };
            let period = case.config().cluster.load_exchange_period.as_secs_f64();
            profiles.push(CaseProfile {
                events: report.run_stats.events_processed,
                sim_s,
                samples: report.gauges.idle_memory_mb.len() as u64,
                exchanges: (sim_s / period) as u64 + 1,
                hosting: resident.min(case.config().cluster.nodes.len() as f64),
                kinds: data.profile.kind_counts.clone(),
                report,
                costs,
                event_ns,
            });
        }
    });

    let sum = |f: &dyn Fn(&CaseProfile) -> f64| profiles.iter().map(f).sum::<f64>();
    let events = sum(&|p| p.events as f64);
    let event_ops = 2.0 * events;
    let event_est = sum(&|p| 2.0 * p.events as f64 * p.event_ns);
    let advance_calls = sum(&|p| p.samples as f64 * p.hosting);
    let node_est = sum(&|p| p.samples as f64 * p.hosting * p.costs.advance_ns);
    let loadinfo_est = sum(&|p| p.exchanges as f64 * p.hosting * p.costs.refresh_ns_per_node);
    let samples = sum(&|p| p.samples as f64);
    let sampler_est = sum(&|p| p.samples as f64 * p.costs.sample_ns);
    let place_calls = sum(&|p| p.place_calls() as f64);
    let place_est = profiles
        .iter()
        .zip(cases)
        .map(|(p, c)| {
            let ns = p
                .costs
                .place_ns
                .iter()
                .find(|(n, _)| *n == c.policy)
                .map_or(0.0, |x| x.1);
            p.place_calls() as f64 * ns
        })
        .sum::<f64>();
    let estimates = [
        ("simcore.event", event_est / 1e9),
        ("cluster.node", node_est / 1e9),
        ("cluster.loadinfo", loadinfo_est / 1e9),
        ("metrics.sampler", sampler_est / 1e9),
        ("core.plugin", place_est / 1e9),
    ];
    let attributed: f64 = estimates.iter().map(|e| e.1).sum();
    let n = profiles.len();
    let mean = |f: &dyn Fn(&CaseProfile) -> f64| sum(f) / n as f64;

    outcome.metric("core.sim.run_s", run_s, passes.len());
    outcome.metric("core.sim.events", events, 1);
    outcome.metric("core.sim.sim_s", sum(&|p| p.sim_s), 1);
    outcome.metric(
        "core.sim.ns_per_event",
        run_s * 1e9 / events.max(1.0),
        passes.len(),
    );
    outcome.metric("core.sim.trace_overhead_frac", traced_s / run_s - 1.0, 1);
    outcome.metric("core.sim.unattributed_frac", 1.0 - attributed / run_s, 1);
    outcome.metric("core.sim.placed", sum(&|p| p.kind("placed") as f64), 1);
    outcome.metric("core.sim.blocked", sum(&|p| p.kind("blocked") as f64), 1);
    outcome.metric(
        "core.sim.transits",
        sum(&|p| p.kind("transit-started") as f64),
        1,
    );
    outcome.metric(
        "core.sim.migrations",
        sum(&|p| p.kind("migration-started") as f64),
        1,
    );
    outcome.metric(
        "core.sim.blocking_detections",
        sum(&|p| p.report.counters.blocking_detections as f64),
        1,
    );
    outcome.metric(
        "core.sim.reservations",
        sum(&|p| p.report.reservations.started as f64),
        1,
    );
    outcome.metric(
        "core.sim.resizes",
        sum(&|p| (p.report.counters.grows + p.report.counters.shrinks) as f64),
        1,
    );
    outcome.metric("simcore.event.ops", event_ops, 1);
    outcome.metric("simcore.event.ns_per_op", event_est / event_ops.max(1.0), n);
    outcome.metric("simcore.event.est_s", event_est / 1e9, n);
    outcome.metric(
        "cluster.node.advance_ns",
        node_est / advance_calls.max(1.0),
        n,
    );
    outcome.metric("cluster.node.advance_calls_est", advance_calls, 1);
    outcome.metric("cluster.node.est_s", node_est / 1e9, n);
    outcome.metric(
        "cluster.node.replay_paging_frac",
        mean(&|p| p.costs.paging_frac),
        n,
    );
    outcome.metric(
        "cluster.loadinfo.refresh_ns_per_node",
        mean(&|p| p.costs.refresh_ns_per_node),
        n,
    );
    outcome.metric("cluster.loadinfo.query_ns", mean(&|p| p.costs.query_ns), n);
    outcome.metric("cluster.loadinfo.est_s", loadinfo_est / 1e9, n);
    outcome.metric("metrics.sampler.samples", samples, 1);
    outcome.metric(
        "metrics.sampler.sample_ns",
        sampler_est / samples.max(1.0),
        n,
    );
    outcome.metric("metrics.sampler.est_s", sampler_est / 1e9, n);
    for (i, name) in [
        "core.plugin.place_ns.g-loadsharing",
        "core.plugin.place_ns.v-reconfiguration",
        "core.plugin.place_ns.malleable",
        "core.plugin.place_ns.fractional",
    ]
    .into_iter()
    .enumerate()
    {
        outcome.metric(name, mean(&|p| p.costs.place_ns[i].1), n);
    }
    outcome.metric("core.plugin.place_calls", place_calls, 1);
    outcome.metric("core.plugin.est_s", place_est / 1e9, n);

    report_layers(cases, &profiles, rec, outcome);

    eprintln!(
        "{:<20} {:>10} {:>9}   (run_s {run_s:.4} s)",
        "layer", "est_s", "of run_s"
    );
    let mut ranked = estimates.to_vec();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (layer, est) in &ranked {
        eprintln!("{layer:<20} {est:>10.4} {:>8.1}%", 100.0 * est / run_s);
    }
    eprintln!(
        "{:<20} {:>10.4} {:>8.1}%",
        "unattributed",
        run_s - attributed,
        100.0 * (1.0 - attributed / run_s)
    );
    let dominant: Vec<String> = ranked
        .iter()
        .filter(|(_, est)| *est >= 0.1 * run_s)
        .map(|(layer, est)| format!("{layer} ({:.0}%)", 100.0 * est / run_s))
        .collect();
    eprintln!(
        "dominant layers (est_s >= 10% of run_s): {}",
        if dominant.is_empty() {
            "none".to_owned()
        } else {
            dominant.join(", ")
        }
    );
    digests
}

/// `core.report_json`, `runner.cache` and `runner.scenario` on the traced
/// pass's reports: one encode, decode, cache store and raw lookup each,
/// into a scratch cache directory that is removed afterwards.
fn report_layers(cases: &[Case], profiles: &[CaseProfile], rec: &Recorder, outcome: &mut Outcome) {
    let dir = crate::out_dir().join(format!("cache-{}", std::process::id()));
    let cache = ResultCache::at(&dir);
    let (mut bytes, mut encode_s, mut decode_s) = (0.0, 0.0, 0.0);
    let (mut store_ms, mut lookup_ms, mut hash_us) = (Vec::new(), Vec::new(), Vec::new());
    rec.span("perfbench.report_layers", None, |parent| {
        for (case, p) in cases.iter().zip(profiles) {
            let started = Stopwatch::start();
            let encoded = rec.span("core.report_json.encode", Some(parent), |_| {
                encode_report(&p.report)
            });
            encode_s += started.elapsed_secs();
            bytes += encoded.len() as f64;
            let started = Stopwatch::start();
            let decoded = rec.span("core.report_json.decode", Some(parent), |_| {
                decode_report(&encoded)
            });
            decode_s += started.elapsed_secs();
            outcome.check(
                decoded
                    .err()
                    .map(|e| format!("{}: decode failed: {e}", case.label)),
            );

            let started = Stopwatch::start();
            let scenario = Scenario::new(case.config().clone(), Arc::clone(&case.trace));
            let hash = rec.span("runner.scenario.hash", Some(parent), |_| {
                scenario.content_hash()
            });
            hash_us.push(started.elapsed_secs() * 1e6);
            let started = Stopwatch::start();
            let stored = rec.span("runner.cache.store", Some(parent), |_| {
                cache.store(&hash, &p.report)
            });
            store_ms.push(started.elapsed_secs() * 1e3);
            outcome.check(
                stored
                    .err()
                    .map(|(path, e)| format!("cache store {}: {e}", path.display())),
            );
            let started = Stopwatch::start();
            let raw = rec.span("runner.cache.lookup_raw", Some(parent), |_| {
                cache.lookup_raw(&hash)
            });
            lookup_ms.push(started.elapsed_secs() * 1e3);
            outcome.check((raw.as_deref() != Some(encoded.as_str())).then(|| {
                format!(
                    "{}: cache lookup did not return the stored bytes",
                    case.label
                )
            }));
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    outcome.metric("core.report_json.bytes", bytes, 1);
    outcome.metric("core.report_json.encode_s", encode_s, cases.len());
    outcome.metric("core.report_json.decode_s", decode_s, cases.len());
    outcome.metric("runner.cache.store_ms", median(&store_ms), store_ms.len());
    outcome.metric(
        "runner.cache.lookup_raw_ms",
        median(&lookup_ms),
        lookup_ms.len(),
    );
    outcome.metric("runner.scenario.hash_us", median(&hash_us), hash_us.len());
}
