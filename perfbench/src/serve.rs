//! The `serve-whatif` workload: an in-process `vr_serve` server with one
//! simulation worker and a fresh cache directory, driven over loopback
//! HTTP by at most two client threads.
//!
//! * cold phase — every spec once, one client: parse, hash, miss,
//!   simulate, encode, store (the write path);
//! * warm passes — closed loop, two clients, a Zipf-skewed mix over the
//!   same specs; the hot tier holds a quarter of them, so warm hits split
//!   between the hot LRU and the disk tier (the read path);
//! * open-loop ladder (traced run) — fixed offered rates, each request
//!   timed from the moment it was due.
//!
//! Every response body is compared byte for byte with the in-process
//! `encode_report(Simulation::run(..))` of its spec (plus the trailing
//! newline the server appends); a mismatch, non-200 or transport error is
//! a failed operation and is never dropped from the latency samples.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use vr_check::fuzz::{CheckScenario, ScenarioJob, ScenarioNode};
use vr_serve::clock::Stopwatch;
use vr_serve::{request, start, NullHook, ServeConfig, ServerHandle};
use vr_simcore::jsonio::Json;
use vr_simcore::rng::SimRng;
use vrecon::{encode_report, PolicyKind, Simulation};

use crate::calib::{Calibration, KERNELS_PER_PASS};
use crate::engine::{self, digest, Case};
use crate::spans::{traced, Recorder, SpanId};
use crate::{layers, median, percentile, Args, Outcome, Reference};

/// Distinct specs (each simulated once, in the cold phase).
const SPECS: usize = 120;
/// Jobs per spec.
const JOBS: usize = 200;
/// Requests per warm closed-loop pass.
const WARM_PASS: usize = 1000;
/// Requests per rung of the open-loop ladder.
const LADDER_REQUESTS: usize = 1000;
/// Client threads of the warm and ladder phases.
const CLIENTS: usize = 2;
/// Set-up repetitions; `setup_s` is the median.
const SETUP_REPEATS: usize = 21;
/// Zipf exponent of the warm mix.
const ZIPF_S: f64 = 1.0;
// vr-analyze::rng-authority(reason = "the benchmark roots its what-if specs at --trace-seed and its request mixes at --seed")

const TIMEOUT: Duration = Duration::from_secs(30);

/// Generates spec `i` of `trace_seed`, scheduled with seed `sim_seed + i`: a cluster of 16–32 nodes, [`JOBS`]
/// jobs, one of the four `paper-traces` policies, and no faults. The job
/// count is fixed so that which specs the skewed mix makes popular does
/// not change the cost of a request much.
fn spec(trace_seed: u64, sim_seed: u64, i: usize) -> CheckScenario {
    let mut rng = SimRng::seed_from(trace_seed).fork(i as u64);
    let nodes = (0..16 + rng.index(17))
        .map(|_| ScenarioNode {
            user_mb: *rng.choose(&[128, 192, 384]),
            slots: *rng.choose(&[2, 4]),
        })
        .collect();
    let policies = layers::policies();
    let (_, kind, params) = &policies[rng.index(policies.len())];
    let malleable = *kind == PolicyKind::Malleable;
    let mut submit_us = 0;
    let jobs = (0..JOBS)
        .map(|k| {
            submit_us += (rng.exponential(0.5) * 1e6) as u64;
            ScenarioJob {
                submit_us,
                cpu_work_us: 5_000_000 + rng.index(55_000_000) as u64,
                ws_mb: 16 + rng.index(145) as u64,
                malleable: (malleable && k % 2 == 0).then_some((1, 2)),
            }
        })
        .collect();
    CheckScenario {
        nodes,
        policy: *kind,
        policy_params: params.clone(),
        seed: sim_seed + i as u64,
        max_sim_time_s: 1_000_000,
        jobs,
        fault_plan: None,
    }
}

fn cache_dir(k: usize) -> PathBuf {
    crate::out_dir().join(format!("serve-{}-{k}", std::process::id()))
}

fn start_server(dir: PathBuf, hot_cap: usize) -> Result<ServerHandle, String> {
    let _ = std::fs::remove_dir_all(&dir);
    start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        cache_dir: Some(dir),
        hot_cap,
        hook: Arc::new(NullHook),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start server: {e}"))
}

/// One request's result: latency and what went wrong, if anything.
struct Sample {
    ms: f64,
    problem: Option<String>,
}

/// POSTs spec `i` and checks the response against `expected`.
fn post(
    addr: SocketAddr,
    body: &str,
    expected: &str,
    i: usize,
    outcome: Option<&str>,
) -> Option<String> {
    match request(addr, "POST", "/run", body, TIMEOUT) {
        Ok(resp) if resp.status != 200 => Some(format!(
            "spec {i}: status {} ({})",
            resp.status,
            resp.body.trim()
        )),
        Ok(resp) if resp.body != expected => Some(format!(
            "spec {i}: response differs from the in-process report"
        )),
        Ok(resp) => match (outcome, resp.header("x-vrecon-outcome")) {
            (Some(want), got) if got != Some(want) => {
                Some(format!("spec {i}: outcome {got:?}, expected {want}"))
            }
            _ => None,
        },
        Err(e) => Some(format!("spec {i}: {e}")),
    }
}

/// Runs `send(j)` for `j in 0..n` on [`CLIENTS`] threads, each request in a
/// span under `parent`; returns the samples in request order.
fn fan_out(
    n: usize,
    rec: Option<&Recorder>,
    parent: Option<SpanId>,
    send: &(dyn Fn(usize) -> Sample + Sync),
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<(usize, Sample)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= n {
                    break;
                }
                let sample = traced(rec, "serve.request", parent, |_| send(j));
                samples
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((j, sample));
            });
        }
    });
    let mut samples = samples.into_inner().unwrap_or_else(PoisonError::into_inner);
    samples.sort_by_key(|(j, _)| *j);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// Records every sample's failure in `outcome` and returns all latencies
/// (failed requests included, so a failure never shortens the tail).
fn tally(samples: Vec<Sample>, outcome: &mut Outcome) -> Vec<f64> {
    samples
        .into_iter()
        .map(|s| {
            outcome.check(s.problem);
            s.ms
        })
        .collect()
}

/// Spec indices from most to least popular: a permutation seeded by the
/// trace seed, so which specs are popular is part of the workload's shape.
fn popularity(trace_seed: u64, specs: usize) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..specs).collect();
    SimRng::seed_from(trace_seed)
        .fork(u64::MAX)
        .shuffle(&mut ranked);
    ranked
}

/// A Zipf-skewed sequence of `n` spec indices drawn from `rng` over
/// `ranked` (most popular first).
fn warm_mix(rng: &mut SimRng, ranked: &[usize], n: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=ranked.len())
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    (0..n)
        .map(|_| ranked[rng.weighted_index(&weights)])
        .collect()
}

/// Result of one open-loop rung.
struct Rung {
    qps: f64,
    ok: bool,
    goodput: f64,
    p99_ms: f64,
    late_p99_ms: f64,
    samples: usize,
}

/// One open-loop rung: `LADDER_REQUESTS` requests due at `rate` per
/// second, two sender threads. Latency runs from the due time, so a
/// stall delays (and is charged to) every later request. The rung passes
/// when every request succeeded, p99 latency is within `limit_ms`, and
/// the backlog is not growing — the last tenth of requests were not sent
/// later than `limit_ms` after they were due.
#[allow(clippy::too_many_arguments)]
fn rung(
    addr: SocketAddr,
    bodies: &[String],
    expected: &[String],
    mix: &[usize],
    rate: f64,
    limit_ms: f64,
    rec: Option<&Recorder>,
    outcome: &mut Outcome,
) -> Rung {
    let n = mix.len();
    // Request j is due `LEAD_S + j / rate` seconds after `t0`.
    const LEAD_S: f64 = 0.005;
    let t0 = Stopwatch::start();
    let late = Mutex::new(vec![0.0; n]);
    let samples = traced(rec, "serve.ladder.rung", None, |parent| {
        fan_out(n, rec, parent, &|j| {
            let due = LEAD_S + j as f64 / rate;
            let wait = due - t0.elapsed_secs();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            late.lock().unwrap_or_else(PoisonError::into_inner)[j] =
                (t0.elapsed_secs() - due).max(0.0) * 1e3;
            let i = mix[j];
            let problem = post(addr, &bodies[i], &expected[i], i, None);
            Sample {
                ms: (t0.elapsed_secs() - due) * 1e3,
                problem,
            }
        })
    });
    let wall = t0.elapsed_secs() - LEAD_S;
    let failed_before = outcome.failed;
    let latencies = tally(samples, outcome);
    let late = late.into_inner().unwrap_or_else(PoisonError::into_inner);
    let all_ok = outcome.failed == failed_before;
    let p99_ms = percentile(&latencies, 0.99);
    let tail_late = median(&late[n - n / 10..]);
    Rung {
        qps: rate,
        ok: all_ok && p99_ms <= limit_ms && tail_late <= limit_ms,
        goodput: if all_ok { n as f64 / wall } else { 0.0 },
        p99_ms,
        late_p99_ms: percentile(&late, 0.99),
        samples: n,
    }
}

/// Counters read from `/stats`.
fn stats(addr: SocketAddr) -> Result<Json, String> {
    let resp = request(addr, "GET", "/stats", "", TIMEOUT)?;
    if resp.status != 200 {
        return Err(format!("/stats returned {}", resp.status));
    }
    Json::parse(&resp.body).map_err(|e| format!("/stats: {e}"))
}

/// Runs `serve-whatif`.
pub fn run(args: &Args, reference: &Reference, rec: Option<&Recorder>) -> Outcome {
    let started = Stopwatch::start();
    let (specs, warm_pass, ladder_requests) = if args.tiny {
        (12, 100, 100)
    } else {
        (SPECS, WARM_PASS, LADDER_REQUESTS)
    };
    let hot_cap = specs / 4;
    let mut outcome = Outcome::default();

    // Set-up: generate and render the specs, start a server, wait until
    // it answers. Repeated; the last server is the one measured.
    let mut setup = Vec::new();
    let mut bodies = Vec::new();
    let mut scenarios = Vec::new();
    let mut server = None;
    let mut cal = Calibration::default();
    let mut set_up = || {
        traced(rec, "workload.setup", None, |_| {
            for k in 0..SETUP_REPEATS {
                let t = Stopwatch::start();
                scenarios = (0..specs)
                    .map(|i| spec(args.trace_seed, args.seed, i))
                    .collect::<Vec<_>>();
                bodies = scenarios
                    .iter()
                    .map(CheckScenario::render)
                    .collect::<Vec<_>>();
                let handle = start_server(cache_dir(k), hot_cap).and_then(|h| {
                    let health = request(h.addr(), "GET", "/healthz", "", TIMEOUT)?;
                    (health.status == 200)
                        .then_some(h)
                        .ok_or("server not healthy".to_owned())
                });
                setup.push(t.elapsed_secs());
                if let Some(Ok(old)) = server.replace(handle) {
                    old.shutdown();
                }
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
    for k in 0..SETUP_REPEATS - 1 {
        let _ = std::fs::remove_dir_all(cache_dir(k));
    }
    let server = match server {
        Some(Ok(h)) => h,
        Some(Err(e)) => {
            outcome.check(Some(e));
            return outcome;
        }
        None => {
            outcome.check(Some("set-up started no server".into()));
            return outcome;
        }
    };
    let addr = server.addr();

    // The in-process reference: what every response must equal.
    let mut cases = Vec::new();
    let mut expected = Vec::new();
    traced(rec, "serve.reference", None, |_| {
        for (i, s) in scenarios.iter().enumerate() {
            let label = format!("serve-whatif/spec-{i}");
            let (config, trace) = match s.to_sim() {
                Ok(pair) => pair,
                Err(e) => {
                    outcome.check(Some(format!("{label}: {e}")));
                    expected.push(String::new());
                    continue;
                }
            };
            let report = Simulation::new(config.clone()).run(&trace);
            let encoded = encode_report(&report);
            outcome.check(engine::check_report(&label, &report, &encoded, None, true));
            expected.push(format!("{encoded}\n"));
            let policy = layers::policies()
                .into_iter()
                .find(|p| p.1 == s.policy)
                .map_or("v-reconfiguration", |p| p.0);
            cases.push(Case::new(label, policy, config, Arc::new(trace)));
        }
    });
    let set_label = format!("serve-whatif/{specs}-specs");
    let set_digest = digest(&expected.concat());
    if args.default_seeds(reference) {
        let problem = match reference.digest(&set_label) {
            Some(want) if want == set_digest => None,
            Some(want) => Some(format!(
                "{set_label}: report digest {set_digest}, expected {want}"
            )),
            None => Some(format!(
                "{set_label}: no pinned digest for the default seeds (got {set_digest})"
            )),
        };
        outcome.check(problem);
    }

    // Cold phase: one client, every spec once; each must be a miss.
    let cold = traced(rec, "serve.cold", None, |parent| {
        (0..specs)
            .map(|i| {
                traced(rec, "serve.request", parent, |_| {
                    let t = Stopwatch::start();
                    let problem = post(addr, &bodies[i], &expected[i], i, Some("miss"));
                    Sample {
                        ms: t.elapsed_secs() * 1e3,
                        problem,
                    }
                })
            })
            .collect::<Vec<_>>()
    });
    let cold = tally(cold, &mut outcome);

    // Warm passes: closed loop over a skewed mix; each pass, calibrated by
    // the kernel runs before and after it, is a run_s sample. The traced
    // run needs one pass for the warm percentiles.
    let ranked = popularity(args.trace_seed, specs);
    let mut rng = SimRng::seed_from(args.seed);
    // The warm passes keep both processors busy, so each kernel batch runs
    // on as many threads as there are clients.
    let mut before = cal.batch_parallel(KERNELS_PER_PASS, CLIENTS);
    let (mut raw, mut passes) = (Vec::new(), Vec::new());
    let mut warm = Vec::new();
    let warm_started = Stopwatch::start();
    loop {
        let mix = warm_mix(&mut rng, &ranked, warm_pass);
        let t = Stopwatch::start();
        let samples = traced(rec, "serve.warm", None, |parent| {
            fan_out(mix.len(), rec, parent, &|j| {
                let i = mix[j];
                let t = Stopwatch::start();
                let problem = post(addr, &bodies[i], &expected[i], i, None);
                Sample {
                    ms: t.elapsed_secs() * 1e3,
                    problem,
                }
            })
        });
        let pass = t.elapsed_secs();
        raw.push(pass);
        let after = cal.batch_parallel(KERNELS_PER_PASS, CLIENTS);
        let kernel = before.iter().chain(&after).sum::<f64>() / (before.len() + after.len()) as f64;
        passes.push(Calibration::normalise(pass, kernel));
        before = after;
        warm.extend(tally(samples, &mut outcome));
        let used = started.elapsed_secs();
        let per_pass = warm_started.elapsed_secs() / passes.len() as f64;
        if rec.is_some() || used + per_pass > args.seconds {
            break;
        }
    }

    // Traced run: the open-loop ladder.
    let mut rungs = Vec::new();
    if rec.is_some() {
        for &rate in &reference.ladder_qps {
            let mix = warm_mix(&mut rng, &ranked, ladder_requests);
            let r = rung(
                addr,
                &bodies,
                &expected,
                &mix,
                rate,
                reference.warm_p99_limit_ms,
                rec,
                &mut outcome,
            );
            eprintln!(
                "ladder {:>6.0} qps: p99 {:>8.3} ms, late p99 {:>8.3} ms, goodput {:>8.1}/s, {}",
                r.qps,
                r.p99_ms,
                r.late_p99_ms,
                r.goodput,
                if r.ok { "within limit" } else { "over limit" }
            );
            rungs.push(r);
        }
    }

    // The server's own counters: every spec simulated exactly once (the
    // cold phase), nothing refused.
    let counters = stats(addr);
    server.shutdown();
    let _ = std::fs::remove_dir_all(cache_dir(SETUP_REPEATS - 1));
    let counters = match counters {
        Ok(doc) => doc,
        Err(e) => {
            outcome.check(Some(e));
            Json::obj(Vec::<(String, Json)>::new())
        }
    };
    let count = |key: &str| counters.get(key).and_then(Json::as_u64).unwrap_or(0) as f64;
    let (hot, disk, sims, coalesced) = (
        count("hot_hits"),
        count("disk_hits"),
        count("sims_executed"),
        count("coalesced"),
    );
    let refused = count("overloads") + count("rejected_conns");
    outcome.check(
        (sims != specs as f64)
            .then(|| format!("server ran {sims} simulations for {specs} distinct specs")),
    );
    outcome.check((refused > 0.0).then(|| format!("server refused {refused} requests")));
    let run_requests = (hot + disk + sims + coalesced + count("overloads")).max(1.0);

    let Some(rec) = rec else {
        outcome.note(format!(
            "raw: setup {:.6} s, warm pass {:.4} s (median of {}); calibration kernel {:.2} ms (median of {})",
            median(&setup),
            median(&raw),
            raw.len(),
            cal.median_s() * 1e3,
            cal.len()
        ));
        outcome.metric(
            "setup_s",
            Calibration::normalise(median(&setup), setup_kernel),
            setup.len(),
        );
        outcome.metric("run_s", median(&passes), passes.len());
        return outcome;
    };

    // Traced run: the engine and spec-parsing layers on the same specs.
    let best = rungs
        .iter()
        .filter(|r| r.ok)
        .max_by(|a, b| a.qps.total_cmp(&b.qps));
    let pinned = vec![None; cases.len()];
    engine::profile(&cases, &pinned, 0.0, rec, &mut outcome);
    let parse_us: Vec<f64> = bodies
        .iter()
        .map(|b| {
            let t = Stopwatch::start();
            let parsed = rec.span("check.spec.parse", None, |_| CheckScenario::parse(b));
            let us = t.elapsed_secs() * 1e6;
            outcome.check(
                parsed
                    .err()
                    .map(|e| format!("spec does not parse back: {e}")),
            );
            us
        })
        .collect();
    let find = |outcome: &Outcome, name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let hash_ms = find(&outcome, "runner.scenario.hash_us") / 1e3;
    let lookup_ms = find(&outcome, "runner.cache.lookup_raw_ms");
    let warm_p50 = percentile(&warm, 0.5);
    let ladder_late = best.or(rungs.first()).map_or(0.0, |r| r.late_p99_ms);

    outcome.metric("workload.gen_s", median(&setup), setup.len());
    outcome.metric(
        "workload.jobs",
        scenarios.iter().map(|s| s.jobs.len()).sum::<usize>() as f64,
        1,
    );
    outcome.metric("check.spec.parse_us", median(&parse_us), parse_us.len());
    outcome.metric("serve.server.hot_hit_ratio", hot / run_requests, 1);
    outcome.metric("serve.server.disk_hit_ratio", disk / run_requests, 1);
    outcome.metric("serve.server.sims_executed", sims, 1);
    outcome.metric("serve.server.coalesced", coalesced, 1);
    outcome.metric("serve.server.refused", refused, 1);
    // The median warm request is a hot-tier hit unless most hits come
    // from disk; subtract the replayed steps that request took.
    let median_lookup_ms = if disk > hot { lookup_ms } else { 0.0 };
    outcome.metric(
        "serve.server.http_overhead_ms",
        warm_p50 - median(&parse_us) / 1e3 - hash_ms - median_lookup_ms,
        warm.len(),
    );
    outcome.metric(
        "serve.loadgen.cold_p50_ms",
        percentile(&cold, 0.5),
        cold.len(),
    );
    outcome.metric(
        "serve.loadgen.cold_p90_ms",
        percentile(&cold, 0.9),
        cold.len(),
    );
    outcome.metric("serve.loadgen.cold_samples", cold.len() as f64, 1);
    outcome.metric("serve.loadgen.warm_p50_ms", warm_p50, warm.len());
    outcome.metric(
        "serve.loadgen.warm_p99_ms",
        percentile(&warm, 0.99),
        warm.len(),
    );
    outcome.metric("serve.loadgen.warm_samples", warm.len() as f64, 1);
    outcome.metric(
        "serve.loadgen.warm_goodput_qps",
        best.map_or(0.0, |r| r.goodput),
        best.map_or(0, |r| r.samples),
    );
    outcome.metric("serve.loadgen.late_ms", ladder_late, ladder_requests);
    outcome.metric(
        "serve.loadgen.ladder_samples",
        rungs.iter().map(|r| r.samples).sum::<usize>() as f64,
        1,
    );
    outcome
}
