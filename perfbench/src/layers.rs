//! Replay timing of the engine's layers through their public functions.
//!
//! The engine layers sit behind [`Simulation::run`](vrecon::Simulation),
//! so the traced run cannot time them in place. Instead each replay here
//! rebuilds the workload's own state — its cluster, its jobs admitted via
//! `RunningJob::new` / `Workstation::try_admit` at the run's mean
//! occupancy, its 1 s sample and exchange cadence, its arrival times — and
//! times the layer's public calls on it. Multiplying a replayed cost per
//! call by the run's exact (or stated upper-bound) call count gives the
//! layer's `est_s`.

use std::hint::black_box;

use vr_cluster::job::RunningJob;
use vr_cluster::loadinfo::LoadIndex;
use vr_cluster::node::{NodeId, Workstation};
use vr_metrics::sampler::ClusterGauges;
use vr_serve::clock::Stopwatch;
use vr_simcore::event::EventQueue;
use vr_simcore::rng::SimRng;
use vr_simcore::time::{SimSpan, SimTime};
use vr_workload::trace::Trace;
use vrecon::config::SimConfig;
use vrecon::plugin::{build_policy, ParamBag};
use vrecon::PolicyKind;

use crate::spans::{Recorder, SpanId};

// vr-analyze::rng-authority(reason = "the placement replay seeds its own fixed stream; it feeds timing only, never a reported simulation result")

/// Minimum measured seconds per replayed quantity; short enough to keep
/// the traced run within its budget, long enough to average timer noise.
const MIN_MEASURE_S: f64 = 0.04;

/// Simulated seconds advanced per node-replay round (one call per node
/// per simulated second, the sample cadence).
const ADVANCE_STEPS: u64 = 60;

/// The registry policies `paper-traces` runs, with the knobs it uses.
pub fn policies() -> [(&'static str, PolicyKind, ParamBag); 4] {
    [
        ("g-loadsharing", PolicyKind::GLoadSharing, ParamBag::new()),
        (
            "v-reconfiguration",
            PolicyKind::VReconfiguration,
            ParamBag::new(),
        ),
        (
            "malleable",
            PolicyKind::Malleable,
            ParamBag::new().with("max_step", 1u32),
        ),
        (
            "fractional",
            PolicyKind::Fractional,
            ParamBag::new().with("oversub", 1.5),
        ),
    ]
}

/// Repeats `round` (which returns the seconds it measured and the number
/// of calls it made) until [`MIN_MEASURE_S`] has been measured; returns
/// ns per call.
fn ns_per_call(round: &mut dyn FnMut() -> (f64, u64)) -> f64 {
    let mut measured = 0.0;
    let mut calls = 0u64;
    while measured < MIN_MEASURE_S {
        let (secs, c) = round();
        measured += secs;
        calls += c.max(1);
    }
    measured * 1e9 / calls as f64
}

/// `simcore.event`: replays schedule/pop on an [`EventQueue`] in the
/// trace's shape — every arrival scheduled up front, three 1 s periodic
/// ticks (exchange, sample, pending retry) re-armed until `horizon`, and
/// one completion wake per arrival one CPU lifetime later. The engine
/// invalidates stale wakes by epoch instead of cancelling them, so the
/// replay issues no cancels. Returns ns per queue operation.
pub fn event_queue_ns_per_op(trace: &Trace, horizon: SimTime) -> f64 {
    let jobs = trace.jobs.len() as u64;
    let tick = SimSpan::from_secs(1);
    ns_per_call(&mut || {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let started = Stopwatch::start();
        let mut ops = 0u64;
        for (i, job) in trace.jobs.iter().enumerate() {
            queue.schedule(job.submit, i as u64);
            ops += 1;
        }
        for k in 0..3 {
            queue.schedule(SimTime::ZERO, u64::MAX - k);
            ops += 1;
        }
        while let Some((at, event)) = queue.pop() {
            ops += 1;
            if event >= u64::MAX - 2 {
                if at < horizon {
                    queue.schedule(at + tick, event);
                    ops += 1;
                }
            } else if event < jobs {
                let lifetime = trace.jobs[event as usize].cpu_work;
                queue.schedule(at + lifetime, event + jobs);
                ops += 1;
            }
            black_box(at);
        }
        (started.elapsed_secs(), ops)
    })
}

/// Replayed per-call costs of the node-state layers.
#[derive(Debug, Clone, Default)]
pub struct NodeCosts {
    /// `Workstation::advance_to` by one simulated second, ns per hosting
    /// node.
    pub advance_ns: f64,
    /// Share of the replayed jobs' service time spent paging.
    pub paging_frac: f64,
    /// `LoadIndex::refresh_targets` over the hosting nodes after they
    /// advanced a second, ns per recaptured node.
    pub refresh_ns_per_node: f64,
    /// `LoadIndex::best_destination_for`, ns per query.
    pub query_ns: f64,
    /// `ClusterGauges::sample` over every node, ns per sample.
    pub sample_ns: f64,
    /// `Policy::place`, ns per call, for each of [`policies`].
    pub place_ns: Vec<(&'static str, f64)>,
}

/// The workload's cluster with `resident` of its jobs admitted round-robin
/// (a job a node rejects is skipped), all at time zero.
fn populated(config: &SimConfig, trace: &Trace, resident: usize) -> Vec<Workstation> {
    let mut nodes = config.cluster.build_nodes();
    let n = nodes.len();
    let mut admitted = 0;
    for (k, spec) in trace.jobs.iter().enumerate() {
        if admitted >= resident {
            break;
        }
        if nodes[k % n]
            .try_admit(RunningJob::new(spec.clone()), SimTime::ZERO)
            .is_ok()
        {
            admitted += 1;
        }
    }
    nodes
}

/// Replays the node, load-index, sampler and policy layers on the
/// workload's cluster at mean occupancy `resident` (jobs resident
/// cluster-wide), one span per layer under `parent`.
pub fn node_costs(
    config: &SimConfig,
    trace: &Trace,
    resident: f64,
    rec: &Recorder,
    parent: SpanId,
) -> NodeCosts {
    let resident = (resident.round() as usize).max(1);
    let n = config.cluster.nodes.len();
    let span =
        |name, f: &mut dyn FnMut() -> (f64, u64)| rec.span(name, Some(parent), |_| ns_per_call(f));
    let mut paging = (0.0, 0.0);
    // The engine advances (and recaptures) only nodes hosting work, so
    // both replays time the hosting nodes alone.
    let advance_ns = span("cluster.node.advance", &mut || {
        let mut nodes = populated(config, trace, resident);
        nodes.retain(|node| node.active_jobs() > 0);
        let started = Stopwatch::start();
        for step in 1..=ADVANCE_STEPS {
            let now = SimTime::from_secs(step);
            for node in nodes.iter_mut() {
                node.advance_to(now);
            }
        }
        let elapsed = started.elapsed_secs();
        for job in nodes.iter().flat_map(|node| node.jobs()) {
            paging.0 += job.breakdown.page;
            paging.1 += job.breakdown.cpu + job.breakdown.page;
        }
        (elapsed, ADVANCE_STEPS * nodes.len() as u64)
    });
    let paging_frac = if paging.1 > 0.0 {
        paging.0 / paging.1
    } else {
        0.0
    };

    let mut nodes = populated(config, trace, resident);
    let hosting: Vec<NodeId> = nodes
        .iter()
        .filter(|node| node.active_jobs() > 0)
        .map(Workstation::id)
        .collect();
    let mut index = LoadIndex::new();
    index.refresh(nodes.iter(), SimTime::ZERO);
    let mut tick = 0;
    let refresh_ns_per_node = span("cluster.loadinfo.refresh", &mut || {
        // One exchange: the hosting nodes advance a second, then the
        // index recaptures exactly them, as the engine's incremental
        // refresh does.
        tick += 1;
        for &id in &hosting {
            nodes[id.0 as usize].advance_to(SimTime::from_secs(tick));
        }
        let started = Stopwatch::start();
        index.refresh_targets(&nodes, hosting.iter().copied(), SimTime::from_secs(tick));
        (started.elapsed_secs(), hosting.len() as u64)
    });
    let demands: Vec<_> = trace.jobs.iter().map(|j| j.max_working_set()).collect();
    let query_ns = span("cluster.loadinfo.query", &mut || {
        let started = Stopwatch::start();
        for &demand in &demands {
            black_box(index.best_destination_for(demand, None));
        }
        (started.elapsed_secs(), demands.len() as u64)
    });
    let mut gauges = ClusterGauges::new();
    let mut ticks = 0;
    let sample_ns = span("metrics.sampler.sample", &mut || {
        ticks += 1;
        let started = Stopwatch::start();
        gauges.sample(nodes.iter(), 0, SimTime::from_secs(ticks));
        (started.elapsed_secs(), 1)
    });
    let jobs: Vec<RunningJob> = trace
        .jobs
        .iter()
        .take(2000)
        .map(|spec| RunningJob::new(spec.clone()))
        .collect();
    let place_ns = policies()
        .into_iter()
        .map(|(name, kind, params)| {
            // The knobs are the benchmark's own constants; a policy that
            // rejects them reports NaN rather than a made-up cost.
            let Ok(policy) = build_policy(kind, &params) else {
                return (name, f64::NAN);
            };
            let mut rng = SimRng::seed_from(1);
            let ns = span("core.plugin.place", &mut || {
                let started = Stopwatch::start();
                for (k, job) in jobs.iter().enumerate() {
                    let home = NodeId((k % n) as u32);
                    black_box(policy.place(job, home, &index, &mut rng));
                }
                (started.elapsed_secs(), jobs.len() as u64)
            });
            (name, ns)
        })
        .collect();
    NodeCosts {
        advance_ns,
        paging_frac,
        refresh_ns_per_node,
        query_ns,
        sample_ns,
        place_ns,
    }
}
