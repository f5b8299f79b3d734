//! Ablations for the design points DESIGN.md calls out:
//!
//! 1. **§5 negative conditions** — light load, equal memory demands, and
//!    big-job-dominant workloads, where V-Reconfiguration is predicted to
//!    help little (or to need its reservation cap).
//! 2. **Reserving-period end condition** — the paper's primary
//!    `AllJobsComplete` vs the §2.1 alternative `EnoughMemory`.
//! 3. **Pending-queue discipline** — the paper-faithful FIFO vs the
//!    backfilling baseline.
//! 4. **Fault-model shape** — linear vs quadratic overflow vs no faults.
//! 5. **Baseline policies** — no load sharing / random / CPU-only vs
//!    G-Loadsharing vs V-Reconfiguration on the blocking scenario.
//! 6. **Network speed** — 10 Mbps vs 1 Gbps migration costs (§5 point 4).
//! 7. **Suspension strawman** — the §1 alternative the paper rejects,
//!    with the fairness numbers that justify rejecting it.
//! 8. **Network RAM** — §2.3's escape hatch for jobs too big for any node.
//! 9. **Load-information staleness** — §6's first deployment concern:
//!    sensitivity to the exchange period.
//! 10. **Reservation cap** — sensitivity to `max_reserved_fraction`.
//! 11. **Heterogeneous cluster** — §2.3/§6: large-memory nodes preferred
//!     as reserved workstations.
//! 12. **Bursty fluctuation** — the conclusion's motivating scenario:
//!     ON/OFF workload bursts.
//! 13. **Thrashing protection (TPF)** — the paper's ref \[6] as an
//!     intra-node alternative/complement to reconfiguration.
//! 14. **Plugin families** — the malleable (grow/shrink width
//!     directives) and fractional (oversubscribed slot cap) schedulers
//!     against the G-LS baseline.
//!
//! Every section's runs execute on the shared experiment runner
//! (`--jobs N`, `--no-cache`): scenarios go out as a sweep plan and come
//! back in plan order, so the tables are identical for any worker count.

use std::sync::Arc;

use vr_bench::{BenchArgs, SIM_SEED};
use vr_cluster::memory::FaultModel;
use vr_cluster::network::NetworkParams;
use vr_cluster::params::ClusterParams;
use vr_cluster::units::Bytes;
use vr_metrics::table::{fmt_f, TextTable};
use vr_runner::{Runner, Scenario, SweepPlan};
use vr_simcore::rng::SimRng;
use vr_simcore::stats::reduction_pct;
use vr_workload::synth;
use vr_workload::trace::Trace;
use vrecon::config::{PendingDiscipline, ReservationOptions, ReservingEnd, SimConfig};
use vrecon::policy::PolicyKind;
use vrecon::report::RunReport;

fn cluster() -> ClusterParams {
    let mut c = ClusterParams::cluster2();
    c.nodes.truncate(16);
    c
}

fn blocking_trace() -> Arc<Trace> {
    Arc::new(synth::blocking_scenario(16, Bytes::from_mb(128)))
}

/// Runs one section's scenarios as a sweep, returning reports in order.
fn sweep(runner: &Runner, scenarios: Vec<Scenario>) -> Vec<RunReport> {
    let plan: SweepPlan = scenarios.into_iter().collect();
    let outcome = runner.run(&plan);
    vr_bench::warn_truncated(outcome.results.iter().flatten());
    outcome.expect_reports()
}

fn base_config(policy: PolicyKind) -> SimConfig {
    SimConfig::new(cluster(), policy).with_seed(SIM_SEED)
}

fn main() {
    let runner = BenchArgs::from_env().runner(true);
    negative_conditions(&runner);
    end_condition(&runner);
    pending_discipline(&runner);
    fault_model(&runner);
    baselines(&runner);
    network_speed(&runner);
    suspension_fairness(&runner);
    network_ram(&runner);
    staleness(&runner);
    reservation_cap(&runner);
    heterogeneous(&runner);
    bursty_fluctuation(&runner);
    thrashing_protection(&runner);
    plugin_families(&runner);
}

/// §5's three negative conditions: V-R should gain little (adaptively doing
/// nothing) instead of hurting.
fn negative_conditions(runner: &Runner) {
    println!("ablation 1 — §5 negative conditions (16-node cluster 2)\n");
    let rng = SimRng::seed_from(3);
    let workloads = [
        (
            "light-load",
            Arc::new(synth::light_load(40, &mut rng.fork(0))),
        ),
        (
            "equal-memory",
            Arc::new(synth::equal_memory(
                160,
                Bytes::from_mb(60),
                &mut rng.fork(1),
            )),
        ),
        (
            "big-dominant-70pct",
            Arc::new(synth::big_job_dominant(
                160,
                Bytes::from_mb(128),
                0.7,
                &mut rng.fork(2),
            )),
        ),
        ("blocking (positive control)", blocking_trace()),
    ];
    let reports = sweep(
        runner,
        workloads
            .iter()
            .flat_map(|(_, trace)| {
                [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration]
                    .map(|policy| Scenario::new(base_config(policy), Arc::clone(trace)))
            })
            .collect(),
    );
    let mut table = TextTable::new(vec![
        "workload",
        "G-LS slowdown",
        "V-R slowdown",
        "reduction",
        "reservations",
        "served",
    ]);
    for ((name, _), pair) in workloads.iter().zip(reports.chunks_exact(2)) {
        let [gls, vr] = pair else { unreachable!() };
        table.row(vec![
            (*name).to_owned(),
            fmt_f(gls.avg_slowdown(), 2),
            fmt_f(vr.avg_slowdown(), 2),
            format!(
                "{:.1}%",
                reduction_pct(gls.avg_slowdown(), vr.avg_slowdown())
            ),
            vr.reservations.started.to_string(),
            vr.reservations.jobs_served.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// §2.1's two reserving-period end conditions.
fn end_condition(runner: &Runner) {
    println!("ablation 2 — reserving-period end condition (blocking scenario)\n");
    let trace = blocking_trace();
    let cases = [
        ("AllJobsComplete", ReservingEnd::AllJobsComplete),
        ("EnoughMemory", ReservingEnd::EnoughMemory),
    ];
    let reports = sweep(
        runner,
        cases
            .iter()
            .map(|(_, end)| {
                let config = base_config(PolicyKind::VReconfiguration).with_reservation(
                    ReservationOptions {
                        end_condition: *end,
                        ..ReservationOptions::default()
                    },
                );
                Scenario::new(config, Arc::clone(&trace))
            })
            .collect(),
    );
    let mut table = TextTable::new(vec![
        "end condition",
        "avg slowdown",
        "T_que (s)",
        "reservations",
        "served",
        "timed out",
    ]);
    for ((name, _), report) in cases.iter().zip(&reports) {
        table.row(vec![
            (*name).to_owned(),
            fmt_f(report.avg_slowdown(), 2),
            fmt_f(report.total_queue_secs(), 0),
            report.reservations.started.to_string(),
            report.reservations.jobs_served.to_string(),
            report.reservations.timed_out.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// FIFO ("submissions blocked") vs backfill pending queues.
fn pending_discipline(runner: &Runner) {
    println!("ablation 3 — pending-queue discipline (blocking scenario)\n");
    let trace = blocking_trace();
    let mut cases = Vec::new();
    for policy in [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration] {
        for (name, d) in [
            ("fifo", PendingDiscipline::Fifo),
            ("backfill", PendingDiscipline::Backfill),
        ] {
            cases.push((policy, name, d));
        }
    }
    let reports = sweep(
        runner,
        cases
            .iter()
            .map(|(policy, _, d)| {
                let mut config = base_config(*policy);
                config.pending_discipline = *d;
                Scenario::new(config, Arc::clone(&trace))
            })
            .collect(),
    );
    let mut table = TextTable::new(vec![
        "policy",
        "discipline",
        "avg slowdown",
        "T_que (s)",
        "blocked submissions",
    ]);
    for ((policy, name, _), report) in cases.iter().zip(&reports) {
        table.row(vec![
            policy.to_string(),
            (*name).to_owned(),
            fmt_f(report.avg_slowdown(), 2),
            fmt_f(report.total_queue_secs(), 0),
            report.counters.blocked_submissions.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// Linear vs quadratic vs disabled page-fault models.
fn fault_model(runner: &Runner) {
    println!("ablation 4 — page-fault model shape (blocking scenario, V-R)\n");
    let trace = blocking_trace();
    let cases = [
        ("linear k=4", FaultModel::LinearOverflow { kappa: 4.0 }),
        ("linear k=8", FaultModel::LinearOverflow { kappa: 8.0 }),
        (
            "quadratic k=4",
            FaultModel::QuadraticOverflow { kappa: 4.0 },
        ),
        ("off", FaultModel::Off),
    ];
    let reports = sweep(
        runner,
        cases
            .iter()
            .map(|(_, model)| {
                let mut config = base_config(PolicyKind::VReconfiguration);
                for node in &mut config.cluster.nodes {
                    node.fault_model = *model;
                }
                Scenario::new(config, Arc::clone(&trace))
            })
            .collect(),
    );
    let mut table = TextTable::new(vec!["fault model", "avg slowdown", "T_page (s)"]);
    for ((name, _), report) in cases.iter().zip(&reports) {
        table.row(vec![
            (*name).to_owned(),
            fmt_f(report.avg_slowdown(), 2),
            fmt_f(report.summary.totals.page, 0),
        ]);
    }
    println!("{}", table.render());
}

/// All five policies on the blocking scenario.
fn baselines(runner: &Runner) {
    println!("ablation 5 — policy baselines (blocking scenario)\n");
    let trace = blocking_trace();
    let reports = sweep(
        runner,
        PolicyKind::ALL
            .into_iter()
            .map(|policy| Scenario::new(base_config(policy), Arc::clone(&trace)))
            .collect(),
    );
    let mut table = TextTable::new(vec![
        "policy",
        "avg slowdown",
        "T_exe (s)",
        "T_que (s)",
        "migrations",
    ]);
    for (policy, report) in PolicyKind::ALL.into_iter().zip(&reports) {
        table.row(vec![
            policy.to_string(),
            fmt_f(report.avg_slowdown(), 2),
            fmt_f(report.total_execution_secs(), 0),
            fmt_f(report.total_queue_secs(), 0),
            (report.counters.overload_migrations + report.counters.reserved_migrations).to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// §1's rejected alternative: suspension resolves blocking for the small
/// jobs but starves the large ones under a sustained flow.
fn suspension_fairness(runner: &Runner) {
    println!("ablation 7 — suspension strawman vs reconfiguration (sustained blocking)\n");
    // Extend the blocking scenario's filler stream threefold so submissions
    // "continue to flow" for several multiples of a giant's runtime.
    let base = blocking_trace();
    let mut jobs = base.jobs.clone();
    let fillers: Vec<_> = base
        .jobs
        .iter()
        .filter(|j| j.name == "filler")
        .cloned()
        .collect();
    for round in 1..=3u64 {
        for f in &fillers {
            let mut j = f.clone();
            j.submit += vr_simcore::time::SimSpan::from_secs(1040 * round);
            jobs.push(j);
        }
    }
    jobs.sort_by_key(|j| j.submit);
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = vr_cluster::job::JobId(i as u64);
    }
    let trace = Arc::new(Trace {
        name: "Synth-Blocking-Sustained".into(),
        jobs,
    });
    let policies = [
        PolicyKind::GLoadSharing,
        PolicyKind::SuspendLargest,
        PolicyKind::VReconfiguration,
    ];
    let reports = sweep(
        runner,
        policies
            .iter()
            .map(|&policy| Scenario::new(base_config(policy), Arc::clone(&trace)))
            .collect(),
    );
    let mut table = TextTable::new(vec![
        "policy",
        "overall slowdown",
        "giant slowdown",
        "filler slowdown",
        "Jain fairness",
        "suspensions/reservations",
    ]);
    for (policy, report) in policies.into_iter().zip(&reports) {
        let mean = |name: &str| {
            let v: Vec<f64> = report
                .jobs
                .iter()
                .filter(|j| j.spec.name == name)
                .map(|j| j.slowdown())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let slowdowns: Vec<f64> = report.jobs.iter().map(|j| j.slowdown()).collect();
        table.row(vec![
            policy.to_string(),
            fmt_f(report.avg_slowdown(), 2),
            fmt_f(mean("giant"), 2),
            fmt_f(mean("filler"), 2),
            fmt_f(vr_metrics::fairness::jain_index(&slowdowns), 3),
            format!(
                "{}/{}",
                report.counters.suspensions, report.reservations.started
            ),
        ]);
    }
    println!("{}", table.render());
}

/// §2.3 / ref \[12]: serving page faults from remote idle memory.
fn network_ram(runner: &Runner) {
    println!("ablation 8 — network RAM (blocking scenario)\n");
    let trace = blocking_trace();
    let cases = [
        ("G-LS, local disk", false, PolicyKind::GLoadSharing),
        ("G-LS + network RAM", true, PolicyKind::GLoadSharing),
        ("V-R, local disk", false, PolicyKind::VReconfiguration),
        ("V-R + network RAM", true, PolicyKind::VReconfiguration),
    ];
    let reports = sweep(
        runner,
        cases
            .iter()
            .map(|(_, netram, policy)| {
                let mut config = base_config(*policy);
                if *netram {
                    config = config.with_network_ram();
                }
                Scenario::new(config, Arc::clone(&trace))
            })
            .collect(),
    );
    let mut table = TextTable::new(vec!["configuration", "avg slowdown", "T_page (s)"]);
    for ((name, _, _), report) in cases.iter().zip(&reports) {
        table.row(vec![
            (*name).to_owned(),
            fmt_f(report.avg_slowdown(), 2),
            fmt_f(report.summary.totals.page, 0),
        ]);
    }
    println!("{}", table.render());
}

/// §6 deployment concern 1: "the globally shared load information ...
/// needs to be delivered timely and consistently."
fn staleness(runner: &Runner) {
    println!("ablation 9 — load-information exchange period (blocking scenario, V-R)\n");
    let trace = blocking_trace();
    let periods = [1u64, 5, 15, 30];
    let reports = sweep(
        runner,
        periods
            .iter()
            .map(|&secs| {
                let mut config = base_config(PolicyKind::VReconfiguration);
                config.cluster.load_exchange_period = vr_simcore::time::SimSpan::from_secs(secs);
                Scenario::new(config, Arc::clone(&trace))
            })
            .collect(),
    );
    let mut table = TextTable::new(vec![
        "exchange period",
        "avg slowdown",
        "stale bounces",
        "blocking detections",
    ]);
    for (secs, report) in periods.into_iter().zip(&reports) {
        table.row(vec![
            format!("{secs}s"),
            fmt_f(report.avg_slowdown(), 2),
            report.counters.stale_rejections.to_string(),
            report.counters.blocking_detections.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// Sensitivity to the reservation cap (§2.2 point 4's protection knob).
fn reservation_cap(runner: &Runner) {
    println!("ablation 10 — max reserved fraction (blocking scenario, V-R)\n");
    let trace = blocking_trace();
    let fractions = [0.0625, 0.125, 0.25, 0.5];
    let reports = sweep(
        runner,
        fractions
            .iter()
            .map(|&frac| {
                let config = base_config(PolicyKind::VReconfiguration).with_reservation(
                    ReservationOptions {
                        max_reserved_fraction: frac,
                        ..ReservationOptions::default()
                    },
                );
                Scenario::new(config, Arc::clone(&trace))
            })
            .collect(),
    );
    let mut table = TextTable::new(vec![
        "max fraction",
        "avg slowdown",
        "reservations",
        "served",
    ]);
    for (frac, report) in fractions.into_iter().zip(&reports) {
        table.row(vec![
            format!("{frac}"),
            fmt_f(report.avg_slowdown(), 2),
            report.reservations.started.to_string(),
            report.reservations.jobs_served.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// §2.3/§6: on a heterogeneous cluster the reservation candidate rule
/// (largest idle memory) steers special service to the big-memory nodes.
fn heterogeneous(runner: &Runner) {
    println!("ablation 11 — heterogeneous cluster (4 x 384MB + 12 x 128MB nodes)\n");
    let cluster = ClusterParams::heterogeneous(16, 4);
    let trace = blocking_trace();
    let policies = [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration];
    let reports = sweep(
        runner,
        policies
            .iter()
            .map(|&policy| {
                Scenario::new(
                    SimConfig::new(cluster.clone(), policy).with_seed(SIM_SEED),
                    Arc::clone(&trace),
                )
            })
            .collect(),
    );
    let mut table = TextTable::new(vec![
        "policy",
        "avg slowdown",
        "admissions/big node",
        "admissions/small node",
        "reservations",
    ]);
    for (policy, report) in policies.into_iter().zip(&reports) {
        let big: u64 = report.node_counters[..4].iter().map(|c| c.admitted).sum();
        let small: u64 = report.node_counters[4..].iter().map(|c| c.admitted).sum();
        table.row(vec![
            policy.to_string(),
            fmt_f(report.avg_slowdown(), 2),
            fmt_f(big as f64 / 4.0, 1),
            fmt_f(small as f64 / 12.0, 1),
            report.reservations.started.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// The conclusion's motivation: accommodating workload fluctuation.
fn bursty_fluctuation(runner: &Runner) {
    println!("ablation 12 — bursty ON/OFF workload (group-2 programs, 16 nodes)\n");
    let mut rng = SimRng::seed_from(5);
    let trace = Arc::new(synth::bursty(240, &mut rng));
    let policies = [
        PolicyKind::CpuOnly,
        PolicyKind::GLoadSharing,
        PolicyKind::VReconfiguration,
    ];
    let reports = sweep(
        runner,
        policies
            .iter()
            .map(|&policy| Scenario::new(base_config(policy), Arc::clone(&trace)))
            .collect(),
    );
    let mut table = TextTable::new(vec![
        "policy",
        "avg slowdown",
        "p95 slowdown",
        "T_que (s)",
        "reservations",
    ]);
    for (policy, report) in policies.into_iter().zip(&reports) {
        table.row(vec![
            policy.to_string(),
            fmt_f(report.avg_slowdown(), 2),
            fmt_f(report.summary.p95_slowdown, 2),
            fmt_f(report.total_queue_secs(), 0),
            report.reservations.started.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// Ref \[6]: intra-node thrashing protection, alone and composed with the
/// paper's inter-node reconfiguration.
fn thrashing_protection(runner: &Runner) {
    use vr_cluster::protection::ThrashingProtection;
    println!("ablation 13 — thrashing protection (TPF, ref [6]) on the blocking scenario\n");
    let trace = blocking_trace();
    let mut cases = Vec::new();
    for policy in [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration] {
        for (name, protection) in [
            ("off", ThrashingProtection::Off),
            ("protect-largest", ThrashingProtection::ProtectLargest),
            (
                "protect-shortest",
                ThrashingProtection::ProtectShortestRemaining,
            ),
        ] {
            cases.push((policy, name, protection));
        }
    }
    let reports = sweep(
        runner,
        cases
            .iter()
            .map(|(policy, _, protection)| {
                let mut config = base_config(*policy);
                for node in &mut config.cluster.nodes {
                    node.protection = *protection;
                }
                Scenario::new(config, Arc::clone(&trace))
            })
            .collect(),
    );
    let mut table = TextTable::new(vec!["policy", "protection", "avg slowdown", "T_page (s)"]);
    for ((policy, name, _), report) in cases.iter().zip(&reports) {
        table.row(vec![
            policy.to_string(),
            (*name).to_owned(),
            fmt_f(report.avg_slowdown(), 2),
            fmt_f(report.summary.totals.page, 0),
        ]);
    }
    println!("{}", table.render());
}

/// The families with knobs: malleable width adaptation and fractional
/// oversubscription, against the G-LS baseline on the blocking scenario.
fn plugin_families(runner: &Runner) {
    use vr_cluster::job::MalleableSpec;
    use vrecon::plugin::ParamBag;
    println!("ablation 14 — plugin families (malleable & fractional, slot-pressure burst)\n");
    // The blocking scenario is memory-bound — its slot caps never bind, so
    // fractional oversubscription would be a no-op there. This section uses
    // a CPU-bound burst instead: 96 small jobs land on 4 nodes (32 hardware
    // slots) in under a minute, so admission is slot-limited and the two
    // families' levers actually engage. Every other job gets a 1..=3 width
    // range so the malleable policy has room to act; other configurations
    // run the same trace unchanged (widths start at min and only the
    // resize hook moves them).
    let jobs: Vec<_> = (0..96u64)
        .map(|i| {
            let mut spec = vr_cluster::job::JobSpec {
                id: vr_cluster::job::JobId(i),
                name: format!("burst-{i}"),
                class: vr_cluster::job::JobClass::CpuIntensive,
                submit: vr_simcore::time::SimTime::from_millis(i * 500),
                cpu_work: vr_simcore::time::SimSpan::from_secs(300),
                memory: vr_cluster::job::MemoryProfile::constant(Bytes::from_mb(4)),
                io_rate: 0.0,
                malleable: None,
            };
            if i % 2 == 0 {
                spec.malleable = Some(MalleableSpec {
                    min_width: 1,
                    max_width: 3,
                });
            }
            spec
        })
        .collect();
    let trace = Arc::new(Trace {
        name: "Synth-SlotBurst".into(),
        jobs,
    });
    let mut small = ClusterParams::cluster2();
    small.nodes.truncate(4);
    let cases: Vec<(&str, PolicyKind, ParamBag)> = vec![
        ("G-LS baseline", PolicyKind::GLoadSharing, ParamBag::new()),
        ("malleable step=1", PolicyKind::Malleable, ParamBag::new()),
        (
            "malleable step=2",
            PolicyKind::Malleable,
            ParamBag::new().with("max_step", 2u32),
        ),
        (
            "fractional 1.5x",
            PolicyKind::Fractional,
            ParamBag::new().with("oversub", 1.5),
        ),
        ("fractional 2x", PolicyKind::Fractional, ParamBag::new()),
    ];
    let reports = sweep(
        runner,
        cases
            .iter()
            .map(|(_, policy, bag)| {
                let config = SimConfig::new(small.clone(), *policy)
                    .with_policy_params(bag.clone())
                    .with_seed(SIM_SEED);
                Scenario::new(config, Arc::clone(&trace))
            })
            .collect(),
    );
    let mut table = TextTable::new(vec![
        "configuration",
        "avg slowdown",
        "T_que (s)",
        "grows/shrinks",
        "blocked submissions",
    ]);
    for ((name, _, _), report) in cases.iter().zip(&reports) {
        table.row(vec![
            (*name).to_owned(),
            fmt_f(report.avg_slowdown(), 2),
            fmt_f(report.total_queue_secs(), 0),
            format!("{}/{}", report.counters.grows, report.counters.shrinks),
            report.counters.blocked_submissions.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// §5 point 4: "As high speed networks become widely used in clusters, the
/// migration time ... becomes less crucial."
fn network_speed(runner: &Runner) {
    println!("ablation 6 — interconnect speed (blocking scenario, V-R)\n");
    let trace = blocking_trace();
    let cases = [
        ("10 Mbps Ethernet", NetworkParams::ethernet_10mbps()),
        ("1 Gbps Ethernet", NetworkParams::ethernet_1gbps()),
    ];
    let reports = sweep(
        runner,
        cases
            .iter()
            .map(|(_, net)| {
                let mut config = base_config(PolicyKind::VReconfiguration);
                config.cluster.network = *net;
                Scenario::new(config, Arc::clone(&trace))
            })
            .collect(),
    );
    let mut table = TextTable::new(vec!["network", "avg slowdown", "T_mig (s)"]);
    for ((name, _), report) in cases.iter().zip(&reports) {
        table.row(vec![
            (*name).to_owned(),
            fmt_f(report.avg_slowdown(), 2),
            fmt_f(report.summary.totals.migration, 0),
        ]);
    }
    println!("{}", table.render());
}
