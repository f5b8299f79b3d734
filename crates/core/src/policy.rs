//! Inter-workstation scheduling policies.
//!
//! The paper's evaluation compares the dynamic load sharing scheme of the
//! authors' ICDCS 2001 system ([`PolicyKind::GLoadSharing`]) with the same
//! scheme augmented by adaptive virtual reconfiguration
//! ([`PolicyKind::VReconfiguration`]). Additional baselines are implemented
//! for ablation: no load sharing at all, random placement, and CPU-only
//! balancing (the "balancing the number of jobs" family the introduction
//! cites).
//!
//! A policy decides *placement* ([`PolicyKind::place`]) from the (possibly
//! stale) global load index; the migration and reconfiguration machinery
//! lives in the simulation driver and is enabled per policy via
//! [`PolicyKind::migrates_on_overload`] / [`PolicyKind::reconfigures`].

use serde::{Deserialize, Serialize};
use std::fmt;
use vr_cluster::job::RunningJob;
use vr_cluster::loadinfo::LoadIndex;
use vr_cluster::node::NodeId;
use vr_simcore::rng::SimRng;

/// The scheduling policies available to a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Every job runs on the workstation it was submitted to; no remote
    /// submission, no migration.
    NoLoadSharing,
    /// Jobs are placed on a uniformly random workstation that has a free
    /// slot, ignoring memory entirely.
    Random,
    /// CPU-only load sharing: place on the node with the fewest active jobs
    /// (job-count balancing, e.g. Zhou et al.'s Utopia family); memory is
    /// ignored and there is no fault-driven migration.
    CpuOnly,
    /// The authors' dynamic load sharing with both CPU and memory
    /// considerations (ICDCS 2001, cited as \[3]): local submission when the
    /// home node has idle memory and a free slot, otherwise remote
    /// submission to the best qualified node; fault-driven preemptive
    /// migration of the most memory-intensive job.
    GLoadSharing,
    /// [`GLoadSharing`](PolicyKind::GLoadSharing) plus the paper's adaptive
    /// and virtual reconfiguration: on blocking, reserve a lightly loaded
    /// workstation and dedicate it to large jobs.
    VReconfiguration,
    /// Weighted CPU+memory load sharing after Zhang, Qu & Xiao (ICDCS
    /// 2000, the paper's ref \[13]): nodes are ranked by a combined load
    /// score mixing job count (CPU pressure) and memory occupancy, instead
    /// of the lexicographic fewest-jobs-first rule of
    /// [`GLoadSharing`](PolicyKind::GLoadSharing). Fault-driven migration
    /// stays enabled; no reconfiguration.
    WeightedCpuMem,
    /// The strawman §1 discusses and rejects: on blocking, *suspend* the
    /// large job (swap it out entirely, freeing its memory, at realistic
    /// swap-transfer cost) "so that the job submissions will not be
    /// blocked". Suspended jobs are resumed only when the cluster has
    /// spare capacity, so under a continuous job flow they starve — the
    /// unfairness the paper's reconfiguration avoids. A job repeatedly
    /// re-suspended is pinned after five suspensions (endless swap churn
    /// of the same peak-sized job is a livelock, not a remedy).
    SuspendLargest,
    /// Malleable scheduling ("Evaluating Malleable Job Scheduling in HPC
    /// Clusters"): jobs may declare a `min..=max` slot-width range
    /// ([`MalleableSpec`]); placement and migration follow
    /// [`GLoadSharing`](PolicyKind::GLoadSharing), and on every load
    /// exchange the policy issues grow directives into idle slots and
    /// shrink directives under queue pressure. A job running at width `w`
    /// holds `w` slots and receives `w` processor-sharing shares. With no
    /// malleable jobs in the trace it behaves exactly like G-Loadsharing.
    ///
    /// [`MalleableSpec`]: vr_cluster::job::MalleableSpec
    Malleable,
    /// Dynamic fractional resource scheduling (Casanova/Stillwell/Vivien):
    /// instead of whole-slot reservation, each workstation's admission cap
    /// is raised to `floor(slots × oversub)` and the processor-sharing
    /// model hands every resident job a fractional CPU share. Placement
    /// and migration follow [`GLoadSharing`](PolicyKind::GLoadSharing);
    /// with `oversub = 1` it is exactly G-Loadsharing.
    Fractional,
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.names()[0])
    }
}

/// Where a policy wants a job to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Admit on the submission (home) workstation, free of charge.
    Local(NodeId),
    /// Remote-submit to another workstation (costs `r`).
    Remote(NodeId),
    /// No workstation qualifies: hold the job in the cluster pending queue.
    /// This is the paper's "job submissions ... blocked".
    Blocked,
}

impl PolicyKind {
    /// All policies, baseline-first.
    pub const ALL: [PolicyKind; 9] = [
        PolicyKind::NoLoadSharing,
        PolicyKind::Random,
        PolicyKind::CpuOnly,
        PolicyKind::WeightedCpuMem,
        PolicyKind::GLoadSharing,
        PolicyKind::SuspendLargest,
        PolicyKind::VReconfiguration,
        PolicyKind::Malleable,
        PolicyKind::Fractional,
    ];

    /// The one name table: `[paper name, report token, kebab name]`.
    /// The paper name is the [`Display`](fmt::Display) form (and the spec
    /// wire format's), the token is the short `--policy` name and the
    /// report JSON's `policy` field, and the kebab name is the long
    /// `--policy` name. [`PolicyKind::from_name`] accepts all three.
    fn names(self) -> [&'static str; 3] {
        match self {
            PolicyKind::NoLoadSharing => ["No-Loadsharing", "none", "no-loadsharing"],
            PolicyKind::Random => ["Random", "random", "random"],
            PolicyKind::CpuOnly => ["CPU-Only", "cpu", "cpu-only"],
            PolicyKind::WeightedCpuMem => ["Weighted-CPU-Mem", "weighted", "weighted-cpu-mem"],
            PolicyKind::GLoadSharing => ["G-Loadsharing", "gls", "g-loadsharing"],
            PolicyKind::SuspendLargest => ["Suspend-Largest", "suspend", "suspend-largest"],
            PolicyKind::VReconfiguration => ["V-Reconfiguration", "vrecon", "v-reconfiguration"],
            PolicyKind::Malleable => ["Malleable", "malleable", "malleable"],
            PolicyKind::Fractional => ["Fractional", "fractional", "fractional"],
        }
    }

    /// The short token (`gls`), as written in report JSON.
    pub fn token(self) -> &'static str {
        self.names()[1]
    }

    /// The kebab-case name (`g-loadsharing`).
    pub fn kebab_name(self) -> &'static str {
        self.names()[2]
    }

    /// Resolves any of a policy's three spellings: the paper name
    /// (`G-Loadsharing`), the token (`gls`) or the kebab name
    /// (`g-loadsharing`).
    ///
    /// # Errors
    ///
    /// Names the unknown input and lists every accepted spelling.
    pub fn from_name(name: &str) -> Result<PolicyKind, String> {
        PolicyKind::ALL
            .into_iter()
            .find(|kind| kind.names().contains(&name))
            .ok_or_else(|| {
                let mut known: Vec<&str> = PolicyKind::ALL
                    .into_iter()
                    .flat_map(PolicyKind::names)
                    .collect();
                known.dedup();
                format!("unknown policy `{name}` (known: {})", known.join(", "))
            })
    }

    /// `true` if the policy performs fault-driven preemptive migration.
    pub fn migrates_on_overload(self) -> bool {
        matches!(
            self,
            PolicyKind::GLoadSharing
                | PolicyKind::VReconfiguration
                | PolicyKind::SuspendLargest
                | PolicyKind::WeightedCpuMem
                | PolicyKind::Malleable
                | PolicyKind::Fractional
        )
    }

    /// `true` if the policy suspends the most memory-intensive job on
    /// blocking (the §1 strawman).
    pub fn suspends_on_blocking(self) -> bool {
        matches!(self, PolicyKind::SuspendLargest)
    }

    /// `true` if the policy runs the adaptive virtual-reconfiguration
    /// routine on blocking.
    pub fn reconfigures(self) -> bool {
        matches!(self, PolicyKind::VReconfiguration)
    }

    /// `true` if commit-aware placement applies to this policy (the
    /// load-index family; random/CPU-only baselines ignore it).
    pub fn commit_aware_placement(self) -> bool {
        matches!(
            self,
            PolicyKind::GLoadSharing
                | PolicyKind::VReconfiguration
                | PolicyKind::SuspendLargest
                | PolicyKind::Malleable
                | PolicyKind::Fractional
        )
    }

    /// Decides where to place a newly submitted (or pending-retried) job.
    ///
    /// `home` is the workstation the user submitted to; `index` is the
    /// cluster's (possibly stale) load index. Randomized policies draw from
    /// `rng`.
    pub fn place(
        self,
        job: &RunningJob,
        home: NodeId,
        index: &LoadIndex,
        rng: &mut SimRng,
    ) -> Placement {
        match self {
            PolicyKind::NoLoadSharing => {
                // Home or nothing; the hard capacity check happens at
                // admission, a bounce lands in the pending queue.
                match index.get(home) {
                    Some(load) if load.has_slot => Placement::Local(home),
                    _ => Placement::Blocked,
                }
            }
            PolicyKind::Random => {
                let candidates: Vec<NodeId> = index
                    .iter()
                    .filter(|e| e.has_slot && !e.reserved)
                    .map(|e| e.node)
                    .collect();
                if candidates.is_empty() {
                    Placement::Blocked
                } else {
                    let pick = *rng.choose(&candidates);
                    if pick == home {
                        Placement::Local(pick)
                    } else {
                        Placement::Remote(pick)
                    }
                }
            }
            PolicyKind::CpuOnly => {
                let best = index
                    .iter()
                    .filter(|e| e.has_slot && !e.reserved)
                    .min_by_key(|e| (e.active_jobs, e.node));
                match best {
                    Some(e) if e.node == home => Placement::Local(home),
                    Some(e) => Placement::Remote(e.node),
                    None => Placement::Blocked,
                }
            }
            PolicyKind::WeightedCpuMem => {
                // Ref [13]: rank every qualified node by a combined score
                // of CPU pressure (active jobs) and memory occupancy
                // (1 - idle/user); a fully used memory weighs like a full
                // slot set.
                let demand = job.current_working_set();
                let score = |e: &vr_cluster::loadinfo::NodeLoad| {
                    let cpu = e.active_jobs as f64;
                    let mem = 1.0 - e.idle_memory.as_u64() as f64 / e.user_memory.as_u64() as f64;
                    cpu + 8.0 * mem
                };
                let best = index
                    .iter()
                    .filter(|e| e.accepts_submissions() && e.idle_memory >= demand)
                    .min_by(|a, b| {
                        score(a)
                            .partial_cmp(&score(b))
                            // vr-lint::allow(panic-in-lib, reason = "comparator contract: placement scores are ratios of finite non-negative loads, never NaN")
                            .expect("scores are never NaN")
                            .then(a.node.cmp(&b.node))
                    });
                match best {
                    Some(e) if e.node == home => Placement::Local(home),
                    Some(e) => Placement::Remote(e.node),
                    None => Placement::Blocked,
                }
            }
            PolicyKind::GLoadSharing
            | PolicyKind::VReconfiguration
            | PolicyKind::SuspendLargest
            | PolicyKind::Malleable
            | PolicyKind::Fractional => {
                // §1: accept locally when the workstation has idle memory
                // and a free job slot; otherwise remote-submit to a lightly
                // loaded workstation with available memory and slots; else
                // block. "Idle memory space" is checked against the job's
                // *currently observed* demand — the scheduler "dynamically
                // monitors ... memory demands of jobs" ([3]); growth beyond
                // it (the unexpectedly large allocations of §1) is what the
                // memory threshold and migrations must then handle.
                let demand = job.current_working_set();
                if index
                    .get(home)
                    .is_some_and(|load| load.accepts_submissions() && load.idle_memory >= demand)
                {
                    return Placement::Local(home);
                }
                // O(log n) bucket probe over the ordered placement index —
                // provably the same winner as the old linear
                // `min_by_key((active_jobs, Reverse(idle_memory), node))`.
                match index.best_destination_for(demand, Some(home)) {
                    Some(dest) => Placement::Remote(dest.node),
                    None => Placement::Blocked,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_cluster::cpu::CpuParams;
    use vr_cluster::job::{JobClass, JobId, JobSpec, MemoryProfile};
    use vr_cluster::memory::{FaultModel, MemoryParams};
    use vr_cluster::node::{NodeParams, Workstation};
    use vr_cluster::units::Bytes;
    use vr_simcore::time::{SimSpan, SimTime};

    fn test_job() -> RunningJob {
        RunningJob::new(JobSpec {
            id: JobId(0),
            name: "j".into(),
            class: JobClass::CpuIntensive,
            submit: SimTime::ZERO,
            cpu_work: SimSpan::from_secs(100),
            memory: MemoryProfile::constant(Bytes::from_mb(10)),
            io_rate: 0.0,
            malleable: None,
        })
    }

    /// Builds an index over nodes with the given (jobs, ws_mb) pairs.
    fn index_of(loads: &[(usize, u64)]) -> LoadIndex {
        let nodes: Vec<Workstation> = loads
            .iter()
            .enumerate()
            .map(|(i, &(jobs, ws))| {
                let mut n = Workstation::new(
                    NodeId(i as u32),
                    NodeParams {
                        cpu: CpuParams::with_slots(4),
                        memory: MemoryParams::with_capacity(
                            Bytes::from_mb(128),
                            Bytes::from_mb(512),
                        ),
                        fault_model: FaultModel::default(),
                        protection: Default::default(),
                    },
                );
                for j in 0..jobs {
                    let mut job = test_job();
                    job.spec.id = JobId((i * 100 + j) as u64);
                    job.spec.memory = MemoryProfile::constant(Bytes::from_mb(ws));
                    n.try_admit(job, SimTime::ZERO).unwrap();
                }
                n
            })
            .collect();
        let mut index = LoadIndex::new();
        index.refresh(nodes.iter(), SimTime::ZERO);
        index
    }

    #[test]
    fn no_load_sharing_sticks_to_home() {
        let index = index_of(&[(0, 0), (3, 10)]);
        let mut rng = SimRng::seed_from(0);
        let p = PolicyKind::NoLoadSharing.place(&test_job(), NodeId(1), &index, &mut rng);
        assert_eq!(p, Placement::Local(NodeId(1)));
    }

    #[test]
    fn no_load_sharing_blocks_when_home_is_full() {
        let index = index_of(&[(4, 10), (0, 0)]);
        let mut rng = SimRng::seed_from(0);
        let p = PolicyKind::NoLoadSharing.place(&test_job(), NodeId(0), &index, &mut rng);
        assert_eq!(p, Placement::Blocked);
    }

    #[test]
    fn cpu_only_picks_fewest_jobs_ignoring_memory() {
        // Node 1 has fewer jobs but is memory-saturated; CPU-only picks it
        // anyway.
        let index = index_of(&[(3, 10), (1, 140)]);
        let mut rng = SimRng::seed_from(0);
        let p = PolicyKind::CpuOnly.place(&test_job(), NodeId(0), &index, &mut rng);
        assert_eq!(p, Placement::Remote(NodeId(1)));
    }

    #[test]
    fn gls_prefers_home_when_qualified() {
        let index = index_of(&[(1, 10), (0, 0)]);
        let mut rng = SimRng::seed_from(0);
        let p = PolicyKind::GLoadSharing.place(&test_job(), NodeId(0), &index, &mut rng);
        assert_eq!(p, Placement::Local(NodeId(0)));
    }

    #[test]
    fn gls_goes_remote_when_home_is_memory_saturated() {
        // Home node 0 has no idle memory (140 > 128); node 1 qualifies.
        let index = index_of(&[(1, 140), (1, 10)]);
        let mut rng = SimRng::seed_from(0);
        let p = PolicyKind::GLoadSharing.place(&test_job(), NodeId(0), &index, &mut rng);
        assert_eq!(p, Placement::Remote(NodeId(1)));
    }

    #[test]
    fn gls_blocks_when_nothing_qualifies() {
        let index = index_of(&[(1, 140), (2, 70)]);
        let mut rng = SimRng::seed_from(0);
        let p = PolicyKind::GLoadSharing.place(&test_job(), NodeId(0), &index, &mut rng);
        assert_eq!(p, Placement::Blocked);
    }

    #[test]
    fn random_places_somewhere_with_a_slot() {
        let index = index_of(&[(4, 10), (1, 10), (1, 10)]);
        let mut rng = SimRng::seed_from(7);
        for _ in 0..20 {
            match PolicyKind::Random.place(&test_job(), NodeId(0), &index, &mut rng) {
                Placement::Remote(n) | Placement::Local(n) => {
                    assert_ne!(n, NodeId(0), "node 0 has no slot");
                }
                Placement::Blocked => panic!("slots were available"),
            }
        }
    }

    #[test]
    fn capability_flags() {
        assert!(!PolicyKind::NoLoadSharing.migrates_on_overload());
        assert!(!PolicyKind::CpuOnly.migrates_on_overload());
        assert!(PolicyKind::GLoadSharing.migrates_on_overload());
        assert!(!PolicyKind::GLoadSharing.reconfigures());
        assert!(PolicyKind::VReconfiguration.reconfigures());
        assert!(PolicyKind::SuspendLargest.suspends_on_blocking());
        assert!(!PolicyKind::SuspendLargest.reconfigures());
        assert!(!PolicyKind::VReconfiguration.suspends_on_blocking());
        assert!(PolicyKind::WeightedCpuMem.migrates_on_overload());
        assert!(!PolicyKind::WeightedCpuMem.reconfigures());
        assert!(PolicyKind::Malleable.migrates_on_overload());
        assert!(!PolicyKind::Malleable.reconfigures());
        assert!(PolicyKind::Fractional.migrates_on_overload());
        assert!(!PolicyKind::Fractional.suspends_on_blocking());
        assert_eq!(PolicyKind::ALL.len(), 9);
    }

    #[test]
    fn display_names_match_the_paper() {
        assert_eq!(PolicyKind::GLoadSharing.to_string(), "G-Loadsharing");
        assert_eq!(
            PolicyKind::VReconfiguration.to_string(),
            "V-Reconfiguration"
        );
    }

    #[test]
    fn vreconfiguration_places_like_gls() {
        let index = index_of(&[(1, 140), (1, 10)]);
        let mut rng1 = SimRng::seed_from(0);
        let mut rng2 = SimRng::seed_from(0);
        let job = test_job();
        assert_eq!(
            PolicyKind::GLoadSharing.place(&job, NodeId(0), &index, &mut rng1),
            PolicyKind::VReconfiguration.place(&job, NodeId(0), &index, &mut rng2)
        );
    }
}
