//! # vr-cluster — the workstation substrate
//!
//! Models of everything physical in the ICDCS 2002 reproduction: jobs and
//! their memory demand, workstations with round-robin multiprogramming and a
//! page-fault model, the interconnect, and the global load index that
//! scheduling policies read.
//!
//! * [`units`] — [`Bytes`] memory quantities.
//! * [`job`] — [`JobSpec`] / [`RunningJob`]
//!   with the §5 [`TimeBreakdown`]
//!   (`wall = cpu + page + queue + migration`).
//! * [`cpu`] — processor-sharing approximation of round-robin scheduling.
//! * [`memory`] — the linear-overflow [`FaultModel`]
//!   substituting the original kernel-trace-driven fault model.
//! * [`node`] — the [`Workstation`] with lazy piecewise
//!   advancement.
//! * [`node_set`] — [`NodeSet`], the dense node-id bitset behind the
//!   engine's sweep sets.
//! * [`network`] — remote submission and `r + D/B` migration costs.
//! * [`netram`] — the network-RAM extension (§2.3 / ref \[12]): faults
//!   served from remote idle memory.
//! * [`loadinfo`] — the periodically exchanged
//!   [`LoadIndex`].
//! * [`params`] — the paper's two 32-node clusters and heterogeneous
//!   variants.
//! * [`protection`] — intra-node thrashing protection (TPF, ref \[6]),
//!   ablated against inter-node reconfiguration.
//!
//! ```
//! use vr_cluster::params::ClusterParams;
//! use vr_cluster::job::{JobClass, JobId, JobSpec, MemoryProfile, RunningJob};
//! use vr_cluster::units::Bytes;
//! use vr_simcore::time::{SimSpan, SimTime};
//!
//! let mut nodes = ClusterParams::cluster2().build_nodes();
//! let job = RunningJob::new(JobSpec {
//!     id: JobId(1),
//!     name: "m-sort".into(),
//!     class: JobClass::MemoryIntensive,
//!     submit: SimTime::ZERO,
//!     cpu_work: SimSpan::from_secs(120),
//!     memory: MemoryProfile::constant(Bytes::from_mb(60)),
//!     io_rate: 0.0,
//!     malleable: None,
//! });
//! nodes[0].try_admit(job, SimTime::ZERO).unwrap();
//! nodes[0].advance_to(SimTime::from_secs(121));
//! assert_eq!(nodes[0].take_completed().len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cpu;
pub mod job;
pub mod loadinfo;
pub mod memory;
pub mod netram;
pub mod network;
pub mod node;
pub mod node_set;
pub mod params;
pub mod protection;
pub mod units;

pub use cpu::CpuParams;
pub use job::{JobClass, JobId, JobSpec, MemoryProfile, RunningJob, TimeBreakdown};
pub use loadinfo::{LoadIndex, NodeLoad};
pub use memory::{FaultModel, MemoryParams};
pub use netram::NetworkRamParams;
pub use network::NetworkParams;
pub use node::{NodeId, NodeParams, Workstation};
pub use node_set::NodeSet;
pub use params::ClusterParams;
pub use protection::ThrashingProtection;
pub use units::Bytes;
