//! Policy construction: a typed parameter bag and the validated
//! [`Policy`] value the engine runs.
//!
//! [`PolicyKind`](crate::policy::PolicyKind) names the scheduling
//! families and owns their placement rule, capability flags and names.
//! [`build_policy`] pairs a kind with its [`ParamBag`] of `key=value`
//! strings, validated up front (unknown keys are rejected), and yields a
//! plain `Copy` [`Policy`] the engine holds by value. Only two families
//! take knobs: [`PolicyKind::Malleable`] (`max_step`) and
//! [`PolicyKind::Fractional`] (`oversub`); the seven classic families
//! reject every key.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};
use vr_cluster::job::{JobId, RunningJob};
use vr_cluster::loadinfo::LoadIndex;
use vr_cluster::node::{NodeId, Workstation};
use vr_simcore::rng::SimRng;

use crate::policy::{Placement, PolicyKind};

/// A typed `key=value` parameter bag for policy construction.
///
/// Keys and values are stored as strings in a deterministic order
/// (`BTreeMap`); typed access happens at policy build time via
/// [`ParamBag::get`], so a malformed value is a build error, not a silent
/// default. The wire grammar is `key=value[,key=value...]` — the CLI's
/// `--policy name:k=v,...` suffix and the fuzzer's `policy-params` line
/// both parse with [`ParamBag::parse`] and re-render byte-identically
/// with [`ParamBag::render`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamBag {
    entries: BTreeMap<String, String>,
}

impl ParamBag {
    /// An empty bag.
    pub fn new() -> Self {
        ParamBag::default()
    }

    /// Parses the `key=value[,key=value...]` grammar. The empty string is
    /// the empty bag.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or duplicate entry.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut bag = ParamBag::new();
        for part in text.split(',') {
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("parameter `{part}` is not of the form key=value"))?;
            if key.is_empty() {
                return Err(format!("parameter `{part}` has an empty key"));
            }
            if bag
                .entries
                .insert(key.to_owned(), value.to_owned())
                .is_some()
            {
                return Err(format!("duplicate parameter key `{key}`"));
            }
        }
        Ok(bag)
    }

    /// Renders the canonical `key=value[,key=value...]` form (keys in
    /// sorted order); parsing it back yields an equal bag.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.entries {
            if !out.is_empty() {
                out.push(',');
            }
            out.push_str(key);
            out.push('=');
            out.push_str(value);
        }
        out
    }

    /// `true` if the bag holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sets one parameter (builder-style).
    pub fn with(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.entries.insert(key.to_owned(), value.to_string());
        self
    }

    /// The raw string value of `key`, if present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// The value of `key` parsed as `T`, if present.
    ///
    /// # Errors
    ///
    /// Returns a description when the value fails to parse.
    pub fn get<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.entries.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("parameter `{key}={raw}` is not a valid value")),
        }
    }

    /// The keys present in the bag, in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Rejects any key outside `known` — policies call this first so a
    /// typo'd parameter fails construction instead of being ignored.
    ///
    /// # Errors
    ///
    /// Names the first unknown key and the accepted set.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        for key in self.entries.keys() {
            if !known.contains(&key.as_str()) {
                return Err(if known.is_empty() {
                    format!("unknown parameter `{key}` (this policy takes no parameters)")
                } else {
                    format!("unknown parameter `{key}` (accepted: {})", known.join(", "))
                });
            }
        }
        Ok(())
    }
}

/// A width change a policy wants applied to one resident malleable job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeDirective {
    /// Raise the job's slot width to `to`.
    Grow {
        /// The resident job to widen.
        job: JobId,
        /// Its new width (> current, ≤ its `max_width`).
        to: u32,
    },
    /// Lower the job's slot width to `to`.
    Shrink {
        /// The resident job to narrow.
        job: JobId,
        /// Its new width (< current, ≥ its `min_width`).
        to: u32,
    },
}

impl ResizeDirective {
    /// The job the directive concerns.
    pub fn job(self) -> JobId {
        match self {
            ResizeDirective::Grow { job, .. } | ResizeDirective::Shrink { job, .. } => job,
        }
    }

    /// The target width.
    pub fn to(self) -> u32 {
        match self {
            ResizeDirective::Grow { to, .. } | ResizeDirective::Shrink { to, .. } => to,
        }
    }
}

/// Tunables of the malleable family, parsed from its [`ParamBag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalleableParams {
    /// Maximum width change per job per load-exchange tick (default 1).
    pub max_step: u32,
}

impl MalleableParams {
    /// Parameter keys the malleable family accepts.
    pub const KNOWN_KEYS: &'static [&'static str] = &["max_step"];

    /// Parses and validates the malleable parameters.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys, unparsable values, and `max_step = 0`.
    pub fn from_bag(bag: &ParamBag) -> Result<Self, String> {
        bag.reject_unknown(Self::KNOWN_KEYS)?;
        let max_step = bag.get::<u32>("max_step")?.unwrap_or(1);
        if max_step == 0 {
            return Err("max_step must be at least 1".into());
        }
        Ok(MalleableParams { max_step })
    }
}

/// Tunables of the fractional family, parsed from its [`ParamBag`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FractionalParams {
    /// Slot oversubscription factor: the admission cap is
    /// `floor(slots × oversub)` (default 2.0, must be ≥ 1).
    pub oversub: f64,
}

impl FractionalParams {
    /// Parameter keys the fractional family accepts.
    pub const KNOWN_KEYS: &'static [&'static str] = &["oversub"];

    /// Parses and validates the fractional parameters.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys, unparsable values, and `oversub < 1`.
    pub fn from_bag(bag: &ParamBag) -> Result<Self, String> {
        bag.reject_unknown(Self::KNOWN_KEYS)?;
        let oversub = bag.get::<f64>("oversub")?.unwrap_or(2.0);
        if !oversub.is_finite() || oversub < 1.0 {
            return Err(format!(
                "oversub must be a finite value >= 1, got {oversub}"
            ));
        }
        Ok(FractionalParams { oversub })
    }

    /// The admission cap for a workstation with `hardware_slots` slots.
    pub fn slot_cap(&self, hardware_slots: u32) -> u32 {
        ((hardware_slots as f64 * self.oversub).floor() as u32).max(hardware_slots)
    }
}

/// A validated scheduling policy: the family plus its tunables.
///
/// Only [`build_policy`] constructs one, so holding a `Policy` means its
/// parameter bag was accepted. Placement and the capability flags come
/// from the [`PolicyKind`]; the tunables only change the admission slot
/// cap (fractional) and the resize directives (malleable). Everything is
/// deterministic — randomness draws from the `rng` handed to
/// [`Policy::place`], and [`Policy::resize`] sees only the node and a
/// recomputable pressure flag, so the independent oracle can restate
/// every decision bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    kind: PolicyKind,
    tunables: Tunables,
}

/// The validated knobs of the families that take any.
#[derive(Debug, Clone, Copy)]
enum Tunables {
    None,
    Malleable(MalleableParams),
    Fractional(FractionalParams),
}

impl Policy {
    /// The policy family (reported in
    /// [`RunReport::policy`](crate::report::RunReport::policy)).
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Decides where a newly submitted (or pending-retried) job goes.
    pub fn place(
        &self,
        job: &RunningJob,
        home: NodeId,
        index: &LoadIndex,
        rng: &mut SimRng,
    ) -> Placement {
        self.kind.place(job, home, index, rng)
    }

    /// The admission slot cap for a workstation with `hardware_slots`
    /// job slots: whole-slot reservation, except that the fractional
    /// family oversubscribes.
    pub fn slot_cap(&self, hardware_slots: u32) -> u32 {
        match self.tunables {
            Tunables::Fractional(params) => params.slot_cap(hardware_slots),
            _ => hardware_slots,
        }
    }

    /// `true` if the policy issues [`ResizeDirective`]s at load-exchange
    /// ticks (the malleable family).
    pub fn resizes(&self) -> bool {
        matches!(self.tunables, Tunables::Malleable(_))
    }

    /// At most one width change for `node` at a load-exchange tick.
    /// `pressure` is `true` when the cluster pending queue is non-empty —
    /// a flag both the engine and the oracle can recompute exactly.
    pub fn resize(&self, node: &Workstation, pressure: bool) -> Option<ResizeDirective> {
        let Tunables::Malleable(params) = self.tunables else {
            return None;
        };
        if !node.is_up() || node.is_reserved() {
            return None;
        }
        let free = node.slot_cap().saturating_sub(node.used_slots());
        if pressure && free == 0 {
            // Queue pressure and no free slot: narrow the widest
            // malleable job (ties toward the smallest id) so a pending
            // admission can land here.
            let job = node
                .jobs()
                .iter()
                .filter(|j| j.spec.malleable.is_some_and(|m| j.width > m.min_width))
                .max_by_key(|j| (j.width, std::cmp::Reverse(j.spec.id)))?;
            let min = job.spec.malleable.map_or(1, |m| m.min_width);
            let to = job.width.saturating_sub(params.max_step).max(min);
            return Some(ResizeDirective::Shrink {
                job: job.spec.id,
                to,
            });
        }
        if !pressure && free > 0 {
            // Idle capacity and an empty queue: widen the narrowest
            // malleable job (ties toward the smallest id) into the spare
            // slots.
            let job = node
                .jobs()
                .iter()
                .filter(|j| j.spec.malleable.is_some_and(|m| j.width < m.max_width))
                .min_by_key(|j| (j.width, j.spec.id))?;
            let max = job.spec.malleable.map_or(job.width, |m| m.max_width);
            let to = (job.width + params.max_step.min(free)).min(max);
            return Some(ResizeDirective::Grow {
                job: job.spec.id,
                to,
            });
        }
        None
    }
}

/// Builds the policy for `kind`, validating `params` against the keys
/// its family accepts (the classic families take none).
///
/// # Errors
///
/// Returns a description of a bad parameter bag, naming the policy.
pub fn build_policy(kind: PolicyKind, params: &ParamBag) -> Result<Policy, String> {
    let tunables = match kind {
        PolicyKind::Malleable => MalleableParams::from_bag(params).map(Tunables::Malleable),
        PolicyKind::Fractional => FractionalParams::from_bag(params).map(Tunables::Fractional),
        _ => params.reject_unknown(&[]).map(|()| Tunables::None),
    };
    tunables
        .map(|tunables| Policy { kind, tunables })
        .map_err(|e| format!("policy `{}`: {e}", kind.kebab_name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_table_covers_every_kind() {
        for kind in PolicyKind::ALL {
            for name in [kind.to_string().as_str(), kind.token(), kind.kebab_name()] {
                assert_eq!(PolicyKind::from_name(name), Ok(kind), "{name}");
            }
            let built = build_policy(kind, &ParamBag::new()).unwrap();
            assert_eq!(built.kind(), kind);
        }
        let err = PolicyKind::from_name("magic").unwrap_err();
        assert!(err.contains("unknown policy `magic`"), "{err}");
        for kind in PolicyKind::ALL {
            for name in [kind.to_string().as_str(), kind.token(), kind.kebab_name()] {
                assert!(err.contains(name), "{name} missing from: {err}");
            }
        }
    }

    #[test]
    fn param_bag_parse_render_round_trip() {
        for text in ["", "a=1", "a=1,b=two", "oversub=1.5,max_step=2"] {
            let bag = ParamBag::parse(text).unwrap();
            let rendered = bag.render();
            assert_eq!(ParamBag::parse(&rendered).unwrap(), bag, "{text}");
            // Canonical render is sorted, so re-rendering is a fixpoint.
            assert_eq!(ParamBag::parse(&rendered).unwrap().render(), rendered);
        }
        let bag = ParamBag::parse("b=2,a=1").unwrap();
        assert_eq!(bag.render(), "a=1,b=2");
    }

    #[test]
    fn param_bag_rejects_malformed_and_duplicate() {
        assert!(ParamBag::parse("noequals").is_err());
        assert!(ParamBag::parse("=v").is_err());
        assert!(ParamBag::parse("a=1,a=2").is_err());
        // Empty value is allowed (key present, value empty string).
        let bag = ParamBag::parse("a=").unwrap();
        assert_eq!(bag.get_str("a"), Some(""));
    }

    #[test]
    fn unknown_keys_are_rejected_per_policy() {
        let bag = ParamBag::new().with("bogus", 1);
        for kind in PolicyKind::ALL {
            let err = build_policy(kind, &bag).unwrap_err();
            assert!(err.contains("unknown parameter `bogus`"), "{kind:?}: {err}");
        }
        // Known keys of one family are unknown to another.
        let oversub = ParamBag::new().with("oversub", 1.5);
        assert!(build_policy(PolicyKind::Fractional, &oversub).is_ok());
        assert!(build_policy(PolicyKind::Malleable, &oversub).is_err());
        assert!(build_policy(PolicyKind::GLoadSharing, &oversub).is_err());
    }

    #[test]
    fn parameter_values_are_validated() {
        assert!(build_policy(
            PolicyKind::Fractional,
            &ParamBag::new().with("oversub", 0.5)
        )
        .is_err());
        assert!(build_policy(
            PolicyKind::Fractional,
            &ParamBag::new().with("oversub", "NaN")
        )
        .is_err());
        assert!(build_policy(PolicyKind::Malleable, &ParamBag::new().with("max_step", 0)).is_err());
        assert!(build_policy(
            PolicyKind::Malleable,
            &ParamBag::new().with("max_step", "many")
        )
        .is_err());
    }

    #[test]
    fn fractional_slot_cap_oversubscribes() {
        let unit = FractionalParams { oversub: 1.0 };
        assert_eq!(unit.slot_cap(4), 4);
        let double = FractionalParams { oversub: 2.0 };
        assert_eq!(double.slot_cap(4), 8);
        let frac = FractionalParams { oversub: 1.5 };
        assert_eq!(frac.slot_cap(4), 6);
        // floor() never goes below the hardware slots.
        assert_eq!(frac.slot_cap(1), 1);
    }

    #[test]
    fn tunables_only_change_their_own_family() {
        for kind in PolicyKind::ALL {
            let built = build_policy(kind, &ParamBag::new()).unwrap();
            assert_eq!(built.resizes(), kind == PolicyKind::Malleable, "{kind}");
            let cap = if kind == PolicyKind::Fractional { 8 } else { 4 };
            assert_eq!(built.slot_cap(4), cap, "{kind}");
        }
    }
}
