//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only at the benchmark's own calls into each layer
//! (name, start, end, parent), kept in memory and written out once at the
//! end. A span's self time is its duration minus the part of its interval
//! covered by its children, so overlapping children (concurrent client
//! requests) are not subtracted twice.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use vr_serve::clock::Stopwatch;
use vr_simcore::jsonio::Json;

/// Identifies a recorded span; used as the parent of nested spans.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Thread-safe span store.
pub struct Recorder {
    origin: Stopwatch,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Stopwatch::start(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        (self.origin.elapsed_secs() * 1e9) as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so it can open children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
        out
    }

    /// Self time of every span, in nanoseconds, indexed like the spans.
    fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per-name totals: `(count, total_ns, self_ns)`.
    fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.lock();
        let selfs = Self::self_times(&spans);
        let mut acc: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in spans.iter().zip(selfs) {
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        acc
    }

    /// Writes every span plus the per-name summary as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let summary = self.by_name();
        let spans = self.lock().clone();
        let selfs = Self::self_times(&spans);
        let doc = Json::obj([
            (
                "summary",
                Json::obj(summary.iter().map(|(name, &(count, total, own))| {
                    (
                        name.to_string(),
                        Json::obj([
                            ("count", Json::U64(count)),
                            ("total_s", Json::f64(total as f64 / 1e9)),
                            ("self_s", Json::f64(own as f64 / 1e9)),
                        ]),
                    )
                })),
            ),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .zip(selfs)
                        .map(|(s, own)| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                                ),
                                ("start_ns", Json::U64(s.start_ns)),
                                ("end_ns", Json::U64(s.end_ns)),
                                ("self_ns", Json::U64(own)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render() + "\n")
    }

    /// Prints the per-name span table (count, total, self) to stderr.
    pub fn print_self_times(&self) {
        eprintln!(
            "{:<34} {:>8} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, (count, total, own)) in self.by_name() {
            eprintln!(
                "{name:<34} {count:>8} {:>12.4} {:>12.4}",
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
    }
}

/// Runs `f` inside a span when tracing, or directly when not.
pub fn traced<T>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    match rec {
        Some(r) => r.span(name, parent, |id| f(Some(id))),
        None => f(None),
    }
}
