//! In-memory span tracing for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer:
//! name, start, end, parent span and op ID. Counters the program returns
//! about work done inside a call (server-side seconds, for example) are
//! attached to the op as *attributed* durations. Spans stay in memory
//! and are written out once, after the run.
//!
//! [`Tracer::breakdown`] turns the spans of each op into layer self
//! times. The op interval is cut at every span boundary; each piece goes
//! to the innermost spans open over it, shared equally when spans on
//! different threads overlap. What no child span covers, less the
//! attributed durations, is the op's unexplained remainder. Self times
//! plus attributed durations plus the remainder must add up to the op
//! latency, which [`Tracer::breakdown`] checks for every op.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the tracer.
    pub id: u64,
    /// The enclosing span, `None` for an op's root.
    pub parent: Option<u64>,
    /// The op this span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `tile_exec`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
}

/// A duration the program reported for work inside an op.
#[derive(Debug, Clone)]
struct Attribution {
    op: u64,
    name: &'static str,
    seconds: f64,
}

/// Where one op's latency went.
#[derive(Debug, Clone)]
pub struct OpBreakdown {
    /// The op ID.
    pub op: u64,
    /// Root span duration.
    pub latency: f64,
    /// Self time per span name, plus attributed durations by name.
    pub self_times: BTreeMap<&'static str, f64>,
    /// Latency no span or attribution explains.
    pub remainder: f64,
}

/// Slack for comparisons of span bounds and sums, in seconds.
const EPS: f64 = 1e-9;

/// Span and attribution store shared by the tracing threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    attributions: Mutex<Vec<Attribution>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            attributions: Mutex::new(Vec::new()),
        }
    }

    /// Time `f` as span `name` of `op` under `parent`; `f` receives the
    /// new span's ID so nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        op: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        // relaxed-ok: the counter only hands out unique IDs.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("span store poisoned by a panicking tracer thread")
            .push(Span {
                id,
                parent,
                op,
                name,
                start,
                end,
            });
        out
    }

    /// Attach `seconds` of work the program reported inside `op`.
    pub fn attribute(&self, op: u64, name: &'static str, seconds: f64) {
        self.attributions
            .lock()
            .expect("attribution store poisoned by a panicking tracer thread")
            .push(Attribution { op, name, seconds });
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking tracer thread")
            .clone()
    }

    /// Write every span and attribution as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9}}}",
                s.id, s.op, s.name, s.start, s.end
            )?;
        }
        let attributions = self
            .attributions
            .lock()
            .expect("attribution store poisoned by a panicking tracer thread")
            .clone();
        for a in attributions {
            writeln!(
                out,
                "{{\"kind\":\"attributed\",\"op\":{},\"name\":\"{}\",\"seconds\":{:.9}}}",
                a.op, a.name, a.seconds
            )?;
        }
        out.flush()
    }

    /// Self-time breakdown of every op whose root span is named `root`,
    /// in op order. Fails if a child span leaves its parent's interval,
    /// if the attributed durations exceed the time no child span covers,
    /// or if the parts do not add up to the op latency.
    pub fn breakdown(&self, root: &str) -> Result<Vec<OpBreakdown>, String> {
        let spans = self.spans();
        let attributions = self
            .attributions
            .lock()
            .expect("attribution store poisoned by a panicking tracer thread")
            .clone();
        let mut by_op: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
        for s in spans {
            by_op.entry(s.op).or_default().push(s);
        }
        let mut out = Vec::new();
        for (op, op_spans) in by_op {
            let Some(root_span) = op_spans
                .iter()
                .find(|s| s.parent.is_none() && s.name == root)
                .cloned()
            else {
                continue;
            };
            let tree = descendants(&op_spans, root_span.id);
            let attributed: Vec<&Attribution> =
                attributions.iter().filter(|a| a.op == op).collect();
            out.push(op_breakdown(&root_span, &tree, &attributed)?);
        }
        Ok(out)
    }
}

/// The root and every span below it.
fn descendants(spans: &[Span], root: u64) -> Vec<Span> {
    let mut tree: Vec<Span> = spans.iter().filter(|s| s.id == root).cloned().collect();
    let mut frontier = vec![root];
    while let Some(parent) = frontier.pop() {
        for s in spans.iter().filter(|s| s.parent == Some(parent)) {
            frontier.push(s.id);
            tree.push(s.clone());
        }
    }
    tree
}

fn op_breakdown(
    root: &Span,
    tree: &[Span],
    attributed: &[&Attribution],
) -> Result<OpBreakdown, String> {
    let by_id: BTreeMap<u64, &Span> = tree.iter().map(|s| (s.id, s)).collect();
    for s in tree {
        if let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) {
            if s.start < parent.start - EPS || s.end > parent.end + EPS {
                return Err(format!(
                    "op {}: span {} leaves its parent {}",
                    root.op, s.name, parent.name
                ));
            }
        }
    }
    let mut cuts: Vec<f64> = tree
        .iter()
        .flat_map(|s| [s.start, s.end])
        .map(|t| t.clamp(root.start, root.end))
        .collect();
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut share: BTreeMap<u64, f64> = BTreeMap::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let open: Vec<&Span> = tree.iter().filter(|s| s.start <= a && s.end >= b).collect();
        let innermost: Vec<&&Span> = open
            .iter()
            .filter(|s| !open.iter().any(|c| c.parent == Some(s.id)))
            .collect();
        let piece = (b - a) / innermost.len().max(1) as f64;
        for s in innermost {
            *share.entry(s.id).or_default() += piece;
        }
    }
    let latency = root.end - root.start;
    let mut self_times: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut explained = 0.0;
    for s in tree.iter().filter(|s| s.id != root.id) {
        let t = share.get(&s.id).copied().unwrap_or(0.0);
        *self_times.entry(s.name).or_default() += t;
        explained += t;
    }
    let uncovered = share.get(&root.id).copied().unwrap_or(0.0);
    let mut reported = 0.0;
    for a in attributed {
        *self_times.entry(a.name).or_default() += a.seconds;
        reported += a.seconds;
    }
    let remainder = uncovered - reported;
    if remainder < -1e-6 {
        return Err(format!(
            "op {}: attributed {reported:.6} s exceeds the {uncovered:.6} s no span covers",
            root.op
        ));
    }
    let total = explained + reported + remainder;
    if (total - latency).abs() > EPS * latency.max(1.0) * 1e3 {
        return Err(format!(
            "op {}: self times {explained:.9} + attributed {reported:.9} + remainder \
             {remainder:.9} != latency {latency:.9}",
            root.op
        ));
    }
    Ok(OpBreakdown {
        op: root.op,
        latency,
        self_times,
        remainder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            op: 7,
            name,
            start,
            end,
        }
    }

    #[test]
    fn nested_self_times_reconcile() {
        let tree = vec![
            span(1, None, "op", 0.0, 10.0),
            span(2, Some(1), "a", 1.0, 4.0),
            span(3, Some(2), "b", 2.0, 3.0),
            span(4, Some(1), "c", 5.0, 9.0),
        ];
        let attr = Attribution {
            op: 7,
            name: "server",
            seconds: 0.5,
        };
        let b = op_breakdown(&tree[0], &tree, &[&attr]).expect("reconciles");
        assert_eq!(b.self_times["a"], 2.0);
        assert_eq!(b.self_times["b"], 1.0);
        assert_eq!(b.self_times["c"], 4.0);
        assert_eq!(b.self_times["server"], 0.5);
        assert!((b.remainder - 2.5).abs() < 1e-12);
    }

    #[test]
    fn overlapping_siblings_share_time() {
        let tree = vec![
            span(1, None, "op", 0.0, 4.0),
            span(2, Some(1), "x", 0.0, 2.0),
            span(3, Some(1), "y", 1.0, 3.0),
        ];
        let b = op_breakdown(&tree[0], &tree, &[]).expect("reconciles");
        assert_eq!(b.self_times["x"], 1.5);
        assert_eq!(b.self_times["y"], 1.5);
        assert_eq!(b.remainder, 1.0);
    }

    #[test]
    fn escaping_child_and_oversized_attribution_fail() {
        let escaping = vec![
            span(1, None, "op", 0.0, 1.0),
            span(2, Some(1), "a", 0.5, 2.0),
        ];
        assert!(op_breakdown(&escaping[0], &escaping, &[]).is_err());
        let tree = vec![span(1, None, "op", 0.0, 1.0)];
        let attr = Attribution {
            op: 7,
            name: "server",
            seconds: 2.0,
        };
        assert!(op_breakdown(&tree[0], &tree, &[&attr]).is_err());
    }
}
