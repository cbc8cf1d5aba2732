//! Spans recorded from outside the program: the harness opens one around
//! each call into a layer's public function, keeps them in memory, and
//! derives busy time, self time and per-layer shares after the run.
//!
//! One driver thread makes every call, so spans nest strictly and a
//! stack of open ids is all the parent tracking needed. With tracing off
//! `enter`/`exit` do nothing — the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span that brackets a timed phase. Its self time is
/// what no layer span covers: `stage.unattributed.share`.
pub const ROOT: &str = "phase";

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name; [`layer_of`] maps it to a layer.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: u32,
    /// Operations the call covered (records, blocks, messages, reads).
    pub ops: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    rep: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording (the traced run alternates traced and untraced
    /// repetitions to measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggle only between repetitions");
        self.on = on;
    }

    /// Tags following spans with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rep: self.rep,
            ops: 0,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes a span, recording how many operations it covered.
    pub fn exit(&mut self, id: SpanId, ops: u64) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost-first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.ops = ops;
    }

    /// Records a child of `parent` whose duration was measured elsewhere
    /// (the program's own telemetry clock): it is laid at the parent's
    /// start, after any earlier child of that parent.
    pub fn measured(
        &mut self,
        parent: SpanId,
        name: &'static str,
        dur_ns: u64,
        ops: u64,
    ) -> SpanId {
        let Some(parent) = parent.0 else {
            return SpanId(None);
        };
        let parent_start = self.spans[parent as usize].start_ns;
        let start_ns = self.spans[parent as usize + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(parent_start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            rep: self.rep,
            ops,
        });
        SpanId(Some(self.spans.len() as u32 - 1))
    }

    /// Hands the recorded spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Opens a span around an expression and yields the expression's value.
#[macro_export]
macro_rules! spanned {
    ($tracer:expr, $name:expr, $ops:expr, $call:expr) => {{
        let id = $tracer.enter($name);
        let value = $call;
        $tracer.exit(id, $ops as u64);
        value
    }};
}

/// Per-span-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration.
    pub busy_ns: u64,
    /// Summed duration not covered by child spans.
    pub self_ns: u64,
    /// Summed operations.
    pub ops: u64,
}

impl Totals {
    /// Busy seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    /// Busy microseconds per operation (0 with no operations).
    pub fn us_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.busy_ns as f64 * 1e-3 / self.ops as f64
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.busy_ns += s.dur();
        t.self_ns += self_ns;
        t.ops += s.ops;
    }
    out
}

/// Layer names, in the order `stage.<layer>.share` is reported.
pub const LAYERS: &[&str] = &[
    "crypto",
    "chain.sigcache",
    "chain.mempool",
    "chain.block",
    "chain.codec",
    "chain.validate",
    "chain.store",
    "chain.storage",
    "core.platform",
    "core.node",
    "net",
    "unattributed",
];

/// The layer a span is charged to: the longest layer name that prefixes
/// the span name; the root span and anything unknown are unattributed.
pub fn layer_of(span: &str) -> &'static str {
    LAYERS
        .iter()
        .filter(|l| span == **l || span.strip_prefix(**l).is_some_and(|r| r.starts_with('.')))
        .max_by_key(|l| l.len())
        .copied()
        .unwrap_or("unattributed")
}

/// Share of the traced wall (summed root spans) spent in each layer's own
/// code. Self times partition the roots, so the shares sum to 1.
pub fn layer_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur)
        .sum();
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    if wall == 0 {
        return out;
    }
    for (s, self_ns) in spans.iter().zip(own) {
        *out.entry(layer_of(s.name)).or_default() += self_ns as f64 / wall as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("chain.mempool.insert_batch", 10, 50, Some(0)),
            span("chain.sigcache.verify_batch", 10, 40, Some(1)),
            span("crypto.ecdsa.recover", 10, 35, Some(2)),
            span("chain.store.insert", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 5, 25, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // Union of [10,60), [40,80), [90,100) covers 80 of the root.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn layer_mapping_prefers_the_longest_prefix() {
        assert_eq!(layer_of("chain.mempool.insert_batch"), "chain.mempool");
        assert_eq!(layer_of("chain.storage.commit"), "chain.storage");
        assert_eq!(layer_of("chain.store.insert"), "chain.store");
        assert_eq!(layer_of("crypto.ecdsa.recover"), "crypto");
        assert_eq!(layer_of("net.gossip.drain"), "net");
        assert_eq!(layer_of(ROOT), "unattributed");
        assert_eq!(layer_of("chain.storagex"), "unattributed");
    }

    #[test]
    fn layer_shares_sum_to_one_over_several_roots() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("chain.mempool.insert_batch", 0, 50, Some(0)),
            span("crypto.ecdsa.recover", 0, 40, Some(1)),
            span(ROOT, 200, 300, None),
            span("chain.store.insert", 210, 300, Some(3)),
        ];
        let shares = layer_shares(&spans);
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares["crypto"] - 0.20).abs() < 1e-12);
        assert!((shares["chain.mempool"] - 0.05).abs() < 1e-12);
        assert!((shares["chain.store"] - 0.45).abs() < 1e-12);
        assert!((shares["unattributed"] - 0.30).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_records_measured_children() {
        let mut t = Tracer::new(true);
        let root = t.enter(ROOT);
        let call = t.enter("chain.mempool.insert_batch");
        let verify = t.measured(call, "chain.sigcache.verify_batch", 5, 7);
        t.measured(verify, "crypto.ecdsa.recover", 4, 7);
        t.measured(call, "chain.sigcache.verify_batch", 3, 1);
        t.exit(call, 512);
        t.exit(root, 0);
        let s = t.into_spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(
            (s[2].parent, s[3].parent, s[4].parent),
            (Some(1), Some(2), Some(1))
        );
        assert_eq!(s[2].start_ns, s[1].start_ns);
        assert_eq!(s[3].start_ns, s[2].start_ns);
        assert_eq!(s[4].start_ns, s[2].end_ns);
        assert_eq!(s[1].ops, 512);

        let mut off = Tracer::new(false);
        let id = off.enter(ROOT);
        off.measured(id, "crypto.ecdsa.recover", 1, 1);
        off.exit(id, 1);
        assert!(off.into_spans().is_empty());
    }
}
