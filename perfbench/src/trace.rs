//! In-memory spans recorded around the benchmark's calls into each layer,
//! and the self-time ledger computed from them.
//!
//! A span has a name, start, end, parent, and the id of the op it belongs
//! to. Its layer is the name up to the first `.` (`lang.parse` belongs to
//! `lang`). A span's self time is its duration minus the time its child
//! spans cover; the self times of one op's spans add up to the op's time,
//! and [`Tracer::ledger`] checks that they do.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The layers a span name can belong to, in report order. `op` is the
/// root span of each op; its self time is the op's unaccounted time.
pub const LAYERS: [&str; 10] = [
    "lang", "mir", "core", "plan", "instance", "exec", "runtime", "serve", "sim", "client",
];

/// Root span name of set-up ops, left out of the ledger.
pub const SETUP: &str = "op.setup";

#[derive(Clone, Debug)]
struct Span {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// Where a new span hangs: its op and its parent span.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    op: u64,
    parent: u64,
}

/// Records spans when enabled; always measures durations, so untraced
/// runs time the same calls without storing anything.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Per-layer self time of the traced ops, as shares of their total time.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Ops counted.
    pub ops: u64,
    /// Total op time.
    pub op_time: Duration,
    /// Self time per layer (keys from [`LAYERS`]).
    pub self_time: BTreeMap<&'static str, Duration>,
    /// Self time of the op root spans: time inside an op no layer span
    /// covers.
    pub unaccounted: Duration,
    /// Ops whose spans do not nest, overlap as siblings, or whose self
    /// times do not add up to the op's time.
    pub broken_ops: u64,
}

impl Ledger {
    /// A layer's self time as a share of total op time.
    pub fn share(&self, layer: &str) -> f64 {
        let t = self.self_time.get(layer).copied().unwrap_or_default();
        ratio(t, self.op_time)
    }

    /// `1 - Σ layer self time ÷ op time`.
    pub fn unaccounted_share(&self) -> f64 {
        ratio(self.unaccounted, self.op_time)
    }
}

fn ratio(a: Duration, b: Duration) -> f64 {
    if b.is_zero() {
        0.0
    } else {
        a.as_secs_f64() / b.as_secs_f64()
    }
}

impl Tracer {
    /// A tracer that stores spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are stored.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` as a new op whose root span is `name`.
    pub fn op<T>(&self, name: &'static str, f: impl FnOnce(Ctx) -> T) -> (T, Duration) {
        self.op_from(Instant::now(), name, f)
    }

    /// Like [`Tracer::op`], but the op started at `start` (an open-loop
    /// request's due time), which may be before `f` runs.
    pub fn op_from<T>(
        &self,
        start: Instant,
        name: &'static str,
        f: impl FnOnce(Ctx) -> T,
    ) -> (T, Duration) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let value = f(Ctx { op: id, parent: id });
        let end = Instant::now();
        self.push(Span {
            id,
            parent: None,
            op: id,
            name,
            start,
            end,
        });
        (value, end.saturating_duration_since(start))
    }

    /// Runs `f` inside a child span `name` of `ctx`.
    pub fn span<T>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> T) -> (T, Duration) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let value = f(Ctx {
            op: ctx.op,
            parent: id,
        });
        let end = Instant::now();
        self.push(Span {
            id,
            parent: Some(ctx.parent),
            op: ctx.op,
            name,
            start,
            end,
        });
        (value, end - start)
    }

    /// Records an already elapsed interval as a child span of `ctx`
    /// (nothing when it is empty).
    pub fn record(&self, ctx: Ctx, name: &'static str, start: Instant, end: Instant) {
        if end > start {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(Span {
                id,
                parent: Some(ctx.parent),
                op: ctx.op,
                name,
                start,
                end,
            });
        }
    }

    fn push(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
    }

    /// Self times of every op except set-up ops, with a structural check of
    /// each op's spans.
    pub fn ledger(&self) -> Ledger {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut by_op: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in spans.iter() {
            by_op.entry(s.op).or_default().push(s);
        }
        let mut ledger = Ledger::default();
        for group in by_op.values() {
            let Some(root) = group.iter().find(|s| s.parent.is_none()) else {
                continue;
            };
            if root.name == SETUP {
                continue;
            }
            let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
            for s in group {
                if let Some(p) = s.parent {
                    children.entry(p).or_default().push(s);
                }
            }
            let mut sum_self = Duration::ZERO;
            let mut sound = true;
            let mut op_self = BTreeMap::new();
            for s in group {
                let dur = s.end.saturating_duration_since(s.start);
                let mut kids = children.get(&s.id).cloned().unwrap_or_default();
                kids.sort_by_key(|k| k.start);
                let mut covered = Duration::ZERO;
                let mut last_end = s.start;
                for k in &kids {
                    if k.start < last_end || k.end > s.end {
                        sound = false;
                    }
                    last_end = last_end.max(k.end);
                    covered += k.end.saturating_duration_since(k.start);
                }
                let self_time = dur.saturating_sub(covered);
                sum_self += self_time;
                if s.parent.is_none() {
                    ledger.unaccounted += self_time;
                } else {
                    let layer = layer_of(s.name);
                    *op_self.entry(layer).or_insert(Duration::ZERO) += self_time;
                }
            }
            let op_time = root.end.saturating_duration_since(root.start);
            let slack = Duration::from_micros(1) * group.len() as u32;
            if !sound || sum_self > op_time + slack || sum_self + slack < op_time {
                ledger.broken_ops += 1;
            }
            ledger.ops += 1;
            ledger.op_time += op_time;
            for (layer, t) in op_self {
                *ledger.self_time.entry(layer).or_insert(Duration::ZERO) += t;
            }
        }
        ledger
    }

    /// Every stored span as Chrome trace-event JSON (loadable in Perfetto):
    /// one complete event per span, timestamps in microseconds since the
    /// tracer was created, op and parent ids in `args`.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let ts = s.start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            let dur = s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6;
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.op,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The layer a span name belongs to (`op` for anything unknown, which the
/// ledger then reports as unaccounted).
pub fn layer_of(name: &str) -> &'static str {
    let prefix = name.split('.').next().unwrap_or("");
    LAYERS
        .iter()
        .copied()
        .find(|l| *l == prefix)
        .unwrap_or("op")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn self_times_add_up_to_the_op() {
        let tr = Tracer::new(true);
        tr.op("op.test", |ctx| {
            tr.span(ctx, "lang.parse", |_| spin(Duration::from_millis(2)));
            tr.span(ctx, "core.to_dataflow", |inner| {
                spin(Duration::from_millis(1));
                tr.span(inner, "plan.build", |_| spin(Duration::from_millis(1)));
            });
        });
        let l = tr.ledger();
        assert_eq!(l.ops, 1);
        assert_eq!(l.broken_ops, 0);
        let total: f64 = LAYERS.iter().map(|n| l.share(n)).sum::<f64>() + l.unaccounted_share();
        assert!((total - 1.0).abs() < 1e-3, "{total}");
        assert!(l.share("lang") > 0.3);
        assert!(l.share("plan") > 0.1);
        assert!(l.unaccounted_share() < 0.2);
    }

    #[test]
    fn setup_ops_stay_out_of_the_ledger_and_disabled_tracers_store_nothing() {
        let tr = Tracer::new(true);
        tr.op(SETUP, |ctx| tr.span(ctx, "lang.parse", |_| ()));
        assert_eq!(tr.ledger().ops, 0);
        let off = Tracer::new(false);
        let ((), d) = off.op("op.test", |_| spin(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert_eq!(off.ledger().ops, 0);
        assert_eq!(off.chrome_json(), "{\"traceEvents\":[\n\n]}\n");
    }

    #[test]
    fn layer_names() {
        assert_eq!(layer_of("lang.parse"), "lang");
        assert_eq!(layer_of("serve.execute"), "serve");
        assert_eq!(layer_of("op.edit_run"), "op");
        assert_eq!(layer_of("mystery"), "op");
    }
}
