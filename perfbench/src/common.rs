//! What every workload shares: pinned compile options, the traced staged
//! compile, app inputs as DRAM overlays, oracle checks, and the per-layer
//! accumulator the uniform per-layer metrics are computed from.

use crate::stats::{geomean, median, ms, Rng};
use crate::trace::{Ctx, Tracer};
use revet_apps::{App, Workload, DRAM_BYTES};
use revet_core::{CompiledProgram, PassOptions, ProgramInstance, Session};
use revet_machine::{ExecPlan, ExecReport};
use revet_obs::ObsSink;
use revet_sltf::Word;
use std::collections::BTreeMap;
use std::time::Instant;

/// Round cap per instance (a livelock guard far above any app's need).
pub const MAX_ROUNDS: u64 = 2_000_000_000;

/// Every pass option spelled out: `PassOptions::default()` reads
/// `REVET_OPT_LEVEL` from the environment, which would let the shell pick
/// the optimizer level.
pub fn pass_options() -> PassOptions {
    PassOptions {
        if_to_select: true,
        fuse_allocators: true,
        hoist_allocators: true,
        bufferize_replicate: true,
        pack_subwords: true,
        eliminate_hierarchy: true,
        opt_level: 2,
        threads: None,
        dram_bytes: DRAM_BYTES,
    }
}

/// One app's input for one run: arguments, DRAM overlays at absolute byte
/// offsets, and the oracle's bytes for the output window.
#[derive(Clone, Debug)]
pub struct Input {
    pub args: Vec<u32>,
    pub inits: Vec<(usize, Vec<u8>)>,
    pub window: (usize, usize),
    pub expected: Vec<u8>,
}

impl Input {
    /// The app's seeded workload at `scale`, laid out as the compiler lays
    /// out DRAM symbols (equal slices of the image).
    pub fn new(app: &App, scale: usize, seed: u64) -> Input {
        let w: Workload = (app.workload)(scale, seed);
        let slice = DRAM_BYTES / app.dram_symbols();
        Input {
            args: w.args.clone(),
            inits: w
                .inits
                .iter()
                .map(|(sym, bytes)| (sym * slice, bytes.clone()))
                .collect(),
            window: (w.out_sym * slice, w.expected.len()),
            expected: w.expected,
        }
    }

    pub fn words(&self) -> Vec<Word> {
        self.args.iter().map(|&a| Word(a)).collect()
    }

    /// Writes the overlays into a DRAM image.
    pub fn load(&self, dram: &mut [u8]) {
        for (off, bytes) in &self.inits {
            dram[*off..off + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// The output window of a full DRAM image.
    pub fn window_of<'d>(&self, dram: &'d [u8]) -> &'d [u8] {
        &dram[self.window.0..self.window.0 + self.window.1]
    }

    /// Whether a full DRAM image holds the oracle's output.
    pub fn check(&self, dram: &[u8]) -> bool {
        dram.len() >= self.window.0 + self.window.1 && self.window_of(dram) == &self.expected[..]
    }
}

/// Timings and exact counts of one staged compile.
#[derive(Clone, Debug)]
pub struct CompileRecord {
    pub app: &'static str,
    pub width: u32,
    pub session_ms: f64,
    pub parse_ms: f64,
    pub lower_ms: f64,
    pub passes_ms: f64,
    pub to_dataflow_ms: f64,
    /// A separate `ExecPlan::build` of the finished graph, timed outside
    /// the op.
    pub plan_build_ms: f64,
    pub ops_before: usize,
    pub ops_after: usize,
    pub plan_nodes: usize,
    pub plan_boxed: usize,
}

impl CompileRecord {
    /// `Session::new` through `to_dataflow`.
    pub fn compile_ms(&self) -> f64 {
        self.session_ms + self.parse_ms + self.lower_ms + self.passes_ms + self.to_dataflow_ms
    }
}

/// Compiles `source` stage by stage through [`Session`], one span per
/// public stage call. The plan build is not included: see
/// [`plan_build`].
pub fn compile(
    tr: &Tracer,
    ctx: Ctx,
    app: &'static str,
    width: u32,
    source: &str,
) -> Result<(CompiledProgram, CompileRecord), String> {
    let (mut s, session) = tr.span(ctx, "core.session_new", |_| {
        Session::new(source, pass_options())
    });
    let fail = |stage: &str, e: revet_core::CoreError| format!("{app} w{width}: {stage}: {e}");
    let (r, parse) = tr.span(ctx, "lang.parse", |_| s.parse().map(|_| ()));
    r.map_err(|e| fail("parse", e))?;
    let (r, lower) = tr.span(ctx, "lang.lower_mir", |_| s.lower_mir().map(|_| ()));
    r.map_err(|e| fail("lower_mir", e))?;
    let (r, passes) = tr.span(ctx, "mir.run_passes", |_| s.run_passes().map(|_| ()));
    r.map_err(|e| fail("run_passes", e))?;
    let (r, to_df) = tr.span(ctx, "core.to_dataflow", |_| s.to_dataflow());
    let program = r.map_err(|e| fail("to_dataflow", e))?;
    let report = s
        .pass_report()
        .ok_or_else(|| format!("{app}: no pass report"))?;
    let stats = program.plan.stats();
    let record = CompileRecord {
        app,
        width,
        session_ms: ms(session),
        parse_ms: ms(parse),
        lower_ms: ms(lower),
        passes_ms: ms(passes),
        to_dataflow_ms: ms(to_df),
        plan_build_ms: 0.0,
        ops_before: report.ops_before(),
        ops_after: report.ops_after(),
        plan_nodes: stats.nodes,
        plan_boxed: stats.boxed,
    };
    Ok((program, record))
}

/// Times a separate `ExecPlan::build` of a compiled graph (the compile
/// already built the program's own plan inside `to_dataflow`).
pub fn plan_build(tr: &Tracer, program: &CompiledProgram, record: &mut CompileRecord) {
    let (plan, t) = tr.op(crate::trace::SETUP, |ctx| {
        tr.span(ctx, "plan.build", |_| ExecPlan::build(&program.graph))
            .0
    });
    std::hint::black_box(plan);
    record.plan_build_ms = ms(t);
}

/// Bytes an instance holds after the clone: the DRAM image plus queued
/// channel and node state.
pub fn instance_bytes(inst: &ProgramInstance) -> f64 {
    (inst.memory().dram.len() as u64 + inst.graph.resident_bytes()) as f64
}

/// Obs counters summed over a phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsTotals {
    pub dispatches: u64,
    pub productive: u64,
    pub stalls: [u64; 4],
}

impl ObsTotals {
    pub fn from_sink(obs: &ObsSink) -> ObsTotals {
        let c = &obs.counters;
        ObsTotals {
            dispatches: c.dispatches.get(),
            productive: c.productive.get(),
            stalls: [
                c.stalls_input_starved.get(),
                c.stalls_output_full.get(),
                c.stalls_alloc_gated.get(),
                c.stalls_dram_gated.get(),
            ],
        }
    }

    /// From `(name, value)` counter pairs (the serve `Metrics` frame).
    pub fn from_pairs(pairs: &[(String, u64)]) -> ObsTotals {
        let get = |n: &str| pairs.iter().find(|(k, _)| k == n).map_or(0, |(_, v)| *v);
        ObsTotals {
            dispatches: get("exec.dispatches"),
            productive: get("exec.productive"),
            stalls: [
                get("exec.stalls.input_starved"),
                get("exec.stalls.output_full"),
                get("exec.stalls.alloc_gated"),
                get("exec.stalls.dram_gated"),
            ],
        }
    }

    pub fn minus(&self, earlier: &ObsTotals) -> ObsTotals {
        let mut stalls = [0; 4];
        for (i, s) in stalls.iter_mut().enumerate() {
            *s = self.stalls[i].saturating_sub(earlier.stalls[i]);
        }
        ObsTotals {
            dispatches: self.dispatches.saturating_sub(earlier.dispatches),
            productive: self.productive.saturating_sub(earlier.productive),
            stalls,
        }
    }
}

/// Stall class names, in [`ObsTotals::stalls`] order.
pub const STALLS: [&str; 4] = ["input_starved", "output_full", "alloc_gated", "dram_gated"];

/// Per-layer inputs every workload fills: compiles, instantiations,
/// per-app executions, exact counts, obs counters. The uniform per-layer
/// metrics are computed from this.
#[derive(Debug, Default)]
pub struct Layers {
    pub compiles: Vec<CompileRecord>,
    pub instance_ms: Vec<f64>,
    pub instance_bytes: Vec<f64>,
    /// Per app: untimed-execution wall samples (ms).
    pub run_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Per app: instantiation samples (ms) paired with `run_ms`.
    pub app_instance_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Per app: scheduler counts of one canonical execution.
    pub reports: BTreeMap<&'static str, ExecReport>,
    pub obs: ObsTotals,
}

impl Layers {
    /// Records one instantiation (ms and bytes) for `app`.
    pub fn instance(&mut self, app: &'static str, t_ms: f64, bytes: f64) {
        self.instance_ms.push(t_ms);
        self.instance_bytes.push(bytes);
        self.app_instance_ms.entry(app).or_default().push(t_ms);
    }

    pub fn run(&mut self, app: &'static str, t_ms: f64) {
        self.run_ms.entry(app).or_default().push(t_ms);
    }
}

/// Exact counts of a phase, by name. A count recorded twice must repeat
/// exactly; [`Exact::put`] reports a mismatch.
#[derive(Debug, Default)]
pub struct Exact(pub BTreeMap<String, f64>);

impl Exact {
    /// Records `value` under `name`; `Err` if an earlier record differs.
    pub fn put(&mut self, name: String, value: f64) -> Result<(), String> {
        match self.0.get(&name) {
            Some(&old) if old.to_bits() != value.to_bits() => {
                Err(format!("exact count {name} changed: {old} then {value}"))
            }
            _ => {
                self.0.insert(name, value);
                Ok(())
            }
        }
    }
}

/// Ops attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Op times by op kind, each paired with the time of the
/// [`reference_kernel`] run last before the op on the same host.
#[derive(Debug, Default)]
pub struct Samples {
    kinds: usize,
    items: Vec<(usize, f64, Option<f64>)>,
    last_ref: Option<f64>,
    refs: Vec<f64>,
}

impl Samples {
    pub fn new(kinds: usize) -> Samples {
        Samples {
            kinds,
            ..Samples::default()
        }
    }

    /// Records one op of `kind` that took `ms`.
    pub fn push(&mut self, kind: usize, ms: f64) {
        self.items.push((kind, ms, self.last_ref));
    }

    /// Runs [`reference_kernel`] on `threads` threads at once (one: on
    /// the calling thread, where a one-thread op runs); their mean time is
    /// paired with the ops pushed after it.
    pub fn reference(&mut self, threads: usize) {
        if threads == 1 {
            self.set_reference(reference_kernel());
            return;
        }
        let total: f64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(reference_kernel)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference kernel panicked"))
                .sum()
        });
        self.set_reference(total / threads as f64);
    }

    pub fn set_reference(&mut self, ms: f64) {
        self.last_ref = Some(ms);
        self.refs.push(ms);
    }

    pub fn extend(&mut self, other: Samples) {
        self.items.extend(other.items);
        self.refs.extend(other.refs);
    }

    /// Median time of the reference kernel over the phase, in ms.
    pub fn reference_p50(&self) -> Option<f64> {
        median(&self.refs)
    }

    /// Every sample of `kind`, in ms.
    pub fn of(&self, kind: usize) -> Vec<f64> {
        self.items
            .iter()
            .filter(|(k, _, _)| *k == kind)
            .map(|(_, v, _)| *v)
            .collect()
    }

    /// Geomean over kinds of each kind's median op time, in ms (`None`
    /// unless every kind has a sample).
    pub fn p50(&self) -> Option<f64> {
        geomean_of_medians(self.kinds, self.items.iter().map(|(k, v, _)| (*k, *v)))
    }

    /// [`Samples::p50`] of the host-adjusted op times: each op's time
    /// scaled by [`adjust`] with the reference kernel run just before it.
    /// Ops with no reference before them are left out.
    pub fn adjusted_p50(&self) -> Option<f64> {
        let adjusted = self
            .items
            .iter()
            .filter_map(|(k, v, r)| r.map(|r| (*k, adjust(*v, r))));
        geomean_of_medians(self.kinds, adjusted)
    }
}

fn geomean_of_medians(kinds: usize, items: impl Iterator<Item = (usize, f64)>) -> Option<f64> {
    let mut per_kind = vec![Vec::new(); kinds];
    for (k, v) in items {
        per_kind[k].push(v);
    }
    let medians: Option<Vec<f64>> = per_kind.iter().map(|s| median(s)).collect();
    geomean(&medians?)
}

/// The [`reference_kernel`]'s time, in ms, on the host that the adjusted
/// times are scaled to: a round figure a little under its 0.57–0.6 ms on
/// an idle core of a 2 GHz Xeon (Sapphire Rapids) VM.
pub const REF_NOMINAL_MS: f64 = 0.5;

/// A time measured on the host as it is, scaled to the nominal host:
/// multiplied by [`REF_NOMINAL_MS`] over the reference kernel's time
/// measured next to it. Other tenants of a shared host slow every op for
/// seconds to minutes at a time by up to 1.7x, and slow the reference
/// kernel alike, so the adjusted time keeps the program's own cost and
/// drops most of the host's.
pub fn adjust(value: f64, reference_ms: f64) -> f64 {
    value * REF_NOMINAL_MS / reference_ms
}

/// Keys the [`reference_kernel`] sorts.
const REF_KEYS: usize = 40_000;

/// A fixed piece of CPU work that uses none of the program's code: a
/// stable sort of 40 000 seeded keys. Run on the thread an op runs on,
/// its time moves with the host's load as the executor's and simulator's
/// do; sorting tracked them better than pointer chasing, memory copies,
/// B-tree inserts or arithmetic loops. Returns its wall time in ms.
pub fn reference_kernel() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(0x5EED, 0);
    let mut keys: Vec<u64> = (0..REF_KEYS).map(|_| rng.next_u64() % 1000).collect();
    keys.sort();
    std::hint::black_box(&keys);
    ms(start.elapsed())
}

/// Runs `instance()` on a compiled program inside a span.
pub fn instantiate(tr: &Tracer, ctx: Ctx, program: &CompiledProgram) -> (ProgramInstance, f64) {
    let (inst, t) = tr.span(ctx, "instance.clone", |_| program.instance());
    (inst, ms(t))
}

/// `Instant` after `seconds` from now.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + std::time::Duration::from_secs_f64(seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_inputs_are_deterministic() {
        for app in revet_apps::all_apps() {
            let a = Input::new(&app, 8, 42);
            let b = Input::new(&app, 8, 42);
            assert_eq!(
                (&a.args, &a.inits, &a.expected),
                (&b.args, &b.inits, &b.expected)
            );
            assert_eq!(a.window, b.window);
        }
        let differs = revet_apps::all_apps()
            .iter()
            .any(|app| Input::new(app, 8, 42).inits != Input::new(app, 8, 43).inits);
        assert!(differs, "the seed must reach the inputs");
    }

    #[test]
    fn cost_cancels_a_host_slowdown() {
        let mut s = Samples::new(2);
        // No reference yet: the op counts in ms but not in cost.
        s.push(0, 99.0);
        for i in 0..500u32 {
            // The host runs everything 1.7x slower for two fifths of the run.
            let host = if (200..400).contains(&i) { 1.7 } else { 1.0 };
            s.set_reference(2.0 * host);
            s.push(0, 10.0 * host);
            s.push(1, 40.0 * host);
        }
        let close = |got: Option<f64>, want: f64| (got.unwrap() - want).abs() < 1e-9;
        assert!(close(s.adjusted_p50(), 10.0 * REF_NOMINAL_MS));
        assert!(close(s.p50(), 20.0));
        assert!(close(s.reference_p50(), 2.0));
        assert_eq!(s.of(0).len(), 501);
        // A slower program reads as a higher cost at any host speed.
        let mut slower = Samples::new(1);
        for i in 0..100u32 {
            let host = if i < 60 { 1.5 } else { 1.0 };
            slower.set_reference(2.0 * host);
            slower.push(0, 13.0 * host);
        }
        assert!(close(slower.adjusted_p50(), 6.5 * REF_NOMINAL_MS));
        // No reference at all, or a kind with no samples: undefined.
        let mut bare = Samples::new(1);
        bare.push(0, 1.0);
        assert_eq!(bare.adjusted_p50(), None);
        assert_eq!(Samples::new(3).p50(), None);
    }

    #[test]
    fn reference_kernel_takes_measurable_time() {
        let mut s = Samples::new(1);
        s.reference(2);
        s.push(0, 1.0);
        let adjusted = s.adjusted_p50().unwrap();
        assert!(adjusted > 0.0 && adjusted.is_finite());
    }

    #[test]
    fn exact_counts_must_repeat() {
        let mut e = Exact::default();
        assert!(e.put("a".into(), 1.0).is_ok());
        assert!(e.put("a".into(), 1.0).is_ok());
        assert!(e.put("a".into(), 2.0).is_err());
    }
}
