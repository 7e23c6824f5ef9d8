//! The Revet benchmark: four workloads timed from outside the program,
//! every output checked against the app oracles.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exec-large|compile-small|serve-mixed|sim-paper \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures for `S` seconds untraced and reports the
//! end-to-end metrics: `setup_s`, the median of [`SETUP_REPEATS`]
//! set-ups, and `op_ms.p50`, the geomean over the workload's op kinds of
//! each kind's median op time. The op is one instance of a batch
//! (exec-large), one edit–compile–run (compile-small), one `Execute` or
//! streaming chunk (serve-mixed) and one `Simulator::run` (sim-paper). Both are host-adjusted: each set-up and
//! each op is paired with a fixed reference kernel run next to it on the
//! same thread, and scaled to a host where that kernel takes
//! [`common::REF_NOMINAL_MS`] (see [`common::adjust`]). The times as
//! measured are printed beside them (`setup_s.raw`, `op_ms.raw_p50`), as
//! is the reference kernel's median time (`host.reference_ms`).
//!
//! `--trace 1` measures `S/2` seconds untraced, then `S/2` seconds with
//! spans recorded around every call into a layer, and reports the
//! per-layer metrics; the spans are written to
//! `perfbench/out/<workload>.trace.json`.
//!
//! Both modes print the workload's own metrics one per line
//! (`name value unit`, or `name value exact` for counts that must repeat
//! exactly for a seed) before the last line, which is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An op fails when it
//! errors, is refused, or its output differs from the oracle.

mod common;
mod compile_small;
mod exec_large;
mod serve_mixed;
mod sim_paper;
mod stats;
mod trace;

use common::{adjust, reference_kernel, Exact, Layers, Samples, Tally, STALLS};
use stats::median;
use std::collections::BTreeSet;
use std::time::Instant;
use trace::{Ledger, Tracer, LAYERS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Apps compiled at this replicate width in every workload, so the
/// width-keyed per-layer counts exist everywhere.
pub const REF_WIDTH: u32 = 8;

/// One measured phase of a workload.
#[derive(Debug, Default)]
pub struct Phase {
    pub tally: Tally,
    /// The workload's `op_ms.p50`, host-adjusted (see
    /// [`common::Samples::adjusted_p50`]).
    pub op_ms: f64,
    /// Workload-specific metrics, printed one per line.
    pub lines: Vec<(String, f64, &'static str)>,
    /// Counts that must repeat exactly between phases.
    pub exact: Exact,
    pub layers: Layers,
}

impl Phase {
    /// Takes the phase's op times: the host-adjusted `op_ms.p50`, and the
    /// measured `op_ms.raw_p50` and reference-kernel time as lines.
    pub fn ops(&mut self, samples: &Samples) {
        self.op_ms = samples.adjusted_p50().unwrap_or(0.0);
        let raw = samples.p50().unwrap_or(0.0);
        let reference = samples.reference_p50().unwrap_or(0.0);
        self.lines.push(("op_ms.raw_p50".into(), raw, "ms"));
        self.lines
            .push(("host.reference_ms".into(), reference, "ms"));
    }
}

/// A workload: built by `setup`, measured by `measure`.
pub trait Bench: Sized {
    /// Builds the workload's state; compiles record into `layers`.
    fn setup(seed: u64, tr: &Tracer, layers: &mut Layers) -> Result<Self, String>;
    /// Runs ops for `seconds`, recording spans into `tr`.
    fn measure(&mut self, tr: &Tracer, seconds: f64) -> Phase;
    /// Releases what set-up started (threads, sockets).
    fn teardown(self) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "exec-large" => run::<exec_large::ExecLarge>(&args),
        "compile-small" => run::<compile_small::CompileSmall>(&args),
        "serve-mixed" => run::<serve_mixed::ServeMixed>(&args),
        "sim-paper" => run::<sim_paper::SimPaper>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Set up `SETUP_REPEATS` times, measure, and render the result line.
fn run<B: Bench>(args: &Args) -> Result<String, String> {
    let traced = Tracer::new(args.trace);
    let mut setup_layers = Layers::default();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut bench = None;
    // The kernel's first call pays for faulting in its buffers.
    reference_kernel();
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = bench.take() {
            B::teardown(old);
        }
        let before = reference_kernel();
        let t = Instant::now();
        bench = Some(B::setup(args.seed, &traced, &mut setup_layers)?);
        let raw = t.elapsed().as_secs_f64();
        let after = reference_kernel();
        raw_setups.push(raw);
        setups.push(adjust(raw, (before + after) / 2.0));
    }
    let mut bench = bench.expect("at least one set-up");
    let setup_s = median(&setups).expect("set-up samples");
    println!(
        "setup_s.raw {} s",
        median(&raw_setups).expect("set-up samples")
    );
    let mut tally = Tally::default();
    let compile_ms: Vec<f64> = setup_layers
        .compiles
        .iter()
        .map(|r| r.compile_ms())
        .collect();
    for line in stats::dist("setup.compile_ms", &compile_ms) {
        println!("{} {} {}", line.0, line.1, line.2);
    }
    let compiled = compile_counts(&setup_layers, &mut tally);
    for (name, value) in &compiled.0 {
        println!("{name} {value} exact");
    }

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if !args.trace {
        let phase = bench.measure(&Tracer::new(false), args.seconds);
        print_lines(&phase);
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("op_ms.p50".into(), phase.op_ms, "ms"));
        tally.absorb(phase.tally);
    } else {
        let plain = bench.measure(&Tracer::new(false), args.seconds / 2.0);
        let mut phase = bench.measure(&traced, args.seconds / 2.0);
        let diff = exact_diff(&plain.exact, &phase.exact);
        if !diff.is_empty() {
            phase.tally.fail(format!(
                "exact counts differ between the untraced and traced phases: {diff}"
            ));
        }
        print_lines(&phase);
        let ledger = traced.ledger();
        if ledger.broken_ops > 0 {
            phase.tally.fail(format!(
                "{} traced ops whose span self times do not add up",
                ledger.broken_ops
            ));
        }
        if ledger.unaccounted_share() > MAX_UNACCOUNTED {
            phase.tally.fail(format!(
                "ledger.unaccounted_share {:.4} exceeds {MAX_UNACCOUNTED}",
                ledger.unaccounted_share()
            ));
        }
        let mut layers = std::mem::take(&mut phase.layers);
        merge_layers(&mut layers, setup_layers);
        metrics = per_layer(&layers, &ledger, phase.op_ms / plain.op_ms, ledger.ops);
        write_trace(&args.workload, &traced);
        tally.absorb(plain.tally);
        tally.absorb(phase.tally);
    }
    B::teardown(bench);
    let rss = peak_rss_mb();
    println!("peak_rss_mb {rss} MB");
    if args.trace {
        metrics.push(("peak_rss_mb".into(), rss, "MB"));
    }
    for e in &tally.errors {
        eprintln!("perfbench: failed op: {e}");
    }
    println!(
        "fail_ratio {} ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    Ok(result_line(&tally, &metrics))
}

/// The exact counts of every set-up compile, which must repeat across the
/// set-ups; a count that differs fails an op.
fn compile_counts(layers: &Layers, tally: &mut Tally) -> Exact {
    let mut exact = Exact::default();
    for r in &layers.compiles {
        let key = format!("{}.w{}", r.app, r.width);
        let counts = [
            (format!("mir.ops_before.{key}"), r.ops_before),
            (format!("mir.ops_after.{key}"), r.ops_after),
            (format!("plan.nodes.{key}"), r.plan_nodes),
            (format!("plan.boxed.{key}"), r.plan_boxed),
        ];
        for (name, value) in counts {
            if let Err(e) = exact.put(name, value as f64) {
                tally.fail(format!("set-up compiles differ: {e}"));
            }
        }
    }
    exact
}

/// Names of counts both phases recorded with different values.
fn exact_diff(a: &Exact, b: &Exact) -> String {
    a.0.iter()
        .filter(|(k, v)| b.0.get(*k).is_some_and(|w| w.to_bits() != v.to_bits()))
        .take(4)
        .map(|(k, v)| format!("{k}: {v} vs {:?}", b.0.get(k)))
        .collect::<Vec<_>>()
        .join("; ")
}

/// Largest share of traced op time the layer spans may leave uncovered.
const MAX_UNACCOUNTED: f64 = 0.05;

fn print_lines(phase: &Phase) {
    for (name, value, unit) in &phase.lines {
        println!("{name} {value} {unit}");
    }
    for (name, value) in &phase.exact.0 {
        println!("{name} {value} exact");
    }
}

fn merge_layers(into: &mut Layers, from: Layers) {
    into.compiles.extend(from.compiles);
    into.instance_ms.extend(from.instance_ms);
    into.instance_bytes.extend(from.instance_bytes);
    for (app, v) in from.run_ms {
        into.run_ms.entry(app).or_default().extend(v);
    }
    for (app, v) in from.app_instance_ms {
        into.app_instance_ms.entry(app).or_default().extend(v);
    }
    for (app, r) in from.reports {
        into.reports.entry(app).or_insert(r);
    }
}

/// The uniform per-layer metrics, reported by every workload's traced run.
fn per_layer(
    layers: &Layers,
    ledger: &Ledger,
    overhead_ratio: f64,
    ops: u64,
) -> Vec<(String, f64, &'static str)> {
    let c = &layers.compiles;
    let med = |f: fn(&common::CompileRecord) -> f64| {
        median(&c.iter().map(f).filter(|v| *v > 0.0).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let to_df = med(|r| r.to_dataflow_ms);
    let plan = med(|r| r.plan_build_ms);
    let mut seen = BTreeSet::new();
    let (mut before, mut after) = (0usize, 0usize);
    for r in c {
        if seen.insert((r.app, r.width)) {
            before += r.ops_before;
            after += r.ops_after;
        }
    }
    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("lang.parse_ms".into(), med(|r| r.parse_ms), "ms"),
        ("lang.lower_ms".into(), med(|r| r.lower_ms), "ms"),
        ("mir.passes_ms".into(), med(|r| r.passes_ms), "ms"),
        (
            "mir.ops_after_ratio".into(),
            after as f64 / before.max(1) as f64,
            "ratio",
        ),
        ("core.to_dataflow_ms".into(), to_df, "ms"),
        ("plan.build_ms".into(), plan, "ms"),
        ("plan.build_share".into(), plan / to_df, "ratio"),
    ];
    for app in revet_apps::all_apps() {
        let r = c
            .iter()
            .find(|r| r.app == app.name && r.width == REF_WIDTH)
            .map_or(0.0, |r| r.plan_boxed as f64 / r.plan_nodes.max(1) as f64);
        m.push((format!("plan.boxed_share.{}", app.name), r, "ratio"));
    }
    m.push((
        "instance.ms".into(),
        median(&layers.instance_ms).unwrap_or(0.0),
        "ms",
    ));
    m.push((
        "instance.bytes".into(),
        median(&layers.instance_bytes).unwrap_or(0.0),
        "bytes",
    ));
    for app in revet_apps::all_apps() {
        let n = app.name;
        let run = layers.run_ms.get(n).and_then(|v| median(v)).unwrap_or(0.0);
        let inst = layers
            .app_instance_ms
            .get(n)
            .and_then(|v| median(v))
            .unwrap_or(0.0);
        let report = layers.reports.get(n).cloned().unwrap_or_default();
        m.push((format!("exec.run_ms.{n}"), run, "ms"));
        m.push((
            format!("exec.instance_share.{n}"),
            inst / (inst + run).max(f64::MIN_POSITIVE),
            "ratio",
        ));
        m.push((format!("exec.steps.{n}"), report.steps as f64, "count"));
        m.push((
            format!("exec.productive_ratio.{n}"),
            report.productive_ratio(),
            "ratio",
        ));
    }
    let per_op = |v: u64| v as f64 / ops.max(1) as f64;
    m.push((
        "obs.dispatches".into(),
        per_op(layers.obs.dispatches),
        "count/op",
    ));
    m.push((
        "obs.productive".into(),
        per_op(layers.obs.productive),
        "count/op",
    ));
    for (i, class) in STALLS.iter().enumerate() {
        m.push((
            format!("obs.stalls.{class}"),
            per_op(layers.obs.stalls[i]),
            "count/op",
        ));
    }
    for layer in LAYERS {
        m.push((
            format!("ledger.{layer}_share"),
            ledger.share(layer),
            "ratio",
        ));
    }
    m.push((
        "ledger.unaccounted_share".into(),
        ledger.unaccounted_share(),
        "ratio",
    ));
    m.push(("trace.overhead_ratio".into(), overhead_ratio, "ratio"));
    m
}

fn write_trace(workload: &str, tr: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}.trace.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.chrome_json()));
    match written {
        Ok(()) => println!("trace {}", path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}

fn result_line(tally: &Tally, metrics: &[(String, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// Peak resident memory of this process (the kernel's `ru_maxrss`, which
/// is `VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    // `struct rusage` on Linux: two `timeval`s then fourteen `long`s, of
    // which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C `struct
    // rusage` of 64-bit Linux, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.longs[0] as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn result_line_shape() {
        let mut t = Tally::default();
        t.ok();
        let line = result_line(&t, &[("setup_s".into(), 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn ms_of_duration() {
        assert_eq!(stats::ms(std::time::Duration::from_micros(1500)), 1.5);
    }
}
