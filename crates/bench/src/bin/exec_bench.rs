//! Executor + optimizer benchmark over the eight Table III apps.
//!
//! Two sections:
//!
//! 1. **Optimizer effect** — every app compiles twice, classical
//!    optimizations off (`--opt-level 0` equivalent) and at the default
//!    level 2, and runs on the *unfused* plan
//!    ([`revet_machine::ExecPlan::build_unfused`], one dispatch per node
//!    step, so step counts are comparable across opt levels); reports MIR
//!    op counts, context/link counts, and executor steps for both while
//!    asserting bit-identical DRAM — the optimizer must never change
//!    results.
//! 2. **Fused vs unfused plan** — at the default opt level, every app
//!    runs through the compiled, fused [`revet_machine::ExecPlan`] and the
//!    unfused reference, asserting bit-identical DRAM between the two, and
//!    measures whole-run throughput (instances/sec, including
//!    per-instance graph cloning — the `revet-serve` cost model).
//!    `plan speedup` is the ratio of execution-only wall time per
//!    instance (unfused / fused): how much faster fusion retires the
//!    *same work*. Step counts are printed but never turned into rates: a
//!    fused segment counts as one step, so step rates are not comparable
//!    across the two plans.
//!
//! Usage:
//! `cargo run --release -p revet-bench --bin exec_bench \
//!    [scale] [--json PATH] [--baseline PATH] [--criterion]`
//!
//! `--json PATH` writes the per-app rows as a schema-versioned JSON
//! object (the CI artifact `BENCH_exec.json`). `--baseline PATH` reads a
//! previously committed artifact and **fails the process** if any app's
//! plan speedup drops below 0.8x its baseline value — wall-clock rates
//! vary across machines, the speedup *ratio* is the stable trajectory
//! signal. `--criterion` appends the Criterion wall-clock comparison on
//! the largest app graph.

use criterion::{black_box, Criterion};
use revet_apps::{all_apps, App};
use revet_bench::{prepare_app, PreparedApp};
use revet_core::{PassOptions, Session};
use revet_machine::{ExecPlan, ExecReport};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Static + dynamic measurements for one app at one opt level.
struct Side {
    mir_ops: usize,
    contexts: usize,
    links: usize,
    steps: u64,
}

/// Wall-clock measurements for one plan at the default level.
struct Rate {
    steps: u64,
    instances_per_sec: f64,
    /// Execution-only seconds per instance (graph cloning excluded).
    exec_per_instance: f64,
}

struct Row {
    name: &'static str,
    unopt: Side,
    opt: Side,
    planned: Rate,
    unfused: Rate,
}

impl Row {
    /// Execution-only wall-clock speedup of the fused plan over the
    /// unfused one on identical work (same program, same inputs).
    fn plan_speedup(&self) -> f64 {
        self.unfused.exec_per_instance / self.planned.exec_per_instance
    }
}

fn opts_at(level: u8) -> PassOptions {
    PassOptions {
        opt_level: level,
        ..PassOptions::default()
    }
}

/// Counts post-pipeline MIR ops for `app` at `level` (the compiled
/// program keeps only the dataflow graph, so the MIR census runs through
/// a separate staged session on the same source).
fn mir_ops(app: &App, outer: u32, level: u8) -> usize {
    let mut opts = opts_at(level);
    opts.dram_bytes = revet_apps::DRAM_BYTES;
    let mut s = Session::new((app.source)(outer), opts);
    s.run_passes()
        .unwrap_or_else(|e| panic!("{}: {e}", app.name))
        .op_count()
}

/// Prepares `app` at `level` with its plan swapped for the unfused one
/// (instances taken from it run every node boxed).
fn prepare_unfused(app: &App, scale: usize, level: u8) -> PreparedApp {
    let mut p = prepare_app(app, revet_bench::DEFAULT_OUTER, scale, &opts_at(level));
    p.program.plan = Arc::new(ExecPlan::build_unfused(&p.program.graph));
    p
}

/// Compiles and runs `app` on the unfused plan at `level`; returns the
/// measurements and the final DRAM image (for the bit-identical
/// cross-check). Unfused steps are the comparable dynamic metric across
/// opt levels — fused dispatch counts depend on how many nodes fused into
/// each segment.
fn measure(app: &App, scale: usize, level: u8) -> (Side, Vec<u8>) {
    let mut p = prepare_unfused(app, scale, level);
    let report: ExecReport = p.program.run_untimed(&p.args, 200_000_000).unwrap();
    app.check(&p.program, &p.workload);
    let side = Side {
        mir_ops: mir_ops(app, revet_bench::DEFAULT_OUTER, level),
        contexts: p.program.contexts.len(),
        links: p.program.links.len(),
        steps: report.steps,
    };
    (side, p.program.graph.mem.dram.clone())
}

/// One timed run: instantiates the compiled program and runs it to
/// quiescence on the plan it carries, returning the report, the clone+run
/// wall time, the run-only wall time, and the final DRAM.
fn one_run(p: &PreparedApp) -> (ExecReport, Duration, Duration, Vec<u8>) {
    let t0 = Instant::now();
    let mut inst = p.program.instance();
    let t1 = Instant::now();
    let r = inst.run_untimed(&p.args, 200_000_000).unwrap();
    let exec = t1.elapsed();
    (r, t0.elapsed(), exec, inst.into_memory().dram)
}

/// Times the fused (`fused`) and unfused (`unfused`) preparations of one
/// app, *interleaved* round-robin so machine-load swings hit both plans
/// equally, and using the **minimum** observed per-run time — the
/// standard noise-robust estimator for short benchmarks.
/// `exec_per_instance` uses run-only time; `instances_per_sec` also
/// charges the per-instance graph clone (the serve-style cost model).
/// Also returns both final DRAM images for the bit-identical cross-check.
fn time_plans(fused: &PreparedApp, unfused: &PreparedApp) -> (Rate, Rate, Vec<u8>, Vec<u8>) {
    const MIN_ROUNDS: u32 = 5;
    const MIN_ELAPSED: Duration = Duration::from_millis(600);
    let mut rounds = 0u32;
    // Per plan: (min clone+run, min run-only, steps).
    let mut best = [(Duration::MAX, Duration::MAX, 0u64); 2];
    let (dram_f, dram_u);
    let start = Instant::now();
    loop {
        let (rf, tf, ef, df) = one_run(fused);
        let (ru, tu, eu, du) = one_run(unfused);
        for (slot, (r, total, exec)) in [(0, (rf, tf, ef)), (1, (ru, tu, eu))] {
            let b = &mut best[slot];
            b.0 = b.0.min(total);
            b.1 = b.1.min(exec);
            b.2 = r.steps;
        }
        rounds += 1;
        if start.elapsed() >= MIN_ELAPSED && rounds >= MIN_ROUNDS {
            dram_f = df;
            dram_u = du;
            break;
        }
    }
    let rate = |b: (Duration, Duration, u64)| Rate {
        steps: b.2,
        instances_per_sec: 1.0 / b.0.as_secs_f64(),
        exec_per_instance: b.1.as_secs_f64(),
    };
    (rate(best[0]), rate(best[1]), dram_f, dram_u)
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(!s.contains(['"', '\\']), "app names stay JSON-plain");
    s
}

fn rows_to_json(rows: &[Row], scale: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema_version\": 3,");
    let _ = writeln!(out, "  \"scale\": {scale},");
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"app\": \"{}\", \
             \"mir_ops_o0\": {}, \"mir_ops_o2\": {}, \
             \"contexts_o0\": {}, \"contexts_o2\": {}, \
             \"links_o0\": {}, \"links_o2\": {}, \
             \"steps_o0\": {}, \"steps_o2\": {}, \
             \"planned_steps\": {}, \"unfused_steps\": {}, \
             \"planned_instances_per_sec\": {:.2}, \"unfused_instances_per_sec\": {:.2}, \
             \"plan_speedup\": {:.3}}}",
            json_escape_free(r.name),
            r.unopt.mir_ops,
            r.opt.mir_ops,
            r.unopt.contexts,
            r.opt.contexts,
            r.unopt.links,
            r.opt.links,
            r.unopt.steps,
            r.opt.steps,
            r.planned.steps,
            r.unfused.steps,
            r.planned.instances_per_sec,
            r.unfused.instances_per_sec,
            r.plan_speedup(),
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `(app, plan_speedup)` pairs from an artifact without
/// a JSON dependency: the writer above emits one row per line, so a line
/// scan for the two keys is exact on our own output.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(key)? + key.len();
        let rest = &line[at..];
        let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_string())
    };
    text.lines()
        .filter_map(|line| {
            let app = field(line, "\"app\": \"")?;
            let speedup: f64 = field(line, "\"plan_speedup\": ")?.parse().ok()?;
            Some((app, speedup))
        })
        .collect()
}

fn main() {
    let mut scale: usize = 256;
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut criterion = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = args.next(),
            "--baseline" => baseline_path = args.next(),
            "--criterion" => criterion = true,
            other => {
                if let Ok(n) = other.parse() {
                    scale = n;
                }
            }
        }
    }

    println!("=== Optimizer effect: --opt-level 0 vs 2, unfused plan (scale={scale}) ===");
    println!(
        "{:<12} {:>8} {:>8} {:>7} {:>9} {:>9} {:>7} {:>7} {:>12} {:>12}",
        "app",
        "ops O0",
        "ops O2",
        "Δops%",
        "ctx O0",
        "ctx O2",
        "lnk O0",
        "lnk O2",
        "steps O0",
        "steps O2"
    );
    let mut sides = Vec::new();
    let mut reduced = 0usize;
    for app in all_apps() {
        let (unopt, dram0) = measure(&app, scale, 0);
        let (opt, dram2) = measure(&app, scale, 2);
        assert_eq!(
            dram0, dram2,
            "{}: optimized run must leave bit-identical DRAM",
            app.name
        );
        let delta = 100.0 * (unopt.mir_ops as f64 - opt.mir_ops as f64) / unopt.mir_ops as f64;
        if opt.mir_ops < unopt.mir_ops {
            reduced += 1;
        }
        println!(
            "{:<12} {:>8} {:>8} {:>6.1}% {:>9} {:>9} {:>7} {:>7} {:>12} {:>12}",
            app.name,
            unopt.mir_ops,
            opt.mir_ops,
            delta,
            unopt.contexts,
            opt.contexts,
            unopt.links,
            opt.links,
            unopt.steps,
            opt.steps,
        );
        sides.push((app, unopt, opt));
    }
    println!(
        "\n{reduced}/{} apps shrink in MIR op count at -O2",
        sides.len()
    );

    println!("\n=== Fused vs unfused plan, default level (scale={scale}) ===");
    println!(
        "{:<12} {:>6} {:>10} {:>10} {:>9} {:>9} {:>8}",
        "app", "nodes", "fused stp", "unfus stp", "fused i/s", "unfus i/s", "speedup"
    );
    let mut rows = Vec::new();
    let mut faster = 0usize;
    let mut largest: Option<(usize, App)> = None;
    for (app, unopt, opt) in sides {
        let fused = prepare_app(&app, revet_bench::DEFAULT_OUTER, scale, &opts_at(2));
        let unfused = prepare_unfused(&app, scale, 2);
        let (planned, unfused, dram_f, dram_u) = time_plans(&fused, &unfused);
        assert_eq!(
            dram_f, dram_u,
            "{}: fused run must leave bit-identical DRAM vs unfused",
            app.name
        );
        let row = Row {
            name: app.name,
            unopt,
            opt,
            planned,
            unfused,
        };
        if row.plan_speedup() >= 1.5 {
            faster += 1;
        }
        let nodes = fused.program.graph.node_count();
        println!(
            "{:<12} {:>6} {:>10} {:>10} {:>9.1} {:>9.1} {:>7.2}x",
            row.name,
            nodes,
            row.planned.steps,
            row.unfused.steps,
            row.planned.instances_per_sec,
            row.unfused.instances_per_sec,
            row.plan_speedup(),
        );
        rows.push(row);
        if largest.as_ref().is_none_or(|(n, _)| nodes > *n) {
            largest = Some((nodes, app));
        }
    }
    println!(
        "\n{faster}/{} apps execute >=1.5x faster through the fused plan",
        rows.len()
    );

    if let Some(path) = json_path {
        let json = rows_to_json(&rows, scale);
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }

    if let Some(path) = baseline_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let baseline = parse_baseline(&text);
        assert!(
            !baseline.is_empty(),
            "{path}: no rows with app + plan_speedup found"
        );
        let mut failed = false;
        for (name, base) in &baseline {
            let Some(row) = rows.iter().find(|r| r.name == name.as_str()) else {
                println!("baseline: app {name} no longer measured, skipping");
                continue;
            };
            let now = row.plan_speedup();
            let floor = base * 0.8;
            if now < floor {
                println!(
                    "baseline FAIL {name}: plan speedup {now:.2}x < 0.8 * baseline {base:.2}x"
                );
                failed = true;
            } else {
                println!("baseline ok   {name}: plan speedup {now:.2}x (baseline {base:.2}x)");
            }
        }
        if failed {
            eprintln!("plan speedup regressed >20% against {path}");
            std::process::exit(1);
        }
    }

    if !criterion {
        return;
    }
    // Criterion timing on the largest evaluation app graph: instance
    // clone + run, so the two measurements differ only in the plan.
    let (nodes, app) = largest.expect("app registry is not empty");
    println!(
        "\n=== Wall-clock, largest app graph: {} ({nodes} nodes) ===",
        app.name
    );
    let fused = prepare_app(&app, revet_bench::DEFAULT_OUTER, scale, &opts_at(2));
    let unfused = prepare_unfused(&app, scale, 2);
    let mut c = Criterion::default().configure_from_args();
    let mut group = c.benchmark_group("untimed_exec");
    group.sample_size(10);
    group.bench_function("fused_plan", |b| b.iter(|| black_box(one_run(&fused))));
    group.bench_function("unfused_plan", |b| b.iter(|| black_box(one_run(&unfused))));
    group.finish();
}
