//! `exec-large`: batch execution of big inputs through `BatchRunner`.
//!
//! All eight apps are compiled once in set-up at replicate width 8. Each op
//! runs one app's batch of [`BATCH`] instances on [`WORKERS`] workers, each
//! instance with its own seeded input as a DRAM overlay, at a per-app scale
//! where instantiation (the 4 MiB image clone) is under a tenth of the
//! instance's wall time. Ops visit the apps in seeded rounds (closed loop).

use crate::common::{
    compile, instance_bytes, instantiate, plan_build, Input, Layers, ObsTotals, Samples, MAX_ROUNDS,
};
use crate::stats::{geomean, median, ms, Rng, Rounds};
use crate::trace::{Tracer, SETUP};
use crate::{Bench, Phase, REF_WIDTH};
use revet_apps::{all_apps, App};
use revet_core::CompiledProgram;
use revet_obs::ObsSink;
use revet_runtime::{BatchJob, BatchRunner};
use std::sync::Arc;

/// Batch workers.
pub const WORKERS: usize = 2;
/// Instances per batch (two per worker).
pub const BATCH: usize = 2 * WORKERS;

/// Per-app scale (records per instance).
pub fn scale(app: &str) -> usize {
    match app {
        "isipv4" | "ip2int" | "murmur3" => 512,
        "hash-table" => 8192,
        "huff-dec" => 16,
        "huff-enc" => 64,
        _ => 256,
    }
}

/// DRAM overlays `(byte offset, bytes)` of one input.
type Overlays = Arc<[(usize, Vec<u8>)]>;

struct AppState {
    app: App,
    program: CompiledProgram,
    inputs: Vec<Input>,
    /// Each input's DRAM overlays, shared by every batch job that runs it.
    overlays: Vec<Overlays>,
}

pub struct ExecLarge {
    apps: Vec<AppState>,
    rounds: Rounds,
}

impl Bench for ExecLarge {
    fn setup(seed: u64, tr: &Tracer, layers: &mut Layers) -> Result<Self, String> {
        let mut apps = Vec::new();
        for (i, app) in all_apps().into_iter().enumerate() {
            let source = (app.source)(REF_WIDTH);
            let (compiled, _) = tr.op(SETUP, |ctx| compile(tr, ctx, app.name, REF_WIDTH, &source));
            let (program, mut record) = compiled?;
            plan_build(tr, &program, &mut record);
            layers.compiles.push(record);
            let mut rng = Rng::new(seed, 100 + i as u64);
            let inputs: Vec<Input> = (0..BATCH)
                .map(|_| Input::new(&app, scale(app.name), rng.next_u64()))
                .collect();
            let overlays = inputs.iter().map(|w| w.inits.clone().into()).collect();
            apps.push(AppState {
                app,
                program,
                inputs,
                overlays,
            });
        }
        let rounds = Rounds::new(Rng::new(seed, 1), apps.len());
        Ok(ExecLarge { apps, rounds })
    }

    fn measure(&mut self, tr: &Tracer, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let runner = BatchRunner::new(WORKERS).with_max_rounds(MAX_ROUNDS);
        let obs = ObsSink::counters_only();
        let obs_ref = if tr.is_enabled() {
            &obs
        } else {
            ObsSink::noop()
        };
        let mut per_instance_ms = Samples::new(self.apps.len());
        let mut efficiency = Vec::new();
        let end = crate::common::deadline(seconds);
        let mut done = 0;
        while std::time::Instant::now() < end {
            let k = self.rounds.next().expect("rounds never end");
            per_instance_ms.reference(WORKERS);
            done += 1;
            let st = &self.apps[k];
            let jobs: Vec<BatchJob<'_>> = st
                .inputs
                .iter()
                .zip(&st.overlays)
                .map(|(w, o)| BatchJob::new(&st.program, w.words()).with_dram_inits(Arc::clone(o)))
                .collect();
            let (report, wall) = tr.op("op.exec_batch", |ctx| {
                tr.span(ctx, "runtime.batch_run", |_| runner.run_obs(&jobs, obs_ref))
                    .0
            });
            // The first round warms caches and the allocator; its outputs
            // are checked but its times are not kept.
            if done > self.apps.len() {
                per_instance_ms.push(k, ms(wall) / BATCH as f64);
                let busy: f64 = report
                    .results
                    .iter()
                    .flatten()
                    .map(|r| r.wall.as_secs_f64())
                    .sum();
                efficiency.push(busy / (WORKERS as f64 * wall.as_secs_f64()));
            }
            let mut steps = 0;
            let mut merged = revet_machine::ExecReport::default();
            for (i, (result, w)) in report.results.iter().zip(&st.inputs).enumerate() {
                let name = st.app.name;
                match result {
                    Ok(r) if w.check(&r.mem.dram) => {
                        steps += r.report.steps;
                        merged.merge(&r.report);
                        phase.tally.ok();
                    }
                    Ok(_) => phase
                        .tally
                        .fail(format!("{name} #{i}: output differs from oracle")),
                    Err(e) => phase.tally.fail(format!("{name} #{i}: {e}")),
                }
            }
            if let Err(e) = phase
                .exact
                .put(format!("exec.steps.{}", st.app.name), steps as f64)
            {
                phase.tally.fail(e);
            }
            if tr.is_enabled() {
                phase.layers.reports.entry(st.app.name).or_insert(merged);
                solo_run(tr, st, &mut phase);
            }
        }
        phase.layers.obs = ObsTotals::from_sink(obs_ref);
        phase.ops(&per_instance_ms);
        let per_s: Vec<f64> = (0..self.apps.len())
            .filter_map(|k| median(&per_instance_ms.of(k)))
            .map(|m| 1e3 / m)
            .collect();
        phase.lines.push((
            "instances_per_s".into(),
            geomean(&per_s).unwrap_or(0.0),
            "1/s",
        ));
        phase.lines.push((
            "runtime.parallel_eff".into(),
            median(&efficiency).unwrap_or(0.0),
            "ratio",
        ));
        phase
    }
}

/// One instance instantiated and run on the calling thread, outside the
/// batch ops, so the per-app instantiation and execution times can be
/// told apart.
fn solo_run(tr: &Tracer, st: &AppState, phase: &mut Phase) {
    let w = &st.inputs[0];
    let name = st.app.name;
    let result = tr
        .op(SETUP, |ctx| {
            let (mut inst, inst_ms) = instantiate(tr, ctx, &st.program);
            let bytes = instance_bytes(&inst);
            w.load(&mut inst.graph.mem.dram);
            let (run, run_t) = tr.span(ctx, "exec.run_untimed", |_| {
                inst.run_untimed(&w.words(), MAX_ROUNDS)
            });
            (inst, inst_ms, bytes, run, ms(run_t))
        })
        .0;
    let (inst, inst_ms, bytes, run, run_ms) = result;
    match run {
        Ok(_) if w.check(&inst.memory().dram) => {
            phase.tally.ok();
            phase.layers.instance(name, inst_ms, bytes);
            phase.layers.run(name, run_ms);
        }
        Ok(_) => phase
            .tally
            .fail(format!("{name} solo: output differs from oracle")),
        Err(e) => phase.tally.fail(format!("{name} solo: {e}")),
    }
}
