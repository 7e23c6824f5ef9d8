//! `compile-small`: the edit–compile–run loop.
//!
//! Each op takes one (app, replicate width) kind from a seeded round over
//! all 8 × 5 kinds, compiles the source from scratch through `Session`,
//! loads the app's tiny input, instantiates (cloning the 4 MiB image) and
//! runs the instance. The oracle check after the op is untimed.

use crate::common::{
    compile, instance_bytes, instantiate, plan_build, CompileRecord, Input, Layers, ObsTotals,
    Samples, MAX_ROUNDS,
};
use crate::stats::{dist, median, ms, Rng, Rounds};
use crate::trace::{Ctx, Tracer, SETUP};
use crate::{Bench, Phase, REF_WIDTH};
use revet_apps::all_apps;
use revet_core::{CompiledProgram, ProgramInstance};
use revet_machine::ExecReport;
use revet_obs::ObsSink;

/// Replicate widths an edit may choose.
pub const WIDTHS: [u32; 5] = [1, 2, 4, 8, 16];
/// Records per run: 4, except for the two Huffman apps, whose execution at
/// 4 records (3–10 ms) would outweigh the compile.
pub fn scale(app: &str) -> usize {
    match app {
        "huff-dec" => 1,
        "huff-enc" => 2,
        _ => 4,
    }
}

struct Kind {
    app: &'static str,
    width: u32,
    source: String,
    input: usize,
}

pub struct CompileSmall {
    kinds: Vec<Kind>,
    inputs: Vec<Input>,
    rounds: Rounds,
}

impl Bench for CompileSmall {
    fn setup(seed: u64, tr: &Tracer, layers: &mut Layers) -> Result<Self, String> {
        let mut kinds = Vec::new();
        let mut inputs = Vec::new();
        let mut rng = Rng::new(seed, 200);
        for (i, app) in all_apps().iter().enumerate() {
            inputs.push(Input::new(app, scale(app.name), rng.next_u64()));
            for width in WIDTHS {
                kinds.push(Kind {
                    app: app.name,
                    width,
                    source: (app.source)(width),
                    input: i,
                });
            }
        }
        // Warm-up: one checked edit–run per app at the reference width.
        for kind in kinds.iter().filter(|k| k.width == REF_WIDTH) {
            let w = &inputs[kind.input];
            let (run, _) = tr.op(SETUP, |ctx| edit_run(tr, ctx, kind, w, ObsSink::noop()));
            let mut run = run?;
            if !w.check(&run.inst.memory().dram) {
                return Err(format!("{}: output differs from oracle", kind.app));
            }
            plan_build(tr, &run.program, &mut run.record);
            layers.compiles.push(run.record);
            layers.instance(kind.app, run.inst_ms, run.inst_bytes);
            layers.run(kind.app, run.run_ms);
            layers.reports.insert(kind.app, run.report);
        }
        let rounds = Rounds::new(Rng::new(seed, 2), kinds.len());
        Ok(CompileSmall {
            kinds,
            inputs,
            rounds,
        })
    }

    fn measure(&mut self, tr: &Tracer, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let obs = ObsSink::counters_only();
        let obs_ref = if tr.is_enabled() {
            &obs
        } else {
            ObsSink::noop()
        };
        let mut per_kind = Samples::new(self.kinds.len());
        let (mut compile_ms, mut pooled, mut run_ms) = (Vec::new(), Vec::new(), Vec::new());
        let end = crate::common::deadline(seconds);
        while std::time::Instant::now() < end {
            let k = self.rounds.next().expect("rounds never end");
            per_kind.reference(1);
            let kind = &self.kinds[k];
            let w = &self.inputs[kind.input];
            let (result, wall) = tr.op("op.edit_run", |ctx| edit_run(tr, ctx, kind, w, obs_ref));
            let EditRun {
                program,
                mut record,
                inst,
                inst_ms,
                inst_bytes,
                report,
                run_ms: run_t,
            } = match result {
                Ok(r) => r,
                Err(e) => {
                    phase.tally.fail(e);
                    continue;
                }
            };
            if !w.check(&inst.memory().dram) {
                phase.tally.fail(format!(
                    "{} w{}: output differs from oracle",
                    kind.app, kind.width
                ));
                continue;
            }
            phase.tally.ok();
            per_kind.push(k, ms(wall));
            pooled.push(ms(wall));
            compile_ms.push(record.compile_ms());
            run_ms.push(run_t);
            let key = format!("{}.w{}", kind.app, kind.width);
            let counts = [
                (format!("exec.steps.{key}"), report.steps as f64),
                (format!("mir.ops_after.{key}"), record.ops_after as f64),
                (format!("plan.boxed.{key}"), record.plan_boxed as f64),
            ];
            for (name, value) in counts {
                if let Err(e) = phase.exact.put(name, value) {
                    phase.tally.fail(e);
                }
            }
            if tr.is_enabled() {
                plan_build(tr, &program, &mut record);
                let layers = &mut phase.layers;
                layers.instance(kind.app, inst_ms, inst_bytes);
                if kind.width == REF_WIDTH {
                    layers.run(kind.app, run_t);
                    layers.reports.entry(kind.app).or_insert(report);
                }
                layers.compiles.push(record);
            }
        }
        phase.layers.obs = ObsTotals::from_sink(obs_ref);
        phase.ops(&per_kind);
        phase.lines.extend(dist("compile_ms", &compile_ms));
        phase.lines.extend(dist("edit_run_ms", &pooled));
        phase.lines.push((
            "exec.small_run_ms".into(),
            median(&run_ms).unwrap_or(0.0),
            "ms",
        ));
        phase
            .lines
            .push(("ops".into(), pooled.len() as f64, "count"));
        phase
    }
}

/// What one edit–run produced.
struct EditRun {
    program: CompiledProgram,
    record: CompileRecord,
    inst: ProgramInstance,
    inst_ms: f64,
    inst_bytes: f64,
    report: ExecReport,
    run_ms: f64,
}

/// Source → compiled → loaded → instantiated → ran, one span per call.
fn edit_run(
    tr: &Tracer,
    ctx: Ctx,
    kind: &Kind,
    w: &Input,
    obs: &ObsSink,
) -> Result<EditRun, String> {
    let (mut program, record) = compile(tr, ctx, kind.app, kind.width, &kind.source)?;
    tr.span(ctx, "core.load_inputs", |_| {
        w.load(&mut program.graph.mem.dram)
    });
    let (mut inst, inst_ms) = instantiate(tr, ctx, &program);
    let inst_bytes = instance_bytes(&inst);
    let (run, run_t) = tr.span(ctx, "exec.run_untimed", |_| {
        inst.run_untimed_obs(&w.words(), MAX_ROUNDS, obs)
    });
    let report = run.map_err(|e| format!("{} w{}: {e}", kind.app, kind.width))?;
    Ok(EditRun {
        program,
        record,
        inst,
        inst_ms,
        inst_bytes,
        report,
        run_ms: ms(run_t),
    })
}
