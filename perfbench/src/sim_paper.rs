//! `sim-paper`: the cycle-level simulator over all eight apps.
//!
//! Each op takes one app from a seeded round, instantiates its loaded
//! program and runs `Simulator::run` with `RdaConfig::default()` and
//! `IdealModels::default()`. The simulated DRAM must match both the app
//! oracle and the untimed executor's output from set-up. Cycles, GB/s and
//! the ratios against the V100/CPU models are model outputs, unvalidated
//! against hardware: they are reported as exact counts, never as speeds.

use crate::common::{
    compile, instance_bytes, instantiate, plan_build, Input, Layers, ObsTotals, Samples, MAX_ROUNDS,
};
use crate::stats::{geomean, median, ms, Rng, Rounds};
use crate::trace::{Tracer, SETUP};
use crate::{Bench, Phase, REF_WIDTH};
use revet_apps::all_apps;
use revet_baselines::{traits_for, CpuModel, GpuModel};
use revet_core::CompiledProgram;
use revet_obs::ObsSink;
use revet_sim::{IdealModels, RdaConfig, Simulator};

/// Records per simulated run, for every app.
pub const SCALE: usize = 64;
/// Simulated-cycle cap per run.
const MAX_CYCLES: u64 = 2_000_000_000;

struct AppState {
    name: &'static str,
    /// The loaded program every op instantiates; never run itself.
    template: CompiledProgram,
    /// A second materialization of the same compile whose graph each op
    /// replaces with a fresh instance for the simulator to consume.
    runner: CompiledProgram,
    input: Input,
    app_bytes: u64,
    /// Output window of the untimed executor's run of the same input.
    untimed: Vec<u8>,
}

pub struct SimPaper {
    apps: Vec<AppState>,
    rounds: Rounds,
}

impl Bench for SimPaper {
    fn setup(seed: u64, tr: &Tracer, layers: &mut Layers) -> Result<Self, String> {
        let mut apps = Vec::new();
        let mut rng = Rng::new(seed, 400);
        for app in all_apps() {
            let source = (app.source)(REF_WIDTH);
            let input_seed = rng.next_u64();
            let input = Input::new(&app, SCALE, input_seed);
            let app_bytes = (app.workload)(SCALE, input_seed).app_bytes;
            let (compiled, _) = tr.op(SETUP, |ctx| {
                let first = compile(tr, ctx, app.name, REF_WIDTH, &source)?;
                let (second, _) = compile(tr, ctx, app.name, REF_WIDTH, &source)?;
                Ok::<_, String>((first, second))
            });
            let ((mut template, mut record), runner) = compiled?;
            plan_build(tr, &template, &mut record);
            layers.compiles.push(record);
            input.load(&mut template.graph.mem.dram);
            let ((inst, inst_ms, bytes, run, run_ms), _) = tr.op(SETUP, |ctx| {
                let (mut inst, inst_ms) = instantiate(tr, ctx, &template);
                let bytes = instance_bytes(&inst);
                let (run, t) = tr.span(ctx, "exec.run_untimed", |_| {
                    inst.run_untimed(&input.words(), MAX_ROUNDS)
                });
                (inst, inst_ms, bytes, run, ms(t))
            });
            let report = run.map_err(|e| format!("{} untimed: {e}", app.name))?;
            if !input.check(&inst.memory().dram) {
                return Err(format!("{}: untimed output differs from oracle", app.name));
            }
            layers.instance(app.name, inst_ms, bytes);
            layers.run(app.name, run_ms);
            layers.reports.insert(app.name, report);
            apps.push(AppState {
                name: app.name,
                untimed: input.window_of(&inst.memory().dram).to_vec(),
                template,
                runner,
                input,
                app_bytes,
            });
        }
        let rounds = Rounds::new(Rng::new(seed, 4), apps.len());
        Ok(SimPaper { apps, rounds })
    }

    fn measure(&mut self, tr: &Tracer, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let sim = Simulator::new(RdaConfig::default(), IdealModels::default());
        let obs = ObsSink::counters_only();
        let obs_ref = if tr.is_enabled() {
            &obs
        } else {
            ObsSink::noop()
        };
        let mut run_ms = Samples::new(self.apps.len());
        let mut ns_per_cycle: Vec<Vec<f64>> = vec![Vec::new(); self.apps.len()];
        let mut stats = vec![None; self.apps.len()];
        let end = crate::common::deadline(seconds);
        let warm = self.apps.len();
        let mut done = 0;
        while std::time::Instant::now() < end {
            let k = self.rounds.next().expect("rounds never end");
            run_ms.reference(1);
            done += 1;
            let st = &mut self.apps[k];
            let args = st.input.words();
            let ((result, inst_ms, bytes, sim_t), _) = tr.op("op.sim_run", |ctx| {
                let (inst, inst_ms) = instantiate(tr, ctx, &st.template);
                let bytes = instance_bytes(&inst);
                st.runner.graph = inst.graph;
                let (r, t) = tr.span(ctx, "sim.run", |_| {
                    sim.run_obs(&mut st.runner, &args, MAX_CYCLES, obs_ref)
                });
                (r, inst_ms, bytes, t)
            });
            let s = match result {
                Ok(s) => s,
                Err(e) => {
                    phase.tally.fail(format!("{}: {e}", st.name));
                    continue;
                }
            };
            let dram = &st.runner.graph.mem.dram;
            if !st.input.check(dram) || st.input.window_of(dram) != &st.untimed[..] {
                phase
                    .tally
                    .fail(format!("{}: simulated DRAM differs", st.name));
                continue;
            }
            phase.tally.ok();
            // The first round warms up; its outputs are checked, its times
            // not kept.
            if done > warm {
                run_ms.push(k, ms(sim_t));
                ns_per_cycle[k].push(sim_t.as_secs_f64() * 1e9 / s.cycles.max(1) as f64);
            }
            if tr.is_enabled() {
                phase.layers.instance(st.name, inst_ms, bytes);
            }
            let name = st.name;
            let counts = [
                (format!("sim.cycles.{name}"), s.cycles as f64),
                (format!("sim.gbps.{name}"), s.throughput_gbps(st.app_bytes)),
                (format!("sim.skip_ratio.{name}"), s.scheduler_skip_ratio()),
            ];
            for (n, v) in counts {
                if let Err(e) = phase.exact.put(n, v) {
                    phase.tally.fail(e);
                }
            }
            stats[k] = Some(s);
        }
        phase.layers.obs = ObsTotals::from_sink(obs_ref);
        phase.ops(&run_ms);
        let sim_run_ms = run_ms.p50().unwrap_or(0.0);
        phase.lines.push(("sim_run_ms".into(), sim_run_ms, "ms"));
        let (gpu, cpu) = (GpuModel::default(), CpuModel::default());
        let (mut vs_gpu, mut vs_cpu) = (Vec::new(), Vec::new());
        for (k, st) in self.apps.iter().enumerate() {
            if let Some(m) = median(&ns_per_cycle[k]) {
                let name = format!("sim.host_ns_per_cycle.{}", st.name);
                phase.lines.push((name, m, "ns"));
            }
            if let Some(s) = &stats[k] {
                let t = traits_for(st.name);
                let gbps = s.throughput_gbps(st.app_bytes);
                vs_gpu.push(gbps / gpu.throughput_gbps(&t));
                vs_cpu.push(gbps / cpu.throughput_gbps(&t));
            }
        }
        if vs_gpu.len() == self.apps.len() {
            for (name, v) in [
                ("sim.vs_gpu.geomean", &vs_gpu),
                ("sim.vs_cpu.geomean", &vs_cpu),
            ] {
                if let Err(e) = phase.exact.put(name.into(), geomean(v).unwrap_or(0.0)) {
                    phase.tally.fail(e);
                }
            }
        }
        phase
    }
}
