//! `compile-tune`: each of the seven `halo-ml` programs in turn. One job
//! traces the program, compiles it under HALO and under DaCapo, runs the
//! branch-and-bound autotuner, compiles the tuned plan, and executes all
//! three on the exact simulation backend. The toy backend is not used.

use std::time::Instant;

use halo_ckks::{metrics, CkksParams, SimBackend};
use halo_core::cost_est::estimate_cost_us;
use halo_core::{
    autotune, compile_with_hooks, CompileOptions, CompileResult, CompilerConfig, PipelineHooks,
    ASSUMED_TRIPS,
};
use halo_ir::Function;
use halo_ml::bench::{all_benchmarks, BenchSpec, MlBenchmark};
use halo_runtime::{reference_run, Executor, Inputs, RunOutput};

use crate::check::{outputs_match, tuner_sound, TUNE_TOL};
use crate::report::{CompileTally, JobLog, Phase, SetupTimes};
use crate::trace::{set_job, span, Recorder, Timed};
use crate::{seconds_since, Config, Workload};

const SLOTS: usize = 1 << 10;
const SAMPLES: usize = 64;
const TRIPS: u64 = 40;
/// PCA's inner (inverse square root) loop trips.
const PCA_INNER_TRIPS: u64 = 4;

struct Program {
    bench: Box<dyn MlBenchmark>,
    trips: Vec<u64>,
    inputs: Inputs,
    want: Vec<Vec<f64>>,
}

pub struct CompileTune {
    spec: BenchSpec,
    opts: CompileOptions,
    be: SimBackend,
    progs: Vec<Program>,
}

/// Compiles under `config`, timing it under `name` and adding its pass
/// record to `tally`.
fn compile_timed(
    src: &Function,
    config: CompilerConfig,
    opts: &CompileOptions,
    rec: Option<&Recorder>,
    name: &'static str,
    tally: &mut CompileTally,
) -> Result<(CompileResult, f64), String> {
    let t = Instant::now();
    let mut hooks = PipelineHooks::default();
    let r = span(rec, name, || {
        compile_with_hooks(src, config, opts, &mut hooks)
    })
    .map_err(|e| format!("{} compile failed: {e}", config.name()))?;
    tally.passes(&hooks);
    Ok((r, seconds_since(t)))
}

fn execute<B: halo_ckks::Backend>(
    be: &B,
    f: &Function,
    inputs: &Inputs,
    rec: Option<&Recorder>,
) -> Result<RunOutput, String> {
    span(rec, "exec.run", || Executor::new(be).run(f, inputs)).map_err(|e| e.to_string())
}

impl CompileTune {
    /// One job; a failure anywhere fails the job and the run goes on.
    fn job<B: halo_ckks::Backend>(
        &self,
        be: &B,
        p: &Program,
        rec: Option<&Recorder>,
        log: &mut JobLog,
        tally: &mut CompileTally,
    ) {
        let name = p.bench.name();
        let start = Instant::now();
        let mut step = || -> Result<_, String> {
            let (src, cst) = span(rec, "trace", || {
                (
                    p.bench.trace_dynamic(&self.spec),
                    p.bench.trace_constant(&self.spec, &p.trips),
                )
            });
            let opts = &self.opts;
            let (halo, halo_s) =
                compile_timed(&src, CompilerConfig::Halo, opts, rec, "compile.halo", tally)?;
            let (dacapo, dacapo_s) = compile_timed(
                &cst,
                CompilerConfig::DaCapo,
                opts,
                rec,
                "compile.dacapo",
                tally,
            )?;
            let t = Instant::now();
            let outcome = span(rec, "autotune", || autotune(&src, opts))
                .map_err(|e| format!("autotune failed: {e}"))?;
            let tune_s = seconds_since(t);
            let (tuned, _) = compile_timed(
                &src,
                CompilerConfig::Tuned(outcome.plan),
                opts,
                rec,
                "compile.tuned",
                tally,
            )?;
            let runs = [
                execute(be, &halo.function, &p.inputs, rec)?,
                execute(be, &dacapo.function, &p.inputs, rec)?,
                execute(be, &tuned.function, &p.inputs, rec)?,
            ];
            tally.halo_s += halo_s;
            tally.dacapo_s += dacapo_s;
            tally.static_bootstraps += halo.static_bootstraps as f64;
            tally.autotune_s += tune_s;
            tally.evaluated += outcome.evaluated as f64;
            tally.pruned += outcome.pruned as f64;
            tally.space += outcome.space as f64;
            Ok((halo, outcome, runs))
        };
        let result = step();
        let secs = seconds_since(start);
        let (halo, outcome, runs) = match result {
            Ok(x) => x,
            Err(e) => return log.error(name, &e),
        };
        for (label, run) in ["HALO", "DaCapo", "tuned"].iter().zip(&runs) {
            if let Err(why) = outputs_match(&run.outputs, &p.want, TUNE_TOL) {
                return log.wrong_output(&format!("{name} ({label})"), &why);
            }
        }
        let halo_cost = estimate_cost_us(&halo.function, ASSUMED_TRIPS);
        if let Err(why) = tuner_sound(
            outcome.cost_us,
            halo_cost,
            outcome.evaluated,
            outcome.pruned,
            outcome.space,
        ) {
            return log.wrong_output(&format!("{name} (tuner)"), &why);
        }
        let tuned = &runs[2].stats;
        let ops: u64 = runs
            .iter()
            .map(|r| r.stats.op_counts.values().sum::<u64>())
            .sum();
        log.pass(
            secs,
            tuned.bootstrap_count as f64,
            tuned.total_us * 1e-6,
            ops as f64,
        );
    }
}

impl Workload for CompileTune {
    fn setup(cfg: &Config) -> Result<(Self, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let spec = BenchSpec {
            slots: SLOTS,
            num_elems: SAMPLES,
            seed: cfg.seed,
        };
        let opts = CompileOptions::new(CkksParams {
            poly_degree: 2 * SLOTS,
            ..CkksParams::paper()
        });
        let be = SimBackend::exact(opts.params.clone());
        let mut progs = Vec::new();
        for bench in all_benchmarks() {
            let trips: Vec<u64> = if bench.loop_depth() == 2 {
                vec![TRIPS, PCA_INNER_TRIPS]
            } else {
                vec![TRIPS]
            };
            let t = Instant::now();
            let src = bench.trace_dynamic(&spec);
            times.trace_s += seconds_since(t);
            let mut inputs = bench.inputs(&spec);
            for (sym, &n) in bench.trip_symbols().iter().zip(&trips) {
                inputs = inputs.env(*sym, n);
            }
            let want = reference_run(&src, &inputs, spec.slots)
                .map_err(|e| format!("{}: reference run failed: {e}", bench.name()))?;
            progs.push(Program {
                bench,
                trips,
                inputs,
                want,
            });
        }
        let this = CompileTune {
            spec,
            opts,
            be,
            progs,
        };

        // Warm-up: every step of a job but the tuner (a pure search with
        // nothing to warm, and 94% of a job): trace, compile under HALO
        // and DaCapo, execute both and check them.
        let t = Instant::now();
        let mut scratch = CompileTally::default();
        for p in &this.progs {
            let src = p.bench.trace_dynamic(&this.spec);
            let cst = p.bench.trace_constant(&this.spec, &p.trips);
            let c = Instant::now();
            let (halo, _) = compile_timed(
                &src,
                CompilerConfig::Halo,
                &this.opts,
                None,
                "",
                &mut scratch,
            )?;
            let (dacapo, _) = compile_timed(
                &cst,
                CompilerConfig::DaCapo,
                &this.opts,
                None,
                "",
                &mut scratch,
            )?;
            times.compile_s += seconds_since(c);
            for f in [&halo.function, &dacapo.function] {
                let out = execute(&this.be, f, &p.inputs, None)?;
                outputs_match(&out.outputs, &p.want, TUNE_TOL)
                    .map_err(|why| format!("{} warm-up: {why}", p.bench.name()))?;
            }
        }
        times.warmup_s = seconds_since(t) - times.compile_s;
        Ok((this, times))
    }

    fn run(&self, cfg: &Config, rec: Option<&Recorder>) -> Result<Phase, String> {
        let mut log = JobLog::default();
        let mut tally = CompileTally::default();
        let from_ns = rec.map_or(0, Recorder::now_ns);
        let k0 = metrics::snapshot();
        let start = Instant::now();
        let mut id = 0;
        loop {
            for p in &self.progs {
                set_job(Some(id));
                match rec {
                    Some(r) => self.job(&Timed::new(&self.be, r), p, rec, &mut log, &mut tally),
                    None => self.job(&self.be, p, None, &mut log, &mut tally),
                }
                id += 1;
            }
            if start.elapsed().as_secs_f64() >= cfg.seconds as f64 {
                break;
            }
        }
        set_job(None);
        let elapsed_s = seconds_since(start);
        tally.programs = usize::try_from(log.attempted).unwrap_or(usize::MAX);
        Ok(Phase {
            log,
            from_ns,
            to_ns: rec.map_or(0, Recorder::now_ns),
            elapsed_s,
            kernel: metrics::snapshot().delta(&k0),
            ring_degree: 0,
            layers: tally.layers(),
            exec_wall_s: None,
        })
    }
}
