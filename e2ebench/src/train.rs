//! `train-durable`: Linear, Logistic and K-means training take turns on
//! the exact toy backend through `Executor::run_durable_with_store`, with
//! a `halo-snap/1` snapshot encoded and stored at every loop header. One
//! job encrypts the inputs, runs the HALO-compiled program and decrypts.
//!
//! The snapshots go to a `MemStore`, not a `DiskStore`: the same encode
//! path, but without the fsync'd disk writes, which made run-to-run
//! spread four times wider on a shared virtual machine (README.md).

use std::time::Instant;

use halo_ckks::{metrics, parallel, CkksParams, SnapshotBackend, ToyBackend};
use halo_core::{compile_with_hooks, CompileOptions, CompilerConfig, PipelineHooks};
use halo_ir::Function;
use halo_ml::bench::{BenchSpec, KMeans, Linear, Logistic, MlBenchmark};
use halo_runtime::{reference_run, ExecPolicy, Executor, Inputs, MemStore, SnapshotStore};

use crate::check::{outputs_match, TRAIN_TOL};
use crate::report::{CompileTally, JobLog, Phase, SetupTimes};
use crate::trace::{set_job, span, Recorder, Timed, TimedStore};
use crate::{seconds_since, Config, Workload};

/// Ring degree 2^9: 256 slots.
const RING: usize = 1 << 9;
const LEVELS: u32 = 16;
const SAMPLES: usize = 16;
const TRIPS: u64 = 3;

struct Program {
    name: &'static str,
    compiled: Function,
    inputs: Inputs,
    want: Vec<Vec<f64>>,
    store: MemStore,
    policy: ExecPolicy,
}

pub struct TrainDurable {
    be: ToyBackend,
    progs: Vec<Program>,
    compile: CompileTally,
}

/// Runs one job; returns nothing, records into `log`.
fn job<B: SnapshotBackend>(
    be: &B,
    p: &Program,
    store: &dyn SnapshotStore,
    rec: Option<&Recorder>,
    log: &mut JobLog,
) {
    let start = Instant::now();
    let run = span(rec, "exec.run", || {
        Executor::with_policy(be, p.policy.clone()).run_durable_with_store(
            &p.compiled,
            &p.inputs,
            store,
        )
    });
    let secs = seconds_since(start);
    match run {
        Err(e) => log.error(p.name, &e),
        Ok(out) => match outputs_match(&out.outputs, &p.want, TRAIN_TOL) {
            Err(why) => log.wrong_output(p.name, &why),
            Ok(()) => {
                let s = &out.stats;
                // The durable path adds its measured snapshot time into
                // `total_us`; the modeled latency leaves it out.
                let modeled_s = (s.total_us - s.disk_snapshot_us) * 1e-6;
                let ops: u64 = s.op_counts.values().sum();
                log.pass(secs, s.bootstrap_count as f64, modeled_s, ops as f64);
                log.snapshot_writes += s.snapshot_writes as f64;
                log.snapshot_bytes += s.snapshot_bytes as f64;
            }
        },
    }
}

impl Workload for TrainDurable {
    fn setup(cfg: &Config) -> Result<(Self, SetupTimes), String> {
        // Serial limb loops: on a 2-vCPU machine the 2-thread fan-out ran
        // slower than serial at this ring size, and with 3x the spread.
        parallel::set_threads(Some(1));
        let mut times = SetupTimes::default();
        let spec = BenchSpec {
            slots: RING / 2,
            num_elems: SAMPLES,
            seed: cfg.seed,
        };
        let opts = CompileOptions::new(CkksParams {
            poly_degree: RING,
            max_level: LEVELS,
            rf_bits: 40,
        });
        let benches: [&dyn MlBenchmark; 3] = [&Linear, &Logistic, &KMeans];
        let mut compile = CompileTally::default();
        let mut progs = Vec::new();
        for bench in benches {
            let t = Instant::now();
            let src = bench.trace_dynamic(&spec);
            times.trace_s += seconds_since(t);

            let t = Instant::now();
            let mut hooks = PipelineHooks::default();
            let compiled = compile_with_hooks(&src, CompilerConfig::Halo, &opts, &mut hooks)
                .map_err(|e| format!("{}: HALO compile failed: {e}", bench.name()))?;
            let secs = seconds_since(t);
            times.compile_s += secs;
            compile.halo_s += secs;
            compile.static_bootstraps += compiled.static_bootstraps as f64;
            compile.passes(&hooks);

            let mut inputs = bench.inputs(&spec);
            for sym in bench.trip_symbols() {
                inputs = inputs.env(sym, TRIPS);
            }
            let want = reference_run(&src, &inputs, spec.slots)
                .map_err(|e| format!("{}: reference run failed: {e}", bench.name()))?;
            let policy = ExecPolicy::resilient();
            progs.push(Program {
                name: bench.name(),
                compiled: compiled.function,
                inputs,
                want,
                store: MemStore::new(policy.snapshot_keep),
                policy,
            });
        }
        compile.programs = progs.len();
        let be = ToyBackend::new(RING, LEVELS, cfg.seed ^ 0x7EA1_0BAC);

        // One untimed job per program: the toy backend generates its
        // key-switching keys on first use.
        let t = Instant::now();
        let mut warm = JobLog::default();
        for p in &progs {
            job(&be, p, &p.store, None, &mut warm);
        }
        times.warmup_s = seconds_since(t);
        if warm.failed > 0 {
            return Err(format!("{} warm-up job(s) failed", warm.failed));
        }
        Ok((TrainDurable { be, progs, compile }, times))
    }

    fn run(&self, cfg: &Config, rec: Option<&Recorder>) -> Result<Phase, String> {
        let mut log = JobLog::default();
        let from_ns = rec.map_or(0, Recorder::now_ns);
        let k0 = metrics::snapshot();
        let start = Instant::now();
        let mut id = 0;
        // Whole passes over the three programs, until the run length is
        // reached.
        loop {
            for p in &self.progs {
                set_job(Some(id));
                match rec {
                    Some(r) => job(
                        &Timed::new(&self.be, r),
                        p,
                        &TimedStore::new(&p.store, r),
                        rec,
                        &mut log,
                    ),
                    None => job(&self.be, p, &p.store, None, &mut log),
                }
                id += 1;
            }
            if start.elapsed().as_secs_f64() >= cfg.seconds as f64 {
                break;
            }
        }
        set_job(None);
        let elapsed_s = seconds_since(start);
        Ok(Phase {
            log,
            from_ns,
            to_ns: rec.map_or(0, Recorder::now_ns),
            elapsed_s,
            kernel: metrics::snapshot().delta(&k0),
            ring_degree: RING,
            layers: self.compile.layers(),
            exec_wall_s: None,
        })
    }
}
