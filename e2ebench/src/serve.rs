//! `serve-toy`: the inverse-square-root Newton loop, compiled with HALO
//! and served through `runtime::serve` on a toy backend at ring degree
//! 2^10. Four sessions keep sixteen jobs outstanding in a closed loop;
//! the batcher coalesces them eight to a packed execution.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use halo_ckks::backend::Backend;
use halo_ckks::{metrics, parallel, CkksParams, ToyBackend};
use halo_core::{compile_with_hooks, CompileOptions, CompilerConfig, PipelineHooks};
use halo_ir::op::TripCount;
use halo_ir::{Function, FunctionBuilder};
use halo_ml::approx::invroot::invsqrt_loop;
use halo_runtime::{serve, Inputs, JobResult, ServeConfig, ServeReport, Server};

use crate::check::{window_matches, SERVE_TOL};
use crate::report::{median, CompileTally, JobLog, Phase, SetupTimes};
use crate::trace::{Recorder, Span, Timed};
use crate::{seconds_since, splitmix, Config, Workload};

/// Ring degree 2^10: 512 slots.
const RING: usize = 1 << 10;
const LEVELS: u32 = 16;
/// Values per job: the slot window each job occupies in a packed batch.
const WIDTH: usize = 32;
/// Dynamic trips: one bootstrap per execution.
const TRIPS: u64 = 3;
const WORKERS: usize = 2;
const MAX_BATCH: usize = 8;
const SESSIONS: usize = 4;
/// Jobs each session keeps outstanding (16 in all).
const OUTSTANDING: usize = 4;
/// Linger window: longer than one batch execution, so a worker always
/// waits for a full batch instead of running a partial one.
const LINGER_MS: u64 = 5_000;

pub struct ServeToy {
    be: ToyBackend,
    prog: Arc<Function>,
    seed: u64,
    compile: CompileTally,
}

/// The `t` values of job `j`: 32 values in [0.1, 1].
fn job_values(seed: u64, j: u64) -> Vec<f64> {
    (0..WIDTH as u64)
        .map(|i| {
            let r = splitmix(seed ^ splitmix(j.wrapping_mul(0x100).wrapping_add(i)));
            0.1 + 0.9 * (r >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

fn job_inputs(t: &[f64]) -> Inputs {
    Inputs::new()
        .cipher("t", t.to_vec())
        .cipher("y0", vec![1.0])
        .env("k", TRIPS)
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        max_batch: MAX_BATCH,
        batch_window_ms: LINGER_MS,
        ..ServeConfig::resilient()
    }
}

/// Hands out job numbers until the run length is reached, then only as
/// many more as complete the current batch, so every batch is full. At
/// least one batch is always issued.
struct Issuer {
    deadline: Instant,
    state: Mutex<(u64, bool)>,
}

impl Issuer {
    fn next(&self) -> Option<u64> {
        let mut st = self.state.lock().expect("issuer lock poisoned");
        let (issued, stopped) = &mut *st;
        if !*stopped && Instant::now() >= self.deadline {
            *stopped = true;
        }
        if *stopped && *issued > 0 && *issued % MAX_BATCH as u64 == 0 {
            return None;
        }
        *issued += 1;
        Some(*issued - 1)
    }
}

/// One job's result as its session saw it.
struct Done {
    latency_s: f64,
    result: JobResult,
    t: Vec<f64>,
}

/// One session of the closed loop: keeps `OUTSTANDING` jobs in flight and
/// submits a new one each time one completes.
fn session<B: Backend>(
    srv: &Server<'_, B>,
    prog: &Arc<Function>,
    seed: u64,
    name: &str,
    issuer: &Issuer,
    done: &Mutex<Vec<Done>>,
) {
    let sess = srv.session(name);
    let mut inflight = VecDeque::new();
    loop {
        while inflight.len() < OUTSTANDING {
            let Some(j) = issuer.next() else { break };
            let t = job_values(seed, j);
            let start = Instant::now();
            match srv.submit(sess, prog, job_inputs(&t)) {
                Ok(ticket) => inflight.push_back((ticket, start, t)),
                Err(e) => eprintln!("job {j} not admitted: {e}"),
            }
        }
        let Some((ticket, start, t)) = inflight.pop_front() else {
            break;
        };
        let result = ticket.wait();
        let latency_s = seconds_since(start);
        done.lock().expect("result lock poisoned").push(Done {
            latency_s,
            result,
            t,
        });
    }
}

/// Runs the closed loop until `seconds` have passed; returns every job's
/// result and the server's report.
fn closed_loop<B: Backend>(
    be: &B,
    prog: &Arc<Function>,
    seed: u64,
    seconds: f64,
) -> (Vec<Done>, ServeReport) {
    let issuer = Issuer {
        deadline: Instant::now() + std::time::Duration::from_secs_f64(seconds),
        state: Mutex::new((0, false)),
    };
    let done = Mutex::new(Vec::new());
    let ((), report) = serve::serve(be, config(), |srv| {
        std::thread::scope(|s| {
            for i in 0..SESSIONS {
                let (issuer, done) = (&issuer, &done);
                s.spawn(move || session(srv, prog, seed, &format!("s{i}"), issuer, done));
            }
        });
    });
    (done.into_inner().expect("result lock poisoned"), report)
}

/// Splits each serving worker's backend spans into packed executions: a
/// batch runs from the first call after the previous batch's `decrypt`
/// to its own `decrypt`. Returns each batch's wall time.
fn batch_walls(spans: &[Span], from_ns: u64, to_ns: u64) -> Vec<f64> {
    let mut by_thread: std::collections::BTreeMap<u64, Vec<&Span>> = Default::default();
    for s in spans.iter().filter(|s| {
        s.job.is_none()
            && s.name.starts_with("backend.")
            && s.start_ns >= from_ns
            && s.start_ns < to_ns
    }) {
        by_thread.entry(s.thread).or_default().push(s);
    }
    let mut walls = Vec::new();
    for list in by_thread.values_mut() {
        list.sort_by_key(|s| s.start_ns);
        let mut first: Option<u64> = None;
        for s in list.iter() {
            let begin = *first.get_or_insert(s.start_ns);
            if s.name == "backend.decrypt" {
                walls.push((s.end_ns - begin) as f64 * 1e-9);
                first = None;
            }
        }
    }
    walls
}

impl Workload for ServeToy {
    fn setup(cfg: &Config) -> Result<(Self, SetupTimes), String> {
        // Two serving workers, each running its batch on one thread.
        parallel::set_threads(Some(1));
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let mut b = FunctionBuilder::new("invsqrt", RING / 2);
        let x = b.input_cipher("t");
        let y0 = b.input_cipher("y0");
        let r = invsqrt_loop(&mut b, x, y0, TripCount::dynamic("k"), WIDTH);
        b.ret(&[r]);
        let src = b.finish();
        times.trace_s = seconds_since(t);

        let t = Instant::now();
        let opts = CompileOptions::new(CkksParams {
            poly_degree: RING,
            max_level: LEVELS,
            rf_bits: 40,
        });
        let mut hooks = PipelineHooks::default();
        let compiled = compile_with_hooks(&src, CompilerConfig::Halo, &opts, &mut hooks)
            .map_err(|e| format!("invsqrt: HALO compile failed: {e}"))?;
        times.compile_s = seconds_since(t);
        let mut compile = CompileTally {
            programs: 1,
            halo_s: times.compile_s,
            static_bootstraps: compiled.static_bootstraps as f64,
            ..CompileTally::default()
        };
        compile.passes(&hooks);

        let this = ServeToy {
            be: ToyBackend::new(RING, LEVELS, cfg.seed ^ 0x5E4E_0B0C),
            prog: Arc::new(compiled.function),
            seed: cfg.seed,
            compile,
        };
        // Warm-up: one full batch through the server (a zero-length run
        // issues exactly one; keys are made on first use).
        let t = Instant::now();
        let (done, _) = closed_loop(&this.be, &this.prog, this.seed ^ u64::MAX, 0.0);
        times.warmup_s = seconds_since(t);
        for d in &done {
            let out = d
                .result
                .as_ref()
                .map_err(|e| format!("warm-up job: {e:?}"))?;
            window_matches(&out.outputs, &d.t, TRIPS, SERVE_TOL)
                .map_err(|why| format!("warm-up job: {why}"))?;
        }
        Ok((this, times))
    }

    fn run(&self, cfg: &Config, rec: Option<&Recorder>) -> Result<Phase, String> {
        let from_ns = rec.map_or(0, Recorder::now_ns);
        let k0 = metrics::snapshot();
        let start = Instant::now();
        let secs = cfg.seconds as f64;
        let (done, report) = match rec {
            Some(r) => closed_loop(&Timed::new(&self.be, r), &self.prog, self.seed, secs),
            None => closed_loop(&self.be, &self.prog, self.seed, secs),
        };
        let elapsed_s = seconds_since(start);
        let to_ns = rec.map_or(0, Recorder::now_ns);

        let mut log = JobLog::default();
        for d in &done {
            match &d.result {
                Err(e) => log.error("invsqrt", &format!("{e:?}")),
                Ok(out) => match window_matches(&out.outputs, &d.t, TRIPS, SERVE_TOL) {
                    Err(why) => log.wrong_output("invsqrt", &why),
                    Ok(()) => {
                        let k = out.batch_size.max(1) as f64;
                        log.pass(
                            d.latency_s,
                            out.bootstrap_count as f64 / k,
                            out.share_us * 1e-6,
                            0.0,
                        );
                    }
                },
            }
        }
        // Executed ops, split over the sessions by the server.
        log.exec_ops = report
            .sessions
            .iter()
            .flat_map(|s| s.op_counts.values())
            .sum::<u64>() as f64;

        let mut layers = self.compile.layers();
        let jobs = log.attempted.max(1) as f64;
        let batches = report.batches.max(1) as f64;
        layers.push(("serve.batches".into(), report.batches as f64));
        layers.push(("serve.jobs_per_batch".into(), jobs / batches));
        layers.push((
            "serve.peak_queue_depth".into(),
            report.peak_queue_depth as f64,
        ));
        layers.push((
            "serve.batch_fallbacks".into(),
            report.batch_fallbacks as f64,
        ));
        let mut exec_wall_s = None;
        if let Some(r) = rec {
            let walls = batch_walls(&r.spans(), from_ns, to_ns);
            let latencies: Vec<f64> = done.iter().map(|d| d.latency_s).collect();
            layers.push((
                "serve.queue_wait_s".into(),
                (median(&latencies) - median(&walls)).max(0.0),
            ));
            exec_wall_s = Some(walls.iter().sum());
        }
        Ok(Phase {
            log,
            from_ns,
            to_ns,
            elapsed_s,
            kernel: metrics::snapshot().delta(&k0),
            ring_degree: RING,
            layers,
            exec_wall_s,
        })
    }
}
