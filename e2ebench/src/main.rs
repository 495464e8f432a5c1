//! End-to-end and per-layer wall-clock benchmark of the HALO workspace.
//!
//! ```text
//! e2ebench --workload <train-durable|compile-tune|serve-toy>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it sets up (trace, compile, build the
//! backend, one untimed warm-up job per program), then runs whole passes
//! of jobs for at least `--seconds`, checking every job's output. The
//! last line of standard output is one JSON object. With `--trace 0` it
//! holds the end-to-end metrics, measured with no instrumentation; with
//! `--trace 1` the same workload runs behind timing wrappers and the line
//! holds the per-layer metrics, and the spans are written to
//! `.bench_work/`. See README.md.

mod check;
mod report;
mod serve;
mod trace;
mod train;
mod tune;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{end_to_end, json_line, median, peak_rss_mib, per_layer, Phase, SetupTimes};
use trace::Recorder;

/// Set-ups measured per untraced run (this process plus fresh child
/// processes); `setup_s` is their median.
const SETUPS: usize = 3;

/// Checked command-line options.
pub struct Config {
    pub workload: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Child mode: set up, print the set-up time, exit.
    pub setup_only: bool,
    /// Where a traced run writes its spans, inside the checkout.
    pub work_root: PathBuf,
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TrainDurable,
    CompileTune,
    ServeToy,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        match s {
            "train-durable" => Some(Kind::TrainDurable),
            "compile-tune" => Some(Kind::CompileTune),
            "serve-toy" => Some(Kind::ServeToy),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::TrainDurable => "train-durable",
            Kind::CompileTune => "compile-tune",
            Kind::ServeToy => "serve-toy",
        }
    }
}

/// A workload: an untimed set-up, then a timed phase of checked jobs.
pub trait Workload: Sized {
    fn setup(cfg: &Config) -> Result<(Self, SetupTimes), String>;
    fn run(&self, cfg: &Config, rec: Option<&Recorder>) -> Result<Phase, String>;
}

pub fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One round of SplitMix64: derives job inputs from the seed.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn usage() -> String {
    "usage: e2ebench --workload <train-durable|compile-tune|serve-toy> --seed <n> \
     --seconds <1-600> --trace <0|1>"
        .into()
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Kind::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1-600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{}", usage());
    Ok(Config {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.unwrap_or(false),
        setup_only,
        work_root: std::env::current_dir()
            .map_err(|e| format!("no working directory: {e}"))?
            .join(".bench_work"),
    })
}

/// Runs set-up alone in a fresh process and reads back its set-up time.
fn child_setup_s(cfg: &Config) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            cfg.workload.name(),
            "--seed",
            &cfg.seed.to_string(),
            "--seconds",
            &cfg.seconds.to_string(),
            "--setup-only",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or_else(|| "set-up process printed no time".to_string())
}

fn drive<W: Workload>(cfg: &Config, process_start: Instant) -> Result<String, String> {
    let (w, times) = W::setup(cfg)?;
    let setup_s = seconds_since(process_start);
    eprintln!(
        "{}: set-up {setup_s:.3} s (trace {:.3}, compile {:.3}, warm-up {:.3})",
        cfg.workload.name(),
        times.trace_s,
        times.compile_s,
        times.warmup_s
    );
    if cfg.setup_only {
        return Ok(format!("setup_s {setup_s:?}"));
    }
    if cfg.trace {
        let rec = Recorder::new(process_start);
        let phase = w.run(cfg, Some(&rec))?;
        drop(w);
        let path = cfg.work_root.join(format!(
            "{}-seed{}.spans.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        rec.write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "traced: {} jobs in {:.3} s ({:.4} jobs/s); spans in {}",
            phase.log.passed(),
            phase.elapsed_s,
            phase.log.passed() as f64 / phase.elapsed_s,
            path.display()
        );
        let metrics = per_layer(&times, &phase, &rec.spans());
        return Ok(json_line(
            phase.log.wrong == 0,
            phase.log.attempted,
            phase.log.failed,
            &metrics,
        ));
    }
    let ticks = report::cpu_ticks();
    let phase = w.run(cfg, None)?;
    let rss = peak_rss_mib();
    let (steal, total) = report::cpu_ticks();
    eprintln!(
        "host steal during the timed phase: {:.1}% of CPU time",
        100.0 * steal.saturating_sub(ticks.0) as f64 / total.saturating_sub(ticks.1).max(1) as f64
    );
    drop(w);
    let mut setups = vec![setup_s];
    for _ in 1..SETUPS {
        setups.push(child_setup_s(cfg)?);
    }
    eprintln!("set-up times: {setups:?}");
    let metrics = end_to_end(median(&setups), &phase, rss);
    Ok(json_line(
        phase.log.wrong == 0,
        phase.log.attempted,
        phase.log.failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|cfg| match cfg.workload {
        Kind::TrainDurable => drive::<train::TrainDurable>(&cfg, process_start),
        Kind::CompileTune => drive::<tune::CompileTune>(&cfg, process_start),
        Kind::ServeToy => drive::<serve::ServeToy>(&cfg, process_start),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
