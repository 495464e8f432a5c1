//! The traced run's instruments: an in-memory span recorder and timing
//! wrappers around the two seams a durable run crosses — the
//! `Backend` + `SnapshotBackend` surface and the `SnapshotStore`.
//!
//! Spans are recorded from outside the library, around calls into each
//! layer's public functions. They stay in memory until the run ends and
//! are then written out as JSON lines. The untraced run never builds any
//! of this: it drives the bare backend and store.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use halo_ckks::backend::{Backend, Result as BResult};
use halo_ckks::{CkksParams, SnapError, SnapReader, SnapshotBackend};
use halo_runtime::{RemoteTelemetry, SnapshotStore};

/// One recorded call: which layer entry point, when, and for which job.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer entry point, e.g. `backend.mult` or `store.put`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The job that caused the call; `None` for calls made on a serving
    /// worker, which runs a packed batch of several jobs at once.
    pub job: Option<u64>,
    /// Small per-process thread number (not the OS thread id).
    pub thread: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    static JOB: Cell<Option<u64>> = const { Cell::new(None) };
    static THREAD: Cell<u64> = const { Cell::new(u64::MAX) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Marks the calls this thread makes from now on as caused by `job`.
pub fn set_job(job: Option<u64>) {
    JOB.with(|j| j.set(job));
}

fn thread_no() -> u64 {
    THREAD.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Collects spans in memory for the length of one run.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as one span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns,
            job: JOB.with(Cell::get),
            thread: thread_no(),
        });
        out
    }

    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(span);
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Writes every span to `path` as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let job = s.job.map_or_else(|| "null".to_string(), |j| j.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"job\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, job, s.thread
            )?;
        }
        w.flush()
    }
}

/// Times `f` under `name` when a recorder is present; calls it bare
/// otherwise.
pub fn span<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.time(name, f),
        None => f(),
    }
}

/// Per-name totals over the spans that start inside `[from_ns, to_ns)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    pub calls: u64,
    pub secs: f64,
}

pub fn totals(spans: &[Span], from_ns: u64, to_ns: u64) -> BTreeMap<&'static str, Total> {
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.start_ns >= from_ns && s.start_ns < to_ns)
    {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.secs += s.secs();
    }
    out
}

/// A `Backend` + `SnapshotBackend` that records one span per call and
/// forwards it unchanged to the wrapped backend.
pub struct Timed<'a, B> {
    inner: &'a B,
    rec: &'a Recorder,
}

impl<'a, B> Timed<'a, B> {
    pub fn new(inner: &'a B, rec: &'a Recorder) -> Timed<'a, B> {
        Timed { inner, rec }
    }
}

impl<B: Backend> Backend for Timed<'_, B> {
    type Ct = B::Ct;

    fn params(&self) -> &CkksParams {
        self.inner.params()
    }
    fn encrypt(&self, values: &[f64], level: u32) -> BResult<Self::Ct> {
        self.rec
            .time("backend.encrypt", || self.inner.encrypt(values, level))
    }
    fn decrypt(&self, ct: &Self::Ct) -> BResult<Vec<f64>> {
        self.rec.time("backend.decrypt", || self.inner.decrypt(ct))
    }
    fn level(&self, ct: &Self::Ct) -> u32 {
        self.inner.level(ct)
    }
    fn degree(&self, ct: &Self::Ct) -> u32 {
        self.inner.degree(ct)
    }
    fn add(&self, a: &Self::Ct, b: &Self::Ct) -> BResult<Self::Ct> {
        self.rec.time("backend.add", || self.inner.add(a, b))
    }
    fn sub(&self, a: &Self::Ct, b: &Self::Ct) -> BResult<Self::Ct> {
        self.rec.time("backend.sub", || self.inner.sub(a, b))
    }
    fn add_plain(&self, a: &Self::Ct, p: &[f64]) -> BResult<Self::Ct> {
        self.rec
            .time("backend.add_plain", || self.inner.add_plain(a, p))
    }
    fn sub_plain(&self, a: &Self::Ct, p: &[f64]) -> BResult<Self::Ct> {
        self.rec
            .time("backend.sub_plain", || self.inner.sub_plain(a, p))
    }
    fn mult(&self, a: &Self::Ct, b: &Self::Ct) -> BResult<Self::Ct> {
        self.rec.time("backend.mult", || self.inner.mult(a, b))
    }
    fn mult_plain(&self, a: &Self::Ct, p: &[f64]) -> BResult<Self::Ct> {
        self.rec
            .time("backend.mult_plain", || self.inner.mult_plain(a, p))
    }
    fn negate(&self, a: &Self::Ct) -> BResult<Self::Ct> {
        self.rec.time("backend.negate", || self.inner.negate(a))
    }
    fn rotate(&self, a: &Self::Ct, offset: i64) -> BResult<Self::Ct> {
        self.rec
            .time("backend.rotate", || self.inner.rotate(a, offset))
    }
    fn rotate_batch(&self, a: &Self::Ct, offsets: &[i64]) -> BResult<Vec<Self::Ct>> {
        // Forwarded whole, so a hoisted override runs as one call and the
        // default loop's inner rotates are not counted twice.
        self.rec.time("backend.rotate_batch", || {
            self.inner.rotate_batch(a, offsets)
        })
    }
    fn rescale(&self, a: &Self::Ct) -> BResult<Self::Ct> {
        self.rec.time("backend.rescale", || self.inner.rescale(a))
    }
    fn modswitch(&self, a: &Self::Ct, down: u32) -> BResult<Self::Ct> {
        self.rec
            .time("backend.modswitch", || self.inner.modswitch(a, down))
    }
    fn bootstrap(&self, a: &Self::Ct, target: u32) -> BResult<Self::Ct> {
        self.rec
            .time("backend.bootstrap", || self.inner.bootstrap(a, target))
    }
}

impl<B: SnapshotBackend> SnapshotBackend for Timed<'_, B> {
    fn ct_format(&self) -> &'static str {
        self.inner.ct_format()
    }
    fn ct_save(&self, ct: &Self::Ct, out: &mut Vec<u8>) {
        self.rec
            .time("snapshot.encode", || self.inner.ct_save(ct, out));
    }
    fn ct_load(&self, r: &mut SnapReader<'_>) -> Result<Self::Ct, SnapError> {
        self.rec.time("snapshot.decode", || self.inner.ct_load(r))
    }
    fn rng_save(&self, out: &mut Vec<u8>) {
        self.rec
            .time("snapshot.encode", || self.inner.rng_save(out));
    }
    fn rng_load(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rec.time("snapshot.decode", || self.inner.rng_load(r))
    }
}

/// A `SnapshotStore` that records one span per call.
pub struct TimedStore<'a> {
    inner: &'a dyn SnapshotStore,
    rec: &'a Recorder,
}

impl<'a> TimedStore<'a> {
    pub fn new(inner: &'a dyn SnapshotStore, rec: &'a Recorder) -> TimedStore<'a> {
        TimedStore { inner, rec }
    }
}

impl SnapshotStore for TimedStore<'_> {
    fn put(&self, bytes: &[u8]) -> io::Result<u64> {
        self.rec.time("store.put", || self.inner.put(bytes))
    }
    fn generations(&self) -> io::Result<Vec<u64>> {
        self.rec.time("store.list", || self.inner.generations())
    }
    fn get(&self, generation: u64) -> io::Result<Vec<u8>> {
        self.rec.time("store.get", || self.inner.get(generation))
    }
    fn remote_telemetry(&self) -> Option<RemoteTelemetry> {
        self.inner.remote_telemetry()
    }
}
