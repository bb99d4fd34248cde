//! Spans recorded from the benchmark's side of the engine's public seams.
//!
//! A traced run wraps the crowd platform ([`TimedPlatform`]) and the run observer
//! ([`TimedObserver`], around the journal's own `JournalSink`) and times every call
//! into them. Spans live in memory until the benchmark ends and are written out as
//! one TSV file. Spans inside the program are not recorded: everything here is
//! measured at the boundary a caller of the engine can reach.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use cdas_core::types::{HitId, Label, QuestionId, WorkerId};
use cdas_crowd::hit::HitRequest;
use cdas_crowd::platform::{CancelReceipt, CrowdPlatform, WorkerAnswer};
use cdas_engine::journal::recovery::JournalSink;
use cdas_engine::scheduler::{BatchCommit, DispatchRecord, JobId, RunObserver};

/// One timed call. Times are nanoseconds since the traced run's [`TraceClock`] origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer and operation, e.g. `platform.poll`.
    pub name: &'static str,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the run's span list (`None` for the root).
    pub parent: Option<usize>,
    /// The traced run the span belongs to.
    pub run: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The time origin every span of one traced run is measured from.
#[derive(Debug, Clone, Copy)]
pub struct TraceClock {
    origin: Instant,
}

impl TraceClock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        TraceClock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// An append-only span list with a fixed parent, for one wrapper.
#[derive(Debug)]
pub struct SpanLog {
    clock: TraceClock,
    run: u32,
    parent: Option<usize>,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose spans all hang under `parent`.
    pub fn new(clock: TraceClock, run: u32, parent: Option<usize>) -> Self {
        SpanLog {
            clock,
            run,
            parent,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the run's origin.
    pub fn now(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Record a finished span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.parent,
            run: self.run,
        });
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Sum of the durations of the spans named `name`, in ns.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Write `spans` as TSV (`run name start_ns end_ns parent`), replacing `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "run\tname\tstart_ns\tend_ns\tparent")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.run, s.name, s.start_ns, s.end_ns, parent
        )?;
    }
    out.flush()
}

/// One delivered answer, kept for the quality-model replay.
#[derive(Debug, Clone)]
pub struct CapturedAnswer {
    /// The HIT it answered.
    pub hit: HitId,
    /// The question it answered.
    pub question: QuestionId,
    /// Who answered.
    pub worker: WorkerId,
    /// The answer.
    pub label: Label,
}

/// Call counts of a [`TimedPlatform`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlatformCounts {
    /// `poll` calls.
    pub polls: usize,
    /// Polls that returned no answer.
    pub empty_polls: usize,
    /// Answers delivered to the caller.
    pub answers: usize,
}

/// A [`CrowdPlatform`] that times every call into the platform it wraps and keeps the
/// delivered answers. With `drop_answer` set it withholds that answer (0-based, in
/// delivery order): a deliberately faulty wrapper the benchmark's own tests use to show
/// that the traced-equals-untraced check catches a wrapper that changes the run.
#[derive(Debug)]
pub struct TimedPlatform<P> {
    inner: P,
    log: RefCell<SpanLog>,
    counts: PlatformCounts,
    captured: Vec<CapturedAnswer>,
    drop_answer: Option<usize>,
}

impl<P: CrowdPlatform> TimedPlatform<P> {
    /// Wrap `inner`, recording spans into `log`.
    pub fn new(inner: P, log: SpanLog, drop_answer: Option<usize>) -> Self {
        TimedPlatform {
            inner,
            log: RefCell::new(log),
            counts: PlatformCounts::default(),
            captured: Vec::new(),
            drop_answer,
        }
    }

    /// Take the spans, counts and captured answers.
    pub fn finish(self) -> (Vec<Span>, PlatformCounts, Vec<CapturedAnswer>) {
        (
            self.log.into_inner().into_spans(),
            self.counts,
            self.captured,
        )
    }

    fn now(&self) -> u64 {
        self.log.borrow().now()
    }

    fn record(&self, name: &'static str, start: u64) {
        let mut log = self.log.borrow_mut();
        let end = log.now();
        log.record(name, start, end);
    }
}

impl<P: CrowdPlatform> CrowdPlatform for TimedPlatform<P> {
    fn publish(&mut self, request: HitRequest) -> HitId {
        let start = self.now();
        let hit = self.inner.publish(request);
        self.record("platform.publish", start);
        hit
    }

    fn publish_to(&mut self, request: HitRequest, workers: &[WorkerId]) -> HitId {
        let start = self.now();
        let hit = self.inner.publish_to(request, workers);
        self.record("platform.publish", start);
        hit
    }

    fn advance_time(&mut self, now: f64) {
        let start = self.now();
        self.inner.advance_time(now);
        self.record("platform.advance_time", start);
    }

    fn poll(&mut self, hit: HitId, now: f64) -> Vec<WorkerAnswer> {
        let start = self.now();
        let mut answers = self.inner.poll(hit, now);
        if let Some(k) = self.drop_answer {
            let delivered = self.counts.answers;
            if (delivered..delivered + answers.len()).contains(&k) {
                answers.remove(k - delivered);
                self.drop_answer = None;
            }
        }
        self.counts.polls += 1;
        self.counts.empty_polls += usize::from(answers.is_empty());
        self.counts.answers += answers.len();
        self.captured.extend(answers.iter().map(|a| CapturedAnswer {
            hit: a.hit,
            question: a.question,
            worker: a.worker,
            label: a.label.clone(),
        }));
        self.record("platform.poll", start);
        answers
    }

    fn next_arrival(&self, hit: HitId) -> Option<f64> {
        let start = self.now();
        let next = self.inner.next_arrival(hit);
        self.record("platform.next_arrival", start);
        next
    }

    fn cancel(&mut self, hit: HitId, now: f64) -> CancelReceipt {
        let start = self.now();
        let receipt = self.inner.cancel(hit, now);
        self.record("platform.cancel", start);
        receipt
    }

    fn total_cost(&self) -> f64 {
        let start = self.now();
        let cost = self.inner.total_cost();
        self.record("platform.total_cost", start);
        cost
    }
}

/// What a [`TimedObserver`] saw besides its spans.
#[derive(Debug, Default)]
pub struct ObserverLog {
    /// `(hit, simulated dispatch time)` per dispatch, in call order.
    pub dispatched: Vec<(HitId, f64)>,
    /// `(hit, simulated completion time)` per batch commit, in call order.
    pub committed: Vec<(HitId, f64)>,
}

/// A [`RunObserver`] that records dispatch and commit times (the true per-HIT latency)
/// and, when it wraps a journal sink, times every append the sink makes.
pub struct TimedObserver {
    sink: Option<JournalSink>,
    state: Mutex<(SpanLog, ObserverLog)>,
}

impl TimedObserver {
    /// An observer recording into `log`, forwarding to `sink` when given one.
    pub fn new(sink: Option<JournalSink>, log: SpanLog) -> Self {
        TimedObserver {
            sink,
            state: Mutex::new((log, ObserverLog::default())),
        }
    }

    /// The wrapped journal sink, if any.
    pub fn sink(&self) -> Option<&JournalSink> {
        self.sink.as_ref()
    }

    /// Take the spans and the dispatch/commit log.
    pub fn finish(self) -> (Vec<Span>, ObserverLog) {
        let (log, seen) = self
            .state
            .into_inner()
            .expect("no observer callback panicked");
        (log.into_spans(), seen)
    }

    /// Forward one call to the sink, timed as `name`, then log it with `note`.
    fn observe(
        &self,
        name: &'static str,
        forward: impl FnOnce(&JournalSink),
        note: impl FnOnce(&mut ObserverLog),
    ) {
        let mut state = self.state.lock().expect("no observer callback panicked");
        if let Some(sink) = &self.sink {
            let start = state.0.now();
            forward(sink);
            let end = state.0.now();
            state.0.record(name, start, end);
        }
        note(&mut state.1);
    }
}

impl RunObserver for TimedObserver {
    fn on_dispatch(&self, dispatch: &DispatchRecord) {
        self.observe(
            "journal.dispatch",
            |sink| sink.on_dispatch(dispatch),
            |seen| seen.dispatched.push((dispatch.hit, dispatch.at)),
        );
    }

    fn on_charge(&self, job: JobId, hit: HitId, amount: f64, at: f64) {
        self.observe(
            "journal.charge",
            |sink| sink.on_charge(job, hit, amount, at),
            |_| {},
        );
    }

    fn on_commit(&self, commit: &BatchCommit) {
        self.observe(
            "journal.commit",
            |sink| sink.on_commit(commit),
            |seen| seen.committed.push((commit.hit, commit.completed_at)),
        );
    }
}
