//! The CDAS benchmark.
//!
//! One call of [`run`] generates a workload's inputs from a seed, times repeated runs
//! of them through the engine's public API with tracing off (the end-to-end metrics),
//! makes one traced run through the engine's public seams (the per-layer metrics),
//! and checks every run's output. See `perfbench/README.md` for every metric's
//! definition, unit and direction, and for why each workload exists.

#![warn(missing_docs)]

pub mod fleet;
pub mod inputs;
pub mod service;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use cdas_core::types::{Label, QuestionId};
use cdas_core::verification::Verdict;

pub use inputs::{Size, Workload};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// The unit.
    pub unit: &'static str,
}

/// How one benchmark invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// How long the untraced timed runs go on, in seconds.
    pub seconds: f64,
    /// Whether the per-layer metrics are wanted (they add a quality-model replay and
    /// write the spans out).
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Withhold this answer (0-based, in delivery order) in the traced run's platform
    /// wrapper. Only the benchmark's own tests set it, to show the traced-equals-
    /// untraced check catches a wrapper that changes the run.
    pub drop_answer: Option<usize>,
    /// Scratch directory for journals and service directories, and where spans go.
    pub work_dir: PathBuf,
}

/// Operations attempted and the ones whose output check failed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations attempted (runs, submits, epochs).
    pub attempted: u64,
    /// Operations that failed, were refused, or whose output check failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation; a failed check records `why`.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Failures over attempts.
    pub fn error_rate(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Set-up timings, taken once before the first run and once after each timed run, so
/// they sample the whole measuring window rather than its first half-second.
#[derive(Debug, Clone, Default)]
pub struct SetupSamples {
    /// Seconds per set-up.
    pub seconds: Vec<f64>,
    /// Host µs per job submission (fleet workloads: `Fleet::submit` during set-up).
    pub submit_us: Vec<f64>,
}

/// Set-ups per invocation at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;
/// Timed runs at least, however long they take.
pub const MIN_TIMED_RUNS: usize = 3;

/// The end-to-end metrics of one workload run.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Resolved real questions per host second of a timed run (median over runs).
    pub questions_per_s: f64,
    /// Input generation plus fleet build or service open (median over set-ups), s.
    pub setup_s: f64,
    /// The process's peak resident set after the timed runs, MiB.
    pub peak_rss_mib: f64,
    /// Median host latency of one job submission, µs.
    pub submit_p50_us: f64,
    /// Accuracy of the real questions' verdicts against the generated truth.
    pub accuracy: f64,
    /// Requester dollars per resolved real question.
    pub cost_per_question_usd: f64,
    /// Simulated minutes until the last job completed.
    pub makespan_min: f64,
    /// Median simulated minutes from a HIT's dispatch to its batch commit.
    pub hit_latency_p50_min: f64,
    /// 99th percentile of the same.
    pub hit_latency_p99_min: f64,
}

impl EndToEnd {
    /// The metrics in `BENCHMARK.json` order; `success_rate` is `1 - error_rate`.
    pub fn metrics(&self, checks: &Checks) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("questions_per_s", self.questions_per_s, "1/s"),
            m("setup_s", self.setup_s, "s"),
            m("peak_rss_mib", self.peak_rss_mib, "MiB"),
            m("submit_p50_us", self.submit_p50_us, "us"),
            m("success_rate", 1.0 - checks.error_rate(), "ratio"),
            m("accuracy", self.accuracy, "ratio"),
            m("cost_per_question_usd", self.cost_per_question_usd, "USD"),
            m("makespan_min", self.makespan_min, "min"),
            m("hit_latency_p50_min", self.hit_latency_p50_min, "min"),
            m("hit_latency_p99_min", self.hit_latency_p99_min, "min"),
        ]
    }
}

/// The per-layer metrics of one traced run. A layer the workload cannot reach through
/// the public API reads 0 (see the README).
#[derive(Debug, Clone, Default)]
#[allow(missing_docs)]
pub struct PerLayer {
    pub platform_busy_frac: f64,
    pub platform_publish_us: f64,
    pub platform_poll_us: f64,
    pub platform_polls: f64,
    pub platform_answers: f64,
    pub platform_empty_poll_frac: f64,
    pub scheduler_self_frac: f64,
    pub scheduler_ticks: f64,
    pub scheduler_self_us_per_tick: f64,
    pub lease_attempts: f64,
    pub lease_failures: f64,
    pub lease_yield: f64,
    pub online_answers_per_question: f64,
    pub online_cancelled_frac: f64,
    pub online_consume_ns: f64,
    pub verification_verify_ns: f64,
    pub sharing_cache_hit_rate: f64,
    pub sharing_registry_size: f64,
    pub journal_busy_frac: f64,
    pub journal_dispatch_us: f64,
    pub journal_charge_us: f64,
    pub journal_commit_us: f64,
    pub journal_records: f64,
    pub journal_bytes_per_question: f64,
    pub service_submit_p99_us: f64,
    pub service_submit_samples: f64,
    pub service_epoch_ms: f64,
    pub service_shutdown_s: f64,
    pub service_queued_frac: f64,
    pub admission_forecast_us: f64,
    pub admission_cost_rel_err: f64,
    pub admission_makespan_rel_err: f64,
    pub manifest_bytes_per_submit: f64,
    pub shard_imbalance: f64,
    pub fleet_parallel_speedup: f64,
    pub trace_overhead_frac: f64,
    pub submit_samples: f64,
    pub hit_latency_samples: f64,
}

impl PerLayer {
    /// The metrics in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("platform.busy_frac", self.platform_busy_frac, "ratio"),
            m("platform.publish_us", self.platform_publish_us, "us"),
            m("platform.poll_us", self.platform_poll_us, "us"),
            m("platform.polls", self.platform_polls, "count"),
            m("platform.answers", self.platform_answers, "count"),
            m(
                "platform.empty_poll_frac",
                self.platform_empty_poll_frac,
                "ratio",
            ),
            m("scheduler.self_frac", self.scheduler_self_frac, "ratio"),
            m("scheduler.ticks", self.scheduler_ticks, "count"),
            m(
                "scheduler.self_us_per_tick",
                self.scheduler_self_us_per_tick,
                "us",
            ),
            m("lease.attempts", self.lease_attempts, "count"),
            m("lease.failures", self.lease_failures, "count"),
            m("lease.yield", self.lease_yield, "ratio"),
            m(
                "online.answers_per_question",
                self.online_answers_per_question,
                "count",
            ),
            m("online.cancelled_frac", self.online_cancelled_frac, "ratio"),
            m("online.consume_ns", self.online_consume_ns, "ns"),
            m("verification.verify_ns", self.verification_verify_ns, "ns"),
            m(
                "sharing.cache_hit_rate",
                self.sharing_cache_hit_rate,
                "ratio",
            ),
            m("sharing.registry_size", self.sharing_registry_size, "count"),
            m("journal.busy_frac", self.journal_busy_frac, "ratio"),
            m("journal.dispatch_us", self.journal_dispatch_us, "us"),
            m("journal.charge_us", self.journal_charge_us, "us"),
            m("journal.commit_us", self.journal_commit_us, "us"),
            m("journal.records", self.journal_records, "count"),
            m(
                "journal.bytes_per_question",
                self.journal_bytes_per_question,
                "B",
            ),
            m("service.submit_p99_us", self.service_submit_p99_us, "us"),
            m(
                "service.submit_samples",
                self.service_submit_samples,
                "count",
            ),
            m("service.epoch_ms", self.service_epoch_ms, "ms"),
            m("service.shutdown_s", self.service_shutdown_s, "s"),
            m("service.queued_frac", self.service_queued_frac, "ratio"),
            m("admission.forecast_us", self.admission_forecast_us, "us"),
            m(
                "admission.cost_rel_err",
                self.admission_cost_rel_err,
                "ratio",
            ),
            m(
                "admission.makespan_rel_err",
                self.admission_makespan_rel_err,
                "ratio",
            ),
            m(
                "manifest.bytes_per_submit",
                self.manifest_bytes_per_submit,
                "B",
            ),
            m("shard.imbalance", self.shard_imbalance, "ratio"),
            m(
                "fleet.parallel_speedup",
                self.fleet_parallel_speedup,
                "ratio",
            ),
            m("trace.overhead_frac", self.trace_overhead_frac, "ratio"),
            m("submit.samples", self.submit_samples, "count"),
            m("hit_latency.samples", self.hit_latency_samples, "count"),
        ]
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations and their checks.
    pub checks: Checks,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (computed whether or not `trace` was asked for; the replay
    /// timings and the tracing overhead are 0 without it).
    pub per_layer: Vec<Metric>,
}

/// Run one workload: set up, time, trace, check.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    let (mut checks, end_to_end, per_layer, spans) = match opts.workload {
        Workload::ServiceWaves => service::run(opts)?,
        _ => fleet::run(opts)?,
    };
    let per_layer = per_layer.metrics();
    let not_finite: Vec<&str> = end_to_end
        .metrics(&checks)
        .iter()
        .chain(&per_layer)
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if !not_finite.is_empty() {
        checks.op(Err(format!("metrics not finite: {not_finite:?}")));
    }
    let end_to_end = end_to_end.metrics(&checks);
    if opts.trace {
        let path = opts
            .work_dir
            .join(format!("{}.spans.tsv", opts.workload.name()));
        trace::write_spans(&path, &spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Outcome {
        checks,
        end_to_end,
        per_layer,
    })
}

/// Score real-question verdicts against the generated truth: the verdicts come as
/// `(job index, question, verdict)`. Fails unless every real question got exactly one
/// verdict; otherwise returns the share whose accepted label equals the truth.
pub fn score_verdicts<'a>(
    truth: &[BTreeMap<QuestionId, Label>],
    verdicts: impl IntoIterator<Item = (usize, QuestionId, &'a Verdict)>,
) -> Result<f64, String> {
    let mut seen: Vec<BTreeMap<QuestionId, bool>> = vec![BTreeMap::new(); truth.len()];
    for (job, question, verdict) in verdicts {
        let expected = truth
            .get(job)
            .and_then(|t| t.get(&question))
            .ok_or_else(|| format!("verdict for unknown question {question:?} of job {job}"))?;
        let correct = verdict.label().is_some_and(|l| l == expected);
        if seen[job].insert(question, correct).is_some() {
            return Err(format!(
                "two verdicts for question {question:?} of job {job}"
            ));
        }
    }
    let total: usize = truth.iter().map(BTreeMap::len).sum();
    let answered: usize = seen.iter().map(BTreeMap::len).sum();
    if answered != total {
        return Err(format!("{answered} verdicts for {total} real questions"));
    }
    let correct = seen
        .iter()
        .flat_map(BTreeMap::values)
        .filter(|c| **c)
        .count();
    Ok(stats::ratio(correct as f64, total as f64))
}

/// Check a computed accuracy against the one the program reported (up to the rounding
/// of a sum of per-epoch ratios).
pub fn check_accuracy(computed: f64, reported: f64) -> Result<(), String> {
    if (computed - reported).abs() > 1e-9 {
        return Err(format!(
            "accuracy against the generated truth is {computed}, the report says {reported}"
        ));
    }
    Ok(())
}

/// Render the result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

/// A finite `f64` with every digit Rust's shortest round-trip form gives; 0 for a
/// non-finite value (which [`run`] has already counted as a failed check).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    format!("{v:?}")
}
