//! White-box admission control in the DBSeer mold: instead of fitting a black-box
//! curve to observed throughput, the model predicts a candidate job's resource
//! demands from the system's own mechanics — workers per HIT from the prediction
//! model ([`CrowdsourcingEngine::decide_workers`]), batch count from the job's
//! question list, round time from the crowd's latency distribution, dollars from the
//! [`CostModel`](cdas_core::economics::CostModel) — and only *calibrates* the
//! round-time constant against the
//! makespans of completed epochs. White-box structure is what gives the model
//! extrapolation power: a job mix the service has never seen still decomposes into
//! the same per-HIT quantities.
//!
//! The policy verdict is [`AdmissionDecision`]: `Accept` when the job fits the live
//! mix, `Queue` when it fits an emptier crowd than today's (capacity will free as
//! epochs complete), `Reject` when even an idle crowd could not meet its deadline,
//! the service budget would be breached, or the job is structurally unservable.

use cdas_core::Result;
use cdas_crowd::arrival::LatencyModel;
use cdas_crowd::spec::CrowdSpec;

use crate::engine::CrowdsourcingEngine;
use crate::metrics::FleetReport;
use crate::scheduler::ScheduledJob;

/// The admission verdict for one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The job fits the live mix: it joins the next epoch.
    Accept,
    /// The job fits an idle crowd but not today's mix: it waits for capacity.
    Queue,
    /// The job can never be served acceptably: unservable demand, a deadline no idle
    /// crowd meets, or a breach of the service-wide budget.
    Reject,
}

/// The model's prediction for one candidate job — the quantities the admission
/// policy (and the caller, via [`super::ServiceEvent::Submitted`]) reasons over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionForecast {
    /// Workers each of the job's HITs consumes while in flight.
    pub workers_per_hit: usize,
    /// HIT batches the job publishes (`ceil(questions / batch_size)`).
    pub batches: usize,
    /// Predicted worker-minutes: every batch holds `workers_per_hit` workers for one
    /// round.
    pub worker_minutes: f64,
    /// Predicted requester cost in dollars (assignments × per-assignment fee).
    pub cost: f64,
    /// Predicted simulated-minutes makespan under the mix the forecast was taken
    /// against. [`f64::INFINITY`] when that mix leaves the job no workers at all.
    pub makespan_minutes: f64,
}

/// The white-box model itself: crowd constants plus one calibrated round time.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionModel {
    /// Workers in the crowd.
    pool_workers: usize,
    /// Dollars per collected assignment (worker fee + platform fee).
    per_assignment: f64,
    /// The crowd's a-priori mean round time (latency-model mean), in simulated
    /// minutes.
    prior_round_minutes: f64,
    /// Observed `(makespan, dispatch rounds)` totals from completed epochs; their
    /// ratio replaces the prior once real data exists.
    observed_makespan: f64,
    /// Dispatch rounds observed alongside `observed_makespan`.
    observed_rounds: f64,
}

/// Mean of a latency distribution in simulated minutes.
fn latency_mean(model: &LatencyModel) -> f64 {
    match model {
        LatencyModel::Constant(v) => *v,
        LatencyModel::Uniform { lo, hi } => (lo + hi) / 2.0,
        LatencyModel::Exponential { mean } => *mean,
        LatencyModel::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
    }
}

impl AdmissionModel {
    /// Build the model from the crowd the service runs against.
    pub fn new(crowd: &CrowdSpec) -> Self {
        AdmissionModel {
            pool_workers: crowd.worker_count(),
            per_assignment: crowd.cost().per_assignment(),
            prior_round_minutes: latency_mean(&crowd.config().latency).max(f64::MIN_POSITIVE),
            observed_makespan: 0.0,
            observed_rounds: 0.0,
        }
    }

    /// The calibrated round time: observed minutes per dispatch round once epochs
    /// have completed, the latency prior before then.
    pub fn round_minutes(&self) -> f64 {
        if self.observed_rounds > 0.0 && self.observed_makespan > 0.0 {
            self.observed_makespan / self.observed_rounds
        } else {
            self.prior_round_minutes
        }
    }

    /// Fold a completed epoch's report into the calibration: its makespan over its
    /// dispatch rounds refines the minutes-per-round estimate every later forecast
    /// uses. The clocked loop keeps one batch per job in flight, so an epoch runs as
    /// many rounds as its busiest job has batches. Deterministic — recovery replays
    /// epochs in order and lands on the same calibration.
    pub fn observe_epoch(&mut self, report: &FleetReport) {
        let rounds = report.jobs.iter().map(|j| j.hits).max().unwrap_or(0);
        self.observe(report.makespan, rounds);
    }

    /// The raw calibration update behind [`observe_epoch`](Self::observe_epoch).
    pub fn observe(&mut self, makespan: f64, dispatch_rounds: usize) {
        if dispatch_rounds == 0 {
            return;
        }
        self.observed_makespan += makespan;
        self.observed_rounds += dispatch_rounds as f64;
    }

    /// Predict the job's demands against a mix that already holds `reserved_workers`
    /// of the crowd. Fails only when the job itself is malformed (its worker-count
    /// policy resolves to an unservable demand).
    pub fn forecast(
        &self,
        job: &ScheduledJob,
        reserved_workers: usize,
    ) -> Result<AdmissionForecast> {
        let workers_per_hit = CrowdsourcingEngine::new(job.engine.clone()).decide_workers()?;
        let batches = job.questions.len().div_ceil(job.batch_size.max(1));
        let round = self.round_minutes();
        let worker_minutes = batches as f64 * workers_per_hit as f64 * round;
        let cost = batches as f64 * workers_per_hit as f64 * self.per_assignment;
        let free = self.pool_workers.saturating_sub(reserved_workers);
        let concurrent = (free / workers_per_hit.max(1)).min(batches);
        let makespan_minutes = if concurrent == 0 {
            f64::INFINITY
        } else {
            batches.div_ceil(concurrent) as f64 * round
        };
        Ok(AdmissionForecast {
            workers_per_hit,
            batches,
            worker_minutes,
            cost,
            makespan_minutes,
        })
    }

    /// Workers in the crowd.
    pub fn pool_workers(&self) -> usize {
        self.pool_workers
    }
}

/// The admission policy: fold the idle-crowd and live-mix forecasts, the job's
/// deadline, and the remaining budget into a verdict plus the forecast the decision
/// was made on (the live-mix one — what the job would experience if accepted now).
pub fn decide(
    idle: &AdmissionForecast,
    mix: &AdmissionForecast,
    deadline_minutes: Option<f64>,
    budget_remaining: Option<f64>,
) -> (AdmissionDecision, &'static str) {
    if let Some(budget) = budget_remaining {
        if mix.cost > budget {
            return (
                AdmissionDecision::Reject,
                "predicted cost exceeds the service budget",
            );
        }
    }
    if idle.makespan_minutes.is_infinite() {
        return (
            AdmissionDecision::Reject,
            "the job demands more workers per HIT than the crowd holds",
        );
    }
    if let Some(deadline) = deadline_minutes {
        if idle.makespan_minutes > deadline {
            return (
                AdmissionDecision::Reject,
                "even an idle crowd cannot meet the deadline",
            );
        }
        if mix.makespan_minutes > deadline {
            return (
                AdmissionDecision::Queue,
                "the live mix pushes the predicted makespan past the deadline",
            );
        }
    }
    if mix.makespan_minutes.is_infinite() {
        return (
            AdmissionDecision::Queue,
            "no free workers under the live mix",
        );
    }
    (AdmissionDecision::Accept, "fits the live mix")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HitOutcome;
    use crate::fixtures::demo_questions;
    use crate::job_manager::JobKind;
    use crate::metrics::{score_hits, JobReport};
    use crate::scheduler::JobId;
    use cdas_crowd::question::CrowdQuestion;

    fn model() -> AdmissionModel {
        AdmissionModel::new(
            &CrowdSpec::clean(20, 0.85)
                .seed(1)
                .latency(LatencyModel::Exponential { mean: 5.0 }),
        )
    }

    fn job(questions: u64, batch: usize, workers: usize) -> ScheduledJob {
        let mut scheduled = ScheduledJob::named(
            JobKind::SentimentAnalytics,
            "t",
            demo_questions(questions, 1),
        );
        scheduled.engine.workers = crate::engine::WorkerCountPolicy::Fixed(workers);
        scheduled.batch_size = batch;
        scheduled
    }

    #[test]
    fn forecast_decomposes_into_white_box_quantities() {
        let m = model();
        let f = m.forecast(&job(10, 4, 5), 0).expect("well-formed job");
        assert_eq!(f.workers_per_hit, 5);
        assert_eq!(f.batches, 3);
        assert!((f.worker_minutes - 3.0 * 5.0 * 5.0).abs() < 1e-12);
        assert!((f.cost - 3.0 * 5.0 * m.per_assignment).abs() < 1e-12);
        // 20 workers / 5 per HIT = 4 concurrent, capped at 3 batches: one round.
        assert!((f.makespan_minutes - 5.0).abs() < 1e-12);
    }

    #[test]
    fn a_saturated_mix_predicts_infinite_makespan() {
        let m = model();
        let f = m.forecast(&job(10, 4, 5), 18).expect("well-formed job");
        assert!(f.makespan_minutes.is_infinite());
    }

    #[test]
    fn calibration_replaces_the_prior_round_time() {
        let mut m = model();
        assert!((m.round_minutes() - 5.0).abs() < 1e-12);
        m.observe(30.0, 10);
        assert!((m.round_minutes() - 3.0).abs() < 1e-12);
        m.observe(0.0, 0); // an empty epoch must not poison the calibration
        assert!((m.round_minutes() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn an_epoch_calibrates_per_round_not_per_hit() {
        // 4 jobs × 3 batches in 30 minutes: the jobs ran side by side, so the epoch
        // took 3 rounds of 10 minutes, not 12 rounds of 2.5.
        let fleet = score_hits(Vec::<(&[CrowdQuestion], &HitOutcome)>::new());
        let jobs = (0..4)
            .map(|i| JobReport {
                job: JobId(i),
                name: format!("j{i}"),
                kind: JobKind::SentimentAnalytics,
                priority: 0,
                report: fleet,
                hits: 3,
                ticks_waited: 0,
                distinct_workers: 0,
                time_to_first_verdict: None,
                completed_at: 30.0,
                reclaimed_minutes: 0.0,
                answers_cancelled: 0,
            })
            .collect();
        let epoch = FleetReport {
            jobs,
            fleet,
            shards: Vec::new(),
            ticks: 0,
            makespan: 30.0,
            reclaimed_minutes: 0.0,
            answers_cancelled: 0,
            dispatches: Vec::new(),
            registry_size: 0,
            cache_hits: 0,
            cache_misses: 0,
        };
        let mut m = model();
        m.observe_epoch(&epoch);
        assert!((m.round_minutes() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn policy_orders_reject_queue_accept() {
        let idle = AdmissionForecast {
            workers_per_hit: 5,
            batches: 2,
            worker_minutes: 50.0,
            cost: 0.11,
            makespan_minutes: 5.0,
        };
        let tight = AdmissionForecast {
            makespan_minutes: 20.0,
            ..idle
        };
        let stuck = AdmissionForecast {
            makespan_minutes: f64::INFINITY,
            ..idle
        };
        assert_eq!(
            decide(&idle, &idle, Some(10.0), None).0,
            AdmissionDecision::Accept
        );
        assert_eq!(
            decide(&idle, &tight, Some(10.0), None).0,
            AdmissionDecision::Queue
        );
        assert_eq!(
            decide(&tight, &tight, Some(10.0), None).0,
            AdmissionDecision::Reject
        );
        assert_eq!(
            decide(&idle, &stuck, None, None).0,
            AdmissionDecision::Queue
        );
        assert_eq!(
            decide(&idle, &idle, None, Some(0.05)).0,
            AdmissionDecision::Reject
        );
        assert_eq!(
            decide(&idle, &idle, None, Some(1.0)).0,
            AdmissionDecision::Accept
        );
    }
}
