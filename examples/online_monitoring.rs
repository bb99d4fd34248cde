//! Online processing, observed live: run a clocked fleet with early termination and
//! watch its event stream — jobs starting, HITs dispatched, verdicts terminating early,
//! leases flowing back mid-flight — then drill into one HIT to see the per-answer
//! confidence trajectory each termination strategy reacts to (§4.2, Figures 11–13).
//!
//! Run with: `cargo run -p cdas --example online_monitoring`

use cdas::core::online::OnlineProcessor;
use cdas::core::types::AnswerDomain;
use cdas::crowd::question::CrowdQuestion;
use cdas::fixtures::demo_questions;
use cdas::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // --- The monitor: a fleet's event stream ----------------------------------------
    // Two 12-question jobs with ExpMax termination over a tight asynchronous crowd.
    let fleet = Fleet::builder()
        .crowd(
            CrowdSpec::clean(12, 0.85)
                .seed(7)
                .latency(LatencyModel::Exponential { mean: 5.0 }),
        )
        .jobs(["alpha", "beta"].map(|name| {
            JobSpec::sentiment(name, demo_questions(12, 3))
                .workers(7)
                .domain_size(3)
                .batch_size(6)
                .termination(TerminationStrategy::ExpMax)
        }))
        .build()
        .expect("a well-formed fleet");
    let run = fleet.run(ExecutionMode::Clocked).expect("fleet run");

    println!("live fleet monitor (simulated minutes):");
    run.replay(|event| match event {
        FleetEvent::JobStarted { name, at, .. } => {
            println!("  {at:>6.1}m  job {name:?} started");
        }
        FleetEvent::HitDispatched {
            job, workers, at, ..
        } => {
            println!(
                "  {at:>6.1}m  job {} dispatched a HIT to {workers} workers",
                job.0
            );
        }
        FleetEvent::FirstVerdict { job, at } => {
            println!("  {at:>6.1}m  job {} produced its first verdict", job.0);
        }
        FleetEvent::LeaseReclaimed { job, minutes, at } => {
            println!(
                "  {at:>6.1}m  job {} cancelled mid-flight, reclaiming {minutes:.1} worker-minutes",
                job.0
            );
        }
        FleetEvent::JobCompleted {
            job,
            questions,
            accuracy,
            at,
        } => {
            println!(
                "  {at:>6.1}m  job {} completed: {questions} questions at {accuracy:.3}",
                job.0
            );
        }
        FleetEvent::QuestionTerminated { .. } => {} // 24 of these; summarized below
    });
    let early = run
        .events()
        .iter()
        .filter(|e| matches!(e, FleetEvent::QuestionTerminated { early: true, .. }))
        .count();
    println!(
        "  {} verdicts streamed, {} terminated before every worker answered\n",
        run.verdicts().count(),
        early
    );

    // --- The drill-down: one HIT, answer by answer ----------------------------------
    // A HIT assigned to 15 workers drawn from the default (Figure 14-shaped) pool; the
    // question has three answers and the true one is "Positive".
    let pool = CrowdSpec::paper().build_pool();
    let mut rng = StdRng::seed_from_u64(7);
    let question = CrowdQuestion::new(
        QuestionId(0),
        AnswerDomain::from_strs(&["Positive", "Neutral", "Negative"]),
        Label::from("Positive"),
    );
    let workers = pool.assign(15, &mut rng);
    let mean_accuracy = pool.true_mean_accuracy(&question);

    // Build the asynchronous answer sequence: every worker answers, latencies decide order.
    let mut submissions: Vec<(f64, Vote)> = workers
        .iter()
        .map(|w| {
            let label = w.answer(&question, &mut rng);
            let at = w.sample_latency(&mut rng);
            (at, Vote::new(w.id, label, w.effective_accuracy(&question)))
        })
        .collect();
    submissions.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

    println!("mean pool accuracy: {mean_accuracy:.3}; 15 workers assigned\n");
    println!(
        "{:>6} {:>8} {:>10} {:>10}   termination fired",
        "t", "worker", "answer", "P(best)"
    );

    let mut processors: Vec<(TerminationStrategy, OnlineProcessor)> = TerminationStrategy::ALL
        .iter()
        .map(|s| {
            (
                *s,
                OnlineProcessor::new(15, mean_accuracy, *s)
                    .unwrap()
                    .with_domain_size(3),
            )
        })
        .collect();

    for (at, vote) in &submissions {
        let mut fired = Vec::new();
        let mut best = (String::new(), 0.0);
        for (strategy, processor) in processors.iter_mut() {
            let outcome = processor.consume(vote.clone()).unwrap();
            if let Some((label, p)) = &outcome.best {
                best = (label.as_str().to_string(), *p);
            }
            if processor.terminated_at() == Some(outcome.answers_received) {
                fired.push(strategy.name());
            }
        }
        println!(
            "{:>6.1} {:>8} {:>10} {:>9.3}   {}",
            at,
            vote.worker.to_string(),
            vote.label.as_str(),
            best.1,
            if fired.is_empty() {
                String::from("-")
            } else {
                fired.join(", ")
            }
        );
    }

    println!("\nanswers consumed before termination:");
    for (strategy, processor) in &processors {
        println!(
            "  {:<7} {:>2} of 15",
            strategy.name(),
            processor.terminated_at().unwrap_or(15)
        );
    }
    println!("\nExpMax terminates earliest while MinMax is provably stable — the trade-off of Figures 12 and 13.");
}
