//! The clocked crowd (§4.2 at scale): the same fleet run twice over identical worker
//! pools — once polling every HIT to its natural makespan, once with early termination
//! cancelling HITs *mid-flight*, so the cancelled workers' leases flow straight to the
//! next waiting job.
//!
//! The pool is deliberately tight (9 workers, 7-worker HITs) so only one HIT fits in
//! flight: every minute a lease comes back early is a minute the next job starts sooner.
//! Because a `Fleet` derives a fresh, bit-identical crowd from its `CrowdSpec` on every
//! `run`, the two configurations are compared over *the same* simulated workers — no
//! hand-cloning of pools required.
//!
//! Run with: `cargo run -p cdas --example clocked_fleet`

use cdas::fixtures::demo_questions;
use cdas::prelude::*;

const SEED: u64 = 2012;

/// The two-job fleet over a 9-worker, 90 %-accuracy crowd whose completion times are
/// exponential (mean 5 min), with or without early termination.
fn fleet(termination: Option<TerminationStrategy>) -> Fleet {
    let mut builder = Fleet::builder().crowd(
        CrowdSpec::clean(9, 0.9)
            .seed(SEED)
            .latency(LatencyModel::Exponential { mean: 5.0 }),
    );
    for name in ["first-job", "second-job"] {
        let mut job = JobSpec::sentiment(name, demo_questions(6, 3))
            .workers(7)
            .domain_size(3)
            .batch_size(9);
        job = match termination {
            Some(strategy) => job.termination(strategy),
            None => job.no_termination(),
        };
        builder = builder.job(job);
    }
    builder.build().expect("a well-formed fleet")
}

fn print_fleet(tag: &str, run: &FleetRun) {
    let report = run.report();
    println!("== {tag} ==");
    println!(
        "{:<12} {:>9} {:>12} {:>12} {:>9} {:>8}",
        "job", "1st verdict", "completed", "reclaimed", "accuracy", "cost $"
    );
    for job in &report.jobs {
        println!(
            "{:<12} {:>8.1}m {:>11.1}m {:>11.1}m {:>9.3} {:>8.3}",
            job.name,
            job.time_to_first_verdict.unwrap_or(f64::NAN),
            job.completed_at,
            job.reclaimed_minutes,
            job.report.accuracy,
            job.report.cost,
        );
    }
    println!(
        "makespan              : {:.1} simulated minutes",
        report.makespan
    );
    println!("worker-minutes saved  : {:.1}", report.reclaimed_minutes);
    println!("answers cancelled     : {}", report.answers_cancelled);
    println!("fleet cost            : ${:.3}", report.total_cost());
    println!("platform ledger       : ${:.3}", run.platform_cost());
    println!();
}

fn main() {
    // Baseline: clocked collection, but every HIT runs to its natural makespan.
    let baseline = fleet(None).run(ExecutionMode::Clocked).expect("fleet run");
    print_fleet("end-of-time baseline", &baseline);

    // Early termination (ExpMax, the paper's recommendation): the moment every question
    // of a HIT is decided, the HIT is cancelled mid-flight — its undelivered assignments
    // are never paid, and its workers go back to the pool for the waiting job.
    let early = fleet(Some(TerminationStrategy::ExpMax))
        .run(ExecutionMode::Clocked)
        .expect("fleet run");
    print_fleet("ExpMax early termination", &early);

    // The handover, observed from the event stream: when did the second job start, and
    // when did leases come back mid-flight?
    let started = |run: &FleetRun, job: JobId| {
        run.events()
            .iter()
            .find_map(|e| match e {
                FleetEvent::JobStarted { job: j, at, .. } if *j == job => Some(*at),
                _ => None,
            })
            .unwrap_or(f64::NAN)
    };
    println!(
        "second job started    : {:.1}m (baseline {:.1}m)",
        started(&early, JobId(1)),
        started(&baseline, JobId(1))
    );
    for event in early.events() {
        if let FleetEvent::LeaseReclaimed { job, minutes, at } = event {
            println!(
                "lease reclaimed       : job {} handed back {minutes:.1} worker-minutes by {at:.1}m",
                job.0
            );
        }
    }
    let (b, e) = (baseline.report(), early.report());
    println!(
        "makespan saved        : {:.1} simulated minutes ({:.0}%)",
        b.makespan - e.makespan,
        100.0 * (b.makespan - e.makespan) / b.makespan
    );
    println!(
        "dollars saved         : ${:.3}",
        b.total_cost() - e.total_cost()
    );
    assert!(e.makespan < b.makespan);
    assert!((e.total_cost() - early.platform_cost()).abs() < 1e-9);
}
