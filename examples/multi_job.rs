//! Many concurrent analytics jobs over one shared crowd: two Twitter-sentiment jobs and
//! one image-tagging job multiplexed over a single 16-worker pool. Each tick interleaves
//! Phase-1 publishes with Phase-2 ingestion across jobs; worker leases keep concurrently
//! in-flight HITs disjoint, and every job's gold-question estimates land in one shared
//! accuracy registry, so what the fleet learns about a worker in one job reweights that
//! worker's votes everywhere else.
//!
//! The whole fleet is wired through the front door: one `CrowdSpec`, one
//! `Fleet::builder()` chain, one `run(ExecutionMode::Clocked)`. The scheduler, ledger
//! and platform it used to take five structs to assemble are derived behind the facade.
//!
//! Run with: `cargo run -p cdas --example multi_job`

use cdas::crowd::question::CrowdQuestion;
use cdas::prelude::*;
use cdas::workloads::it::images::SyntheticImage;
use cdas::workloads::tsa::tweets::Tweet;

fn tsa_questions(movie: &str, seed: u64, count: usize) -> Vec<CrowdQuestion> {
    let mut generator = TweetGenerator::new(TweetGeneratorConfig {
        seed,
        ..TweetGeneratorConfig::default()
    });
    let tweets = generator.generate(movie, count);
    let refs: Vec<&Tweet> = tweets.iter().collect();
    TsaApp::new(TsaConfig::default()).build_questions(&refs)
}

fn it_questions(subject: &str, seed: u64, count: usize) -> Vec<CrowdQuestion> {
    let mut generator = ImageGenerator::new(ImageGeneratorConfig {
        seed,
        ..ImageGeneratorConfig::default()
    });
    let images = generator.generate(subject, count);
    let refs: Vec<&SyntheticImage> = images.iter().collect();
    ImageTaggingApp::new(ItConfig::default()).build_questions(&refs)
}

fn main() {
    // One finite crowd, shared by everyone: 16 workers at 80 % accuracy. Three jobs
    // compete for them (7 + 7 + 5 never fit at once), batched 10 questions per HIT.
    let fleet = Fleet::builder()
        .crowd(CrowdSpec::clean(16, 0.8).seed(7))
        .policy(DispatchPolicy::Priority)
        .job(
            JobSpec::sentiment("thor-sentiment", tsa_questions("Thor", 1, 30))
                .workers(7)
                .domain_size(3)
                .batch_size(10)
                .priority(10), // the urgent job: drains first under Priority dispatch
        )
        .job(
            JobSpec::sentiment("hulk-sentiment", tsa_questions("Hulk", 2, 30))
                .workers(7)
                .domain_size(3)
                .batch_size(10),
        )
        .job(
            JobSpec::tagging("tiger-tags", it_questions("tiger", 3, 20))
                .workers(5)
                .estimated_domain_size()
                .batch_size(10),
        )
        .build()
        .expect("a well-formed fleet");

    let run = fleet.run(ExecutionMode::Clocked).expect("fleet run");
    let report = run.report();

    println!(
        "== fleet of {} jobs over one 16-worker pool ==",
        report.jobs.len()
    );
    println!(
        "{:<16} {:>4} {:>6} {:>8} {:>7} {:>8} {:>8}",
        "job", "hits", "waits", "workers", "quest.", "accuracy", "cost $"
    );
    for job in &report.jobs {
        println!(
            "{:<16} {:>4} {:>6} {:>8} {:>7} {:>8.3} {:>8.2}",
            job.name,
            job.hits,
            job.ticks_waited,
            job.distinct_workers,
            job.report.questions,
            job.report.accuracy,
            job.report.cost,
        );
    }
    println!("\nfleet accuracy        : {:.3}", report.fleet.accuracy);
    println!("fleet cost            : ${:.2}", report.total_cost());
    println!("scheduler ticks       : {}", report.ticks);
    println!("questions per tick    : {:.1}", report.questions_per_tick());
    println!("max concurrent HITs   : {}", report.max_concurrent_hits());
    println!(
        "shared registry       : {} workers estimated (cache {} hits / {} misses)",
        report.registry_size, report.cache_hits, report.cache_misses
    );

    // The dispatch timeline proves the interleaving: tick by tick, which job published a
    // HIT and how many workers it leased.
    println!("\ndispatch timeline (tick: job x workers):");
    let mut tick = 0;
    for d in &report.dispatches {
        if d.tick != tick {
            tick = d.tick;
            print!("\n  tick {tick:>2}:");
        }
        let name = &report.jobs[d.job.0].name;
        print!(" {name} x{}", d.workers.len());
    }
    println!();

    // The same run, observed as a stream: every verdict the fleet produced, without
    // walking the per-job reports.
    let accepted = run.verdicts().filter(|(_, _, v)| v.is_accepted()).count();
    println!(
        "\nstreamed {} events, {} verdicts ({} accepted)",
        run.events().len(),
        run.verdicts().count(),
        accepted
    );
}
