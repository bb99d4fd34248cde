//! The four workloads and their seeded inputs.
//!
//! Every input comes from the `cdas-workloads` generators (tweets and synthetic images)
//! rendered into crowd questions by the two applications' own `build_questions`, so the
//! program under test receives only generated jobs and the benchmark keeps the ground
//! truth to score the verdicts against. One `--seed` fixes the tweets, the images and
//! the scheduler's dispatch RNG. The crowd is the workload's fixed world: the
//! paper-shaped crowd at its default seed, so a seed changes the jobs, not the
//! population that answers them (a fresh crowd per seed spread the simulated
//! latencies across seeds about three times as widely).

use std::collections::BTreeMap;

use cdas_core::online::TerminationStrategy;
use cdas_core::types::{Label, QuestionId};
use cdas_crowd::arrival::LatencyModel;
use cdas_crowd::spec::CrowdSpec;
use cdas_engine::apps::it::{ImageTaggingApp, ItConfig};
use cdas_engine::apps::tsa::{TsaApp, TsaConfig};
use cdas_engine::fleet::JobSpec;
use cdas_workloads::it::images::{ImageGenerator, ImageGeneratorConfig};
use cdas_workloads::it::tags::TagVocabulary;
use cdas_workloads::tsa::movies::MovieCatalog;
use cdas_workloads::tsa::tweets::{TweetGenerator, TweetGeneratorConfig};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Clocked, one shard, no journal, and a pool that holds every job's HIT at once.
    /// No job ever waits for a lease, so the collector, the quality model and the
    /// platform do the work while dispatch and the journal idle.
    FleetSteady,
    /// The same job mix with more than three times the jobs the pool can run at once.
    /// Every waiting job retries its lease (an O(roster) scan) and re-decides its
    /// worker count on every tick, so dispatch does most of the work; the scheduler code
    /// is the one fleet-steady runs, with a queue instead of without one.
    FleetContended,
    /// Fleet-steady's inputs plus a write-ahead journal at the service's default group
    /// commit (8 records or 50 ms), in a fresh directory per run: the journal is the
    /// only layer added over fleet-steady.
    FleetDurable,
    /// One caller submits over a thousand small jobs in waves to a resident
    /// `FleetService`, runs an epoch after each wave, then shuts down. The only user of
    /// admission, the fsynced manifest and the two-shard parallel runner, and a journal
    /// pattern unlike fleet-durable's: many small manifest appends beside per-epoch run
    /// journals.
    ServiceWaves,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetSteady,
        Workload::FleetContended,
        Workload::FleetDurable,
        Workload::ServiceWaves,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet-steady",
            Workload::FleetContended => "fleet-contended",
            Workload::FleetDurable => "fleet-durable",
            Workload::ServiceWaves => "service-waves",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size for measurement; small size for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A quick run with the same shape.
    Small,
}

/// The shape of one workload's inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Jobs submitted.
    pub jobs: usize,
    /// Questions per job, gold included.
    pub questions_per_job: usize,
    /// Workers in the crowd.
    pub pool: usize,
    /// Workers assigned to each HIT.
    pub workers_per_hit: usize,
    /// Questions per HIT.
    pub batch_size: usize,
    /// Submission waves (service-waves only; 1 elsewhere).
    pub waves: usize,
}

impl Shape {
    /// The shape of `workload` at `size`.
    pub fn of(workload: Workload, size: Size) -> Shape {
        let steady = Shape {
            // 96 five-worker HITs fit a 500-worker pool at once; 96 jobs of 32 HITs give
            // over 3000 HITs, so the latency p99 has 30 samples beyond it.
            jobs: 96,
            questions_per_job: 128,
            pool: 500,
            workers_per_hit: 5,
            batch_size: 4,
            waves: 1,
        };
        let full = match workload {
            Workload::FleetSteady | Workload::FleetDurable => steady,
            Workload::FleetContended => Shape {
                // 160 workers hold 32 five-worker HITs at once: 104 jobs are 3.25x that.
                // Half-length jobs keep a run near a second despite the queue.
                jobs: 104,
                questions_per_job: 64,
                pool: 160,
                ..steady
            },
            Workload::ServiceWaves => Shape {
                // 1024 three-HIT jobs in 8 waves of 128; a wave overfills the pool's 100
                // concurrent HITs, so admission queues the rest for a later epoch.
                jobs: 1024,
                questions_per_job: 12,
                waves: 8,
                ..steady
            },
        };
        match size {
            Size::Full => full,
            Size::Small => Shape {
                jobs: (full.jobs / 8).max(4),
                questions_per_job: full.questions_per_job.min(16),
                pool: full.pool / 4,
                waves: full.waves.min(2),
                ..full
            },
        }
    }
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The crowd every run of the workload uses.
    pub crowd: CrowdSpec,
    /// The scheduler's dispatch seed.
    pub scheduler_seed: u64,
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
    /// Ground truth of every job's real (non-gold) questions, by job index.
    pub truth: Vec<BTreeMap<QuestionId, Label>>,
    /// The shape the inputs were generated at.
    pub shape: Shape,
}

impl Inputs {
    /// Real questions across all jobs: the count every run must resolve.
    pub fn real_questions(&self) -> usize {
        self.truth.iter().map(BTreeMap::len).sum()
    }
}

/// A stream of well-mixed seeds derived from the run seed (splitmix64), so the tweet,
/// image and scheduler streams are independent of one another.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of the paper crowd every workload runs on (`PoolConfig::default`'s).
const CROWD_SEED: u64 = 42;

/// Generate the inputs of `workload` at `size` from `seed`. Even jobs are tweet
/// sentiment jobs about one movie each, odd jobs tag images of one subject each, all
/// under ExpMax early termination on a paper-shaped crowd.
pub fn generate(workload: Workload, size: Size, seed: u64) -> Inputs {
    let shape = Shape::of(workload, size);
    let crowd = CrowdSpec::paper()
        .size(shape.pool)
        .latency(LatencyModel::Exponential { mean: 5.0 })
        .seed(CROWD_SEED);
    let mut tweets = TweetGenerator::new(TweetGeneratorConfig {
        seed: derive(seed, 1),
        ..TweetGeneratorConfig::default()
    });
    let image_config = ImageGeneratorConfig {
        seed: derive(seed, 2),
        ..ImageGeneratorConfig::default()
    };
    let candidates = image_config.candidates_per_image;
    let mut images = ImageGenerator::new(image_config);
    let movies = MovieCatalog::paper_default();
    let subjects = TagVocabulary::subjects();
    let tsa = TsaApp::new(TsaConfig::default());
    let it = ImageTaggingApp::new(ItConfig::default());

    let mut jobs = Vec::with_capacity(shape.jobs);
    let mut truth = Vec::with_capacity(shape.jobs);
    for i in 0..shape.jobs {
        let (spec, questions) = if i % 2 == 0 {
            let movie = movies.get((i / 2) % movies.len()).unwrap_or("Inception");
            let batch = tweets.generate(movie, shape.questions_per_job);
            let refs: Vec<_> = batch.iter().collect();
            let questions = tsa.build_questions(&refs);
            (
                JobSpec::sentiment(format!("tsa-{i}"), questions.clone()).domain_size(3),
                questions,
            )
        } else {
            let subject = subjects.get((i / 2) % subjects.len().max(1)).copied();
            let batch = images.generate(subject.unwrap_or("beach"), shape.questions_per_job);
            let refs: Vec<_> = batch.iter().collect();
            let questions = it.build_questions(&refs);
            (
                JobSpec::tagging(format!("it-{i}"), questions.clone()).domain_size(candidates),
                questions,
            )
        };
        truth.push(
            questions
                .iter()
                .filter(|q| !q.is_gold)
                .map(|q| (q.id, q.ground_truth.clone()))
                .collect(),
        );
        jobs.push(
            spec.workers(shape.workers_per_hit)
                .batch_size(shape.batch_size)
                .termination(TerminationStrategy::ExpMax),
        );
    }
    Inputs {
        crowd,
        scheduler_seed: derive(seed, 3),
        jobs,
        truth,
        shape,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        let a = generate(Workload::FleetSteady, Size::Small, 7);
        let b = generate(Workload::FleetSteady, Size::Small, 7);
        let c = generate(Workload::FleetSteady, Size::Small, 8);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.crowd, b.crowd);
        assert_ne!(a.jobs, c.jobs);
        assert!(a.real_questions() > 0);
        // Both label classes occur, unlike a fixture whose truth is constant.
        let labels: std::collections::BTreeSet<_> =
            a.truth.iter().flat_map(|t| t.values().cloned()).collect();
        assert!(labels.len() > 2, "{labels:?}");
    }
}
