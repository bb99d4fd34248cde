//! The Image Tagging application (§5.2), end to end: turn synthetic image descriptors into
//! crowd questions (candidate tags with injected noise), run the engine, and compare
//! against the automatic tagger baseline.

use cdas_baselines::image::AutoTagger;
use cdas_core::sampling::SamplingPlan;
use cdas_core::Result;
use cdas_crowd::platform::CrowdPlatform;
use cdas_crowd::question::CrowdQuestion;
use cdas_workloads::it::images::SyntheticImage;
use serde::{Deserialize, Serialize};

use crate::engine::{CrowdsourcingEngine, EngineConfig, HitOutcome};
use crate::metrics::{ratio, score_hits, AccuracyReport};

/// Configuration of an IT run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItConfig {
    /// Engine configuration.
    pub engine: EngineConfig,
    /// Images per HIT.
    pub batch_size: usize,
    /// Gold-question sampling rate.
    pub sampling_rate: f64,
}

impl Default for ItConfig {
    fn default() -> Self {
        ItConfig {
            engine: EngineConfig::default(),
            batch_size: 10,
            sampling_rate: 0.2,
        }
    }
}

/// Report of one IT run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItRunReport {
    /// Accuracy metrics of the crowdsourced tags against ground truth.
    pub crowd: AccuracyReport,
    /// Accuracy of the automatic tagger on the same images (when supplied).
    pub machine_accuracy: Option<f64>,
    /// Number of HITs published.
    pub hits: usize,
}

/// The image-tagging application.
#[derive(Debug, Clone)]
pub struct ImageTaggingApp {
    config: ItConfig,
}

impl ImageTaggingApp {
    /// Create the application.
    pub fn new(config: ItConfig) -> Self {
        ImageTaggingApp { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ItConfig {
        &self.config
    }

    /// Convert images into crowd questions with per-image candidate-tag domains.
    pub fn build_questions(&self, images: &[&SyntheticImage]) -> Vec<CrowdQuestion> {
        let plan = SamplingPlan::new(
            images.len().max(1),
            self.config.sampling_rate.clamp(0.01, 1.0),
        )
        .unwrap_or_else(|_| SamplingPlan::paper_default());
        images
            .iter()
            .enumerate()
            .map(|(i, img)| {
                let q = CrowdQuestion::new(img.id, img.domain(), img.truth_label())
                    .with_difficulty(img.difficulty)
                    .with_reasons(vec![img.subject.clone()]);
                if plan.is_gold(i) {
                    q.as_gold()
                } else {
                    q
                }
            })
            .collect()
    }

    /// Run the full pipeline over the given images.
    pub fn run<P: CrowdPlatform>(
        &self,
        platform: &mut P,
        images: &[&SyntheticImage],
        baseline: Option<&AutoTagger>,
    ) -> Result<ItRunReport> {
        let engine = CrowdsourcingEngine::new(self.config.engine.clone());
        let mut runs: Vec<(Vec<CrowdQuestion>, HitOutcome)> = Vec::new();
        // Machine baseline over the same real (non-gold) images the crowd is scored on.
        let (mut correct, mut total) = (0usize, 0usize);
        for chunk in images.chunks(self.config.batch_size.max(1)) {
            let questions = self.build_questions(chunk);
            if let Some(tagger) = baseline {
                for (img, _) in chunk.iter().zip(&questions).filter(|(_, q)| !q.is_gold) {
                    correct += usize::from(tagger.annotate(img) == img.truth_label());
                    total += 1;
                }
            }
            let outcome = engine.run_hit(platform, questions.clone())?;
            runs.push((questions, outcome));
        }
        let crowd = score_hits(runs.iter().map(|(q, o)| (q.as_slice(), o)));
        let machine_accuracy = baseline.map(|_| ratio(correct, total));
        Ok(ItRunReport {
            crowd,
            machine_accuracy,
            hits: runs.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdas_core::economics::CostModel;
    use cdas_crowd::pool::{PoolConfig, WorkerPool};
    use cdas_crowd::SimulatedPlatform;
    use cdas_workloads::it::images::{ImageGenerator, ImageGeneratorConfig};
    use cdas_workloads::it::FIGURE17_SUBJECTS;

    fn images(seed: u64, per_subject: usize) -> Vec<SyntheticImage> {
        let mut g = ImageGenerator::new(ImageGeneratorConfig {
            seed,
            ..ImageGeneratorConfig::default()
        });
        let mut all = Vec::new();
        for s in FIGURE17_SUBJECTS {
            all.extend(g.generate(s, per_subject));
        }
        all
    }

    fn platform(accuracy: f64, seed: u64) -> SimulatedPlatform {
        let pool = WorkerPool::generate(&PoolConfig::clean(60, accuracy, seed));
        SimulatedPlatform::new(pool, CostModel::default(), seed)
    }

    #[test]
    fn questions_use_per_image_domains() {
        let app = ImageTaggingApp::new(ItConfig::default());
        let imgs = images(1, 4);
        let refs: Vec<&SyntheticImage> = imgs.iter().collect();
        let questions = app.build_questions(&refs);
        assert_eq!(questions.len(), 20);
        for (q, img) in questions.iter().zip(imgs.iter()) {
            assert_eq!(q.domain.size(), img.candidates.len());
            assert!(q.domain.contains(&img.truth_label()));
        }
        assert!(questions.iter().any(|q| q.is_gold));
    }

    #[test]
    fn crowd_beats_the_automatic_tagger() {
        // The Figure 17 comparison: even a single decent worker beats ALIPR; here 5 workers
        // with 0.85 accuracy against the noisy-feature tagger.
        let mut tagger = AutoTagger::new();
        let train = images(2, 10);
        tagger.train(&train);
        let app = ImageTaggingApp::new(ItConfig {
            engine: EngineConfig {
                workers: crate::engine::WorkerCountPolicy::Fixed(5),
                ..EngineConfig::default()
            },
            batch_size: 10,
            sampling_rate: 0.2,
        });
        let test = images(3, 8);
        let refs: Vec<&SyntheticImage> = test.iter().collect();
        let mut p = platform(0.85, 7);
        let report = app.run(&mut p, &refs, Some(&tagger)).unwrap();
        let machine = report.machine_accuracy.unwrap();
        assert!(machine < 0.5, "auto tagger unexpectedly strong: {machine}");
        assert!(
            report.crowd.accuracy > machine + 0.3,
            "crowd {} vs machine {machine}",
            report.crowd.accuracy
        );
        assert_eq!(report.hits, 4);
    }

    #[test]
    fn machine_baseline_skips_the_gold_images() {
        let mut tagger = AutoTagger::new();
        tagger.train(&images(2, 10));
        let app = ImageTaggingApp::new(ItConfig::default());
        let test = images(3, 8);
        let refs: Vec<&SyntheticImage> = test.iter().collect();
        let report = app
            .run(&mut platform(0.85, 7), &refs, Some(&tagger))
            .unwrap();
        // The real images of the batches the run built: the ones the crowd is scored on.
        let real: Vec<&SyntheticImage> = refs
            .chunks(app.config().batch_size)
            .flat_map(|chunk| {
                let questions = app.build_questions(chunk);
                chunk
                    .iter()
                    .zip(questions)
                    .filter(|(_, q)| !q.is_gold)
                    .map(|(img, _)| *img)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(real.len(), report.crowd.questions);
        assert!(real.len() < refs.len(), "some images were gold");
        let correct = real
            .iter()
            .filter(|img| tagger.annotate(img) == img.truth_label())
            .count();
        assert_eq!(
            report.machine_accuracy,
            Some(correct as f64 / real.len() as f64)
        );
    }
}
