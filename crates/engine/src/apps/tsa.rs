//! The Twitter Sentiment Analytics application (§2.2, §5.1), end to end:
//! generate/ingest tweets, filter by query, batch into HITs with gold questions, run the
//! crowdsourcing engine, and score the results against ground truth and the machine
//! baseline.

use cdas_baselines::text::NaiveBayesClassifier;
use cdas_core::presentation::{AnswerSummary, QuestionOutcome, ResultPresenter};
use cdas_core::sampling::SamplingPlan;
use cdas_core::types::Label;
use cdas_core::Result;
use cdas_crowd::platform::CrowdPlatform;
use cdas_crowd::question::CrowdQuestion;
use cdas_workloads::tsa::tweets::Tweet;
use cdas_workloads::tsa::{sentiment_domain, Sentiment};
use serde::{Deserialize, Serialize};

use crate::engine::{CrowdsourcingEngine, EngineConfig, HitOutcome};
use crate::metrics::{ratio, score_hits, AccuracyReport};

/// Configuration of a TSA run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TsaConfig {
    /// Engine configuration (verification strategy, worker policy, termination, ...).
    pub engine: EngineConfig,
    /// Questions per HIT (`B`).
    pub batch_size: usize,
    /// Gold-question sampling rate (`α`).
    pub sampling_rate: f64,
}

impl Default for TsaConfig {
    fn default() -> Self {
        TsaConfig {
            engine: EngineConfig {
                domain_size: Some(3),
                ..EngineConfig::default()
            },
            batch_size: 20,
            sampling_rate: 0.2,
        }
    }
}

/// The report of one TSA run over a set of tweets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TsaRunReport {
    /// Accuracy metrics of the crowdsourced answers against ground truth.
    pub crowd: AccuracyReport,
    /// Accuracy of the machine baseline on the same tweets (when one was supplied).
    pub machine_accuracy: Option<f64>,
    /// The Figure-4-style summary: percentage and reasons per sentiment.
    pub summary: Vec<AnswerSummary>,
    /// Number of HITs published.
    pub hits: usize,
}

/// The TSA application.
#[derive(Debug, Clone)]
pub struct TsaApp {
    config: TsaConfig,
}

impl TsaApp {
    /// Create the application.
    pub fn new(config: TsaConfig) -> Self {
        TsaApp { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TsaConfig {
        &self.config
    }

    /// Convert tweets into crowd questions; gold questions are taken from the tweet list
    /// itself (their ground truth is assumed known to the requester, as the paper does by
    /// pre-labelling a small sample).
    pub fn build_questions(&self, tweets: &[&Tweet]) -> Vec<CrowdQuestion> {
        let plan = SamplingPlan::new(
            tweets.len().max(1),
            self.config.sampling_rate.clamp(0.01, 1.0),
        )
        .unwrap_or_else(|_| SamplingPlan::paper_default());
        tweets
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let q = CrowdQuestion::new(t.id, sentiment_domain(), t.truth_label())
                    .with_difficulty(t.difficulty)
                    .with_reasons(t.reason_keywords.iter().cloned());
                if plan.is_gold(i) {
                    q.as_gold()
                } else {
                    q
                }
            })
            .collect()
    }

    /// Run the full pipeline over the given tweets: batch, publish, verify, score.
    ///
    /// `baseline` optionally scores the machine classifier on the same (non-gold) tweets.
    pub fn run<P: CrowdPlatform>(
        &self,
        platform: &mut P,
        tweets: &[&Tweet],
        baseline: Option<&NaiveBayesClassifier>,
    ) -> Result<TsaRunReport> {
        let engine = CrowdsourcingEngine::new(self.config.engine.clone());
        let mut runs: Vec<(Vec<CrowdQuestion>, HitOutcome)> = Vec::new();
        // Machine baseline over the same real (non-gold) questions the crowd is scored on.
        let (mut correct, mut total) = (0usize, 0usize);
        for chunk in tweets.chunks(self.config.batch_size.max(1)) {
            let questions = self.build_questions(chunk);
            if let Some(nb) = baseline {
                for (t, _) in chunk.iter().zip(&questions).filter(|(_, q)| !q.is_gold) {
                    correct += usize::from(nb.classify(&t.text) == t.sentiment);
                    total += 1;
                }
            }
            let outcome = engine.run_hit(platform, questions.clone())?;
            runs.push((questions, outcome));
        }
        let crowd = score_hits(runs.iter().map(|(q, o)| (q.as_slice(), o)));
        let machine_accuracy = baseline.map(|_| ratio(correct, total));

        // Presentation: percentages and reasons per sentiment (Figure 4).
        let mut presenter = ResultPresenter::new();
        for (_, outcome) in &runs {
            for verdict in outcome.real_verdicts() {
                match verdict.verdict.label() {
                    Some(label) => {
                        presenter.push_outcome(QuestionOutcome::Accepted {
                            label: label.clone(),
                        });
                        presenter.push_keywords(label, verdict.reasons.iter().map(|s| s.as_str()));
                    }
                    None => presenter.push_outcome(QuestionOutcome::Pending {
                        confidences: Vec::new(),
                    }),
                }
            }
        }
        let domain: Vec<Label> = Sentiment::ALL.iter().map(|s| s.label()).collect();
        let summary = presenter.summarize(&domain);

        Ok(TsaRunReport {
            crowd,
            machine_accuracy,
            summary,
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
    use cdas_workloads::tsa::tweets::{TweetGenerator, TweetGeneratorConfig};

    fn tweets(seed: u64, count: usize) -> Vec<Tweet> {
        let mut g = TweetGenerator::new(TweetGeneratorConfig {
            seed,
            ..TweetGeneratorConfig::default()
        });
        g.generate("Thor", count)
    }

    fn platform(accuracy: f64, seed: u64) -> SimulatedPlatform {
        let pool = WorkerPool::generate(&PoolConfig::clean(80, accuracy, seed));
        SimulatedPlatform::new(pool, CostModel::default(), seed)
    }

    #[test]
    fn questions_carry_truth_difficulty_and_gold_flags() {
        let app = TsaApp::new(TsaConfig::default());
        let ts = tweets(1, 40);
        let refs: Vec<&Tweet> = ts.iter().collect();
        let questions = app.build_questions(&refs);
        assert_eq!(questions.len(), 40);
        let gold = questions.iter().filter(|q| q.is_gold).count();
        assert_eq!(gold, 8, "20% of 40");
        for (q, t) in questions.iter().zip(ts.iter()) {
            assert_eq!(q.ground_truth, t.truth_label());
            assert_eq!(q.id, t.id);
            assert_eq!(q.domain.size(), 3);
        }
    }

    #[test]
    fn end_to_end_run_beats_the_required_band() {
        let app = TsaApp::new(TsaConfig {
            engine: EngineConfig {
                workers: crate::engine::WorkerCountPolicy::Fixed(9),
                domain_size: Some(3),
                ..EngineConfig::default()
            },
            batch_size: 25,
            sampling_rate: 0.2,
        });
        let ts = tweets(2, 50);
        let refs: Vec<&Tweet> = ts.iter().collect();
        let mut p = platform(0.8, 5);
        let report = app.run(&mut p, &refs, None).unwrap();
        assert_eq!(report.hits, 2);
        assert!(report.crowd.questions >= 40);
        assert!(
            report.crowd.accuracy > 0.85,
            "crowd accuracy {}",
            report.crowd.accuracy
        );
        assert!(report.machine_accuracy.is_none());
        // Summary covers the three sentiments and sums to ≤ 1.
        assert_eq!(report.summary.len(), 3);
        let total: f64 = report.summary.iter().map(|s| s.percentage).sum();
        assert!(total <= 1.0 + 1e-9);
    }

    #[test]
    fn machine_baseline_is_scored_on_the_same_tweets() {
        let train = tweets(3, 300);
        let mut nb = NaiveBayesClassifier::new();
        nb.train(&train);
        let app = TsaApp::new(TsaConfig {
            engine: EngineConfig {
                workers: crate::engine::WorkerCountPolicy::Fixed(5),
                domain_size: Some(3),
                ..EngineConfig::default()
            },
            batch_size: 30,
            sampling_rate: 0.2,
        });
        let test = tweets(4, 60);
        let refs: Vec<&Tweet> = test.iter().collect();
        let mut p = platform(0.85, 6);
        let report = app.run(&mut p, &refs, Some(&nb)).unwrap();
        let machine = report.machine_accuracy.unwrap();
        assert!(machine > 0.3 && machine <= 1.0);
        // The headline claim of Figure 5: the crowd beats the machine baseline.
        assert!(
            report.crowd.accuracy >= machine - 0.05,
            "crowd {} vs machine {machine}",
            report.crowd.accuracy
        );
    }

    #[test]
    fn machine_baseline_skips_the_gold_tweets() {
        let mut nb = NaiveBayesClassifier::new();
        nb.train(&tweets(3, 300));
        let app = TsaApp::new(TsaConfig::default());
        let test = tweets(4, 60);
        let refs: Vec<&Tweet> = test.iter().collect();
        let report = app.run(&mut platform(0.85, 6), &refs, Some(&nb)).unwrap();
        // The real tweets of the batches the run built: the ones the crowd is scored on.
        let real: Vec<&Tweet> = refs
            .chunks(app.config().batch_size)
            .flat_map(|chunk| {
                let questions = app.build_questions(chunk);
                chunk
                    .iter()
                    .zip(questions)
                    .filter(|(_, q)| !q.is_gold)
                    .map(|(t, _)| *t)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(real.len(), report.crowd.questions);
        assert!(real.len() < refs.len(), "some tweets were gold");
        let correct = real
            .iter()
            .filter(|t| nb.classify(&t.text) == t.sentiment)
            .count();
        assert_eq!(
            report.machine_accuracy,
            Some(correct as f64 / real.len() as f64)
        );
    }
}
