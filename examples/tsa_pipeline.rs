//! Twitter Sentiment Analytics end to end: synthetic tweet stream → program executor
//! filter → HIT batches with gold questions → simulated crowd → probability-based
//! verification → Figure-4-style summary, compared against the Naive-Bayes baseline
//! (the reproduction's LIBSVM stand-in).
//!
//! The crowd part runs through the fleet facade: the TSA app renders the candidate
//! tweets to questions, a `JobSpec` sized by the prediction model carries them, and the
//! Figure-4 summary is assembled straight from the run's streamed verdicts (labels and
//! reason keywords ride on every `QuestionTerminated` event).
//!
//! Run with: `cargo run -p cdas --example tsa_pipeline`

use cdas::baselines::text::NaiveBayesClassifier;
use cdas::core::presentation::{QuestionOutcome, ResultPresenter};
use cdas::core::types::AnswerDomain;
use cdas::engine::executor::ProgramExecutor;
use cdas::prelude::*;
use cdas::workloads::tsa::stream::TweetStream;
use cdas::workloads::tsa::{MovieCatalog, Sentiment};

fn main() {
    let catalog = MovieCatalog::paper_default();

    // Training corpus: tweets about every movie except the query movie.
    let mut generator = TweetGenerator::new(TweetGeneratorConfig::default());
    let mut training = Vec::new();
    for title in catalog.titles().iter().skip(5).take(60) {
        training.extend(generator.generate(title, 20));
    }
    let mut baseline = NaiveBayesClassifier::new();
    baseline.train(&training);

    // The query: opinions about Thor over one day, 90 % required accuracy.
    let query = Query::new(
        MovieCatalog::keywords("Thor"),
        0.90,
        AnswerDomain::from_strs(&["Positive", "Neutral", "Negative"]),
        0.0,
        24.0 * 60.0,
    );
    let stream = TweetStream::new(generator.generate("Thor", 120));
    let executor = ProgramExecutor::new();
    let candidates = executor.candidate_tweets(&stream, &query);
    println!(
        "program executor selected {} candidate tweets for {:?}",
        candidates.len(),
        query.keywords
    );

    // The human part through the front door: the TSA app renders the questions (gold
    // sampled at 20 %), the prediction model decides the worker count from the estimated
    // mean accuracy, ExpMax terminates early.
    let app = TsaApp::new(TsaConfig::default());
    let questions = app.build_questions(&candidates);
    let fleet = Fleet::builder()
        .crowd(CrowdSpec::paper().platform_seed(2024))
        .job(
            JobSpec::sentiment("thor-sentiment", questions)
                .worker_policy(WorkerCountPolicy::Predicted {
                    mean_accuracy: 0.68,
                })
                .required_accuracy(query.required_accuracy)
                .termination(TerminationStrategy::ExpMax)
                .domain_size(3)
                .batch_size(20),
        )
        .build()
        .expect("a well-formed fleet");
    let run = fleet.run(ExecutionMode::Clocked).expect("TSA run");
    let report = run.report();

    // Machine baseline accuracy over the same tweets.
    let machine: f64 = {
        let correct = candidates
            .iter()
            .filter(|t| baseline.classify(&t.text) == t.sentiment)
            .count();
        correct as f64 / candidates.len().max(1) as f64
    };

    // Figure 4 presentation, assembled from the verdict stream.
    let mut presenter = ResultPresenter::new();
    for event in run.events() {
        if let FleetEvent::QuestionTerminated {
            verdict, reasons, ..
        } = event
        {
            match verdict.label() {
                Some(label) => {
                    presenter.push_outcome(QuestionOutcome::Accepted {
                        label: label.clone(),
                    });
                    presenter.push_keywords(label, reasons.iter().map(|s| s.as_str()));
                }
                None => presenter.push_outcome(QuestionOutcome::Pending {
                    confidences: Vec::new(),
                }),
            }
        }
    }
    let domain: Vec<Label> = Sentiment::ALL.iter().map(|s| s.label()).collect();
    let summary = presenter.summarize(&domain);

    println!(
        "\n== results over {} tweets ({} HITs) ==",
        report.fleet.questions, report.jobs[0].hits
    );
    println!("crowd accuracy        : {:.3}", report.fleet.accuracy);
    println!("machine (NB) accuracy : {machine:.3}");
    println!(
        "no-answer ratio       : {:.3}",
        report.fleet.no_answer_ratio
    );
    println!(
        "mean answers/question : {:.2}",
        report.fleet.mean_answers_used
    );
    println!("engine-side cost      : ${:.2}", report.fleet.cost);
    println!("\nopinion summary (Figure 4 style):");
    for row in &summary {
        println!(
            "  {:<9} {:>5.1}%   reasons: {}",
            row.label.as_str(),
            row.percentage * 100.0,
            if row.reasons.is_empty() {
                "-".to_string()
            } else {
                row.reasons.join(", ")
            }
        );
    }
}
