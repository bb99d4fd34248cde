//! Image tagging end to end: synthetic Flickr-style images with candidate + noise tags,
//! crowdsourced tag selection versus the automatic tagger (the ALIPR stand-in) — the
//! Figure 17 comparison in miniature, run through the fleet facade: one `CrowdSpec`
//! describes the paper-shaped crowd, and each (subject, worker-count) cell is a
//! `JobSpec::tagging` submitted to a `Fleet`.
//!
//! Run with: `cargo run -p cdas --example image_tagging`

use cdas::baselines::image::AutoTagger;
use cdas::prelude::*;
use cdas::workloads::it::FIGURE17_SUBJECTS;

fn main() {
    let mut generator = ImageGenerator::new(ImageGeneratorConfig::default());

    // Train the automatic tagger on a separate image collection.
    let mut training = Vec::new();
    for subject in FIGURE17_SUBJECTS {
        training.extend(generator.generate(subject, 20));
    }
    let mut tagger = AutoTagger::new();
    tagger.train(&training);

    // The evaluation set: 20 images per subject, as in the paper. Questions come from
    // the IT app (per-image candidate-tag domains, gold sampled at 20 %).
    let app = ImageTaggingApp::new(ItConfig::default());
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10}",
        "subject", "ALIPR*", "1 worker", "3 workers", "5 workers"
    );
    for (index, subject) in FIGURE17_SUBJECTS.iter().enumerate() {
        let images = generator.generate(subject, 20);
        let refs: Vec<_> = images.iter().collect();
        let machine = tagger.accuracy(&images);
        let mut row = format!("{subject:<10} {:>7.1}%", machine * 100.0);
        for workers in [1usize, 3, 5] {
            let fleet = Fleet::builder()
                .crowd(CrowdSpec::paper().platform_seed(31 + workers as u64))
                .scheduler_seed(100 * index as u64 + workers as u64)
                .job(
                    JobSpec::tagging(format!("{subject}-x{workers}"), app.build_questions(&refs))
                        .workers(workers)
                        .estimated_domain_size()
                        .batch_size(10),
                )
                .build()
                .expect("a well-formed fleet");
            let run = fleet.run(ExecutionMode::Clocked).expect("IT run");
            row.push_str(&format!(" {:>9.1}%", run.report().fleet.accuracy * 100.0));
        }
        println!("{row}");
    }
    println!("\n(*) automatic tagger baseline — the reproduction's substitute for ALIPR");
    println!("A handful of crowd workers beats automatic annotation by a wide margin (Figure 17).");
}
