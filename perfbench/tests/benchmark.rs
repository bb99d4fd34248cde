//! Tests of the benchmark itself: small-size runs print every metric `BENCHMARK.json`
//! names with its unit and pass their checks, and a faulty timing wrapper is caught.

use std::path::PathBuf;

use cdas_perfbench::{result_json, run, Options, Size, Workload};

/// `(name, unit, has a bound)` of every metric entry in `BENCHMARK.json`; end-to-end
/// entries carry a bound, per-layer entries do not.
fn declared_metrics() -> Vec<(String, String, bool)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let field = |line: &str, key: &str| -> Option<String> {
        let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = line[start..].find('"')?;
        Some(line[start..start + len].to_string())
    };
    text.lines()
        .filter_map(|line| {
            let name = field(line, "name")?;
            let unit = field(line, "unit")?;
            Some((name, unit, line.contains("\"bound\"")))
        })
        .collect()
}

fn small(workload: Workload, drop_answer: Option<usize>) -> Options {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}",
        workload.name(),
        drop_answer.is_some()
    ));
    Options {
        workload,
        seed: 3,
        seconds: 0.01,
        trace: true,
        size: Size::Small,
        drop_answer,
        work_dir: dir,
    }
}

#[test]
fn benchmark_json_names_the_workloads_this_binary_runs() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    for workload in Workload::ALL {
        let entry = format!("{{\"name\": \"{}\", \"why\": ", workload.name());
        assert!(text.contains(&entry), "{} missing", workload.name());
    }
}

#[test]
fn a_small_run_of_each_workload_prints_every_named_metric_with_its_unit() {
    let declared = declared_metrics();
    assert!(declared.iter().any(|(_, _, bound)| *bound));
    assert!(declared.iter().any(|(_, _, bound)| !*bound));
    for workload in Workload::ALL {
        let opts = small(workload, None);
        let outcome = run(&opts).expect("small run sets up");
        let _ = std::fs::remove_dir_all(&opts.work_dir);
        assert_eq!(
            outcome.checks.failed,
            0,
            "{}: {:?}",
            workload.name(),
            outcome.checks.failures
        );
        for (list, end_to_end) in [(&outcome.end_to_end, true), (&outcome.per_layer, false)] {
            let printed: Vec<(String, String)> = list
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let wanted: Vec<(String, String)> = declared
                .iter()
                .filter(|(_, _, bound)| *bound == end_to_end)
                .map(|(n, u, _)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(printed, wanted, "{}", workload.name());
            let line = result_json(&outcome.checks, list);
            for (name, unit) in &wanted {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&entry), "{}: {name} missing", workload.name());
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        }
        let value = |name: &str| {
            outcome
                .end_to_end
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric present")
        };
        for name in [
            "questions_per_s",
            "setup_s",
            "peak_rss_mib",
            "submit_p50_us",
        ] {
            assert!(
                value(name) > 0.0,
                "{}: {name} = {}",
                workload.name(),
                value(name)
            );
        }
        assert!(value("accuracy") > 0.5 && value("accuracy") <= 1.0);
        assert!(value("hit_latency_p99_min") >= value("hit_latency_p50_min"));
    }
}

#[test]
fn a_wrapper_that_drops_one_answer_fails_the_traced_equals_untraced_check() {
    let opts = small(Workload::FleetSteady, Some(0));
    let outcome = run(&opts).expect("small run sets up");
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    assert!(outcome.checks.failed > 0);
    assert!(
        outcome
            .checks
            .failures
            .iter()
            .any(|f| f.contains("traced run's report differs")),
        "{:?}",
        outcome.checks.failures
    );
    let line = result_json(&outcome.checks, &outcome.end_to_end);
    assert!(line.starts_with("{\"correct\": false"));
}
