//! # cdas-bench — the experiment harness of the CDAS reproduction
//!
//! One runner per table/figure of the paper's evaluation (§5). Each experiment returns a
//! [`Table`] with the same rows/series the paper plots; the `reproduce` binary prints them
//! (and a CSV form) so paper-versus-measured shapes can be recorded side by side.
//!
//! The absolute numbers differ from the paper — there is no real crowd here — but every
//! qualitative claim is regenerated: verification dominates voting, binary search cuts the
//! conservative estimate, ExpMax saves more than half of the workers, approval rate is not
//! accuracy, a 20 % sampling rate suffices, and the crowd beats the machine baselines.

#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod experiments;

use cdas_core::types::{Label, Observation, Vote};
use cdas_crowd::pool::{PoolConfig, WorkerPool};
use cdas_crowd::question::CrowdQuestion;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A printable experiment result: a title, column headers, and string rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment identifier and description (e.g. "Figure 7 — accuracy vs #workers").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table from string-like headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!(
                        "{:>width$}",
                        c,
                        width = widths.get(i).copied().unwrap_or(c.len())
                    )
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (comma-separated, no quoting — cells never contain commas).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a float with three decimals (the precision the figures are read at).
pub fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

/// The default worker pool used by the TSA experiments: the paper's Figure 14 accuracy
/// shape, a small spammer minority, 500 workers.
pub fn paper_pool(seed: u64) -> WorkerPool {
    WorkerPool::generate(&PoolConfig {
        seed,
        ..PoolConfig::default()
    })
}

/// A three-label sentiment question with the given difficulty.
pub fn sentiment_question(id: u64, difficulty: f64) -> CrowdQuestion {
    CrowdQuestion::new(
        cdas_core::types::QuestionId(id),
        cdas_core::types::AnswerDomain::from_strs(&["Positive", "Neutral", "Negative"]),
        Label::from("Positive"),
    )
    .with_difficulty(difficulty)
}

/// Simulate one question being answered by `n` random workers of the pool; the votes carry
/// the workers' *true* effective accuracies (the oracle setting used by the model-level
/// figures; the application-level figures go through the engine's sampling path instead).
pub fn simulate_observation(
    pool: &WorkerPool,
    question: &CrowdQuestion,
    n: usize,
    rng: &mut StdRng,
) -> Observation {
    let workers = pool.assign(n, rng);
    Observation::from_votes(
        workers
            .iter()
            .map(|w| {
                Vote::new(
                    w.id,
                    w.answer(question, rng),
                    w.effective_accuracy(question),
                )
            })
            .collect(),
    )
}

/// A seeded RNG for experiments.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_text_and_csv() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.push_row(vec!["1".into(), "0.500".into()]);
        t.push_row(vec!["20".into(), "0.750".into()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("0.750"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("x,value"));
    }

    #[test]
    fn simulate_observation_produces_n_votes() {
        let pool = paper_pool(1);
        let q = sentiment_question(0, 0.0);
        let mut r = rng(2);
        let obs = simulate_observation(&pool, &q, 9, &mut r);
        assert_eq!(obs.len(), 9);
    }

    #[test]
    fn every_experiment_produces_rows() {
        // Smoke-test the cheap experiments end to end (the expensive ones are exercised by
        // the reproduce binary and the criterion benches).
        let quick = [
            experiments::table04::run(),
            experiments::fig06::run(),
            experiments::fig14::run(),
        ];
        for table in quick {
            assert!(!table.rows.is_empty(), "{} has no rows", table.title);
            assert!(!table.headers.is_empty());
        }
    }
}
