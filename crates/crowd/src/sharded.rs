//! A sharded crowd platform: the worker pool and HIT-id space partitioned into
//! independent per-thread slices.
//!
//! The scale-out systems in the related-work set (LogBase's partitioned log servers, the
//! per-shard worker threads of production KV stores) get their throughput by *sharding
//! state* and pinning independent work to threads. The CDAS fleet has the same shape:
//! per-job clocked event loops share almost nothing except the accuracy registry and the
//! worker ledger. A [`ShardedPlatform`] makes the remaining shared state explicit by
//! splitting one simulated crowd into `n` [`PlatformShard`]s, each of which owns
//!
//! * a **disjoint worker partition** ([`crate::pool::WorkerPool::partition`]: round-robin
//!   striping, proptested to assign every worker to exactly one shard), and
//! * a **disjoint HIT-id class** ([`crate::platform::SimulatedPlatform::with_hit_namespace`]:
//!   shard `i` mints ids `i, i+n, i+2n, …`), so the merged dispatch timeline of a
//!   parallel run never sees two shards claim the same [`cdas_core::types::HitId`].
//!
//! The parallel scheduler (`cdas_engine::scheduler::JobScheduler::run_parallel`) moves
//! each shard into its own `std::thread::scope` worker — which is why
//! [`crate::platform::CrowdPlatform`] requires `Send`. A 1-way split is bit-identical to
//! the unsharded platform, which is what lets the sequential `run_clocked` loop be the
//! one-shard special case of the parallel code path.
//!
//! ```
//! use cdas_core::economics::CostModel;
//! use cdas_crowd::pool::{PoolConfig, WorkerPool};
//! use cdas_crowd::sharded::ShardedPlatform;
//!
//! let pool = WorkerPool::generate(&PoolConfig::clean(12, 0.8, 7));
//! let sharded = ShardedPlatform::split(&pool, CostModel::default(), 7, 4);
//! assert_eq!(sharded.shard_count(), 4);
//! assert_eq!(sharded.shards().iter().map(|s| s.roster().len()).sum::<usize>(), 12);
//! ```

use cdas_core::economics::CostModel;
use cdas_core::types::WorkerId;

use crate::platform::{CrowdPlatform, SimulatedPlatform};
use crate::pool::WorkerPool;

/// One shard of a partitioned crowd: a platform plus the worker roster it owns.
#[derive(Debug)]
pub struct PlatformShard<P> {
    platform: P,
    roster: Vec<WorkerId>,
}

impl<P> PlatformShard<P> {
    /// Assemble a shard from a platform and the worker partition it serves.
    pub fn new(platform: P, roster: Vec<WorkerId>) -> Self {
        PlatformShard { platform, roster }
    }

    /// The shard's platform.
    pub fn platform(&self) -> &P {
        &self.platform
    }

    /// The shard's platform, mutably (the handle a shard thread drives).
    pub fn platform_mut(&mut self) -> &mut P {
        &mut self.platform
    }

    /// The workers this shard owns, in checkout-priority order.
    pub fn roster(&self) -> &[WorkerId] {
        &self.roster
    }

    /// Take the shard apart (e.g. to inspect the platform ledger after a run).
    pub fn into_parts(self) -> (P, Vec<WorkerId>) {
        (self.platform, self.roster)
    }
}

/// A crowd platform split into disjoint per-thread shards.
///
/// Generic over the platform type so a real adapter could be sharded the same way
/// (each shard holding its own connection); [`ShardedPlatform::split`] is the
/// simulated-crowd constructor.
#[derive(Debug, Default)]
pub struct ShardedPlatform<P = SimulatedPlatform> {
    shards: Vec<PlatformShard<P>>,
}

impl ShardedPlatform<SimulatedPlatform> {
    /// Split one simulated crowd into `shards` independent platforms.
    ///
    /// The pool is partitioned round-robin (disjoint and covering; sizes within one
    /// worker of each other), shard `i` is seeded `seed + i` (wrapping) and mints HIT ids
    /// in the arithmetic class `i (mod shards)`. `split(pool, cost, seed, 1)` produces a single
    /// shard whose platform behaves bit-identically to
    /// `SimulatedPlatform::new(pool.clone(), cost, seed)`.
    pub fn split(pool: &WorkerPool, cost_model: CostModel, seed: u64, shards: usize) -> Self {
        let shards = shards.max(1);
        let parts = pool.partition(shards);
        ShardedPlatform {
            shards: parts
                .into_iter()
                .enumerate()
                .map(|(i, sub_pool)| {
                    let roster = sub_pool.workers().iter().map(|w| w.id).collect();
                    let platform =
                        SimulatedPlatform::new(sub_pool, cost_model, seed.wrapping_add(i as u64))
                            .with_hit_namespace(i as u64, shards as u64);
                    PlatformShard { platform, roster }
                })
                .collect(),
        }
    }
}

impl<P: CrowdPlatform> ShardedPlatform<P> {
    /// Assemble a sharded platform from explicit `(platform, roster)` parts — the seam a
    /// real multi-region adapter would use. Rosters are taken on faith here; keep them
    /// disjoint or two shards will lease the same worker.
    pub fn from_parts(parts: impl IntoIterator<Item = (P, Vec<WorkerId>)>) -> Self {
        ShardedPlatform {
            shards: parts
                .into_iter()
                .map(|(platform, roster)| PlatformShard { platform, roster })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[PlatformShard<P>] {
        &self.shards
    }

    /// The shards mutably — the parallel scheduler hands one `&mut` slot to each thread.
    pub fn shards_mut(&mut self) -> &mut [PlatformShard<P>] {
        &mut self.shards
    }

    /// Consume the container, yielding the shards.
    pub fn into_shards(self) -> Vec<PlatformShard<P>> {
        self.shards
    }

    /// Total dollars charged across all shards.
    pub fn total_cost(&self) -> f64 {
        self.shards.iter().map(|s| s.platform.total_cost()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hit::HitRequest;
    use crate::pool::PoolConfig;
    use crate::question::CrowdQuestion;
    use cdas_core::types::{AnswerDomain, Label, QuestionId};
    use std::collections::BTreeSet;

    fn request(questions: u64, assignments: usize) -> HitRequest {
        let qs: Vec<CrowdQuestion> = (0..questions)
            .map(|i| {
                CrowdQuestion::new(
                    QuestionId(i),
                    AnswerDomain::from_strs(&["a", "b"]),
                    Label::from("a"),
                )
            })
            .collect();
        HitRequest::new(qs, assignments, 0.01)
    }

    #[test]
    fn split_partitions_workers_disjointly() {
        let pool = WorkerPool::generate(&PoolConfig::clean(22, 0.8, 5));
        let sharded = ShardedPlatform::split(&pool, CostModel::default(), 5, 4);
        assert_eq!(sharded.shard_count(), 4);
        let mut seen = BTreeSet::new();
        for shard in sharded.shards() {
            for w in shard.roster() {
                assert!(seen.insert(*w), "worker {w:?} owned by two shards");
                assert!(shard.platform().pool().get(*w).is_some());
            }
        }
        assert_eq!(seen.len(), 22, "every worker owned by some shard");
    }

    #[test]
    fn shards_mint_disjoint_hit_ids() {
        let pool = WorkerPool::generate(&PoolConfig::clean(12, 0.8, 9));
        let mut sharded = ShardedPlatform::split(&pool, CostModel::default(), 9, 3);
        let mut ids = BTreeSet::new();
        for shard in sharded.shards_mut() {
            for _ in 0..4 {
                let id = shard.platform_mut().publish(request(2, 2));
                assert!(ids.insert(id), "HIT id {id:?} minted twice");
            }
        }
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn one_way_split_matches_the_unsharded_platform() {
        let pool = WorkerPool::generate(&PoolConfig::clean(10, 0.8, 11));
        let mut sharded = ShardedPlatform::split(&pool, CostModel::default(), 11, 1);
        let mut plain = SimulatedPlatform::new(pool.clone(), CostModel::default(), 11);
        let shard = &mut sharded.shards_mut()[0];
        assert_eq!(shard.roster().len(), 10);
        for _ in 0..3 {
            let a = shard.platform_mut().publish(request(3, 4));
            let b = plain.publish(request(3, 4));
            assert_eq!(a, b, "1-way shard must mint the same HIT ids");
            let mut sharded_answers = shard.platform_mut().poll(a, f64::INFINITY);
            let plain_answers = plain.poll(b, f64::INFINITY);
            sharded_answers
                .iter_mut()
                .zip(&plain_answers)
                .for_each(|(x, y)| assert_eq!(x, y));
            assert_eq!(sharded_answers.len(), plain_answers.len());
        }
        assert_eq!(sharded.total_cost(), plain.total_cost());
    }

    #[test]
    fn from_parts_round_trips() {
        let pool = WorkerPool::generate(&PoolConfig::clean(6, 0.8, 1));
        let parts = pool.partition(2).into_iter().enumerate().map(|(i, p)| {
            let roster: Vec<WorkerId> = p.workers().iter().map(|w| w.id).collect();
            (
                SimulatedPlatform::new(p, CostModel::default(), i as u64),
                roster,
            )
        });
        let sharded = ShardedPlatform::from_parts(parts);
        assert_eq!(sharded.shard_count(), 2);
        let shards = sharded.into_shards();
        let (platform, roster) = shards.into_iter().next().unwrap().into_parts();
        assert_eq!(platform.pool().len(), roster.len());
    }
}
