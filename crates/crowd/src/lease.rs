//! Worker checkout/lease bookkeeping for concurrent jobs sharing one pool.
//!
//! §3.1 assumes "n random workers provide the answers" — true for a single HIT, but when
//! the multi-job scheduler (`cdas_engine::scheduler`) keeps several HITs from *different*
//! jobs in flight at once, nothing in the platform stops the same worker from being
//! assigned to two overlapping HITs, or twice to the same question through them. The
//! [`PoolLedger`] closes that gap: it tracks which workers are currently checked out,
//! hands out disjoint [`WorkerLease`]s, and takes workers back when a HIT completes or is
//! cancelled.
//!
//! Two properties matter for the parallel fleet:
//!
//! * The ledger is a **concurrent lease table**: a `PoolLedger` is a cheap handle (clones
//!   share the same table), and every operation takes `&self` behind an internal lock, so
//!   a ledger can be observed — or, in principle, leased from — by multiple threads.
//! * Leases release **on drop (RAII)**. A [`WorkerLease`] holds a handle back to its
//!   table and returns its workers the moment it goes out of scope — through an early
//!   `?` return, a panic unwinding a shard thread, or a plain happy-path drop. A
//!   scheduler bug (or crash) can therefore never strand workers in the busy set; the
//!   leak the old explicit-release protocol allowed on error paths is structurally gone.
//!
//! The ledger deliberately holds only [`WorkerId`]s, not worker state: it composes with
//! any roster — a [`WorkerPool`], a real platform's qualified
//! worker list, or a hand-written subset.
//!
//! ```
//! use cdas_crowd::lease::PoolLedger;
//! use cdas_core::types::WorkerId;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let ledger = PoolLedger::new((0..10).map(WorkerId));
//! let mut rng = StdRng::seed_from_u64(1);
//! let a = ledger.try_lease(6, &mut rng).unwrap();
//! // Only 4 workers remain free: a second 6-worker lease must wait.
//! assert!(ledger.try_lease(6, &mut rng).is_none());
//! assert_eq!(ledger.available(), 4);
//! drop(a); // RAII: dropping the lease returns its workers
//! assert_eq!(ledger.available(), 10);
//! ```

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use cdas_core::types::WorkerId;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::pool::WorkerPool;

/// Identifier of one outstanding lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LeaseId(pub u64);

/// The table behind a [`PoolLedger`] handle, indexed by roster slot: one busy flag per
/// slot plus a count of busy slots, so a refusal is a counter comparison and a grant
/// never searches a tree.
#[derive(Debug, Default)]
struct LedgerState {
    roster: Vec<WorkerId>,
    /// `WorkerId → roster slot`, built once by [`PoolLedger::new`].
    slots: BTreeMap<WorkerId, usize>,
    /// `busy[s]` is whether `roster[s]` is checked out.
    busy: Vec<bool>,
    /// Number of `true` entries in `busy`.
    busy_count: usize,
    /// Every outstanding lease's roster slots, in assignment order.
    leases: BTreeMap<LeaseId, Vec<usize>>,
    next_lease: u64,
}

impl LedgerState {
    /// Return a lease's workers to the free roster; no-op for unknown/released ids.
    fn release(&mut self, lease: LeaseId) -> usize {
        let Some(slots) = self.leases.remove(&lease) else {
            return 0;
        };
        for &slot in &slots {
            if let Some(busy) = self.busy.get_mut(slot) {
                *busy = false;
            }
        }
        self.busy_count -= slots.len();
        slots.len()
    }

    fn workers(&self, slots: &[usize]) -> Vec<WorkerId> {
        slots
            .iter()
            .filter_map(|&slot| self.roster.get(slot).copied())
            .collect()
    }
}

/// A set of workers checked out together for one HIT — an RAII guard.
///
/// Dropping the lease (explicitly, through `?`, or during a panic unwind) returns its
/// workers to the [`PoolLedger`] it came from. There is no way to copy or serialize a
/// lease: exactly one guard exists per checkout, so the release happens exactly once.
#[derive(Debug)]
#[must_use = "dropping a WorkerLease returns its workers to the ledger immediately; bind it for the HIT's lifetime"]
pub struct WorkerLease {
    /// The lease identifier (for the dispatch timeline and [`PoolLedger::workers_of`]).
    pub id: LeaseId,
    workers: Vec<WorkerId>,
    table: Arc<Mutex<LedgerState>>,
}

impl WorkerLease {
    /// The leased workers, in assignment order.
    pub fn workers(&self) -> &[WorkerId] {
        &self.workers
    }

    /// Number of leased workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the lease is empty (never produced by [`PoolLedger::try_lease`]).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Release the lease now. Equivalent to dropping it; provided so call sites can make
    /// the hand-back explicit.
    pub fn release(self) {}
}

impl Drop for WorkerLease {
    fn drop(&mut self) {
        // Recover from a poisoned table rather than skip the release: the only foreign
        // code that runs under the ledger lock is the caller's RNG inside `try_lease`'s
        // shuffle, which executes *before* any state mutation — so a poisoned
        // `LedgerState` is never mid-mutation and releasing into it is safe. Skipping
        // would strand this lease's workers forever, the exact failure RAII exists to
        // rule out.
        self.table
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .release(self.id);
    }
}

/// Checkout ledger over a fixed worker roster — a concurrent lease table.
///
/// `PoolLedger` is a handle: clones share the same table, so a test (or a supervisor
/// thread) can keep a clone and watch `available()`/`outstanding_leases()` while a
/// scheduler leases through its own. Costs, for a roster of `r` workers: a refused
/// [`try_lease`](Self::try_lease) is O(1) and draws nothing from the RNG; a grant is
/// O(r) — one pass over the busy flags and one shuffle of the free slots, no tree
/// lookups; a release is O(lease). Everything is deterministic given the caller's RNG,
/// like the rest of the simulation.
#[derive(Debug, Clone, Default)]
pub struct PoolLedger {
    table: Arc<Mutex<LedgerState>>,
}

impl PoolLedger {
    /// A ledger over an explicit roster (duplicates are collapsed, order preserved).
    pub fn new(roster: impl IntoIterator<Item = WorkerId>) -> Self {
        let mut slots = BTreeMap::new();
        let mut unique = Vec::new();
        for worker in roster {
            if let Entry::Vacant(entry) = slots.entry(worker) {
                entry.insert(unique.len());
                unique.push(worker);
            }
        }
        PoolLedger {
            table: Arc::new(Mutex::new(LedgerState {
                busy: vec![false; unique.len()],
                roster: unique,
                slots,
                busy_count: 0,
                leases: BTreeMap::new(),
                next_lease: 0,
            })),
        }
    }

    /// A ledger over every worker of a simulated pool.
    pub fn from_pool(pool: &WorkerPool) -> Self {
        Self::new(pool.workers().iter().map(|w| w.id))
    }

    fn state(&self) -> MutexGuard<'_, LedgerState> {
        // See `WorkerLease::drop`: a poisoned table is never mid-mutation (the caller's
        // RNG is the only foreign code under this lock, and it runs before any write),
        // so the ledger keeps working after a panicking caller instead of cascading.
        self.table
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Total roster size.
    pub fn roster_len(&self) -> usize {
        self.state().roster.len()
    }

    /// The roster, in checkout-priority order (a copy — the table stays locked only for
    /// the duration of the call).
    pub fn roster(&self) -> Vec<WorkerId> {
        self.state().roster.clone()
    }

    /// Number of workers currently free.
    pub fn available(&self) -> usize {
        let state = self.state();
        state.roster.len() - state.busy_count
    }

    /// Number of workers currently checked out.
    pub fn leased(&self) -> usize {
        self.state().busy_count
    }

    /// Number of outstanding leases.
    pub fn outstanding_leases(&self) -> usize {
        self.state().leases.len()
    }

    /// Whether a specific worker is currently checked out.
    pub fn is_leased(&self, worker: WorkerId) -> bool {
        let state = self.state();
        state
            .slots
            .get(&worker)
            .and_then(|&slot| state.busy.get(slot).copied())
            .unwrap_or(false)
    }

    /// The workers behind an outstanding lease.
    pub fn workers_of(&self, lease: LeaseId) -> Option<Vec<WorkerId>> {
        let state = self.state();
        state.leases.get(&lease).map(|slots| state.workers(slots))
    }

    /// Try to check out `n` distinct free workers, chosen uniformly at random among the
    /// free part of the roster. Returns `None` — leaving the ledger and the RNG untouched
    /// — when fewer than `n` workers are free (the caller waits and retries) or when `n`
    /// is zero.
    ///
    /// The returned [`WorkerLease`] releases on drop.
    #[must_use = "an unbound lease releases its workers immediately, making the checkout a no-op"]
    pub fn try_lease<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Option<WorkerLease> {
        if n == 0 {
            return None;
        }
        let mut guard = self.state();
        let state = &mut *guard;
        if state.roster.len() - state.busy_count < n {
            return None;
        }
        // The free slots in roster order: the shuffled list has the free workers' length
        // and order, so a seed draws the same workers as a list of the workers would.
        let mut free: Vec<usize> = state
            .busy
            .iter()
            .enumerate()
            .filter(|(_, busy)| !**busy)
            .map(|(slot, _)| slot)
            .collect();
        free.shuffle(rng);
        free.truncate(n);
        for &slot in &free {
            if let Some(busy) = state.busy.get_mut(slot) {
                *busy = true;
            }
        }
        state.busy_count += n;
        let workers = state.workers(&free);
        let id = LeaseId(state.next_lease);
        state.next_lease += 1;
        state.leases.insert(id, free);
        Some(WorkerLease {
            id,
            workers,
            table: Arc::clone(&self.table),
        })
    }

    /// Return a lease's workers to the free roster by id. Returns how many workers were
    /// freed (0 for an unknown or already-released lease).
    ///
    /// Normally unnecessary — leases release on drop — and safe to combine with RAII: the
    /// guard's later drop finds the id gone and does nothing.
    pub fn release(&self, lease: LeaseId) -> usize {
        self.state().release(lease)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ledger(n: u64) -> PoolLedger {
        PoolLedger::new((0..n).map(WorkerId))
    }

    /// The tree-based lease table the roster-indexed one replaced, kept as the
    /// differential oracle: it rebuilds the free list with one set lookup per roster
    /// worker on every attempt, refusals included.
    struct TreeLedger {
        roster: Vec<WorkerId>,
        busy: std::collections::BTreeSet<WorkerId>,
        leases: BTreeMap<LeaseId, Vec<WorkerId>>,
        next_lease: u64,
    }

    impl TreeLedger {
        fn new(roster: &[WorkerId]) -> Self {
            let mut seen = std::collections::BTreeSet::new();
            TreeLedger {
                roster: roster.iter().copied().filter(|w| seen.insert(*w)).collect(),
                busy: std::collections::BTreeSet::new(),
                leases: BTreeMap::new(),
                next_lease: 0,
            }
        }

        fn try_lease(&mut self, n: usize, rng: &mut StdRng) -> Option<(LeaseId, Vec<WorkerId>)> {
            if n == 0 {
                return None;
            }
            let mut free: Vec<WorkerId> = self
                .roster
                .iter()
                .copied()
                .filter(|w| !self.busy.contains(w))
                .collect();
            if free.len() < n {
                return None;
            }
            free.shuffle(rng);
            free.truncate(n);
            self.busy.extend(free.iter().copied());
            let id = LeaseId(self.next_lease);
            self.next_lease += 1;
            self.leases.insert(id, free.clone());
            Some((id, free))
        }

        fn release(&mut self, lease: LeaseId) -> usize {
            let workers = self.leases.remove(&lease).unwrap_or_default();
            for w in &workers {
                self.busy.remove(w);
            }
            workers.len()
        }
    }

    #[test]
    fn roster_indexed_ledger_matches_the_tree_ledger_on_random_sequences() {
        for seed in 0..60u64 {
            let mut script = StdRng::seed_from_u64(seed);
            // Rosters of 1–40 entries over 30 ids, so most contain duplicates.
            let roster: Vec<WorkerId> = (0..script.random_range(1..41usize))
                .map(|_| WorkerId(script.random_range(0..30u64)))
                .collect();
            let fast = PoolLedger::new(roster.iter().copied());
            let mut tree = TreeLedger::new(&roster);
            assert_eq!(fast.roster(), tree.roster, "seed {seed}: deduped roster");
            let mut fast_rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let mut tree_rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let mut guards: Vec<WorkerLease> = Vec::new();
            let mut issued: Vec<LeaseId> = Vec::new();
            for step in 0..200 {
                match script.random_range(0..10usize) {
                    // Lease attempts dominate, sized to be refused as often as granted.
                    0..=4 => {
                        let n = script.random_range(0..tree.roster.len() / 2 + 3);
                        let got = fast.try_lease(n, &mut fast_rng);
                        let want = tree.try_lease(n, &mut tree_rng);
                        assert_eq!(
                            got.as_ref().map(|l| (l.id, l.workers().to_vec())),
                            want,
                            "seed {seed} step {step}: try_lease({n})"
                        );
                        if let Some(lease) = got {
                            issued.push(lease.id);
                            guards.push(lease);
                        }
                    }
                    // A guard drops.
                    5..=7 if !guards.is_empty() => {
                        let lease = guards.swap_remove(script.random_range(0..guards.len()));
                        let id = lease.id;
                        drop(lease);
                        tree.release(id);
                    }
                    // A release by id: live, already released, or never issued.
                    _ => {
                        let id = if issued.is_empty() || script.random_range(0..4usize) == 0 {
                            LeaseId(10_000 + step)
                        } else {
                            issued[script.random_range(0..issued.len())]
                        };
                        assert_eq!(
                            fast.release(id),
                            tree.release(id),
                            "seed {seed} step {step}: release({id:?})"
                        );
                    }
                }
                assert_eq!(fast.available(), tree.roster.len() - tree.busy.len());
                assert_eq!(fast.leased(), tree.busy.len());
                assert_eq!(fast.outstanding_leases(), tree.leases.len());
                for id in 0..32 {
                    let w = WorkerId(id);
                    assert_eq!(
                        fast.is_leased(w),
                        tree.busy.contains(&w),
                        "seed {seed}: {w:?}"
                    );
                }
                for &id in issued.iter().chain([LeaseId(u64::MAX)].iter()) {
                    assert_eq!(fast.workers_of(id), tree.leases.get(&id).cloned());
                }
            }
            drop(guards);
            assert_eq!(
                fast.available(),
                fast.roster_len(),
                "seed {seed}: guards freed all"
            );
        }
    }

    #[test]
    fn a_refused_lease_does_not_advance_the_rng() {
        let l = ledger(10);
        let mut other = StdRng::seed_from_u64(99);
        let mut rng = StdRng::seed_from_u64(21);
        let held = l.try_lease(6, &mut other).unwrap();
        assert!(
            l.try_lease(5, &mut rng).is_none(),
            "only 4 workers are free"
        );
        assert!(l.try_lease(11, &mut rng).is_none(), "more than the roster");
        drop(held);
        let granted = l.try_lease(5, &mut rng).unwrap().workers().to_vec();
        let fresh = ledger(10)
            .try_lease(5, &mut StdRng::seed_from_u64(21))
            .unwrap()
            .workers()
            .to_vec();
        assert_eq!(granted, fresh, "the refusals drew nothing from the RNG");
    }

    #[test]
    fn leases_are_disjoint_until_released() {
        let l = ledger(12);
        let mut rng = StdRng::seed_from_u64(7);
        let a = l.try_lease(5, &mut rng).unwrap();
        let b = l.try_lease(5, &mut rng).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(b.len(), 5);
        let overlap = a
            .workers()
            .iter()
            .filter(|w| b.workers().contains(w))
            .count();
        assert_eq!(overlap, 0, "concurrent leases must not share workers");
        assert_eq!(l.available(), 2);
        assert_eq!(l.outstanding_leases(), 2);
        // Third lease cannot be satisfied until one releases.
        assert!(l.try_lease(5, &mut rng).is_none());
        a.release();
        assert!(l.try_lease(5, &mut rng).is_some());
    }

    #[test]
    fn leased_workers_are_distinct_within_a_lease() {
        let l = ledger(30);
        let mut rng = StdRng::seed_from_u64(3);
        let lease = l.try_lease(20, &mut rng).unwrap();
        let mut ids: Vec<u64> = lease.workers().iter().map(|w| w.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
        for w in lease.workers() {
            assert!(l.is_leased(*w));
        }
        assert_eq!(l.workers_of(lease.id).unwrap().len(), 20);
    }

    #[test]
    fn failed_lease_leaves_ledger_untouched() {
        let l = ledger(4);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(l.try_lease(5, &mut rng).is_none());
        assert!(l.try_lease(0, &mut rng).is_none());
        assert_eq!(l.available(), 4);
        assert_eq!(l.leased(), 0);
        assert_eq!(l.outstanding_leases(), 0);
    }

    #[test]
    fn dropping_a_lease_releases_it() {
        let l = ledger(6);
        let mut rng = StdRng::seed_from_u64(2);
        {
            let _lease = l.try_lease(3, &mut rng).unwrap();
            assert_eq!(l.available(), 3);
        }
        assert_eq!(l.available(), 6);
        assert_eq!(l.outstanding_leases(), 0);
    }

    #[test]
    fn manual_release_then_drop_frees_workers_exactly_once() {
        let l = ledger(6);
        let mut rng = StdRng::seed_from_u64(2);
        let lease = l.try_lease(3, &mut rng).unwrap();
        let id = lease.id;
        assert_eq!(l.release(id), 3);
        assert_eq!(l.available(), 6);
        // A second lease takes some of the same workers…
        let again = l.try_lease(4, &mut rng).unwrap();
        assert_eq!(l.available(), 2);
        // …and the stale guard's drop must not free them out from under it.
        drop(lease);
        assert_eq!(l.available(), 2);
        assert_eq!(l.release(LeaseId(999)), 0);
        drop(again);
        assert_eq!(l.available(), 6);
    }

    #[test]
    fn a_panicking_thread_cannot_strand_workers() {
        let l = ledger(8);
        let observer = l.clone();
        let result = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(9);
            let _lease = l.try_lease(5, &mut rng).unwrap();
            assert_eq!(l.available(), 3);
            panic!("simulated shard crash mid-lease");
        })
        .join();
        assert!(result.is_err(), "the thread must have panicked");
        assert_eq!(observer.available(), 8, "unwind released the lease");
        assert_eq!(observer.outstanding_leases(), 0);
    }

    #[test]
    fn a_panicking_rng_cannot_poison_the_ledger_or_strand_leases() {
        // `try_lease` runs the caller's RNG inside the table lock (the shuffle). If that
        // RNG panics, the mutex is poisoned — but the state is never mid-mutation at
        // that point, so both the guards' drops and later ledger calls must recover
        // instead of stranding workers or cascading panics.
        struct FusedRng(u32);
        impl rand::Rng for FusedRng {
            fn next_u64(&mut self) -> u64 {
                self.0 = self.0.checked_sub(1).expect("scripted RNG exhausted");
                7
            }
        }

        let l = ledger(10);
        let mut good_rng = StdRng::seed_from_u64(3);
        let survivor = l.try_lease(4, &mut good_rng).unwrap();
        let poisoning = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            l.try_lease(3, &mut FusedRng(2))
        }));
        assert!(poisoning.is_err(), "the scripted RNG must have panicked");
        // The ledger keeps answering through the poison…
        assert_eq!(l.available(), 6);
        assert_eq!(l.outstanding_leases(), 1);
        // …a fresh lease still works…
        let after = l.try_lease(3, &mut good_rng).unwrap();
        assert_eq!(l.available(), 3);
        // …and the pre-poison guard still releases its workers on drop.
        drop(survivor);
        drop(after);
        assert_eq!(l.available(), 10);
        assert_eq!(l.leased(), 0);
    }

    #[test]
    fn clones_share_one_table() {
        let l = ledger(10);
        let handle = l.clone();
        let mut rng = StdRng::seed_from_u64(4);
        let lease = l.try_lease(6, &mut rng).unwrap();
        assert_eq!(handle.available(), 4);
        assert_eq!(handle.outstanding_leases(), 1);
        drop(lease);
        assert_eq!(handle.available(), 10);
    }

    #[test]
    fn from_pool_covers_every_worker_and_dedups() {
        let pool = WorkerPool::generate(&PoolConfig::clean(25, 0.8, 5));
        let l = PoolLedger::from_pool(&pool);
        assert_eq!(l.roster_len(), 25);
        assert_eq!(l.roster().len(), 25);
        let dup = PoolLedger::new([WorkerId(1), WorkerId(1), WorkerId(2)]);
        assert_eq!(dup.roster_len(), 2);
    }

    #[test]
    fn leasing_is_deterministic_for_a_seed() {
        let pick = || {
            let l = ledger(40);
            let mut rng = StdRng::seed_from_u64(11);
            l.try_lease(10, &mut rng).unwrap().workers().to_vec()
        };
        assert_eq!(pick(), pick());
    }
}
