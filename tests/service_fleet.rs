//! The resident-service surface: admission decisions stream back per ticket, killed
//! services recover from their directory alone, and recovered-then-finished lifetimes
//! are indistinguishable from never-crashed ones.
//!
//! Three attack surfaces, mirroring the fleet-level suites one layer up:
//!
//! * **kill between submissions** — drop the service (no `shutdown`) after some
//!   submissions landed; [`FleetService::recover`] must hand the admitted-but-unrun
//!   tickets back as journaled-pending, and finishing the recovered service must
//!   produce a [`ServiceReport`] bit-identical (wall clock aside) to one from a
//!   service that never died,
//! * **kill mid-epoch** — a platform failpoint panics inside
//!   `run_epoch_with_failpoints` after `ServiceEpochStarted` hit the manifest; the
//!   epoch's run journal is half-written and recovery resumes it without re-paying
//!   journaled HITs,
//! * **admission invariants under random mixes** (proptests) — a job is never
//!   *accepted* when its live-mix predicted makespan exceeds its deadline, and
//!   queued servable jobs always drain (no starvation under round-robin).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Once;

use cdas::crowd::failpoint::FAILPOINT_PANIC;
use cdas::fixtures::demo_questions;
use cdas::prelude::*;
use proptest::prelude::*;

/// Keep the default panic hook from spamming stderr with injected panics.
fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|message| message == FAILPOINT_PANIC);
            if !injected {
                previous(info);
            }
        }));
    });
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdas-service-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ServiceConfig {
    ServiceConfig::new(
        CrowdSpec::clean(12, 0.85)
            .seed(11)
            .latency(LatencyModel::Exponential { mean: 4.0 }),
    )
}

fn job(name: &str, workers: usize) -> JobSpec {
    JobSpec::sentiment(name, demo_questions(6, 2))
        .workers(workers)
        .domain_size(3)
        .batch_size(3)
}

/// Drive one full service lifetime: submit `alpha`+`beta`, run an epoch, submit
/// `gamma`, then shut down. `crash_after_submissions` kills (drops) the service after
/// the first two submissions and recovers it, proving the journaled-pending tickets
/// survive the kill; `crash_in_epoch` kills the first epoch mid-run via a platform
/// failpoint and recovers the wreckage.
fn lifetime(dir: &PathBuf, crash_after_submissions: bool, crash_in_epoch: bool) -> ServiceReport {
    let mut service = FleetService::open(dir, config()).unwrap();
    let a = service.submit(job("alpha", 4)).unwrap();
    let b = service.submit(job("beta", 3)).unwrap();

    if crash_after_submissions {
        // The kill: no shutdown, no epoch — just the process dying. Both admission
        // decisions were journaled before the tickets came back.
        drop(service);
        let (recovered, recovery) = FleetService::recover(dir).unwrap();
        service = recovered;
        assert!(!recovery.was_closed, "the killed service never closed");
        assert_eq!(
            recovery.pending,
            vec![a, b],
            "admitted-but-unrun submissions come back as journaled-pending"
        );
        assert!(recovery.epoch_recoveries.is_empty());
    }

    if crash_in_epoch {
        silence_injected_panics();
        let died = catch_unwind(AssertUnwindSafe(|| {
            service.run_epoch_with_failpoints(FleetFailpoints::platform(Failpoint::after_polls(2)))
        }))
        .is_err();
        assert!(died, "the epoch failpoint must fire");
        // The service struct is poisoned mid-epoch; a real supervisor starts over
        // from the directory.
        drop(service);
        let (recovered, recovery) = FleetService::recover(dir).unwrap();
        service = recovered;
        assert!(!recovery.was_closed);
        assert_eq!(
            recovery.epoch_recoveries.len(),
            1,
            "one epoch was journaled"
        );
        let epoch = recovery.epoch_recoveries[0]
            .as_ref()
            .expect("the crashed epoch had a run journal to resume");
        assert!(!epoch.was_complete, "the epoch's journal had no trailer");
        assert!(
            recovery.pending.is_empty(),
            "both tickets reached the epoch"
        );
    } else {
        let summary = service.run_epoch().unwrap().expect("two admitted jobs run");
        assert_eq!(summary.tickets, vec![a, b]);
    }

    let c = service.submit(job("gamma", 5)).unwrap();
    assert_eq!(c, JobTicket(2), "tickets stay dense across recovery");
    service.shutdown().unwrap()
}

#[test]
fn killing_between_submissions_then_recovering_equals_never_crashed() {
    let clean = lifetime(&temp_dir("clean-a"), false, false);
    let crashed = lifetime(&temp_dir("killed-submissions"), true, false);
    assert_eq!(
        crashed.ignoring_wall_clock(),
        clean.ignoring_wall_clock(),
        "a service killed between submissions and recovered must be \
         indistinguishable from one that never crashed"
    );
    assert_eq!(crashed.events, clean.events, "event streams match exactly");
}

#[test]
fn killing_mid_epoch_then_recovering_equals_never_crashed() {
    let clean = lifetime(&temp_dir("clean-b"), false, false);
    let crashed = lifetime(&temp_dir("killed-epoch"), false, true);
    assert_eq!(
        crashed.ignoring_wall_clock(),
        clean.ignoring_wall_clock(),
        "a service killed mid-epoch and recovered must be indistinguishable \
         from one that never crashed"
    );
}

#[test]
fn recovered_epoch_work_is_not_repaid() {
    silence_injected_panics();
    let dir = temp_dir("no-double-pay");
    let mut service = FleetService::open(&dir, config()).unwrap();
    let _ = service.submit(job("alpha", 4)).unwrap();
    let _ = service.submit(job("beta", 3)).unwrap();
    let died = catch_unwind(AssertUnwindSafe(|| {
        service.run_epoch_with_failpoints(FleetFailpoints::platform(Failpoint::after_polls(4)))
    }))
    .is_err();
    assert!(died);
    drop(service);
    let (recovered, recovery) = FleetService::recover(&dir).unwrap();
    let epoch = recovery.epoch_recoveries[0]
        .as_ref()
        .expect("run journal present");
    assert!(
        epoch.recovered_hits > 0,
        "HITs the crashed epoch paid for were matched against the journal, not re-run"
    );
    let report = recovered.shutdown().unwrap();
    // Every journaled dollar is in the final accounting exactly once.
    assert!((report.total_cost - report.epochs[0].fleet.cost).abs() < 1e-9);
}

#[test]
fn decisions_stream_per_ticket_across_recovery() {
    let dir = temp_dir("decision-stream");
    let mut service = FleetService::open(&dir, config()).unwrap();
    let a = service.submit(job("alpha", 4)).unwrap();
    // A deadline no idle crowd can meet is rejected, and the rejection is journaled.
    let rejected = service.submit(job("hopeless", 4).deadline_minutes(0.001));
    let r = match rejected {
        Err(Rejected::Policy { ticket, .. }) => ticket,
        other => panic!("expected a policy rejection, got {other:?}"),
    };
    drop(service);
    let (mut recovered, _) = FleetService::recover(&dir).unwrap();
    let a_events = recovered.poll(a);
    assert!(matches!(
        a_events.first(),
        Some(ServiceEvent::Submitted {
            decision: AdmissionDecision::Accept,
            ..
        })
    ));
    let r_events = recovered.poll(r);
    assert!(
        matches!(
            r_events.first(),
            Some(ServiceEvent::Submitted {
                decision: AdmissionDecision::Reject,
                ..
            })
        ),
        "the journaled rejection streams back after recovery"
    );
    let report = recovered.shutdown().unwrap();
    assert_eq!(report.submitted, 2);
    assert_eq!(report.rejected, 1);
}

#[test]
fn recovering_a_closed_service_is_a_clean_no_op_resume() {
    let dir = temp_dir("closed");
    let clean = lifetime(&dir, false, false);
    let (recovered, recovery) = FleetService::recover(&dir).unwrap();
    assert!(recovery.was_closed);
    assert!(recovery.pending.is_empty());
    assert!(recovery
        .epoch_recoveries
        .iter()
        .all(|r| r.as_ref().is_some_and(|r| r.was_complete)));
    assert_eq!(recovered.events(), &clean.events[..]);
}

proptest! {
    /// Admission never *accepts* a job whose live-mix predicted makespan exceeds its
    /// deadline — across random worker demands, deadlines, and pre-existing mixes.
    #[test]
    fn accepted_jobs_always_fit_their_deadline(
        preload in 0usize..3,
        workers in 1usize..10,
        deadline_minutes in 1u64..30,
    ) {
        let dir = temp_dir(&format!("deadline-{preload}-{workers}-{deadline_minutes}"));
        let mut service = FleetService::open(&dir, config()).unwrap();
        for i in 0..preload {
            let _ = service.submit(job(&format!("mix-{i}"), 4));
        }
        let deadline = deadline_minutes as f64;
        let result = service.submit(
            job("probe", workers).deadline_minutes(deadline),
        );
        if let Ok(ticket) = result {
            let accepted = service.subscribe(ticket).any(|e| matches!(
                e,
                ServiceEvent::Submitted { decision: AdmissionDecision::Accept, forecast, .. }
                    if forecast.makespan_minutes <= deadline
            ));
            let queued = service.subscribe(ticket).any(|e| matches!(
                e,
                ServiceEvent::Submitted { decision: AdmissionDecision::Queue, .. }
            ));
            prop_assert!(
                accepted || queued,
                "an admitted deadline job is either queued or predicted to fit"
            );
        }
    }

    /// Servable queued jobs always drain: with no budget and no deadlines, every
    /// submission that was not rejected is served by some epoch before shutdown.
    #[test]
    fn queued_jobs_are_never_starved(
        jobs in 1usize..6,
        workers in 1usize..9,
    ) {
        let dir = temp_dir(&format!("starve-{jobs}-{workers}"));
        let mut service = FleetService::open(&dir, config()).unwrap();
        for i in 0..jobs {
            // Every job individually fits the 12-worker crowd, so none may starve.
            let _ = service
                .submit(job(&format!("j{i}"), workers))
                .expect("a servable job is never rejected");
        }
        let report = service.shutdown().unwrap();
        prop_assert!(
            report.unserved.is_empty(),
            "round-robin epochs must drain every queued servable job"
        );
        prop_assert_eq!(report.rejected, 0);
        let served: usize = report.epochs.iter().map(|e| e.jobs.len()).sum();
        prop_assert_eq!(served, jobs, "each submission runs in exactly one epoch");
        // Served means finished: every real question of every job gets a verdict, and
        // every epoch that ran work took simulated time.
        let resolved: usize = report.epochs.iter().map(|e| e.fleet.questions).sum();
        prop_assert_eq!(resolved, jobs * 6, "the service left questions unresolved");
        prop_assert!(report.epochs.iter().all(|e| e.makespan > 0.0));
    }
}
