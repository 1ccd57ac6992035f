//! Lock contention end to end: the database tier's policy — a branch that
//! holds no locks waits behind a conflicting lock, one that holds a lock
//! is doomed — seen through whole runs.
//!
//! * hot single-shard accounts: conflicts queue instead of aborting, so a
//!   fault-free run has no *no* vote and no client retry at all;
//! * cross-shard transfers, where second calls still use no-wait: every
//!   run settles (no deadlock);
//! * the owner of a parked attempt crashes: the cleaner's abort drops the
//!   parked branch and everything queued behind it still commits;
//! * the owner is only suspected, not crashed: the dropped branch's `Exec`
//!   is still answered, so the owner stops computing and lets go of the
//!   client's watermark;
//! * the shard primary crashes while `Exec`s are parked: the `Ready` path
//!   aborts those attempts and their requests commit on retry;
//! * the same queueing on the threaded host.
//!
//! Every simulator run asserts that the wait path actually ran
//! ([`Scenario::lock_waits`]), so none of it passes vacuously; on the
//! threaded host whether requests overlap is up to the OS scheduler.

use std::collections::BTreeSet;

use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::ids::ResultId;
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
use etx::base::value::{Outcome, Vote};
use etx::harness::{check, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder, Workload};
use etx::protocol::AppServer;
use etx::sim::RunOutcome;

fn hot_bank(seed: u64, accounts: u32, clients: usize, requests: u64) -> ScenarioBuilder {
    ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .runtime(RuntimeKind::Sim)
        .shards(1)
        .replication(2)
        .clients(clients)
        .requests(requests)
        .workload(Workload::ShardedBank { accounts, cross_pct: 0, amount: 3 })
}

/// Runs to completion (within `wall_limit`), quiesces, and checks §3 with
/// liveness; every request is delivered exactly once, as a commit.
fn settle_and_check(s: &mut Scenario) {
    let n = s.requests as usize;
    assert_eq!(s.run_until_settled(n), RunOutcome::Predicate, "every request settles");
    s.quiesce(Dur::from_millis(100));
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
    let delivered: Vec<_> = s.deliveries();
    assert_eq!(delivered.len(), n, "exactly one delivery per request");
    assert!(delivered.iter().all(|d| d.1 == Outcome::Commit));
}

fn count(s: &Scenario, pred: impl Fn(&TraceKind) -> bool) -> usize {
    s.trace().count_kind(pred)
}

/// The attempts a database parked.
fn parked_rids(s: &Scenario) -> BTreeSet<ResultId> {
    s.trace()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::LockWait { rid } => Some(rid),
            _ => None,
        })
        .collect()
}

#[test]
fn hot_accounts_queue_instead_of_aborting() {
    for seed in 1..=5 {
        let mut s = hot_bank(seed, 8, 16, 6).build();
        settle_and_check(&mut s);
        assert!(s.lock_waits() > 0, "seed {seed}: 16 clients on 8 accounts must conflict");
        assert_eq!(
            count(&s, |k| matches!(k, TraceKind::DbVote { vote: Vote::No, .. })),
            0,
            "seed {seed}: a lock-free first call is never doomed"
        );
        assert_eq!(
            count(&s, |k| matches!(k, TraceKind::ClientRetry { .. })),
            0,
            "seed {seed}: no attempt aborts, so no client retries"
        );
    }
}

#[test]
fn cross_shard_transfers_never_deadlock() {
    for seed in 1..=4 {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
            .runtime(RuntimeKind::Sim)
            .shards(2)
            .replication(2)
            .clients(8)
            .requests(6)
            .workload(Workload::ShardedBank { accounts: 32, cross_pct: 100, amount: 5 })
            .wall_limit(Dur::from_secs(60))
            .build();
        settle_and_check(&mut s);
        assert!(s.lock_waits() > 0, "seed {seed}: first calls must have queued");
    }
}

#[test]
fn crashing_the_owner_of_a_parked_attempt_lets_the_queue_drain() {
    let mut s = hot_bank(0xC1EA, 2, 8, 4).build();
    // Every client starts at the primary application server, so it owns
    // the attempts that queue first. Crash it at the first park.
    let owner = s.primary();
    s.schedule_fault(
        NemesisWhen::on_trace(|ev| matches!(ev.kind, TraceKind::LockWait { .. })),
        FaultOp::Crash(owner),
    )
    .unwrap();
    settle_and_check(&mut s);

    let parked = parked_rids(&s);
    let cleaned: BTreeSet<ResultId> = s
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::CleanerTakeover { rid, owner: o } if o == owner => Some(rid),
            _ => None,
        })
        .collect();
    let dropped = parked.iter().filter(|rid| {
        cleaned.contains(rid)
            && s.trace().events().iter().any(|e| {
                e.node == s.shard_primary(0)
                    && matches!(e.kind, TraceKind::DbDecide { rid: r, outcome: Outcome::Abort } if r == **rid)
            })
    });
    assert!(dropped.count() > 0, "the cleaner aborted a parked attempt at the database");
}

#[test]
fn a_falsely_suspected_owner_of_a_parked_attempt_is_answered_and_moves_on() {
    let mut s = hot_bank(0xFA15E, 2, 8, 6).build();
    // Cut the owner off from the other application servers (not from the
    // database or the clients) at the first park: their cleaners suspect
    // it and abort its attempts while it is alive and still computing.
    let owner = s.primary();
    let others: Vec<_> = s.topo.app_servers.iter().copied().filter(|&a| a != owner).collect();
    s.schedule_fault(
        NemesisWhen::on_trace(|ev| matches!(ev.kind, TraceKind::LockWait { .. })),
        FaultOp::Partition { a: vec![owner], b: others, heal_after: Dur::from_millis(60) },
    )
    .unwrap();
    settle_and_check(&mut s);

    // A parked attempt of the live owner that the cleaner aborted at the
    // database before it ran.
    let db = s.shard_primary(0);
    let events = s.trace().events();
    let dropped: Vec<ResultId> = parked_rids(&s)
        .into_iter()
        .filter(|&rid| {
            let cleaned = events.iter().any(|e| {
                matches!(e.kind, TraceKind::CleanerTakeover { rid: r, owner: o } if r == rid && o == owner)
            });
            let aborted = events.iter().position(|e| {
                e.node == db
                    && matches!(e.kind, TraceKind::DbDecide { rid: r, outcome: Outcome::Abort } if r == rid)
            });
            let ran = events.iter().position(|e| {
                e.node == db && matches!(e.kind, TraceKind::DbVote { rid: r, .. } if r == rid)
            });
            cleaned && aborted.is_some_and(|a| ran.is_none_or(|v| a < v))
        })
        .collect();
    assert!(!dropped.is_empty(), "the cleaner dropped a parked attempt of the live owner");
    // Its `Exec` was answered with a conflict, so the owner left
    // `Computing` for it.
    for rid in &dropped {
        assert!(
            events.iter().any(|e| e.node == owner && e.kind == TraceKind::Computed { rid: *rid }),
            "{rid}: the owner never finished computing"
        );
    }
    // Nor does it hold the client's watermark: the owner has let go of the
    // dropped attempt and of everything before it.
    let app = s.sim().process_ref(owner).and_then(|p| p.as_any());
    let app = app.and_then(|a| a.downcast_ref::<AppServer>()).expect("the owner is alive");
    for rid in &dropped {
        let held: Vec<ResultId> =
            app.in_flight().filter(|r| r.request.client == rid.request.client).collect();
        assert!(
            held.iter().all(|r| r.request.seq > rid.request.seq),
            "{rid}: the owner still holds {held:?}"
        );
    }
}

#[test]
fn a_shard_primary_crash_aborts_parked_execs_and_their_requests_commit() {
    let mut s = hot_bank(0xDB5, 2, 8, 4).build();
    let primary = s.shard_primary(0);
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == primary && matches!(ev.kind, TraceKind::LockWait { .. })
        }),
        FaultOp::CrashFor { node: primary, down_for: Dur::from_millis(20) },
    )
    .unwrap();
    settle_and_check(&mut s);

    let parked = parked_rids(&s);
    assert!(!parked.is_empty());
    let retried: BTreeSet<ResultId> = s
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::ClientRetry { rid } => Some(rid),
            _ => None,
        })
        .collect();
    assert!(
        parked.iter().any(|rid| retried.contains(rid)),
        "an attempt parked at the crash is aborted and retried"
    );
}

#[test]
fn a_single_key_runs_to_completion_on_the_threaded_host() {
    let mut s = hot_bank(0x7EAD, 1, 4, 5)
        .runtime(RuntimeKind::Threaded)
        .wall_limit(Dur::from_secs(20))
        .build();
    let n = s.requests as usize;
    assert_eq!(s.run_until_settled(n), RunOutcome::Predicate, "every request settles");
    s.quiesce(Dur::from_millis(50));
    s.stop();
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
    assert_eq!(s.deliveries().len(), n);
    assert!(s.deliveries().iter().all(|d| d.1 == Outcome::Commit));
}
