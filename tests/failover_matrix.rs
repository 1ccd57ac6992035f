//! Crash-point matrix: kill the primary at *every* observable protocol
//! stage and check that the system still satisfies the full specification
//! and the client still delivers (T.1 under fail-over).

use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::time::Dur;
use etx::base::trace::{Component, TraceKind};
use etx::harness::{check, LivenessChecks, MiddleTier, ScenarioBuilder, Workload};

#[derive(Debug, Clone, Copy)]
enum Stage {
    OnRequestArrival,
    AfterRegAWrite,
    AfterSqlAtDb,
    AfterDbVote,
    AfterRegDWrite,
    AfterDbCommit,
}

const STAGES: [Stage; 6] = [
    Stage::OnRequestArrival,
    Stage::AfterRegAWrite,
    Stage::AfterSqlAtDb,
    Stage::AfterDbVote,
    Stage::AfterRegDWrite,
    Stage::AfterDbCommit,
];

fn run_stage(stage: Stage, seed: u64) {
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .workload(Workload::BankUpdate { amount: 9 })
        .requests(1)
        .build();
    let a1 = s.topo.primary();
    let when = match stage {
        Stage::OnRequestArrival => NemesisWhen::on_trace(move |ev| {
            ev.node == a1 && matches!(ev.kind, TraceKind::Span { comp: Component::Start, .. })
        }),
        Stage::AfterRegAWrite => NemesisWhen::on_trace(move |ev| {
            ev.node == a1 && matches!(ev.kind, TraceKind::Span { comp: Component::LogStart, .. })
        }),
        Stage::AfterSqlAtDb => NemesisWhen::on_trace(move |ev| {
            matches!(ev.kind, TraceKind::Span { comp: Component::Sql, .. })
        }),
        Stage::AfterDbVote => {
            NemesisWhen::on_trace(move |ev| matches!(ev.kind, TraceKind::DbVote { .. }))
        }
        Stage::AfterRegDWrite => NemesisWhen::on_trace(move |ev| {
            ev.node == a1 && matches!(ev.kind, TraceKind::Span { comp: Component::LogOutcome, .. })
        }),
        Stage::AfterDbCommit => {
            NemesisWhen::on_trace(move |ev| matches!(ev.kind, TraceKind::DbDecide { .. }))
        }
    };
    s.schedule_fault(when, FaultOp::Crash(a1)).unwrap();
    let out = s.run_until_settled(1);
    assert_eq!(
        out,
        etx::sim::RunOutcome::Predicate,
        "stage {stage:?} seed {seed}: client must still deliver (T.1)"
    );
    s.quiesce(Dur::from_millis(400));
    assert_eq!(s.delivered_commits(), 1, "stage {stage:?} seed {seed}");
    // Exactly one commit — never zero (lost) or two (duplicated).
    assert_eq!(s.db_commits(), 1, "stage {stage:?} seed {seed}: A.2");
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

#[test]
fn primary_crash_at_every_stage_preserves_exactly_once() {
    for (i, stage) in STAGES.iter().enumerate() {
        for seed in 0..3u64 {
            run_stage(*stage, 1000 + i as u64 * 17 + seed);
        }
    }
}

#[test]
fn double_crash_still_tolerated_with_five_replicas() {
    // Five replicas tolerate two crashes: kill the primary at regA and the
    // second server shortly after.
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 5 }, 2024)
        .workload(Workload::BankUpdate { amount: 3 })
        .requests(1)
        .build();
    let a1 = s.topo.app_servers[0];
    let a2 = s.topo.app_servers[1];
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == a1 && matches!(ev.kind, TraceKind::Span { comp: Component::LogStart, .. })
        }),
        FaultOp::Crash(a1),
    )
    .unwrap();
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            matches!(ev.kind, TraceKind::CleanerTakeover { .. }) && ev.node == a2
        }),
        FaultOp::Crash(a2),
    )
    .unwrap();
    let out = s.run_until_settled(1);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(400));
    assert_eq!(s.db_commits(), 1);
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

#[test]
fn db_crash_at_vote_and_at_decide_points() {
    for (i, kind) in ["vote", "decide"].iter().enumerate() {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 3000 + i as u64)
            .workload(Workload::BankUpdate { amount: 2 })
            .requests(1)
            .build();
        let db = s.topo.db_servers[0];
        let when = if i == 0 {
            NemesisWhen::on_trace(move |ev| {
                ev.node == db && matches!(ev.kind, TraceKind::DbVote { .. })
            })
        } else {
            NemesisWhen::on_trace(move |ev| {
                ev.node == db && matches!(ev.kind, TraceKind::DbDecide { .. })
            })
        };
        s.schedule_fault(when, FaultOp::CrashFor { node: db, down_for: Dur::from_millis(25) })
            .unwrap();
        let out = s.run_until_settled(1);
        assert_eq!(out, etx::sim::RunOutcome::Predicate, "{kind}: must deliver");
        s.quiesce(Dur::from_millis(400));
        check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true })
            .assert_ok();
    }
}

#[test]
fn false_suspicion_storm_costs_only_aborts_never_safety() {
    // Every server suspects the (alive!) primary for a while — the regime
    // where "all application servers try to concurrently commit or abort a
    // result" (§5, active-replication mode). Safety must hold; the client
    // must still deliver.
    use etx::base::time::Time;
    use etx::fd::ForcedSuspicion;
    let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 4001)
        .workload(Workload::BankUpdate { amount: 8 })
        .requests(2)
        .force_suspicions(vec![ForcedSuspicion {
            peer: etx::base::ids::NodeId(1), // the default primary
            from: Time(2_000),
            until: Time(40_000),
        }])
        .build();
    let out = s.run_until_settled(2);
    assert_eq!(out, etx::sim::RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(400));
    assert_eq!(s.delivered_commits(), 2);
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}
