//! The backend-neutral fault plane against the simulator. Every fault
//! reaches the kernel through `Scenario::schedule_fault` /
//! `Scenario::apply_schedule` and one queue path, so a schedule replays
//! byte for byte per seed: the mixed schedule below is pinned as an
//! FNV-1a hash of its full debug trace, the same oracle the golden traces
//! in `read_path.rs` use.

use etx::base::config::FeatureSet;
use etx::base::fault::{FaultOp, LinkFault, NemesisSchedule, NemesisWhen};
use etx::base::runtime::RuntimeKind;
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
use etx::harness::{check, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder, Workload};
use etx::sim::RunOutcome;

fn sharded_builder(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .runtime(RuntimeKind::Sim)
        .shards(2)
        .replication(2)
        .clients(2)
        .requests(4)
        .workload(Workload::HotShard { accounts: 8, hot_pct: 70, amount: 10 })
}

fn sharded(seed: u64) -> Scenario {
    sharded_builder(seed).build()
}

fn settle(s: &mut Scenario) {
    let n = s.requests as usize;
    assert_eq!(s.run_until_settled(n), RunOutcome::Predicate);
    s.quiesce(Dur::from_millis(400));
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The trace of [`mixed_schedule`] at seed `0xFA17` with every optional
/// feature at its default. First captured before the simulator's direct
/// fault calls were removed, where the same run was asserted equal, event
/// for event, to the schedule injected through those calls; re-pinned on
/// purpose when a lock conflict started parking the lock-free requester
/// instead of dooming it, because this schedule contains lock conflicts
/// (the test asserts so).
const GOLDEN_MIXED_SCHEDULE: u64 = 0xF2D0_0D67_DA3B_8C76;

/// A trace-triggered crash/recovery of shard 0's primary on its first
/// vote, a timed crash and recovery of a shard-1 follower, and a one-way
/// block of that follower's replication stream from the start.
fn mixed_schedule(s: &Scenario) -> NemesisSchedule {
    let victim = s.shard_primary(0);
    let follower = s.shard_replicas(1)[1];
    let lag_primary = s.shard_replicas(1)[0];
    NemesisSchedule::new()
        .on_trace(
            move |ev| ev.node == victim && matches!(ev.kind, TraceKind::DbVote { .. }),
            FaultOp::CrashFor { node: victim, down_for: Dur::from_millis(15) },
        )
        .at(Dur(30_000), FaultOp::Crash(follower))
        .at(Dur(50_000), FaultOp::Recover(follower))
        .now(FaultOp::BlockLink { from: lag_primary, to: follower, heal_after: Dur(40_000) })
}

/// Trace-triggered, timed and immediate faults through one schedule
/// replay the pinned trace byte for byte — timestamps, sequence,
/// everything — and the run satisfies §3. The features are set
/// explicitly, so the feature environment variables cannot move the
/// trace.
#[test]
fn scheduled_faults_replay_the_pinned_trace_byte_identically() {
    let mut s = sharded_builder(0xFA17).features(FeatureSet::default()).build();
    let schedule = mixed_schedule(&s);
    s.apply_schedule(&schedule).unwrap();
    settle(&mut s);

    assert!(s.lock_waits() > 0, "the schedule contains lock conflicts");
    assert_eq!(
        fnv1a(format!("{:#?}", s.trace().events()).as_bytes()),
        GOLDEN_MIXED_SCHEDULE,
        "the fault plane diverged from the pinned schedule"
    );
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

/// An unused fault plane is observationally invisible: an empty schedule
/// plus a trace trigger that never fires traces identically to a run that
/// never heard of `schedule_fault` (the golden-trace pins in other files
/// depend on this). The trigger keeps the kernel's trace scan running on
/// every event, so the scan itself is shown to cost nothing — not even
/// an RNG draw.
#[test]
fn empty_schedule_leaves_the_trace_untouched() {
    let mut plain = sharded(7);
    settle(&mut plain);

    let mut scheduled = sharded(7);
    let never = scheduled.shard_primary(0);
    scheduled.apply_schedule(&NemesisSchedule::new()).unwrap();
    scheduled.schedule_fault(NemesisWhen::on_trace(|_| false), FaultOp::Crash(never)).unwrap();
    settle(&mut scheduled);

    assert_eq!(plain.trace().events(), scheduled.trace().events());
}

/// Pause/resume on the simulator: a paused node receives nothing and
/// processes nothing while paused; on resume it drains its backlog and
/// the run settles with §3 intact. (The threaded twin of this scenario
/// lives in threaded_chaos.rs — same ops, real parked threads.)
#[test]
fn sim_pause_stalls_a_replica_and_resume_drains_it() {
    let mut s = sharded(21);
    let parked = s.shard_replicas(0)[1];
    s.schedule_fault(
        NemesisWhen::After(Dur::from_millis(2)),
        FaultOp::PauseFor { node: parked, down_for: Dur::from_millis(30) },
    )
    .unwrap();
    settle(&mut s);

    assert_eq!(s.trace().count_kind(|k| matches!(k, TraceKind::Pause)), 1);
    assert_eq!(s.trace().count_kind(|k| matches!(k, TraceKind::Resume)), 1);
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}

/// Link faults on the simulator: a dropping link parts ways with the
/// reliable-channel model, so the kernel *holds* the traffic and
/// re-injects it at heal — reliable channels mean loss manifests as
/// delay, never absence. The counter still records what was stopped.
#[test]
fn sim_dropping_link_holds_traffic_until_healed() {
    let mut s = sharded(33);
    let from = s.shard_replicas(0)[0];
    let to = s.shard_replicas(0)[1];
    s.fault(FaultOp::SetLink { from, to, fault: LinkFault::drop_all() }).unwrap();
    s.schedule_fault(NemesisWhen::After(Dur::from_millis(40)), FaultOp::HealLink { from, to })
        .unwrap();
    settle(&mut s);

    assert!(
        s.stats().dropped_on_link() > 0,
        "the replication stream must actually have been interrupted"
    );
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
}
