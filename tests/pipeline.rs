//! The pipelined decision log, end to end.
//!
//! Four families of guarantees:
//!
//! * **compatibility** — depth 1 *is* the single-slot pipeline: a depth-1
//!   run (and a deep window that never fills) replays the pre-pipeline
//!   trace byte for byte;
//! * **overlap shape** — under load, a deep window genuinely keeps ≥ 2
//!   decision-log slots in consensus at once (the `PipelineWindow` trace
//!   high-water mark), ships a `SpecExec` for every proposed slot, and
//!   still applies strictly in slot order;
//! * **equivalence** — whatever the window depth, the pipeline commits
//!   exactly what the depth-1 strict run commits: same delivered counts,
//!   same durable per-shard state, rebuilt from the WAL;
//! * **fault tolerance** — crashing the proposing primary with ≥ 2
//!   undecided slots in flight, or a shard primary holding a stack of
//!   speculation buffers, leaves the full §3 specification intact and the
//!   replayed values equal to the depth-1 run's.

use etx::base::config::{BatchingConfig, PipelineConfig, SpeculationConfig};
use etx::base::fault::{FaultOp, NemesisWhen};
use etx::base::time::Dur;
use etx::base::trace::TraceKind;
use etx::harness::{check, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder, Workload};
use etx::sim::RunOutcome;
use std::collections::BTreeSet;

/// The canonical pipelining workload: an open-loop burst through small
/// batches, so consecutive flushes land in separate slots and a deep
/// window has rounds to overlap. Every knob is explicit, so the scenario
/// means the same thing under every CI matrix leg.
fn burst(seed: u64, depth: usize, spec: SpeculationConfig) -> Scenario {
    ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .shards(2)
        .replication(2)
        .clients(8)
        .requests(32)
        .batching(BatchingConfig::new(2, Dur::from_millis(1)))
        .pipeline(PipelineConfig::new(depth))
        .speculation(spec)
        .workload(Workload::OpenLoopBurst { accounts: 32, amount: 1 })
        .build()
}

/// Runs a scenario to settlement, checks §3, and returns it for state
/// inspection.
fn settle(mut s: Scenario) -> Scenario {
    let expected = s.requests as usize;
    let out = s.run_until_settled(expected);
    assert_eq!(out, RunOutcome::Predicate, "every burst request must settle");
    s.quiesce(Dur::from_millis(400));
    check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: true, t2: true }).assert_ok();
    s
}

/// Asserts every replica of every shard rebuilds from its WAL to the
/// reference run's committed state — the strongest equivalence a
/// reordering optimisation can be held to (the burst workload commits
/// every request exactly once, so final state is schedule-independent).
fn assert_matches_reference(run: &mut Scenario, reference: &mut Scenario, label: &str) {
    for shard in 0..2 {
        let expect = reference.rebuilt_committed(reference.shard_primary(shard));
        let replicas: Vec<_> = run.shard_replicas(shard).to_vec();
        for replica in replicas {
            assert_eq!(
                run.rebuilt_committed(replica),
                expect,
                "{label}: replica {replica} of shard {shard} diverged from the depth-1 run"
            );
        }
    }
}

#[test]
fn depth_one_replays_the_single_slot_pipeline_byte_for_byte() {
    // A sequential client never has two outcomes pending at once, so the
    // window never fills whatever its depth: explicit depth 1, a deep
    // depth-8 window, and the builder default must all produce the same
    // trace, byte for byte — the feature-off compatibility contract.
    let run = |depth: Option<usize>| {
        let mut b = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, 5101)
            .workload(Workload::BankUpdate { amount: 7 })
            .requests(6)
            .batching(BatchingConfig::new(64, Dur::from_millis(2)));
        if let Some(d) = depth {
            b = b.pipeline(PipelineConfig::new(d));
        }
        let mut s = b.build();
        let out = s.run_until_settled(6);
        assert_eq!(out, RunOutcome::Predicate);
        s.quiesce(Dur::from_millis(200));
        s
    };
    let pinned = run(Some(1));
    let deep = run(Some(8));
    let ambient = run(None);
    assert_eq!(pinned.delivered_commits(), 6);
    assert_eq!(
        pinned.trace().events(),
        deep.trace().events(),
        "a window a sequential client cannot fill must leave no trace of itself"
    );
    assert_eq!(
        pinned.trace().events(),
        ambient.trace().events(),
        "identical traces: depth 1 is the pre-pipeline protocol"
    );
    assert_eq!(deep.pipeline_window_peak(), 0, "no overlap ever happened");
}

#[test]
fn deep_window_overlaps_rounds_and_commits_the_depth_one_state() {
    // Same seed, depth 4 (speculating) vs depth 1 (strict): the deep run
    // must genuinely overlap consensus rounds — ≥ 2 undecided slots in
    // flight at its peak — and ship SpecExec frames for more than one
    // distinct slot, yet end in exactly the strict run's durable state.
    let mut deep = settle(burst(5201, 4, SpeculationConfig::on()));
    let mut one = settle(burst(5201, 1, SpeculationConfig::disabled()));
    let expected = deep.requests as usize;
    assert_eq!(deep.delivered_commits(), expected);
    assert_eq!(one.delivered_commits(), expected);
    assert!(
        deep.pipeline_window_peak() >= 2,
        "a depth-4 open-loop burst must keep ≥2 slots in consensus at once \
         (peak {})",
        deep.pipeline_window_peak()
    );
    assert_eq!(one.pipeline_window_peak(), 0, "depth 1 never overlaps rounds");
    let spec_slots: BTreeSet<u64> = deep
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::SpecExec { slot, .. } => Some(slot),
            _ => None,
        })
        .collect();
    assert!(
        spec_slots.len() >= 2,
        "every proposed slot in the window ships for speculation, not just the head \
         (got slots {spec_slots:?})"
    );
    assert!(deep.spec_hits() >= 1, "fault-free overlap must promote at least one batch");
    assert_matches_reference(&mut deep, &mut one, "deep window");
}

#[test]
fn primary_crash_with_a_deep_window_replays_to_the_depth_one_values() {
    // The chaos sweep of the pipelined window: crash the default primary
    // the moment *it* reports ≥ 2 undecided slots in flight — both rounds
    // are mid-consensus, so surviving replicas must arbitrate the orphaned
    // slots, re-propose unserved outcomes, and cascade away any stale
    // speculation. Every seed must hold the full §3 specification and
    // land exactly on the depth-1 run's values.
    let mut deep_windows = 0;
    for seed in 0..12u64 {
        let mut s = burst(5300 + seed, 4, SpeculationConfig::on());
        let a1 = s.topo.primary();
        s.schedule_fault(
            NemesisWhen::on_trace(move |ev| {
                ev.node == a1 && matches!(ev.kind, TraceKind::PipelineWindow { open } if open >= 2)
            }),
            FaultOp::Crash(a1),
        )
        .unwrap();
        let mut s = settle(s);
        if s.pipeline_window_peak() >= 2 {
            deep_windows += 1;
        }
        let mut off = settle(burst(5300 + seed, 1, SpeculationConfig::disabled()));
        let expected = s.requests as usize;
        assert_eq!(s.delivered_commits(), expected, "seed {seed}: every request commits");
        assert_eq!(off.delivered_commits(), expected);
        assert_matches_reference(&mut s, &mut off, &format!("seed {seed}"));
    }
    assert!(
        deep_windows >= 6,
        "most sweep runs must actually crash the primary with ≥2 undecided slots \
         (got {deep_windows}/12)"
    );
}

#[test]
fn stacked_speculation_buffers_die_with_the_shard_primary() {
    // Under a deep window a shard primary stacks one speculation buffer
    // per proposed slot. Cycle it on its first SpecExec: the whole stack
    // and its pre-paid ledger are volatile, so the recovered primary
    // replays every affected slot decide-then-execute — and every replica
    // must still rebuild to the depth-1 run's state from its WAL.
    let mut s = burst(5401, 4, SpeculationConfig::on());
    let victim = s.shard_primary(0);
    s.schedule_fault(
        NemesisWhen::on_trace(move |ev| {
            ev.node == victim && matches!(ev.kind, TraceKind::SpecExec { .. })
        }),
        FaultOp::CrashFor { node: victim, down_for: Dur::from_millis(10) },
    )
    .unwrap();
    let mut s = settle(s);
    let mut off = settle(burst(5401, 1, SpeculationConfig::disabled()));
    assert_eq!(s.delivered_commits(), s.requests as usize);
    assert_matches_reference(&mut s, &mut off, "stacked-stash crash");
}
