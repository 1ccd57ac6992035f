//! Micro-timings of single layers' public functions, replayed on the
//! workload's own generated requests: the router, the lock table and the
//! storage engine, each timed in isolation on the host clock.

use crate::json::Obj;
use crate::{plans, HostTimer, Shape};
use etx_base::ids::ResultId;
use etx_base::value::{DbOp, Outcome, Vote};
use etx_core::router::route;
use etx_harness::Scenario;
use etx_store::{Engine, LockMode, LockTable};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;

/// Each timing repeats its pass over the inputs until at least this much
/// host CPU time has been measured.
const MIN_TIMED_S: f64 = 0.02;

/// Host nanoseconds per unit of work: `pass` runs once over the inputs,
/// on untimed state freshly made by `fresh`, and returns how many units it
/// did.
fn per_unit_ns<S>(mut fresh: impl FnMut() -> S, mut pass: impl FnMut(&mut S) -> u64) -> f64 {
    let (mut units, mut secs) = (0u64, 0.0f64);
    while secs < MIN_TIMED_S {
        let mut state = fresh();
        let timer = HostTimer::start(true);
        units += pass(&mut state);
        secs += timer.elapsed_s();
    }
    if units == 0 {
        0.0
    } else {
        secs * 1e9 / units as f64
    }
}

/// The layer timings of one workload.
pub struct Micro {
    route_ns: f64,
    acquire_ns: f64,
    txn_us: f64,
    read_only_ns: f64,
}

/// Times the layers on the scenario's request plans and shard map.
pub fn micro(shape: &Shape, scenario: &Scenario) -> Micro {
    let requests: Vec<(ResultId, Arc<[DbOp]>)> = plans(shape, scenario)
        .into_values()
        .map(|r| (ResultId::first(r.id), r.script.keyed_ops.clone()))
        .collect();
    let writes: Vec<&(ResultId, Arc<[DbOp]>)> =
        requests.iter().filter(|(_, ops)| ops.iter().any(DbOp::is_write)).collect();
    let map = &scenario.shard_map;

    let route_ns = per_unit_ns(
        || (),
        |_| {
            for (_, ops) in &requests {
                black_box(route(black_box(ops), map));
            }
            requests.len() as u64
        },
    );

    // The key stream with as many branches holding locks at once as the
    // workload has clients, oldest released first — so conflicts happen
    // at the workload's own concurrency.
    let acquire_ns = per_unit_ns(LockTable::new, |table| {
        let mut holding = VecDeque::new();
        let mut calls = 0;
        for (rid, ops) in &requests {
            if holding.len() == shape.clients {
                table.release_all(holding.pop_front().expect("window is full"));
            }
            for op in ops.iter() {
                let Some(key) = op.key() else { continue };
                let mode = if op.is_write() { LockMode::Exclusive } else { LockMode::Shared };
                black_box(table.acquire(key, *rid, mode));
                calls += 1;
            }
            holding.push_back(*rid);
        }
        for rid in holding {
            table.release_all(rid);
        }
        calls
    });

    // Execute and vote every write, deciding them in batches of the
    // pipeline's batch size, on a fresh engine per pass.
    let batch = crate::features().batching.max_batch;
    let seed = shape.workload.seed_data();
    let fresh_engine = || Engine::with_data(seed.clone());
    let txn_ns = per_unit_ns(fresh_engine, |engine| {
        for chunk in writes.chunks(batch) {
            let mut entries = Vec::with_capacity(chunk.len());
            for (rid, ops) in chunk {
                black_box(engine.execute(*rid, ops));
                let (vote, _) = engine.vote(*rid);
                let outcome = if vote == Vote::Yes { Outcome::Commit } else { Outcome::Abort };
                entries.push((*rid, outcome));
            }
            black_box(engine.decide_batch(&entries));
        }
        writes.len() as u64
    });

    let reads: Vec<Vec<DbOp>> = requests
        .iter()
        .map(|(_, ops)| {
            ops.iter().filter_map(|op| op.key().map(|k| DbOp::Get { key: k.to_string() })).collect()
        })
        .collect();
    let read_only_ns = per_unit_ns(fresh_engine, |engine| {
        for ops in &reads {
            black_box(engine.read_only(black_box(ops)));
        }
        reads.len() as u64
    });

    Micro { route_ns, acquire_ns, txn_us: txn_ns / 1e3, read_only_ns }
}

impl Micro {
    pub fn write(&self, out: Obj) -> Obj {
        out.num("router.route_ns", self.route_ns)
            .num("locks.acquire_ns", self.acquire_ns)
            .num("engine.txn_us", self.txn_us)
            .num("engine.read_only_ns", self.read_only_ns)
    }
}
