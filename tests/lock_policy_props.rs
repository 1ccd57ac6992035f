//! Property tests for the database tier's lock policy — wait if you hold
//! nothing, otherwise no-wait — over random multi-key, multi-branch
//! schedules against one engine.
//!
//! Each branch runs a few calls in sequence, like an attempt's script:
//! its first call may wait, the later ones may not. Between steps the
//! schedule may also abort any branch (the cleaner's abort), parked or
//! not. After every step:
//!
//! * no parked branch holds a lock;
//! * the wait-for graph has no cycle.
//!
//! Then every branch that is not parked is driven to its decide; once all
//! holders have decided, every parked branch must have run or been
//! aborted — and got exactly one reply either way — and the committed state must equal running the committed
//! branches one after another in commit order, with every output matching.

use etx::base::ids::{NodeId, RequestId, ResultId};
use etx::base::value::{DbOp, ExecStatus, OpOutput, Outcome, Vote};
use etx::store::Engine;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};

fn rid(n: usize) -> ResultId {
    ResultId::first(RequestId { client: NodeId(0), seq: n as u64 })
}

fn arb_op() -> impl Strategy<Value = DbOp> {
    prop_oneof![
        (0..4u8).prop_map(|k| DbOp::Get { key: format!("k{k}") }),
        (0..4u8, -9..10i64).prop_map(|(k, v)| DbOp::Put { key: format!("k{k}"), value: v }),
        (0..4u8, -5..6i64).prop_map(|(k, d)| DbOp::Add { key: format!("k{k}"), delta: d }),
    ]
}

/// A branch's calls: one to three, each of one to three operations.
fn arb_script() -> impl Strategy<Value = Vec<Vec<DbOp>>> {
    proptest::collection::vec(proptest::collection::vec(arb_op(), 1..4), 1..4)
}

/// A schedule step: advance branch `i % n` by one call (or to its
/// decide), or abort it.
fn arb_step() -> impl Strategy<Value = (usize, bool)> {
    (0..64usize, (0..8u8).prop_map(|r| r == 0))
}

#[derive(Default)]
struct Branch {
    calls: Vec<Vec<DbOp>>,
    next: usize,
    parked: bool,
    doomed: bool,
    decided: bool,
    outputs: Vec<OpOutput>,
}

struct Run {
    engine: Engine,
    branches: Vec<Branch>,
    commit_order: Vec<usize>,
}

impl Run {
    fn new(scripts: Vec<Vec<Vec<DbOp>>>) -> Self {
        let branches = scripts.into_iter().map(|calls| Branch { calls, ..Branch::default() });
        Run { engine: Engine::new(), branches: branches.collect(), commit_order: Vec::new() }
    }

    fn apply_reply(&mut self, i: usize, status: ExecStatus) {
        let b = &mut self.branches[i];
        match status {
            ExecStatus::Done(out) => {
                b.outputs.extend(out);
                b.next += 1;
            }
            ExecStatus::Conflict => b.doomed = true,
        }
    }

    /// One step of branch `i`: its next call, or its vote and decide.
    fn advance(&mut self, i: usize) {
        let b = &self.branches[i];
        if b.decided || b.parked {
            return;
        }
        let r = rid(i);
        if !b.doomed && b.next < b.calls.len() {
            let (ops, may_wait) = (b.calls[b.next].clone(), b.next == 0);
            match self.engine.submit(r, &ops, may_wait) {
                Some(status) => self.apply_reply(i, status),
                None => self.branches[i].parked = true,
            }
        } else {
            let vote = self.engine.vote(r).0;
            let outcome = if vote == Vote::Yes { Outcome::Commit } else { Outcome::Abort };
            if self.engine.decide(r, outcome).0 == Outcome::Commit {
                self.commit_order.push(i);
            }
            self.branches[i].decided = true;
        }
    }

    fn abort(&mut self, i: usize) {
        if !self.branches[i].decided {
            // A parked branch stays parked until its reply arrives.
            self.engine.decide(rid(i), Outcome::Abort);
            self.branches[i].decided = true;
        }
    }

    /// Delivers the replies of parked branches: each gets exactly one,
    /// whether it woke and ran or was dropped by an abort.
    fn deliver_woken(&mut self) {
        for (r, status) in self.engine.take_woken() {
            let i = r.request.seq as usize;
            assert!(self.branches[i].parked, "{r} woke without being parked");
            self.branches[i].parked = false;
            self.apply_reply(i, status);
        }
    }

    /// No parked branch holds a lock, and the wait-for graph is acyclic.
    fn check_waits(&self) -> Result<(), String> {
        for (i, b) in self.branches.iter().enumerate() {
            if b.parked != self.engine.is_parked(rid(i)) {
                return Err(format!("branch {i}: parked flag disagrees with the engine"));
            }
            if b.parked && self.engine.locks().holds_any(rid(i)) {
                return Err(format!("branch {i} waits while holding a lock"));
            }
        }
        let mut out: HashMap<ResultId, Vec<ResultId>> = HashMap::new();
        for (w, h) in self.engine.locks().wait_for_edges() {
            if w == h {
                return Err(format!("{w} waits on itself"));
            }
            out.entry(w).or_default().push(h);
        }
        // Cycle check: depth-first search with an on-path set.
        fn visit(
            n: ResultId,
            out: &HashMap<ResultId, Vec<ResultId>>,
            path: &mut HashSet<ResultId>,
            done: &mut HashSet<ResultId>,
        ) -> bool {
            if done.contains(&n) {
                return true;
            }
            if !path.insert(n) {
                return false;
            }
            let ok = out.get(&n).into_iter().flatten().all(|&m| visit(m, out, path, done));
            path.remove(&n);
            done.insert(n);
            ok
        }
        let (mut path, mut done) = (HashSet::new(), HashSet::new());
        for &n in out.keys() {
            if !visit(n, &out, &mut path, &mut done) {
                return Err("the wait-for graph has a cycle".into());
            }
        }
        Ok(())
    }

    /// Drives every branch that is not parked to its decide, until all
    /// have decided. Errs if only parked branches are left.
    fn settle(&mut self) -> Result<(), String> {
        loop {
            let open: Vec<usize> = (0..self.branches.len())
                .filter(|&i| !self.branches[i].decided && !self.branches[i].parked)
                .collect();
            if open.is_empty() {
                break;
            }
            for i in open {
                while !self.branches[i].decided && !self.branches[i].parked {
                    self.advance(i);
                    self.deliver_woken();
                    self.check_waits()?;
                }
            }
        }
        let stuck: Vec<usize> =
            (0..self.branches.len()).filter(|&i| self.branches[i].parked).collect();
        if !stuck.is_empty() || self.engine.locks().parked_count() > 0 {
            return Err(format!("branches {stuck:?} still parked after every holder decided"));
        }
        if self.engine.locked_keys() > 0 {
            return Err(format!("{} keys still locked", self.engine.locked_keys()));
        }
        Ok(())
    }

    /// Replays the committed branches one after another in commit order:
    /// every output and the final state must match the engine's.
    fn check_serial(&self) -> Result<(), String> {
        let mut state: BTreeMap<String, i64> = BTreeMap::new();
        for &i in &self.commit_order {
            let b = &self.branches[i];
            let mut outputs = Vec::new();
            for op in b.calls.iter().flatten() {
                outputs.push(match op {
                    DbOp::Get { key } => OpOutput::Value(state.get(key).copied()),
                    DbOp::Put { key, value } => {
                        state.insert(key.clone(), *value);
                        OpOutput::Updated(*value)
                    }
                    DbOp::Add { key, delta } => {
                        let v = state.get(key).copied().unwrap_or(0) + delta;
                        state.insert(key.clone(), v);
                        OpOutput::Updated(v)
                    }
                    other => unreachable!("not generated: {other:?}"),
                });
            }
            if outputs != b.outputs {
                return Err(format!("branch {i} saw {:?}, serially {outputs:?}", b.outputs));
            }
        }
        if &state != self.engine.snapshot() {
            return Err(format!("committed {:?}, serially {state:?}", self.engine.snapshot()));
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn waits_stay_acyclic_lock_free_and_serializable(
        scripts in proptest::collection::vec(arb_script(), 2..7),
        steps in proptest::collection::vec(arb_step(), 0..40),
    ) {
        let n = scripts.len();
        let mut run = Run::new(scripts);
        for (pick, abort) in steps {
            let i = pick % n;
            if abort {
                run.abort(i);
            } else {
                run.advance(i);
            }
            run.deliver_woken();
            let waits = run.check_waits();
            prop_assert!(waits.is_ok(), "{}", waits.unwrap_err());
        }
        let settled = run.settle();
        prop_assert!(settled.is_ok(), "{}", settled.unwrap_err());
        let serial = run.check_serial();
        prop_assert!(serial.is_ok(), "{}", serial.unwrap_err());
    }

    /// Lock-free first calls on a handful of hot keys always get through:
    /// with no call after the first, nothing is ever doomed.
    #[test]
    fn single_call_branches_are_never_doomed(
        scripts in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(arb_op(), 1..4), 1..2), 2..8),
        steps in proptest::collection::vec(0..64usize, 0..40),
    ) {
        let n = scripts.len();
        let mut run = Run::new(scripts);
        for pick in steps {
            run.advance(pick % n);
            run.deliver_woken();
        }
        let settled = run.settle();
        prop_assert!(settled.is_ok(), "{}", settled.unwrap_err());
        prop_assert_eq!(run.commit_order.len(), n, "every branch commits");
        let serial = run.check_serial();
        prop_assert!(serial.is_ok(), "{}", serial.unwrap_err());
    }
}
