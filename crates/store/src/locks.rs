//! Strict two-phase locking under one policy: **wait if you hold nothing,
//! otherwise no-wait**.
//!
//! The paper assumes "the existence of some serializability protocol" (§3)
//! inside the database tier; this lock table provides it. A request names
//! every lock one call needs and is taken atomically: all of it or none.
//! When it conflicts, what happens depends on what the requesting branch
//! already holds:
//!
//! * a branch that holds **no** locks (and whose caller says it holds none
//!   anywhere else either, see [`LockTable::request`]) is **parked** in the
//!   FIFO queue of the first conflicting key. It is woken when a holder of
//!   that key releases, and retried in queue order;
//! * a branch that already holds a lock is refused ([`LockGrant::Conflict`])
//!   — the caller dooms it, the branch votes *no* and the client retries a
//!   fresh attempt (the old no-wait rule).
//!
//! This is deadlock-free by construction: a parked branch holds nothing,
//! so nothing can wait on it, and the wait-for graph (a parked branch →
//! the holders of its key and the branches queued ahead of it) has no
//! cycle. Waits are bounded because every holder ends in a decide (or in
//! the cleaner's abort when its owner crashed), which releases its keys
//! and wakes their queues. That keeps the paper's liveness assumption —
//! "if an application server keeps computing results, a result eventually
//! commits" (§4, footnote 4) — without the abort-and-retry churn no-wait
//! pays on every conflict.
//!
//! A parked branch also queues behind branches already queued on a key it
//! could otherwise share, so a stream of readers never starves a queued
//! writer. Requests from lock-holding branches are checked against the
//! holders only.

use etx_base::ids::ResultId;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Lock strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (readers).
    Shared,
    /// Exclusive (writers).
    Exclusive,
}

#[derive(Debug, Default)]
struct LockEntry {
    shared: Vec<ResultId>,
    exclusive: Option<ResultId>,
    /// Parked branches, oldest first.
    waiters: VecDeque<ResultId>,
}

impl LockEntry {
    /// Whether `rid` could take `mode` here given the current holders.
    fn compatible(&self, rid: ResultId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self.exclusive.is_none_or(|h| h == rid),
            LockMode::Exclusive => {
                self.exclusive.is_none_or(|h| h == rid) && self.shared.iter().all(|&h| h == rid)
            }
        }
    }

    fn is_held(&self) -> bool {
        self.exclusive.is_some() || !self.shared.is_empty()
    }
}

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockGrant {
    /// Every requested lock is held (newly, or already at sufficient
    /// strength).
    Granted,
    /// The requester held nothing and was queued; nothing was taken. It
    /// shows up in a later [`LockTable::release_all`]'s wake list.
    Parked,
    /// Conflicts with another branch and the requester may not wait;
    /// nothing was taken — the caller dooms the branch.
    Conflict,
}

/// A per-database lock table keyed by record key.
#[derive(Debug, Default)]
pub struct LockTable {
    entries: HashMap<Arc<str>, LockEntry>,
    /// The keys each branch holds, in acquisition order, so a release
    /// touches (and wakes) only those.
    held: HashMap<ResultId, Vec<Arc<str>>>,
    /// The key whose queue each parked branch waits in.
    parked: HashMap<ResultId, Arc<str>>,
}

impl LockTable {
    /// Empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Requests `mode` on `key` for branch `rid`, without waiting: a
    /// one-key [`LockTable::request`] with `may_wait = false`.
    pub fn acquire(&mut self, key: &str, rid: ResultId, mode: LockMode) -> LockGrant {
        self.request(rid, &[(key, mode)], false)
    }

    /// Requests every `(key, mode)` in `reqs` for branch `rid`, all or
    /// none. On a conflict the branch is parked when `may_wait` is set
    /// *and* it holds nothing in this table; otherwise the answer is
    /// [`LockGrant::Conflict`]. `may_wait` is the caller's promise that
    /// the branch holds no lock at any other database either — the local
    /// check alone cannot see that, and a branch that waits here while
    /// holding a lock elsewhere could close a cycle across databases.
    pub fn request(
        &mut self,
        rid: ResultId,
        reqs: &[(&str, LockMode)],
        may_wait: bool,
    ) -> LockGrant {
        let may_wait = may_wait && !self.held.contains_key(&rid);
        let blocked = reqs.iter().find(|&&(key, mode)| {
            self.entries
                .get(key)
                .is_some_and(|e| !e.compatible(rid, mode) || (may_wait && !e.waiters.is_empty()))
        });
        if let Some(&(key, _)) = blocked {
            if !may_wait {
                return LockGrant::Conflict;
            }
            let key = Arc::clone(self.entries.get_key_value(key).expect("live entry").0);
            self.entries.get_mut(&key).expect("live entry").waiters.push_back(rid);
            self.parked.insert(rid, key);
            return LockGrant::Parked;
        }
        for &(key, mode) in reqs {
            self.grant(rid, key, mode);
        }
        LockGrant::Granted
    }

    /// Takes a compatible lock (checked by the caller).
    fn grant(&mut self, rid: ResultId, key: &str, mode: LockMode) {
        let key: Arc<str> = match self.entries.get_key_value(key) {
            Some((k, _)) => Arc::clone(k),
            None => {
                let k: Arc<str> = Arc::from(key);
                self.entries.insert(Arc::clone(&k), LockEntry::default());
                k
            }
        };
        let e = self.entries.get_mut(&key).expect("entry exists");
        let newly_held = !e.shared.contains(&rid) && e.exclusive != Some(rid);
        match mode {
            // X by self implies S; otherwise take S.
            LockMode::Shared if e.exclusive.is_none() && newly_held => e.shared.push(rid),
            LockMode::Shared => {}
            LockMode::Exclusive => {
                // Upgrade own shared lock (or fresh acquire).
                e.shared.retain(|&h| h != rid);
                e.exclusive = Some(rid);
            }
        }
        if newly_held {
            self.held.entry(rid).or_default().push(key);
        }
    }

    /// Releases everything `rid` holds — or, if `rid` is parked, takes it
    /// out of its queue. Returns the parked branches to retry, oldest
    /// first: every waiter on a key `rid` released, or queued behind it.
    /// Each returned branch is no longer parked; the caller retries it
    /// with [`LockTable::request`], which re-parks it if it still
    /// conflicts.
    pub fn release_all(&mut self, rid: ResultId) -> Vec<ResultId> {
        let mut woken = Vec::new();
        if let Some(key) = self.parked.remove(&rid) {
            let e = self.entries.get_mut(&key).expect("parked on a live entry");
            let at = e.waiters.iter().position(|&w| w == rid).expect("parked in its key's queue");
            woken.extend(e.waiters.drain(at..).skip(1));
        }
        for key in self.held.remove(&rid).unwrap_or_default() {
            let e = self.entries.get_mut(&key).expect("held entry exists");
            e.shared.retain(|&h| h != rid);
            if e.exclusive == Some(rid) {
                e.exclusive = None;
            }
            woken.extend(e.waiters.drain(..));
            if !e.is_held() {
                self.entries.remove(&key);
            }
        }
        for w in &woken {
            self.parked.remove(w);
        }
        woken
    }

    /// Whether `rid` holds any lock on `key` at least as strong as `mode`.
    pub fn holds(&self, key: &str, rid: ResultId, mode: LockMode) -> bool {
        let Some(e) = self.entries.get(key) else { return false };
        match mode {
            LockMode::Shared => e.shared.contains(&rid) || e.exclusive == Some(rid),
            LockMode::Exclusive => e.exclusive == Some(rid),
        }
    }

    /// Whether `rid` holds any lock at all.
    pub fn holds_any(&self, rid: ResultId) -> bool {
        self.held.contains_key(&rid)
    }

    /// Whether `rid` is parked.
    pub fn is_parked(&self, rid: ResultId) -> bool {
        self.parked.contains_key(&rid)
    }

    /// Number of parked branches.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// The wait-for graph as `(waiter, waited-on)` edges: each parked
    /// branch waits on the holders of its key and on the branches queued
    /// ahead of it there (diagnostics and tests).
    pub fn wait_for_edges(&self) -> Vec<(ResultId, ResultId)> {
        let mut edges = Vec::new();
        for e in self.entries.values() {
            for (i, &w) in e.waiters.iter().enumerate() {
                let holders = e.exclusive.iter().chain(&e.shared);
                edges.extend(holders.chain(e.waiters.iter().take(i)).map(|&h| (w, h)));
            }
        }
        edges
    }

    /// Number of keys in the table. Every key in it is held by some
    /// branch: a key with waiters always has a holder, and a key nobody
    /// holds any more is dropped (diagnostics / tests).
    pub fn locked_keys(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etx_base::ids::{NodeId, RequestId};

    fn rid(n: u64) -> ResultId {
        ResultId::first(RequestId { client: NodeId(0), seq: n })
    }

    const X: LockMode = LockMode::Exclusive;
    const S: LockMode = LockMode::Shared;

    #[test]
    fn shared_locks_coexist() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire("k", rid(1), S), LockGrant::Granted);
        assert_eq!(t.acquire("k", rid(2), S), LockGrant::Granted);
        assert!(t.holds("k", rid(1), S));
        assert!(t.holds("k", rid(2), S));
    }

    #[test]
    fn exclusive_excludes_everyone() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire("k", rid(1), X), LockGrant::Granted);
        assert_eq!(t.acquire("k", rid(2), X), LockGrant::Conflict);
        assert_eq!(t.acquire("k", rid(2), S), LockGrant::Conflict);
        // Re-entrant for the holder.
        assert_eq!(t.acquire("k", rid(1), X), LockGrant::Granted);
        assert_eq!(t.acquire("k", rid(1), S), LockGrant::Granted);
    }

    #[test]
    fn shared_blocks_exclusive_from_others() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire("k", rid(1), S), LockGrant::Granted);
        assert_eq!(t.acquire("k", rid(2), X), LockGrant::Conflict);
    }

    #[test]
    fn upgrade_own_shared_to_exclusive() {
        let mut t = LockTable::new();
        assert_eq!(t.acquire("k", rid(1), S), LockGrant::Granted);
        assert_eq!(t.acquire("k", rid(1), X), LockGrant::Granted);
        assert!(t.holds("k", rid(1), X));
        // But not if someone else shares it.
        let mut t2 = LockTable::new();
        t2.acquire("k", rid(1), S);
        t2.acquire("k", rid(2), S);
        assert_eq!(t2.acquire("k", rid(1), X), LockGrant::Conflict);
    }

    #[test]
    fn release_unblocks() {
        let mut t = LockTable::new();
        t.acquire("a", rid(1), X);
        t.acquire("b", rid(1), S);
        t.release_all(rid(1));
        assert_eq!(t.locked_keys(), 0);
        assert_eq!(t.acquire("a", rid(2), X), LockGrant::Granted);
        assert!(!t.holds("a", rid(1), S));
    }

    #[test]
    fn exclusive_implies_shared_without_double_entry() {
        let mut t = LockTable::new();
        t.acquire("k", rid(1), X);
        assert_eq!(t.acquire("k", rid(1), S), LockGrant::Granted);
        t.release_all(rid(1));
        assert_eq!(t.acquire("k", rid(2), X), LockGrant::Granted);
    }

    #[test]
    fn lock_free_requesters_park_and_wake_in_fifo_order() {
        let mut t = LockTable::new();
        assert_eq!(t.request(rid(1), &[("k", X)], true), LockGrant::Granted);
        assert_eq!(t.request(rid(2), &[("k", X)], true), LockGrant::Parked);
        assert_eq!(t.request(rid(3), &[("k", S)], true), LockGrant::Parked);
        assert!(t.is_parked(rid(2)) && !t.holds_any(rid(2)));
        assert_eq!(t.release_all(rid(1)), [rid(2), rid(3)]);
        assert_eq!(t.parked_count(), 0, "woken branches are no longer parked");
        // The caller retries in the order given: 2 takes the key, 3
        // queues again behind it.
        assert_eq!(t.request(rid(2), &[("k", X)], true), LockGrant::Granted);
        assert_eq!(t.request(rid(3), &[("k", S)], true), LockGrant::Parked);
    }

    #[test]
    fn a_lock_holding_requester_is_refused_not_parked() {
        let mut t = LockTable::new();
        t.request(rid(1), &[("k", X)], false);
        t.request(rid(2), &[("j", X)], false);
        assert_eq!(t.request(rid(2), &[("k", X)], true), LockGrant::Conflict);
        assert!(!t.is_parked(rid(2)));
        assert!(t.wait_for_edges().is_empty());
    }

    #[test]
    fn a_multi_key_request_takes_all_or_none() {
        let mut t = LockTable::new();
        t.request(rid(1), &[("b", X)], false);
        assert_eq!(t.request(rid(2), &[("a", X), ("b", X)], false), LockGrant::Conflict);
        assert!(!t.holds("a", rid(2), S), "no partial grant on conflict");
        assert_eq!(t.request(rid(2), &[("a", X), ("b", X)], true), LockGrant::Parked);
        assert!(!t.holds_any(rid(2)), "a parked branch holds nothing");
        assert_eq!(t.acquire("a", rid(3), X), LockGrant::Granted, "`a` stayed free");
        t.release_all(rid(3));
        assert_eq!(t.release_all(rid(1)), [rid(2)]);
        assert_eq!(t.request(rid(2), &[("a", X), ("b", X)], true), LockGrant::Granted);
        assert!(t.holds("a", rid(2), X) && t.holds("b", rid(2), X));
    }

    #[test]
    fn queued_writers_are_not_starved_by_later_readers() {
        let mut t = LockTable::new();
        t.request(rid(1), &[("k", S)], true);
        assert_eq!(t.request(rid(2), &[("k", X)], true), LockGrant::Parked);
        assert_eq!(t.request(rid(3), &[("k", S)], true), LockGrant::Parked, "queues behind 2");
        let mut edges = t.wait_for_edges();
        edges.sort();
        assert_eq!(edges, [(rid(2), rid(1)), (rid(3), rid(1)), (rid(3), rid(2))]);
    }

    #[test]
    fn releasing_a_parked_branch_unqueues_it_and_wakes_those_behind() {
        let mut t = LockTable::new();
        t.request(rid(1), &[("k", X)], true);
        t.request(rid(2), &[("k", X)], true);
        t.request(rid(3), &[("k", X)], true);
        assert_eq!(t.release_all(rid(2)), [rid(3)]);
        assert!(!t.is_parked(rid(2)));
        assert_eq!(t.request(rid(3), &[("k", X)], true), LockGrant::Parked);
        assert_eq!(t.release_all(rid(1)), [rid(3)], "2 is gone from the queue");
    }

    #[test]
    fn release_all_leaves_no_empty_entries() {
        let mut t = LockTable::new();
        t.request(rid(1), &[("a", X), ("b", S)], true);
        t.request(rid(2), &[("b", S)], true);
        t.request(rid(3), &[("a", S)], true);
        assert_eq!(t.locked_keys(), 2);
        t.release_all(rid(2));
        assert_eq!(t.locked_keys(), 2, "`b` is still shared by 1");
        assert_eq!(t.release_all(rid(1)), [rid(3)]);
        assert_eq!(t.locked_keys(), 0, "woken waiters hold nothing until retried");
        t.release_all(rid(3));
        assert_eq!(t.locked_keys(), 0);
        assert_eq!(t.parked_count(), 0);
    }
}
