//! Reducing a run's trace and message statistics to the benchmark's
//! figures, each in one pass over the trace.

use crate::json::Obj;
use crate::Ran;
use etx_base::ids::{NodeId, RequestId, ResultId};
use etx_base::runtime::RuntimeKind;
use etx_base::shard::ShardId;
use etx_base::time::Time;
use etx_base::trace::{Component, TraceKind};
use etx_base::value::{Outcome, Vote};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of the committed requests whose delivery ends the throughput
/// span: the slowest 1% (stragglers of an open-loop burst, retried reads)
/// are left out of both the count and the span.
const SPAN_SHARE: f64 = 0.99;

/// The end-to-end figures of one run, on the workload's own clock
/// (virtual time on the simulator, wall time on the threaded host).
pub struct EndToEnd {
    /// Requests delivered as commits.
    pub commits: u64,
    /// Issue → first delivery, per committed request, ascending (ms).
    pub latencies: Vec<f64>,
    /// Client attempts behind the delivered commits.
    pub attempts: u64,
    /// Commits per second up to the [`SPAN_SHARE`] delivery.
    pub commits_per_s: f64,
    /// The longest delivery gap ending after the first crash, or of the
    /// whole run if nothing crashed, within the same span (ms).
    pub outage_ms: f64,
    /// Protocol messages (heartbeats excluded).
    pub msgs: u64,
}

impl EndToEnd {
    pub fn of(ran: &Ran) -> EndToEnd {
        let s = &ran.scenario;
        let mut issued: HashMap<RequestId, Time> = HashMap::new();
        let mut delivered: HashMap<RequestId, (Time, u32)> = HashMap::new();
        let mut crash: Option<Time> = None;
        for e in s.trace().events() {
            match e.kind {
                TraceKind::Issue { request } => {
                    issued.entry(request).or_insert(e.at);
                }
                TraceKind::Deliver { rid, outcome: Outcome::Commit, .. } => {
                    delivered.entry(rid.request).or_insert((e.at, rid.attempt));
                }
                TraceKind::Crash if crash.is_none() => crash = Some(e.at),
                _ => {}
            }
        }
        let mut latencies: Vec<f64> = delivered
            .iter()
            .filter_map(|(req, (at, _))| issued.get(req).map(|t0| at.since(*t0).as_millis_f64()))
            .collect();
        latencies.sort_by(f64::total_cmp);
        let mut times: Vec<Time> = delivered.values().map(|(at, _)| *at).collect();
        times.sort();
        let start = issued.values().min().copied().unwrap_or(Time(0));
        let commits = times.len() as u64;
        let k = ((commits as f64 * SPAN_SHARE).ceil() as usize).max(1);
        let commits_per_s = match times.get(k - 1) {
            Some(end) => ratio(k as f64, end.since(start).as_millis_f64() / 1e3),
            None => 0.0,
        };
        // Results already in flight still land right after a crash, so
        // the stall it causes is the longest gap that ends after it.
        let mut outage_ms = 0.0f64;
        let mut prev = start;
        for &t in times.iter().take(k) {
            if crash.is_none_or(|c| t > c) {
                outage_ms = outage_ms.max(t.since(prev).as_millis_f64());
            }
            prev = t;
        }
        EndToEnd {
            commits,
            latencies,
            attempts: delivered.values().map(|&(_, a)| u64::from(a)).sum(),
            commits_per_s,
            outage_ms,
            msgs: s.stats().protocol_total(),
        }
    }

    pub fn write(&self, out: Obj, ran: &Ran) -> Obj {
        let n = self.latencies.len();
        let c = self.commits as f64;
        out.int("commits", self.commits)
            .num("commits_per_s", self.commits_per_s)
            .num("commit_p50_ms", percentile(&self.latencies, 0.50))
            .num("commit_p99_ms", percentile(&self.latencies, 0.99))
            .int("latency_samples", n as u64)
            .int("beyond_p99", (n - (0.99 * n as f64).ceil() as usize) as u64)
            .num("attempts_per_commit", ratio(self.attempts as f64, c))
            .num("msgs_per_commit", ratio(self.msgs as f64, c))
            .num("outage_ms", self.outage_ms)
            .num("sim.host_commits_per_s", ratio(c, ran.host_run_s))
    }
}

/// Message labels of the decision-log consensus instances.
const CONSENSUS_LABELS: [&str; 6] =
    ["CEstimate", "CPropose", "CAck", "CNack", "CDecide", "CDecideReq"];
/// Message labels of intra-shard replica shipping.
const REPL_LABELS: [&str; 4] = ["ReplApply", "ReplApplyBatch", "ReplSyncReq", "ReplSyncState"];
/// Message labels of the read-lease protocol.
const LEASE_LABELS: [&str; 3] = ["LeaseRenew", "Intent", "IntentAck"];

fn component_name(c: Component) -> &'static str {
    match c {
        Component::Start => "start",
        Component::End => "end",
        Component::Commit => "commit",
        Component::Prepare => "prepare",
        Component::Sql => "sql",
        Component::LogStart => "log_start",
        Component::LogOutcome => "log_outcome",
    }
}

/// Per-request accumulation while its delivery is outstanding.
#[derive(Default)]
struct Pending {
    issued: Option<Time>,
    busy_ms: [f64; 7],
    delivered: bool,
}

/// The per-layer figures of one traced run.
#[derive(Default)]
pub struct Layers {
    commits: u64,
    busy_ms: [f64; 7],
    wait_ms: f64,
    no_votes: u64,
    slots: BTreeSet<u64>,
    slot_outcomes: u64,
    slot_applies: u64,
    window_peak: u32,
    spec_execs: u64,
    spec_hits: u64,
    spec_aborts: u64,
    group_appends: u64,
    group_records: u64,
    repl_lag_ms: Vec<f64>,
    fast_reads: HashSet<ResultId>,
    follower_served: HashSet<ResultId>,
    forwarded: u64,
    read_retries: u64,
    snapshot_rounds: u64,
    fallbacks: u64,
    votes_held: u64,
    suspicions: u64,
    unsuspicions: u64,
    takeovers: u64,
    routed: HashSet<ResultId>,
    cross: HashSet<ResultId>,
    msgs: u64,
    request_msgs: u64,
    consensus_msgs: u64,
    repl_msgs: u64,
    lease_msgs: u64,
    nodes: usize,
    threaded: bool,
    sim_events: u64,
    host_run_s: f64,
    quarters: Vec<(f64, u64)>,
}

impl Layers {
    /// One pass over the trace, plus the message statistics.
    pub fn of(ran: &Ran) -> Layers {
        let s = &ran.scenario;
        let mut roles: HashMap<NodeId, (ShardId, bool)> = HashMap::new();
        for &db in &s.topo.db_servers {
            if let Some(shard) = s.shard_map.shard_of_node(db) {
                roles.insert(db, (shard, s.shard_map.primary(shard) == db));
            }
        }
        let mut l = Layers::default();
        let mut pending: HashMap<RequestId, Pending> = HashMap::new();
        let mut primary_commit: HashMap<(ShardId, ResultId), Time> = HashMap::new();
        for e in s.trace().events() {
            match e.kind {
                TraceKind::Issue { request } => {
                    pending.entry(request).or_default().issued.get_or_insert(e.at);
                }
                TraceKind::Deliver { rid, outcome, .. } => {
                    let p = pending.entry(rid.request).or_default();
                    if !p.delivered && outcome == Outcome::Commit {
                        p.delivered = true;
                        l.commits += 1;
                        let busy: f64 = p.busy_ms.iter().sum();
                        let latency = p.issued.map_or(0.0, |t0| e.at.since(t0).as_millis_f64());
                        l.wait_ms += latency - busy;
                        for (acc, b) in l.busy_ms.iter_mut().zip(p.busy_ms) {
                            *acc += b;
                        }
                    }
                }
                TraceKind::Span { rid, comp, dur } => {
                    let p = pending.entry(rid.request).or_default();
                    if !p.delivered {
                        let i = Component::ALL.iter().position(|&c| c == comp).unwrap_or(0);
                        p.busy_ms[i] += dur.as_millis_f64();
                    }
                }
                TraceKind::DbVote { vote: Vote::No, .. } => l.no_votes += 1,
                TraceKind::BatchDecided { slot, len } => {
                    l.slots.insert(slot);
                    l.slot_outcomes += u64::from(len);
                    l.slot_applies += 1;
                }
                TraceKind::PipelineWindow { open } => l.window_peak = l.window_peak.max(open),
                TraceKind::SpecExec { .. } => l.spec_execs += 1,
                TraceKind::SpecHit { .. } => l.spec_hits += 1,
                TraceKind::SpecAbort { .. } => l.spec_aborts += 1,
                TraceKind::GroupAppend { len } => {
                    l.group_appends += 1;
                    l.group_records += u64::from(len);
                }
                TraceKind::DbDecide { rid, outcome: Outcome::Commit } => {
                    if let Some(&(shard, true)) = roles.get(&e.node) {
                        primary_commit.entry((shard, rid)).or_insert(e.at);
                    }
                }
                TraceKind::DbReplicated { rid } => {
                    if let Some(&(shard, false)) = roles.get(&e.node) {
                        if let Some(t) = primary_commit.get(&(shard, rid)) {
                            l.repl_lag_ms.push(e.at.since(*t).as_millis_f64());
                        }
                    }
                }
                TraceKind::ReadFastPath { rid, .. } => {
                    l.fast_reads.insert(rid);
                }
                TraceKind::FollowerRead { rid } => {
                    l.follower_served.insert(rid);
                }
                TraceKind::ReadForwarded { .. } => l.forwarded += 1,
                TraceKind::ReadRetried { .. } => l.read_retries += 1,
                TraceKind::ReadSnapshotRound { .. } => l.snapshot_rounds += 1,
                TraceKind::ReadFallback { .. } => l.fallbacks += 1,
                TraceKind::VoteHeld { .. } => l.votes_held += 1,
                TraceKind::Suspect { .. } => l.suspicions += 1,
                TraceKind::Unsuspect { .. } => l.unsuspicions += 1,
                TraceKind::CleanerTakeover { .. } => l.takeovers += 1,
                TraceKind::ShardRoute { rid, shards } => {
                    l.routed.insert(rid);
                    if shards > 1 {
                        l.cross.insert(rid);
                    }
                }
                _ => {}
            }
        }
        let stats = s.stats();
        let sum = |labels: &[&str]| labels.iter().map(|l| stats.sent(l)).sum::<u64>();
        l.msgs = stats.protocol_total();
        l.request_msgs = stats.sent("Request");
        l.consensus_msgs = sum(&CONSENSUS_LABELS);
        l.repl_msgs = sum(&REPL_LABELS);
        l.lease_msgs = sum(&LEASE_LABELS);
        l.repl_lag_ms.sort_by(f64::total_cmp);
        l.nodes = s.topo.clients.len() + s.topo.app_servers.len() + s.topo.db_servers.len();
        l.threaded = s.runtime_kind() == RuntimeKind::Threaded;
        l.sim_events = if l.threaded { 0 } else { s.sim().processed() };
        l.host_run_s = ran.host_run_s;
        l.quarters = ran.quarters.clone();
        l
    }

    pub fn write(&self, mut out: Obj) -> Obj {
        let c = self.commits as f64;
        let slots = self.slots.len() as f64;
        let reads = self.fast_reads.len() as f64;
        let per_event_us = |(s, ev): (f64, u64)| ratio(s * 1e6, ev as f64);
        let growth = match (self.quarters.first(), self.quarters.get(3)) {
            (Some(&first), Some(&last)) => ratio(per_event_us(last), per_event_us(first)),
            _ => 0.0,
        };
        out = out
            .num("client.request_msgs_per_commit", ratio(self.request_msgs as f64, c))
            .num(
                "router.cross_shard_share",
                ratio(self.cross.len() as f64, self.routed.len() as f64),
            )
            .num(
                "declog.outcomes_per_slot",
                ratio(self.slot_outcomes as f64, self.slot_applies as f64),
            )
            .num("declog.slots_per_commit", ratio(slots, c))
            .num("declog.window_peak", f64::from(self.window_peak))
            .num("consensus.msgs_per_slot", ratio(self.consensus_msgs as f64, slots))
            .num("spec.hit_ratio", ratio(self.spec_hits as f64, self.spec_execs as f64))
            .num("spec.aborts_per_slot", ratio(self.spec_aborts as f64, slots))
            .num("locks.no_votes_per_commit", ratio(self.no_votes as f64, c))
            .num(
                "wal.records_per_append",
                ratio(self.group_records as f64, self.group_appends as f64),
            )
            .num("wal.appends_per_commit", ratio(self.group_appends as f64, c))
            .num("repl.lag_p50_ms", nan_to_zero(percentile(&self.repl_lag_ms, 0.50)))
            .num("repl.lag_p99_ms", nan_to_zero(percentile(&self.repl_lag_ms, 0.99)))
            .num("repl.msgs_per_commit", ratio(self.repl_msgs as f64, c))
            .num("read.follower_share", ratio(self.follower_served.len() as f64, reads))
            .num("read.forwarded_per_read", ratio(self.forwarded as f64, reads))
            .num("read.retries_per_read", ratio(self.read_retries as f64, reads))
            .num("read.snapshot_rounds_per_read", ratio(self.snapshot_rounds as f64, reads))
            .num("read.fallbacks", self.fallbacks as f64)
            .num("lease.votes_held_per_commit", ratio(self.votes_held as f64, c))
            .num("lease.msgs_per_commit", ratio(self.lease_msgs as f64, c))
            .num("fd.suspicions", self.suspicions as f64)
            .num("fd.false_suspicions", self.unsuspicions as f64)
            .num("cleaner.takeovers", self.takeovers as f64)
            .num("latency.busy_ms", ratio(self.busy_ms.iter().sum(), c))
            .num("latency.wait_ms", ratio(self.wait_ms, c));
        for (i, comp) in Component::ALL.iter().enumerate() {
            let key = format!("latency.busy_ms.{}", component_name(*comp));
            out = out.num(&key, ratio(self.busy_ms[i], c));
        }
        let (sim_events, us_per_event) = if self.threaded {
            (0.0, 0.0)
        } else {
            (self.sim_events as f64, ratio(self.host_run_s * 1e6, self.sim_events as f64))
        };
        let (rt_msgs, rt_threads) = if self.threaded {
            (ratio(self.msgs as f64, c), self.nodes as f64)
        } else {
            (0.0, 0.0)
        };
        out.num("sim.events_per_commit", ratio(sim_events, c))
            .num("sim.us_per_event", us_per_event)
            .num("sim.us_per_event_growth", growth)
            .num("rt.msgs_per_commit", rt_msgs)
            .num("rt.node_threads", rt_threads)
    }
}

fn nan_to_zero(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}
