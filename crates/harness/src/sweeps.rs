//! Parameter sweeps beyond the paper's tables — the evaluations §5 calls
//! for ("one obviously needs to consider the actual response-time of the
//! protocol in the case of various failure alternatives") plus ablations of
//! the design choices in DESIGN.md.

use crate::figures::figure8_with_cost;
use crate::scenario::{MiddleTier, ScenarioBuilder};
use crate::stats::Summary;
use etx_base::config::{CostModel, FdConfig};
use etx_base::fault::{FaultOp, NemesisWhen};
use etx_base::time::Dur;
use etx_base::trace::{Component, TraceKind};
use etx_sim::RunOutcome;

/// Protocol stage at which the primary is crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// No crash (control row).
    None,
    /// Right after winning `regA` (before computing) — Figure 1(d).
    AfterRegA,
    /// Right after the database voted (during commitment processing).
    AfterVote,
    /// Right after `regD` decided (before terminating) — Figure 1(c).
    AfterRegD,
}

impl CrashPoint {
    /// Row label.
    pub fn label(&self) -> &'static str {
        match self {
            CrashPoint::None => "none",
            CrashPoint::AfterRegA => "after regA",
            CrashPoint::AfterVote => "after vote",
            CrashPoint::AfterRegD => "after regD",
        }
    }

    /// All points, sweep order.
    pub const ALL: [CrashPoint; 4] =
        [CrashPoint::None, CrashPoint::AfterRegA, CrashPoint::AfterVote, CrashPoint::AfterRegD];
}

/// One measurement of the fail-over sweep (X1).
#[derive(Debug, Clone)]
pub struct FailoverPoint {
    /// Where the primary crashed.
    pub crash: CrashPoint,
    /// Failure-detector initial timeout.
    pub fd_timeout: Dur,
    /// Client-perceived latency (ms) of the whole request.
    pub latency_ms: f64,
    /// The attempt that was finally delivered.
    pub attempt: u32,
}

/// X1: client-perceived latency when the primary crashes at each protocol
/// stage, as a function of the failure-detector timeout. The paper's §5
/// names this the missing evaluation; Figure 1(c)/(d) are its anchor
/// points.
pub fn failover_sweep(seed: u64, fd_timeouts: &[Dur]) -> Vec<FailoverPoint> {
    let mut rows = Vec::new();
    for &fd_timeout in fd_timeouts {
        for crash in CrashPoint::ALL {
            let fd = FdConfig { initial_timeout: fd_timeout, ..FdConfig::default() };
            let mut s =
                ScenarioBuilder::new(MiddleTier::Etx { apps: 3 }, seed).fd(fd).requests(1).build();
            let a1 = s.topo.primary();
            let when = match crash {
                CrashPoint::None => None,
                CrashPoint::AfterRegA => Some(NemesisWhen::on_trace(move |ev| {
                    ev.node == a1
                        && matches!(ev.kind, TraceKind::Span { comp: Component::LogStart, .. })
                })),
                CrashPoint::AfterVote => {
                    Some(NemesisWhen::on_trace(|ev| matches!(ev.kind, TraceKind::DbVote { .. })))
                }
                CrashPoint::AfterRegD => Some(NemesisWhen::on_trace(move |ev| {
                    ev.node == a1
                        && matches!(ev.kind, TraceKind::Span { comp: Component::LogOutcome, .. })
                })),
            };
            if let Some(when) = when {
                s.schedule_fault(when, FaultOp::Crash(a1)).expect("both hosts inject crashes");
            }
            let out = s.run_until_settled(1);
            assert_eq!(out, RunOutcome::Predicate, "fail-over run must deliver");
            let (rid, _, _, at) = s.deliveries()[0];
            rows.push(FailoverPoint {
                crash,
                fd_timeout,
                latency_ms: at.as_millis_f64(),
                attempt: rid.attempt,
            });
        }
    }
    rows
}

/// Renders the fail-over sweep.
pub fn render_failover(rows: &[FailoverPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14}{:>14}{:>14}{:>10}\n",
        "crash point", "FD timeout", "latency ms", "attempt"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14}{:>14}{:>14.1}{:>10}\n",
            r.crash.label(),
            format!("{}", r.fd_timeout),
            r.latency_ms,
            r.attempt
        ));
    }
    out
}

/// One point of the forced-I/O crossover sweep (X3).
#[derive(Debug, Clone)]
pub struct CrossoverPoint {
    /// Forced-log cost in ms.
    pub log_force_ms: f64,
    /// AR total latency (mean, ms).
    pub ar_ms: f64,
    /// 2PC total latency (mean, ms).
    pub tpc_ms: f64,
}

/// X3: AR never touches a disk; 2PC pays two forced writes. Sweeping the
/// forced-write cost shows where the paper's conclusion flips: with fast
/// stable storage (≲ one consensus round trip) 2PC would win; on the
/// paper's 12.5 ms disks AR wins.
pub fn crossover_sweep(trials: usize, seed: u64, force_ms: &[f64]) -> Vec<CrossoverPoint> {
    let mut rows = Vec::new();
    for &f in force_ms {
        let cost = CostModel { log_force: Dur::from_millis_f64(f), ..CostModel::default() };
        let table = figure8_with_cost(trials, seed, cost);
        let ar = table.column("AR").expect("AR column").total.mean;
        let tpc = table.column("2PC").expect("2PC column").total.mean;
        rows.push(CrossoverPoint { log_force_ms: f, ar_ms: ar, tpc_ms: tpc });
    }
    rows
}

/// Renders the crossover sweep.
pub fn render_crossover(rows: &[CrossoverPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>14}{:>12}{:>12}{:>10}\n",
        "log-force ms", "AR ms", "2PC ms", "winner"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>14.1}{:>12.1}{:>12.1}{:>10}\n",
            r.log_force_ms,
            r.ar_ms,
            r.tpc_ms,
            if r.ar_ms <= r.tpc_ms { "AR" } else { "2PC" }
        ));
    }
    out
}

/// One point of the scalability sweep (X2).
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Application-server replicas.
    pub apps: usize,
    /// Databases.
    pub dbs: usize,
    /// Latency summary (ms) over the trials.
    pub latency: Summary,
    /// Mean protocol messages per request.
    pub msgs: f64,
}

/// X2: replication-degree and database fan-out ablation for the
/// e-Transaction protocol (travel workload so the transaction actually
/// spans the databases).
pub fn scalability_sweep(
    trials: usize,
    seed: u64,
    apps: &[usize],
    dbs: &[usize],
) -> Vec<ScalePoint> {
    let mut rows = Vec::new();
    for &a in apps {
        for &d in dbs {
            let mut lats = Vec::new();
            let mut msgs = 0u64;
            for t in 0..trials {
                let mut s = ScenarioBuilder::new(
                    MiddleTier::Etx { apps: a },
                    seed.wrapping_add(t as u64 * 7919),
                )
                .dbs(d)
                .workload(crate::workloads::Workload::Travel)
                .requests(1)
                .build();
                let out = s.run_until_settled(1);
                assert_eq!(out, RunOutcome::Predicate);
                let (_, _, _, at) = s.deliveries()[0];
                lats.push(at.as_millis_f64());
                msgs += s.stats().protocol_total();
            }
            rows.push(ScalePoint {
                apps: a,
                dbs: d,
                latency: Summary::of(&lats),
                msgs: msgs as f64 / trials as f64,
            });
        }
    }
    rows
}

/// One point of the cross-shard percentage sweep (X4).
#[derive(Debug, Clone)]
pub struct CrossShardPoint {
    /// Number of shards.
    pub shards: u32,
    /// Percentage of transactions touching two accounts.
    pub cross_pct: u8,
    /// Per-request client-perceived latency (issue → delivery, ms).
    pub latency: Summary,
    /// Fraction of routed attempts that actually spanned > 1 shard.
    pub observed_cross: f64,
    /// Simulated-time throughput: requests per simulated second.
    pub req_per_sec: f64,
}

/// X4: the cross-shard sweep à la STAR's Figure 1 — fix the shard count,
/// sweep the fraction of multi-account transactions, and watch the
/// multi-branch commitment path take over from the single-shard fast path.
pub fn cross_shard_sweep(
    seed: u64,
    shards: u32,
    replication: usize,
    pcts: &[u8],
    requests: u64,
) -> Vec<CrossShardPoint> {
    let mut rows = Vec::new();
    for &pct in pcts {
        let mut s = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
            .shards(shards)
            .replication(replication)
            .workload(crate::workloads::Workload::ShardedBank {
                accounts: shards * 8,
                cross_pct: pct,
                amount: 10,
            })
            .requests(requests)
            .build();
        let out = s.run_until_settled(requests as usize);
        assert_eq!(out, RunOutcome::Predicate, "cross-shard sweep run must settle");
        let delivered = s.deliveries().len();
        let lats = s.request_latencies_ms();
        let span = s.now().as_millis_f64().max(f64::MIN_POSITIVE) / 1_000.0;
        let routed = s.shard_routed_attempts();
        rows.push(CrossShardPoint {
            shards,
            cross_pct: pct,
            latency: Summary::of(&lats),
            observed_cross: if routed == 0 {
                0.0
            } else {
                s.cross_shard_routes() as f64 / routed as f64
            },
            req_per_sec: delivered as f64 / span,
        });
    }
    rows
}

/// Renders the cross-shard sweep.
pub fn render_cross_shard(rows: &[CrossShardPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8}{:>10}{:>14}{:>14}{:>12}\n",
        "shards", "cross %", "latency ms", "observed %", "req/s"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8}{:>10}{:>14.1}{:>14.1}{:>12.1}\n",
            r.shards,
            r.cross_pct,
            r.latency.mean,
            r.observed_cross * 100.0,
            r.req_per_sec
        ));
    }
    out
}

/// Renders the scalability sweep.
pub fn render_scalability(rows: &[ScalePoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>6}{:>6}{:>14}{:>12}{:>14}\n",
        "apps", "dbs", "latency ms", "ci90 ±", "msgs/req"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>6}{:>6}{:>14.1}{:>12.2}{:>14.1}\n",
            r.apps, r.dbs, r.latency.mean, r.latency.ci90_half, r.msgs
        ));
    }
    out
}
