//! One repetition of one benchmark workload.
//!
//! ```text
//! etx-perfbench --workload <name> --seed <n> --trace <0|1>
//! ```
//!
//! Builds the workload's scenario through `etx_harness::ScenarioBuilder`,
//! runs it until every request settled, gates correctness (the §3 checker
//! with T.1/T.2 after a quiesce, exactly-once delivery, and every account
//! balance on every shard primary), and prints one JSON object on stdout.
//! With `--trace 0` it carries the end-to-end figures of the run; with
//! `--trace 1` it also runs the same seed a second time with the trace
//! reducer and the layer micro-timings, and carries the per-layer figures.
//!
//! Before running, the program prints a `{"start": ..}` line with the
//! number of requests it is about to issue, so a supervisor that has to
//! kill a wedged run still knows how many requests it failed.
//! `perfbench/run.py` is that supervisor.

mod json;
mod layers;
mod reduce;

use etx_base::config::{
    BatchingConfig, CostModel, FeatureSet, PipelineConfig, ReadLeaseConfig, ReadPathConfig,
    SpeculationConfig,
};
use etx_base::fault::{FaultOp, NemesisWhen};
use etx_base::ids::RequestId;
use etx_base::runtime::RuntimeKind;
use etx_base::shard::ShardId;
use etx_base::time::Dur;
use etx_base::trace::TraceKind;
use etx_base::value::{DbOp, Outcome, Request};
use etx_harness::{check, LivenessChecks, MiddleTier, Scenario, ScenarioBuilder, Workload};
use etx_sim::RunOutcome;
use json::Obj;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The shape of one named workload.
pub struct Shape {
    /// Workload name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Hash shards.
    pub shards: u32,
    /// Replicas per shard (index 0 is the primary).
    pub replication: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Requests per client.
    pub requests: u64,
    /// The request generator.
    pub workload: Workload,
    /// Which host runs the nodes.
    pub runtime: RuntimeKind,
    /// Crash the default primary application server for this long, partway
    /// through the run.
    pub crash_for: Option<Dur>,
}

/// Credit per update request; transfers move the same amount.
const AMOUNT: i64 = 1;

/// The five workloads. Sizes are per repetition; `run.py` repeats a
/// workload for the run's measuring time.
pub fn shape(name: &str) -> Option<Shape> {
    let sim = |name, shards, replication, clients, requests, workload| Shape {
        name,
        shards,
        replication,
        clients,
        requests,
        workload,
        runtime: RuntimeKind::Sim,
        crash_for: None,
    };
    Some(match name {
        "contended_1shard" => sim(
            "contended_1shard",
            1,
            2,
            16,
            200,
            Workload::ShardedBank { accounts: 8, cross_pct: 0, amount: AMOUNT },
        ),
        "spread_16shard" => sim(
            "spread_16shard",
            16,
            2,
            32,
            200,
            Workload::ShardedBank { accounts: 1024, cross_pct: 10, amount: AMOUNT },
        ),
        "read_mostly_16shard" => sim(
            "read_mostly_16shard",
            16,
            3,
            16,
            200,
            Workload::ReadMostly { accounts: 1024, read_pct: 90, amount: AMOUNT },
        ),
        "failover_4shard" => Shape {
            crash_for: Some(Dur::from_millis(100)),
            ..sim(
                "failover_4shard",
                4,
                2,
                8,
                200,
                Workload::ShardedBank { accounts: 256, cross_pct: 10, amount: AMOUNT },
            )
        },
        "threaded_16shard" => Shape {
            runtime: RuntimeKind::Threaded,
            ..sim(
                "threaded_16shard",
                16,
                2,
                2,
                3000,
                Workload::ShardedBank { accounts: 1024, cross_pct: 10, amount: AMOUNT },
            )
        },
        _ => return None,
    })
}

/// Every optional mechanism on, identically on every workload: batching,
/// a pipelined decision log, speculation, the read lane with follower
/// reads, and read leases.
pub fn features() -> FeatureSet {
    FeatureSet {
        batching: BatchingConfig::new(64, Dur::from_millis(1)),
        read_path: ReadPathConfig::follower_reads(),
        read_leases: ReadLeaseConfig::fast_for_tests(),
        speculation: SpeculationConfig::on(),
        pipeline: PipelineConfig::new(4),
    }
}

/// The threaded host's own watchdog. The supervisor's kill deadline sits
/// above it, for a run that ignores it.
const THREADED_WALL_LIMIT: Dur = Dur::from_secs(10);
/// The simulator's virtual-time stop; far beyond any healthy run.
const SIM_TIME_LIMIT: Dur = Dur::from_secs(600);

fn builder(shape: &Shape, seed: u64) -> ScenarioBuilder {
    let b = ScenarioBuilder::fast(MiddleTier::Etx { apps: 3 }, seed)
        .runtime(shape.runtime)
        .shards(shape.shards)
        .replication(shape.replication)
        .clients(shape.clients)
        .requests(shape.requests)
        .workload(shape.workload.clone())
        .features(features());
    match shape.runtime {
        // Zeroed service times: the wall clock measures host overhead only.
        RuntimeKind::Threaded => b.cost(CostModel::zeroed()).wall_limit(THREADED_WALL_LIMIT),
        RuntimeKind::Sim => b.wall_limit(SIM_TIME_LIMIT),
    }
}

/// `struct timespec` of 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds the calling thread has run (`CLOCK_THREAD_CPUTIME_ID`, to
/// the nanosecond); `None` where the clock is not available.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_s() -> Option<f64> {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, exclusively borrowed `timespec` with the C
    // layout for the whole call, and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_s() -> Option<f64> {
    None
}

/// Times host work. Work done on the calling thread (the simulator runs
/// every node on it) is timed in that thread's CPU time, which other
/// processes on the machine barely disturb; work on other threads, and
/// every platform without the CPU clock, falls back to wall time.
pub struct HostTimer {
    wall: Instant,
    cpu: Option<f64>,
}

impl HostTimer {
    pub fn start(on_this_thread: bool) -> Self {
        let cpu = if on_this_thread { thread_cpu_s() } else { None };
        HostTimer { wall: Instant::now(), cpu }
    }

    pub fn elapsed_s(&self) -> f64 {
        match (self.cpu, thread_cpu_s()) {
            (Some(start), Some(now)) => now - start,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Builds per repetition: set-up time is their median.
const SETUPS: usize = 5;

/// A built, run scenario and what it cost the host.
pub struct Ran {
    pub scenario: Scenario,
    pub outcome: RunOutcome,
    /// Host seconds inside `ScenarioBuilder::build` (median of [`SETUPS`]).
    pub setup_s: f64,
    /// Host seconds inside `run_until_settled`.
    pub host_run_s: f64,
    /// Per quarter of the requests: (host seconds, simulator events). Only
    /// filled by a chunked simulator run.
    pub quarters: Vec<(f64, u64)>,
}

/// Builds and runs one repetition. `chunked` settles the run in four
/// quarters (by delivered requests) to time each quarter separately.
pub fn execute(shape: &Shape, seed: u64, chunked: bool) -> Ran {
    let on_this_thread = shape.runtime == RuntimeKind::Sim;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        // The previous build is dropped outside the timed region.
        drop(built.take());
        let timer = HostTimer::start(on_this_thread);
        built = Some(builder(shape, seed).build());
        setups.push(timer.elapsed_s());
    }
    setups.sort_by(f64::total_cmp);
    let setup_s = setups[SETUPS / 2];
    let mut scenario = built.expect("at least one build");
    let n = scenario.requests as usize;
    if let Some(down_for) = shape.crash_for {
        // Crash a1 once a third of the requests has been delivered. The
        // point is fixed because the outage and its message storm depend
        // on where the crash lands: over 20 seeds, drawing the point
        // between a quarter and a half of the run spread msgs/commit over
        // 81–226, the fixed point over 99–122.
        let at = n / 3;
        let delivered = AtomicUsize::new(0);
        let victim = scenario.primary();
        scenario
            .schedule_fault(
                NemesisWhen::on_trace(move |ev| {
                    matches!(ev.kind, TraceKind::Deliver { .. })
                        && delivered.fetch_add(1, Ordering::Relaxed) + 1 == at
                }),
                FaultOp::CrashFor { node: victim, down_for },
            )
            .expect("both hosts support fault injection");
    }
    let chunked = chunked && on_this_thread;
    let mut quarters = Vec::new();
    let timer = HostTimer::start(on_this_thread);
    let outcome = if chunked {
        let mut outcome = RunOutcome::Predicate;
        let (mut last_t, mut last_ev) = (0.0, 0);
        for q in 1..=4 {
            outcome = scenario.run_until_settled(n * q / 4);
            let t = timer.elapsed_s();
            let ev = scenario.sim().processed();
            quarters.push((t - last_t, ev - last_ev));
            (last_t, last_ev) = (t, ev);
            if outcome != RunOutcome::Predicate {
                break;
            }
        }
        outcome
    } else {
        scenario.run_until_settled(n)
    };
    let host_run_s = timer.elapsed_s();
    Ran { scenario, outcome, setup_s, host_run_s, quarters }
}

/// Every client's request plan, keyed by request id — the inputs the
/// scenario was built from, regenerated through the public workload API.
pub fn plans(shape: &Shape, scenario: &Scenario) -> BTreeMap<RequestId, Request> {
    let mut out = BTreeMap::new();
    for &client in &scenario.topo.clients {
        for r in shape.workload.plan(&scenario.topo, client, shape.requests) {
            out.insert(r.id, r);
        }
    }
    out
}

/// The correctness gate of one run.
pub struct Gate {
    /// Requests delivered exactly once, as commits.
    pub good: u64,
    /// Everything that went wrong, empty on a correct run.
    pub violations: Vec<String>,
}

/// Quiesces the run, then checks it. Stops the scenario (on the threaded
/// host this joins every node thread).
pub fn gate(shape: &Shape, ran: &mut Ran) -> Gate {
    let settled = ran.outcome == RunOutcome::Predicate;
    let s = &mut ran.scenario;
    let mut violations = Vec::new();
    if !settled {
        violations.push(format!("run ended with {:?} before every request settled", ran.outcome));
    }
    s.quiesce(Dur::from_millis(50));
    let report =
        check(s.trace().events(), &s.topo.clients, LivenessChecks { t1: settled, t2: settled });
    violations.extend(report.violations.iter().take(5).cloned());

    // Exactly-once delivery, as a commit.
    let mut delivered: HashMap<RequestId, (u32, bool)> = HashMap::new();
    for e in s.trace().events() {
        if let TraceKind::Deliver { rid, outcome, .. } = e.kind {
            let d = delivered.entry(rid.request).or_insert((0, true));
            d.0 += 1;
            d.1 &= outcome == Outcome::Commit;
        }
    }
    let good = delivered.values().filter(|&&(n, commit)| n == 1 && commit).count() as u64;
    let twice = delivered.values().filter(|&&(n, _)| n > 1).count();
    if twice > 0 {
        violations.push(format!("{twice} requests delivered more than once"));
    }
    if good < s.requests && settled {
        violations.push(format!(
            "{} of {} requests not delivered as one commit",
            s.requests - good,
            s.requests
        ));
    }

    // Balances: seed + the deltas of every delivered commit, per account,
    // read from the shard primaries' durable logs. Only meaningful once
    // every request settled — a wedged run holds undelivered commits.
    if settled {
        let plans = plans(shape, s);
        let mut expected: BTreeMap<String, i64> = shape.workload.seed_data().into_iter().collect();
        for req in delivered.keys() {
            let Some(r) = plans.get(req) else {
                violations.push(format!("delivered request {req:?} was never issued"));
                continue;
            };
            for op in r.script.keyed_ops.iter() {
                if let DbOp::Add { key, delta } = op {
                    *expected.entry(key.clone()).or_insert(0) += delta;
                }
            }
        }
        let mut actual = BTreeMap::new();
        for shard in 0..s.shard_map.shard_count() {
            let primary = s.shard_map.primary(ShardId(shard));
            actual.extend(s.rebuilt_committed(primary));
        }
        let wrong = expected.iter().filter(|(k, v)| actual.get(*k) != Some(v)).count();
        if wrong > 0 || actual.len() != expected.len() {
            violations.push(format!(
                "{wrong} of {} account balances differ from seed + delivered commits",
                expected.len()
            ));
        }
    }
    s.stop();
    Gate { good, violations }
}

/// Peak resident set of this process in MB (Linux `VmHWM`; 0 elsewhere).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The run's most-sent message labels — what a wedged run was busy with.
fn top_labels(s: &Scenario, k: usize) -> String {
    let mut labels: Vec<(&str, u64)> = s.stats().by_label().collect();
    labels.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    labels.iter().take(k).map(|(l, c)| format!("{l}:{c}")).collect::<Vec<_>>().join(" ")
}

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut trace) = (None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("etx-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(shape) = shape(&args.workload) else {
        eprintln!("etx-perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    // The benchmark pins every knob itself; stray CI-matrix variables must
    // not change what it measures.
    for var in [
        "ETX_RUNTIME",
        "ETX_BATCH_SIZE",
        "ETX_READ_PATH",
        "ETX_READ_LEASES",
        "ETX_SPECULATION",
        "ETX_PIPELINE_DEPTH",
    ] {
        std::env::remove_var(var);
    }
    let issued = shape.clients as u64 * shape.requests;
    println!("{}", Obj::new().int("start", issued).finish());

    let mut ran = execute(&shape, args.seed, false);
    let e2e = reduce::EndToEnd::of(&ran);
    let labels = top_labels(&ran.scenario, 4);
    let mut verdict = gate(&shape, &mut ran);
    let mut out = Obj::new()
        .str("workload", shape.name)
        .int("seed", args.seed)
        .str("outcome", &format!("{:?}", ran.outcome))
        .int("issued", issued)
        .int("good", verdict.good)
        .str("top_labels", &labels)
        .num("setup_s", ran.setup_s)
        .num("host_run_s", ran.host_run_s)
        .num("peak_rss_mb", peak_rss_mb());
    out = e2e.write(out, &ran);

    if args.trace {
        // The same seed again, chunked into quarters and reduced: on the
        // simulator the same run event for event, so the extra host time
        // is the cost of the traced pass.
        let mut traced = execute(&shape, args.seed, true);
        let timer = HostTimer::start(true);
        let layer = reduce::Layers::of(&traced);
        let reduce_s = timer.elapsed_s();
        let micro = layers::micro(&shape, &traced.scenario);
        let traced_gate = gate(&shape, &mut traced);
        verdict.violations.extend(traced_gate.violations);
        let overhead = traced.host_run_s + reduce_s - ran.host_run_s;
        out = layer.write(out.num("trace.overhead_s", overhead).num("trace.reduce_s", reduce_s));
        out = micro.write(out);
    }
    let out = out.bool("ok", verdict.violations.is_empty()).strs("violations", &verdict.violations);
    println!("{}", out.finish());
}
