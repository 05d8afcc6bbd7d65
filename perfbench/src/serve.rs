//! The serving workloads: open-loop Poisson load and closed-loop load
//! over real TCP against a `WireServer`, a correctness oracle owned by
//! the benchmark, and per-layer costs timed on the workload's own
//! frames, keys and sensor sites.
//!
//! Load comes from one process: two generator threads, each owning one
//! `WireClient` connection (a lane). At the fixed rate each lane runs
//! its own Poisson schedule at half the offered rate; a request is
//! timed from the moment it was due, so a stalled request delays the
//! ones behind it and that wait is counted (no coordinated omission).
//! In the closed loop each lane sends its next request as soon as the
//! previous one is answered, which gives the most the two lanes can
//! get served per second.
//!
//! The end-to-end blocks are paired: each lane also holds a connection
//! to the loopback baseline (`echo.rs`) and the lanes alternate between
//! the server and the baseline in short slots, the baseline replaying
//! the server slot's schedule. Every metric is a ratio of a server slot
//! to its neighbouring baseline slot, so the host's drift cancels.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use runtime::{
    reference_array, ClientError, ClientOutcome, MapOutcome, RetryPolicy, WireClient,
    WireClientConfig, WireServer, WireServerConfig, WireServerStats,
};
use tsense_core::units::Celsius;
use wire::{Decoder, FleetMsg, HashRing, WireOutcome};

use crate::echo;
use crate::measure::{
    median, per_call_ns, precise_sleeps, proc_status_kb, reset_peak_rss, wait_until, CpuTimes, Rng,
    Samples, Span, Tracer,
};
use crate::Outcome;

/// Shard groups, replicas per group, and sensor sites per group of the
/// served fleet (3 × 6 = 18 live sites in every map response).
const SHARDS: usize = 3;
const REPLICATION: usize = 2;
const SITES: usize = 6;
/// Ambient temperature of the served field, °C.
const AMBIENT_C: f64 = 60.0;
/// Ring virtual nodes per group, as the server builds its ring.
const VNODES: usize = 8;
/// The runtime's staleness bound (its default configuration).
const STALENESS_BOUND_MS: u64 = 600;
/// Accepted distance between a fresh reading and the served field, °C:
/// the reference ring's calibrated conversion error stays well inside.
const TOLERANCE_C: f64 = 1.0;
/// Generator lanes (threads, each with one connection).
const LANES: usize = 2;
/// Offered rate of the fixed-rate blocks, ops/s: well below the knee,
/// where two closed-loop lanes complete about 130k ops/s.
const FIXED_RATE: f64 = 10_000.0;
/// The generator's own lateness (send time past the later of the due
/// time and the lane's previous answer) allowed at p90 before a run
/// reports that it measured the generator instead of the program.
const GEN_LATE_P90_NS: u64 = 500_000;
/// Rounds of the end-to-end run, each on a fresh server: a paired block
/// at the fixed rate, then a paired closed-loop block.
const ROUNDS: u64 = 6;
/// Slot lengths of the paired blocks: long enough for ~1000 ops at the
/// fixed rate, short enough that the host barely drifts between a
/// server slot and its baseline slot.
const FIXED_SLOT_NS: u64 = 100_000_000;
const CLOSED_SLOT_NS: u64 = 50_000_000;
/// Bare start → first answer → drain cycles timed for `setup_s`, on top
/// of one per loaded server.
const SETUP_CYCLES: usize = 9;
/// Slices of the traced run's fixed-rate phases; a phase's figure is the
/// median over its slices.
const FIXED_WINDOWS: u64 = 4;
/// Ops per second of server time a closed-loop lane is given, above what
/// two lanes get served; a lane that runs out idles for the rest of its
/// slot, and the run reports it.
const CLOSED_PLAN_RATE: f64 = 300_000.0;
/// Zipf key traffic of `serve-mixed`, as in YCSB's core workloads
/// (Cooper et al., SoCC 2010): 1000 records read with Zipf constant
/// 0.99. The records are the keys `0..1000` for every seed — the seed
/// draws which record each op reads, not which records exist — so the
/// hot group and its share of the reads (printed with each run) do not
/// change from seed to seed.
const ZIPF_KEYS: usize = 1000;
const ZIPF_S: f64 = 0.99;
/// The fault drill of the `serve-read` traced run: its rate, and the
/// groups it crash-recovers and whose primary it kills.
const DRILL_RATE: f64 = 5_000.0;
const CRASH_GROUP: usize = 1;
const KILL_GROUP: usize = 2;

/// The traffic mix of one serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Fresh reads, uniform keys, no faults.
    Read,
    /// 70 % fresh Zipf reads, 20 % replays, 10 % map reads.
    Mixed,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read {
        key: u64,
    },
    /// Re-send of the lane's earlier op `of` with its `(req_id, key)`.
    Replay {
        key: u64,
        of: usize,
    },
    Map,
}

#[derive(Debug, Clone, Copy)]
struct Planned {
    due_ns: u64,
    req_id: u64,
    op: Op,
}

enum Answer {
    Read(Result<ClientOutcome, ClientError>),
    Map(Result<MapOutcome, ClientError>),
    /// Never sent: the closed-loop slots ended first (or, until its
    /// lane reaches it, not sent yet).
    Unsent,
}

struct Done {
    send_ns: u64,
    recv_ns: u64,
    answer: Answer,
}

/// Keys of one workload: uniform over `u64`, or Zipf-ranked over the
/// records `0..ZIPF_KEYS` (key `r` has rank `r + 1`) so one group runs
/// hot.
struct Keys {
    /// Cumulative Zipf probability by rank.
    zipf: Option<Vec<f64>>,
}

impl Keys {
    fn new(mix: Mix) -> Self {
        if mix != Mix::Mixed {
            return Keys { zipf: None };
        }
        let weights: Vec<f64> = (1..=ZIPF_KEYS)
            .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Keys { zipf: Some(cdf) }
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        match &self.zipf {
            None => rng.next_u64(),
            Some(cdf) => {
                let u = rng.next_f64();
                cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64
            }
        }
    }

    /// Each group's expected share of the fresh reads, for Zipf keys.
    fn group_shares(&self) -> Option<[f64; SHARDS]> {
        let cdf = self.zipf.as_ref()?;
        let ring = HashRing::new(SHARDS, VNODES);
        let mut shares = [0.0; SHARDS];
        let mut below = 0.0;
        for (key, &c) in cdf.iter().enumerate() {
            shares[ring.route(key as u64, |_| true).unwrap_or(0)] += c - below;
            below = c;
        }
        Some(shares)
    }
}

/// One lane's Poisson schedule over `dur_ns` at `rate` ops/s.
fn plan_lane(
    mix: Mix,
    keys: &Keys,
    rate: f64,
    dur_ns: u64,
    rng: &mut Rng,
    id_base: u64,
) -> Vec<Planned> {
    let mean_gap_ns = 1e9 / rate;
    let mut out: Vec<Planned> = Vec::new();
    let mut reads: Vec<usize> = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exp(mean_gap_ns);
        if t >= dur_ns as f64 {
            return out;
        }
        let fresh_id = id_base + out.len() as u64;
        let u = rng.next_f64();
        let (req_id, op) = if mix == Mix::Mixed && u < 0.10 {
            (fresh_id, Op::Map)
        } else if mix == Mix::Mixed && u < 0.30 && !reads.is_empty() {
            let of = reads[(rng.next_u64() % reads.len() as u64) as usize];
            let Op::Read { key } = out[of].op else {
                unreachable!("reads only lists reads")
            };
            (out[of].req_id, Op::Replay { key, of })
        } else {
            reads.push(out.len());
            (
                fresh_id,
                Op::Read {
                    key: keys.sample(rng),
                },
            )
        };
        out.push(Planned {
            due_ns: t as u64,
            req_id,
            op,
        });
    }
}

fn client(addr: SocketAddr, seed: u64) -> WireClient {
    WireClient::new(WireClientConfig {
        addrs: vec![addr],
        retry: RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 2,
            max_delay_ms: 40,
            multiplier: 2.0,
            jitter: 0.5,
        },
        seed,
        ..WireClientConfig::default()
    })
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// Sends one planned op at `send_ns` after `t0` and awaits its answer.
fn send(client: &mut WireClient, p: &Planned, send_ns: u64, t0: Instant) -> Done {
    let answer = match p.op {
        Op::Read { key } | Op::Replay { key, .. } => Answer::Read(client.request(p.req_id, key)),
        Op::Map => Answer::Map(client.request_map(p.req_id)),
    };
    Done {
        send_ns,
        recv_ns: ns_between(t0, Instant::now()),
        answer,
    }
}

/// Drives one lane: wait for each op's due time, send, await the
/// answer, and record it in the op's slot of `done` (allocated before
/// the load starts, so the benchmark's own records do not grow the
/// process while the server is measured).
fn run_lane(
    addr: SocketAddr,
    plan: &[Planned],
    done: &mut [Done],
    t0: Instant,
    seed: u64,
    trace_origin_ns: Option<u64>,
) -> Vec<Span> {
    precise_sleeps();
    let mut client = client(addr, seed);
    let mut spans = Vec::with_capacity(if trace_origin_ns.is_some() {
        2 * plan.len()
    } else {
        0
    });
    for (p, slot) in plan.iter().zip(done) {
        let d = send(&mut client, p, wait_until(t0, p.due_ns), t0);
        let (send_ns, recv_ns) = (d.send_ns, d.recv_ns);
        *slot = d;
        if let Some(origin) = trace_origin_ns {
            let name = match p.op {
                Op::Map => "request_map",
                _ => "request",
            };
            spans.push(Span {
                layer: "bench::gen",
                name: "lag",
                parent: "op",
                trace: p.req_id,
                start_ns: origin + p.due_ns,
                end_ns: origin + send_ns,
                count: 1,
            });
            spans.push(Span {
                layer: "runtime::client",
                name,
                parent: "op",
                trace: p.req_id,
                start_ns: origin + send_ns,
                end_ns: origin + recv_ns,
                count: 1,
            });
        }
    }
    spans
}

/// Drives one lane of a paired block. Server slot `k` spans
/// `[2k·slot, 2k·slot + slot)` after `t0`, and baseline slot `k` the
/// slot after it.
///
/// At the fixed rate the plan's due times already sit in the server
/// slots: the lane sends a slot's ops, then replays each on the baseline
/// at its due time plus one slot and records the answer time in
/// `baseline[i]`. In the closed loop the lane sends plan ops back to
/// back through server slot `k`, then baseline round trips through
/// baseline slot `k`, and records how many it completed in
/// `baseline[k]`.
#[allow(clippy::too_many_arguments)]
fn run_paired_lane(
    addr: SocketAddr,
    plan: &[Planned],
    done: &mut [Done],
    mut base: TcpStream,
    baseline: &mut [u64],
    t0: Instant,
    slot_ns: u64,
    closed: bool,
    seed: u64,
) -> Result<(), String> {
    precise_sleeps();
    let mut client = client(addr, seed);
    let io = |e: std::io::Error| format!("baseline round trip failed: {e}");
    if closed {
        let mut next = 0;
        for (k, count) in baseline.iter_mut().enumerate() {
            let start = 2 * k as u64 * slot_ns;
            wait_until(t0, start);
            loop {
                let now = ns_between(t0, Instant::now());
                if now >= start + slot_ns || next == plan.len() {
                    break;
                }
                done[next] = send(&mut client, &plan[next], now, t0);
                next += 1;
            }
            wait_until(t0, start + slot_ns);
            while ns_between(t0, Instant::now()) < start + 2 * slot_ns {
                echo::round_trip(&mut base).map_err(io)?;
                *count += 1;
            }
        }
        return Ok(());
    }
    let mut i = 0;
    while i < plan.len() {
        let pair = plan[i].due_ns / (2 * slot_ns);
        let j = i + plan[i..]
            .iter()
            .take_while(|p| p.due_ns / (2 * slot_ns) == pair)
            .count();
        for (p, d) in plan[i..j].iter().zip(&mut done[i..j]) {
            *d = send(&mut client, p, wait_until(t0, p.due_ns), t0);
        }
        for (p, recv) in plan[i..j].iter().zip(&mut baseline[i..j]) {
            wait_until(t0, p.due_ns + slot_ns);
            echo::round_trip(&mut base).map_err(io)?;
            *recv = ns_between(t0, Instant::now());
        }
        i = j;
    }
    Ok(())
}

/// What a server lifetime is loaded for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Load {
    /// Open-loop at a fixed rate: every op is sent however late.
    Fixed { traced: bool },
    /// Slots alternating between the server and the loopback baseline
    /// (see [`run_paired_lane`]): open-loop at a fixed rate, or closed
    /// loop, where ops left at the end of the last slot stay unsent.
    Paired { closed: bool },
    /// Checkpoints on, one `crash_shard` (snapshot recovery and rejoin
    /// repair) and one `kill_primary` (promotion and epoch fencing).
    Drill,
}

impl Load {
    /// Slot length of a paired block; 0 otherwise.
    fn slot_ns(self) -> u64 {
        match self {
            Load::Paired { closed: true } => CLOSED_SLOT_NS,
            Load::Paired { closed: false } => FIXED_SLOT_NS,
            _ => 0,
        }
    }
}

/// Everything one server lifetime under load produced.
struct Phase {
    load: Load,
    dur_ns: u64,
    plans: Vec<Vec<Planned>>,
    done: Vec<Vec<Done>>,
    /// Each lane's baseline records of a paired block (see
    /// [`run_paired_lane`]), and the slot length; empty and 0 otherwise.
    baseline: Vec<Vec<u64>>,
    slot_ns: u64,
    /// `WireServer::start` → first answered request.
    setup_ns: u64,
    start_ns: u64,
    drain_ns: u64,
    crash_ns: u64,
    kill_ns: u64,
    delta: WireServerStats,
    /// Resident memory the process gained while the load ran, and its
    /// high-water mark over the load (see [`Ctx::phase`]).
    rss_grew_kb: u64,
    peak_kb: u64,
    /// Share of the machine's CPU time stolen by other guests while the
    /// load ran (noted with the run: a high share means the run measured
    /// its neighbours as well).
    steal: f64,
    errors: Vec<String>,
}

impl Phase {
    /// One crash_shard and one kill_primary ran mid-phase.
    fn faulted(&self) -> bool {
        self.load == Load::Drill
    }

    fn sent(&self) -> impl Iterator<Item = (&Planned, &Done)> {
        self.plans
            .iter()
            .zip(&self.done)
            .flat_map(|(p, d)| p.iter().zip(d))
            .filter(|(_, d)| !matches!(d.answer, Answer::Unsent))
    }

    /// The median over `windows` equal slices of the schedule (by due
    /// time) of each slice's `q`-quantile of latency from due, in ns: a
    /// burst of interference from other tenants moves one slice, not the
    /// result.
    fn windowed_ns(&self, windows: u64, q: f64) -> u64 {
        let mut slices = vec![Samples::default(); windows as usize];
        for (p, d) in self.sent() {
            let w = (p.due_ns * windows / self.dur_ns.max(1)).min(windows - 1);
            slices[w as usize].push(d.recv_ns.saturating_sub(p.due_ns));
        }
        let q: Vec<f64> = slices.iter_mut().map(|s| s.quantile_ns(q) as f64).collect();
        median(&q) as u64
    }

    /// Pairs of a paired block.
    fn pairs(&self) -> usize {
        (self.dur_ns / (2 * self.slot_ns.max(1))) as usize
    }

    /// Latency from due of every op of a paired fixed-rate block, per
    /// pair: `(server slot, baseline slot)`.
    fn pair_latencies(&self) -> Vec<(Samples, Samples)> {
        let pair_ns = 2 * self.slot_ns;
        let mut pairs = vec![(Samples::default(), Samples::default()); self.pairs()];
        for (plan, (done, base)) in self.plans.iter().zip(self.done.iter().zip(&self.baseline)) {
            for (p, (d, &recv)) in plan.iter().zip(done.iter().zip(base)) {
                let (server, baseline) = &mut pairs[(p.due_ns / pair_ns) as usize];
                server.push(d.recv_ns.saturating_sub(p.due_ns));
                baseline.push(recv.saturating_sub(p.due_ns + self.slot_ns));
            }
        }
        pairs
    }

    /// Round trips completed in each pair of a paired closed-loop block:
    /// `(server slot, baseline slot)`, over both lanes.
    fn pair_counts(&self) -> Vec<(u64, u64)> {
        let mut pairs = vec![(0, 0); self.pairs()];
        for done in &self.done {
            for d in done.iter().filter(|d| !matches!(d.answer, Answer::Unsent)) {
                pairs[(d.send_ns / (2 * self.slot_ns)) as usize].0 += 1;
            }
        }
        for base in &self.baseline {
            for (pair, &n) in pairs.iter_mut().zip(base) {
                pair.1 += n;
            }
        }
        pairs
    }

    /// Latency from due time of every sent op.
    fn latencies(&self) -> Samples {
        let mut s = Samples::default();
        for (p, d) in self.sent() {
            s.push(d.recv_ns.saturating_sub(p.due_ns));
        }
        s
    }
}

fn stats_delta(a: &WireServerStats, b: &WireServerStats) -> WireServerStats {
    WireServerStats {
        connections: b.connections - a.connections,
        frames_in: b.frames_in - a.frames_in,
        responses: b.responses - a.responses,
        bad_frames: b.bad_frames - a.bad_frames,
        shed: b.shed - a.shed,
        deduped: b.deduped - a.deduped,
        failovers: b.failovers - a.failovers,
        idle_closed: b.idle_closed - a.idle_closed,
        stalled_closed: b.stalled_closed - a.stalled_closed,
        write_timeout_closed: b.write_timeout_closed - a.write_timeout_closed,
        crashes: b.crashes - a.crashes,
        resurrected: b.resurrected - a.resurrected,
        duplicate_effects: b.duplicate_effects - a.duplicate_effects,
        protocol_errors: b.protocol_errors - a.protocol_errors,
        replicated: b.replicated - a.replicated,
        fenced_writes: b.fenced_writes - a.fenced_writes,
        promotions: b.promotions - a.promotions,
        rejoin_repairs: b.rejoin_repairs - a.rejoin_repairs,
    }
}

/// Request ids of the set-up probe; load ids stay far below.
const PROBE_ID: u64 = u64::MAX - 1;

struct Ctx<'a> {
    mix: Mix,
    seed: u64,
    keys: Keys,
    tmp: PathBuf,
    tracer: &'a mut Tracer,
}

impl Ctx<'_> {
    fn server_config(&self, snapshot_root: Option<PathBuf>) -> WireServerConfig {
        WireServerConfig {
            shards: SHARDS,
            replication: REPLICATION,
            ack_quorum: REPLICATION - 1,
            sites_per_shard: SITES,
            ambient_c: AMBIENT_C,
            snapshot_root,
            seed: self.seed,
            ..WireServerConfig::default()
        }
    }

    /// Starts a server and returns it with its start span and the time
    /// from `start` to the first answered request.
    fn start(&mut self, snapshot_root: Option<PathBuf>) -> Result<(WireServer, u64, u64), String> {
        let cfg = self.server_config(snapshot_root);
        let t = Instant::now();
        let (server, start_ns) = self.tracer.time("runtime::serve", "start", 1, || {
            WireServer::start(cfg, None)
        });
        let server = server.map_err(|e| format!("server start failed: {e}"))?;
        let mut probe = client(server.addr(), self.seed);
        match probe.request(PROBE_ID, 0) {
            Ok(ClientOutcome {
                outcome: WireOutcome::Reading { .. },
                ..
            }) => {}
            other => {
                return Err(format!(
                    "first request after start was not answered: {other:?}"
                ))
            }
        }
        let setup_ns = ns_between(t, Instant::now());
        if self.mix == Mix::Mixed {
            // Map reads list only groups whose background scan has run;
            // load starts once every group serves its sites.
            let deadline = Instant::now() + Duration::from_secs(2);
            let mut id = PROBE_ID - 1;
            loop {
                let full = probe
                    .request_map(id)
                    .map(|m| m.entries.len() == SHARDS * SITES)
                    .unwrap_or(false);
                if full {
                    break;
                }
                if Instant::now() > deadline {
                    return Err("thermal map never listed every site".into());
                }
                id -= 1;
                thread::sleep(Duration::from_millis(5));
            }
        }
        Ok((server, start_ns, setup_ns))
    }

    fn drain(&mut self, server: WireServer) -> Result<(u64, WireServerStats), String> {
        let (report, drain_ns) = self
            .tracer
            .time("runtime::serve", "drain", 1, || server.drain());
        let report = report.map_err(|e| format!("drain failed: {e}"))?;
        Ok((drain_ns, report.stats))
    }

    /// Each lane's schedule of a block, drawn from the seed and `stream`
    /// alone. A paired block's schedule covers its server slots: at the
    /// fixed rate, a Poisson schedule over the server time laid into the
    /// server slots; in the closed loop, ops all due at once, and `rate`
    /// is ignored.
    fn plans(&self, rate: f64, dur_ns: u64, load: Load, stream: u64) -> Vec<Vec<Planned>> {
        let (rate, plan_ns) = match load {
            Load::Paired { closed: true } => (CLOSED_PLAN_RATE, dur_ns / 2),
            Load::Paired { closed: false } => (rate, dur_ns / 2),
            _ => (rate, dur_ns),
        };
        let slot = load.slot_ns();
        let mut rng = Rng::new(self.seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        (0..LANES)
            .map(|lane| {
                let mut plan = plan_lane(
                    self.mix,
                    &self.keys,
                    rate / LANES as f64,
                    plan_ns,
                    &mut rng,
                    (lane as u64) << 32,
                );
                for p in &mut plan {
                    p.due_ns = match load {
                        Load::Paired { closed: true } => 0,
                        Load::Paired { closed: false } => {
                            p.due_ns / slot * 2 * slot + p.due_ns % slot
                        }
                        _ => p.due_ns,
                    };
                }
                plan
            })
            .collect()
    }

    /// Runs one server lifetime under `load` for `dur_ns` (for a paired
    /// block, a whole number of pairs of slots), at `rate` ops/s unless
    /// the load is closed-loop. The schedule is drawn from the seed and
    /// `stream` alone.
    ///
    /// The benchmark's own per-op records are allocated and touched
    /// before the load starts: `rss_grew_kb` is then the server's
    /// growth, and `peak_kb` — the high-water mark, reset just before
    /// the load where Linux allows it — counts those records as a fixed
    /// amount set by the schedule, not as growth.
    fn phase(&mut self, rate: f64, dur_ns: u64, load: Load, stream: u64) -> Result<Phase, String> {
        let traced = load == Load::Fixed { traced: true };
        let closed = load == Load::Paired { closed: true };
        let slot_ns = load.slot_ns();
        let snapshot_root = (load == Load::Drill).then(|| self.tmp.join("drill"));
        let (server, start_ns, setup_ns) = self.start(snapshot_root.clone())?;
        let before = server.stats();

        let plans = self.plans(rate, dur_ns, load, stream);
        let mut done: Vec<Vec<Done>> = plans
            .iter()
            .map(|plan| {
                plan.iter()
                    .map(|_| Done {
                        send_ns: 0,
                        recv_ns: 0,
                        answer: Answer::Unsent,
                    })
                    .collect()
            })
            .collect();
        let mut links = if slot_ns > 0 {
            echo::connect(LANES)?
        } else {
            Vec::new()
        }
        .into_iter();
        let mut baseline: Vec<Vec<u64>> = plans
            .iter()
            .map(|plan| match load {
                Load::Paired { closed: false } => vec![0; plan.len()],
                Load::Paired { closed: true } => vec![0; (dur_ns / (2 * slot_ns)) as usize],
                _ => Vec::new(),
            })
            .collect();
        let rss_before = proc_status_kb("VmRSS:");
        reset_peak_rss();
        let addr = server.addr();
        let cpu_before = CpuTimes::now();
        let t0 = Instant::now() + Duration::from_millis(5);
        let trace_origin = traced.then(|| self.tracer.ns_since_origin(t0));
        let seed = self.seed;
        let tracer = &mut *self.tracer;
        let mut errors = Vec::new();
        let (mut crash_ns, mut kill_ns) = (0, 0);
        let lanes: Vec<Result<Vec<Span>, String>> = thread::scope(|s| {
            let handles: Vec<_> = plans
                .iter()
                .zip(done.iter_mut().zip(baseline.iter_mut()))
                .enumerate()
                .map(|(lane, (plan, (done, base)))| {
                    let lane_seed = seed ^ (lane as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    match links.next() {
                        Some((end, peer)) => {
                            // The peer returns once the lane drops `end`.
                            s.spawn(move || echo::answer(peer));
                            s.spawn(move || {
                                run_paired_lane(
                                    addr, plan, done, end, base, t0, slot_ns, closed, lane_seed,
                                )
                                .map(|()| Vec::new())
                            })
                        }
                        None => s.spawn(move || {
                            Ok(run_lane(addr, plan, done, t0, lane_seed, trace_origin))
                        }),
                    }
                })
                .collect();
            if load == Load::Drill {
                sleep_until(t0 + Duration::from_nanos(dur_ns * 35 / 100));
                let (r, ns) = tracer.time("runtime::snapshot", "crash_shard", 1, || {
                    server.crash_shard(CRASH_GROUP)
                });
                crash_ns = ns;
                if let Err(e) = r {
                    errors.push(format!("crash_shard({CRASH_GROUP}) failed: {e}"));
                }
                sleep_until(t0 + Duration::from_nanos(dur_ns * 65 / 100));
                let (r, ns) = tracer.time("runtime::serve", "kill_primary", 1, || {
                    server.kill_primary(KILL_GROUP)
                });
                kill_ns = ns;
                if let Err(e) = r {
                    errors.push(format!("kill_primary({KILL_GROUP}) failed: {e}"));
                }
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("generator lane panicked"))
                .collect()
        });
        let steal = CpuTimes::now().steal_since(&cpu_before);
        let after = server.stats();
        let rss_after = proc_status_kb("VmRSS:");
        let peak_kb = proc_status_kb("VmHWM:");
        let (drain_ns, _) = self.drain(server)?;
        if let Some(dir) = snapshot_root {
            let _ = std::fs::remove_dir_all(dir);
        }
        for lane in lanes {
            match lane {
                Ok(spans) => self.tracer.extend(spans),
                Err(e) => errors.push(e),
            }
        }
        Ok(Phase {
            load,
            dur_ns,
            plans,
            done,
            baseline,
            slot_ns,
            setup_ns,
            start_ns,
            drain_ns,
            crash_ns,
            kill_ns,
            delta: stats_delta(&before, &after),
            rss_grew_kb: rss_after.saturating_sub(rss_before),
            peak_kb,
            steal,
            errors,
        })
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        thread::sleep(at - now);
    }
}

/// The field the server serves, at site `site` of any group: the
/// server's `ambient + 2e3·x + 1e3·y` over `reference_array` positions.
fn served_field() -> Vec<f64> {
    reference_array(SITES)
        .sites()
        .iter()
        .map(|s| AMBIENT_C + 2.0e3 * s.x_m + 1.0e3 * s.y_m)
        .collect()
}

/// What the oracle counted over the phases it checked.
#[derive(Default)]
struct Verdict {
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
    useful: u64,
    attempts: u64,
}

impl Verdict {
    fn absorb(&mut self, other: Verdict) {
        for msg in other.violations {
            self.violate(msg);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.useful += other.useful;
        self.attempts += other.attempts;
    }

    fn violate(&mut self, msg: String) {
        if self.violations.len() < 20 {
            self.violations.push(msg);
        } else if self.violations.len() == 20 {
            self.violations.push("… further violations elided".into());
        }
    }
}

/// The outcome bytes a replay must reproduce: the answer encoded with
/// the forwarding stamp zeroed (a replay is forwarded later).
fn answer_bytes(req_id: u64, out: &ClientOutcome) -> Vec<u8> {
    wire::encode_frame(
        &FleetMsg::ClientResp {
            req_id,
            outcome: out.outcome.clone(),
            origin_shard: out.origin_shard,
            forwarded_at_ms: 0,
            total_age_ms: out.total_age_ms,
        },
        wire::DEFAULT_FRAME_BUDGET,
    )
    .expect("a client response always fits the default budget")
}

/// Grades one phase: the benchmark's own oracle over every answer and
/// the server's counter deltas.
fn check_phase(phase: &Phase, field: &[f64]) -> Verdict {
    let mut verdict = Verdict::default();
    let v = &mut verdict;
    for e in &phase.errors {
        v.violate(e.clone());
    }
    let (lo, hi) = field
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &x| {
            (a.min(x), b.max(x))
        });
    let mut fresh_ids = HashSet::new();
    let mut replays = 0u64;
    let mut retried = 0u64;
    for (plan, done) in phase.plans.iter().zip(&phase.done) {
        for (p, d) in plan.iter().zip(done) {
            if !matches!(p.op, Op::Replay { .. }) && !fresh_ids.insert(p.req_id) {
                v.violate(format!("req_id {} issued twice", p.req_id));
            }
            match (&p.op, &d.answer) {
                // Only a closed-loop block may leave ops unsent.
                (_, Answer::Unsent) if phase.load == Load::Paired { closed: true } => {}
                (_, Answer::Unsent) => v.violate(format!("req {} was never sent", p.req_id)),
                (Op::Read { key } | Op::Replay { key, .. }, Answer::Read(r)) => {
                    v.attempted += 1;
                    let out = match r {
                        Ok(out) => out,
                        Err(_) => {
                            v.failed += 1;
                            continue;
                        }
                    };
                    v.attempts += u64::from(out.attempts);
                    retried += u64::from(out.attempts.saturating_sub(1));
                    match &out.outcome {
                        WireOutcome::Reading {
                            value_c,
                            fresh,
                            age_ms,
                        } => {
                            v.useful += 1;
                            let want = field[(*key % SITES as u64) as usize];
                            if *fresh && (*age_ms != 0 || (value_c - want).abs() > TOLERANCE_C) {
                                v.violate(format!(
                                    "req {}: fresh reading {value_c:.3} °C age {age_ms} ms, \
                                     field {want:.3} °C",
                                    p.req_id
                                ));
                            }
                            if !fresh && (*age_ms > STALENESS_BOUND_MS || !phase.faulted()) {
                                v.violate(format!(
                                    "req {}: degraded reading (age {age_ms} ms) with no fault",
                                    p.req_id
                                ));
                            }
                        }
                        WireOutcome::Failed { .. } | WireOutcome::Shed { .. } => v.failed += 1,
                    }
                    if let Op::Replay { of, .. } = p.op {
                        replays += 1;
                        let first = match &done[of].answer {
                            Answer::Read(Ok(first)) => answer_bytes(p.req_id, first),
                            _ => Vec::new(),
                        };
                        if first != answer_bytes(p.req_id, out) {
                            v.violate(format!(
                                "replay of req {} differs from its first answer",
                                p.req_id
                            ));
                        }
                    }
                }
                (Op::Map, Answer::Map(r)) => {
                    v.attempted += 1;
                    let Ok(m) = r else {
                        v.failed += 1;
                        continue;
                    };
                    v.attempts += u64::from(m.attempts);
                    v.useful += 1;
                    let mut seen = [[false; SITES]; SHARDS];
                    let mut ok = m.entries.len() == SHARDS * SITES;
                    for e in &m.entries {
                        let (g, s) = (e.shard as usize, e.site as usize);
                        ok &= g < SHARDS && s < SITES && !std::mem::replace(&mut seen[g][s], true);
                        ok &= e.age_ms <= STALENESS_BOUND_MS;
                        ok &= e.value_c >= lo - TOLERANCE_C && e.value_c <= hi + TOLERANCE_C;
                    }
                    if !ok {
                        v.violate(format!(
                            "map {}: {} entries, want each of the {} sites once, fresh and in range",
                            p.req_id,
                            m.entries.len(),
                            SHARDS * SITES
                        ));
                    }
                }
                _ => v.violate(format!("req {}: answer of the wrong kind", p.req_id)),
            }
        }
    }
    let d = &phase.delta;
    if d.deduped < replays || d.deduped > replays + retried {
        v.violate(format!(
            "serve.deduped {} but {replays} replays sent",
            d.deduped
        ));
    }
    if d.duplicate_effects != 0 || d.resurrected != 0 || d.bad_frames != 0 || d.protocol_errors != 0
    {
        v.violate(format!(
            "server counted {} duplicate effects, {} resurrected caches, {} bad frames, {} protocol errors",
            d.duplicate_effects, d.resurrected, d.bad_frames, d.protocol_errors
        ));
    }
    if phase.faulted() {
        if d.crashes != 1 || d.promotions != 1 || d.rejoin_repairs == 0 {
            v.violate(format!(
                "failover phase saw {} crashes, {} promotions, {} rejoin repairs",
                d.crashes, d.promotions, d.rejoin_repairs
            ));
        }
    } else if d.failovers != 0 || d.shed != 0 {
        v.violate(format!(
            "fault-free run saw {} failovers and {} sheds",
            d.failovers, d.shed
        ));
    }
    verdict
}

/// Adds to `s` the generator's own lateness per op: send time past the
/// later of the due time and the lane's previous answer.
fn generator_lateness(phase: &Phase, s: &mut Samples) {
    for (plan, done) in phase.plans.iter().zip(&phase.done) {
        let mut prev_recv = 0;
        for (p, d) in plan.iter().zip(done) {
            s.push(d.send_ns.saturating_sub(p.due_ns.max(prev_recv)));
            prev_recv = d.recv_ns;
        }
    }
}

/// Per-op cost of the layers the benchmark can time outside the
/// server, measured on the workload's own frames, keys and sites.
struct LayerCosts {
    encode_ns: [f64; 3],
    decode_ns: [f64; 3],
    bytes_per_op: f64,
    route_ns: f64,
    measure_ns: f64,
    /// Codec, placement and conversion cost of the workload's average op.
    per_op_ns: f64,
}

const KINDS: [&str; 3] = ["req", "resp", "map"];

fn layer_costs(phase: &Phase, field: &[f64], budget_ns: u64, tracer: &mut Tracer) -> LayerCosts {
    let mut frames: [Vec<FleetMsg>; 3] = Default::default();
    let mut keys = Vec::new();
    let mut channels = Vec::new();
    let (mut bytes, mut ops) = (0usize, 0usize);
    let (mut reads, mut replays, mut maps) = (0usize, 0usize, 0usize);
    for (p, d) in phase.sent() {
        let (req, resp) = match (&p.op, &d.answer) {
            (Op::Read { key } | Op::Replay { key, .. }, Answer::Read(Ok(out))) => {
                keys.push(*key);
                if matches!(p.op, Op::Read { .. }) {
                    channels.push((*key % SITES as u64) as usize);
                    reads += 1;
                } else {
                    replays += 1;
                }
                (
                    FleetMsg::ClientReq {
                        req_id: p.req_id,
                        key: *key,
                    },
                    FleetMsg::ClientResp {
                        req_id: p.req_id,
                        outcome: out.outcome.clone(),
                        origin_shard: out.origin_shard,
                        forwarded_at_ms: out.forwarded_at_ms,
                        total_age_ms: out.total_age_ms,
                    },
                )
            }
            (Op::Map, Answer::Map(Ok(m))) => {
                maps += 1;
                (
                    FleetMsg::MapReq { req_id: p.req_id },
                    FleetMsg::MapResp {
                        req_id: p.req_id,
                        forwarded_at_ms: m.forwarded_at_ms,
                        entries: m.entries.clone(),
                    },
                )
            }
            _ => continue,
        };
        let enc =
            |m: &FleetMsg| wire::encode_frame(m, wire::DEFAULT_FRAME_BUDGET).map_or(0, |b| b.len());
        bytes += enc(&req) + enc(&resp);
        ops += 1;
        let resp_kind = if matches!(resp, FleetMsg::MapResp { .. }) {
            2
        } else {
            1
        };
        if frames[0].len() < 4096 {
            frames[0].push(req);
        }
        if frames[resp_kind].len() < 4096 {
            frames[resp_kind].push(resp);
        }
    }
    let slice = budget_ns / 8;
    let mut encode_ns = [0.0; 3];
    let mut decode_ns = [0.0; 3];
    for k in 0..3 {
        let msgs = &frames[k];
        if msgs.is_empty() {
            continue;
        }
        let n = msgs.len();
        let (ns, _) = tracer.time("wire::frame", "encode", 0, || {
            per_call_ns(slice, n.min(512), |i| {
                std::hint::black_box(
                    wire::encode_frame(&msgs[i % n], wire::DEFAULT_FRAME_BUDGET).ok(),
                );
            })
        });
        encode_ns[k] = ns;
        let encoded: Vec<Vec<u8>> = msgs
            .iter()
            .filter_map(|m| wire::encode_frame(m, wire::DEFAULT_FRAME_BUDGET).ok())
            .collect();
        let mut dec = Decoder::new(wire::DEFAULT_FRAME_BUDGET);
        let (ns, _) = tracer.time("wire::frame", "decode", 0, || {
            per_call_ns(slice, n.min(512), |i| {
                dec.feed(&encoded[i % n]);
                std::hint::black_box(dec.next_frame().ok());
            })
        });
        decode_ns[k] = ns;
    }
    let ring = HashRing::new(SHARDS, VNODES);
    let route_ns = if keys.is_empty() {
        0.0
    } else {
        let n = keys.len();
        let (ns, _) = tracer.time("wire::ring", "route", 0, || {
            per_call_ns(slice, n.min(1024), |i| {
                std::hint::black_box(ring.route(keys[i % n], |_| true));
            })
        });
        ns
    };
    let measure_ns = if channels.is_empty() {
        0.0
    } else {
        let mut array = reference_array(SITES);
        let n = channels.len();
        let (ns, _) = tracer.time("sensor::unit", "measure", 0, || {
            per_call_ns(slice, n.min(256), |i| {
                let ch = channels[i % n];
                let m = array.sites_mut()[ch].unit.measure(Celsius::new(field[ch]));
                std::hint::black_box(m.ok());
            })
        });
        ns
    };
    let codec = |k: usize| encode_ns[k] + decode_ns[k];
    let total = reads as f64 * (codec(0) + codec(1) + route_ns + measure_ns)
        + replays as f64 * (codec(0) + codec(1) + route_ns)
        + maps as f64 * (codec(0) + codec(2));
    LayerCosts {
        encode_ns,
        decode_ns,
        bytes_per_op: bytes as f64 / ops.max(1) as f64,
        route_ns,
        measure_ns,
        per_op_ns: total / ops.max(1) as f64,
    }
}

/// Runs one serving workload for `seconds` and reports its metrics.
pub fn run(
    mix: Mix,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    tmp: PathBuf,
    out: &mut Outcome,
) -> Result<(), String> {
    let traced = tracer.on;
    let total_ns = (seconds * 1e9) as u64;
    let field = served_field();
    let mut ctx = Ctx {
        mix,
        seed,
        keys: Keys::new(mix),
        tmp,
        tracer,
    };
    let mut v = Verdict::default();
    if traced {
        per_layer(&mut ctx, total_ns, &field, &mut v, out)?;
    } else {
        end_to_end(&mut ctx, total_ns, &field, &mut v, out)?;
    }
    out.violations.extend(v.violations);
    out.attempted += v.attempted;
    out.failed += v.failed;
    Ok(())
}

/// Notes each group's share of the phase's fresh reads, next to the
/// expected share for Zipf keys: how hot the hot group ran.
fn note_group_shares(ctx: &Ctx, phase: &Phase, out: &mut Outcome) {
    let ring = HashRing::new(SHARDS, VNODES);
    let mut reads = [0u64; SHARDS];
    for (p, _) in phase.sent() {
        if let Op::Read { key } = p.op {
            reads[ring.route(key, |_| true).unwrap_or(0)] += 1;
        }
    }
    let total = reads.iter().sum::<u64>().max(1) as f64;
    let measured: Vec<f64> = reads.iter().map(|&n| n as f64 / total).collect();
    let expected = match ctx.keys.group_shares() {
        Some(e) => format!("{e:.3?}"),
        None => "uniform".into(),
    };
    out.note(format!(
        "group shares of {} fresh reads: measured {measured:.3?}, expected {expected}",
        total as u64
    ));
}

/// The end-to-end run: set-up time, then `ROUNDS` rounds, each on a
/// fresh server: a paired block at the fixed rate, then a paired
/// closed-loop block. Each pair of slots gives one ratio of the server
/// to the loopback baseline (see `echo.rs`); the run reports the median
/// ratio over all pairs, so a burst of interference moves a few pairs
/// and not the result.
fn end_to_end(
    ctx: &mut Ctx,
    total_ns: u64,
    field: &[f64],
    v: &mut Verdict,
    out: &mut Outcome,
) -> Result<(), String> {
    // Set-up time: bare start → first answer → drain cycles plus one
    // per loaded server below.
    let mut setups = Vec::new();
    for _ in 0..SETUP_CYCLES {
        let (server, _, setup_ns) = ctx.start(None)?;
        setups.push(setup_ns as f64 * 1e-9);
        ctx.drain(server)?;
    }
    let round_ns = total_ns * 90 / 100 / ROUNDS;
    let fixed_pairs = (round_ns * 65 / 100 / (2 * FIXED_SLOT_NS)).max(1);
    let closed_pairs = (round_ns * 30 / 100 / (2 * CLOSED_SLOT_NS)).max(1);
    let (mut p50s, mut p90s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut late = Samples::default();
    let mut peak_rss_mb = 0.0;
    for round in 0..ROUNDS {
        let fixed = ctx.phase(
            FIXED_RATE,
            2 * fixed_pairs * FIXED_SLOT_NS,
            Load::Paired { closed: false },
            2 * round + 1,
        )?;
        v.absorb(check_phase(&fixed, field));
        generator_lateness(&fixed, &mut late);
        if round == 0 {
            note_group_shares(ctx, &fixed, out);
            // Later rounds start on a heap the closed loop has grown.
            peak_rss_mb = fixed.peak_kb as f64 / 1024.0;
        }
        setups.push(fixed.setup_ns as f64 * 1e-9);
        let (mut server, mut base) = (Samples::default(), Samples::default());
        for (mut s, mut b) in fixed.pair_latencies() {
            p50s.push(s.quantile_ns(0.5) as f64 / b.quantile_ns(0.5).max(1) as f64);
            p90s.push(s.quantile_ns(0.9) as f64 / b.quantile_ns(0.9).max(1) as f64);
            server.absorb(s);
            base.absorb(b);
        }
        out.note(format!(
            "round {round} fixed {FIXED_RATE:.0}/s, {fixed_pairs} pairs: {} ops, \
             p50 {:.1} us p90 {:.1} us, loopback p50 {:.1} us p90 {:.1} us, \
             {:.1} % of CPU time stolen",
            server.len(),
            server.quantile_us(0.5),
            server.quantile_us(0.9),
            base.quantile_us(0.5),
            base.quantile_us(0.9),
            100.0 * fixed.steal
        ));
        drop(fixed);

        let closed = ctx.phase(
            0.0,
            2 * closed_pairs * CLOSED_SLOT_NS,
            Load::Paired { closed: true },
            2 * round + 2,
        )?;
        v.absorb(check_phase(&closed, field));
        setups.push(closed.setup_ns as f64 * 1e-9);
        if closed
            .done
            .iter()
            .any(|d| !matches!(d.last().map(|d| &d.answer), Some(Answer::Unsent)))
        {
            v.violate("a closed-loop lane ran out of planned ops".into());
        }
        let counts = closed.pair_counts();
        for &(s, b) in &counts {
            rates.push(s as f64 / b.max(1) as f64);
        }
        let (served, base): (u64, u64) =
            counts.iter().fold((0, 0), |(s, b), &(x, y)| (s + x, b + y));
        let slot_s = closed_pairs as f64 * CLOSED_SLOT_NS as f64 * 1e-9;
        out.note(format!(
            "round {round} closed loop, {closed_pairs} pairs: {:.0}/s, loopback {:.0}/s, \
             {:.1} % of CPU time stolen",
            served as f64 / slot_s,
            base as f64 / slot_s,
            100.0 * closed.steal
        ));
    }
    let late_p90 = late.quantile_ns(0.90);
    out.note(format!(
        "generator lateness p90 {:.1} us over {} ops",
        late_p90 as f64 / 1e3,
        late.len()
    ));
    if late_p90 > GEN_LATE_P90_NS {
        v.violate(format!(
            "generator fell behind its schedule: own lateness p90 {:.1} us",
            late_p90 as f64 / 1e3
        ));
    }
    out.note(format!(
        "ratios over {} fixed-rate and {} closed-loop pairs; set-up over {} servers",
        p50s.len(),
        rates.len(),
        setups.len()
    ));
    out.metric("setup_s", median(&setups), "s");
    out.metric("p50_vs_loopback", median(&p50s), "x");
    out.metric("p90_vs_loopback", median(&p90s), "x");
    out.metric("throughput_vs_loopback", median(&rates), "x");
    out.metric(
        "ok_ratio",
        v.useful as f64 / v.attempted.max(1) as f64,
        "ratio",
    );
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
    Ok(())
}

/// The traced run: an untraced then a traced phase at the fixed rate
/// (their difference is the tracing overhead), layer costs on the traced
/// phase's own frames, keys and sites, and the fault drill.
fn per_layer(
    ctx: &mut Ctx,
    total_ns: u64,
    field: &[f64],
    v: &mut Verdict,
    out: &mut Outcome,
) -> Result<(), String> {
    let rate = FIXED_RATE;
    // Untraced then traced at the same rate: the difference of their
    // end-to-end numbers is the tracing overhead.
    let phase_ns = total_ns * 35 / 100;
    ctx.tracer.on = false;
    let plain = ctx.phase(FIXED_RATE, phase_ns, Load::Fixed { traced: false }, 1)?;
    v.absorb(check_phase(&plain, field));
    ctx.tracer.on = true;
    let traced_phase = ctx.phase(FIXED_RATE, phase_ns, Load::Fixed { traced: true }, 1)?;
    let tv = check_phase(&traced_phase, field);
    let attempts = tv.attempts;
    v.absorb(tv);
    let costs = layer_costs(&traced_phase, field, total_ns * 10 / 100, ctx.tracer);
    // `serve-read` also runs the fault drill, so the snapshot and
    // failover paths have spans and counters.
    let drill = match ctx.mix {
        Mix::Read => {
            let drill = ctx.phase(DRILL_RATE, total_ns * 10 / 100, Load::Drill, 0)?;
            v.absorb(check_phase(&drill, field));
            Some(drill)
        }
        Mix::Mixed => None,
    };
    let (crash_ns, kill_ns, faults) = drill
        .map(|d| (d.crash_ns, d.kill_ns, d.delta))
        .unwrap_or_default();
    let p = &traced_phase;
    let mut lat = p.latencies();
    let mut plain_lat = plain.latencies();
    let mut request = Samples::default();
    let mut lag = Samples::default();
    for (pl, d) in p.sent() {
        request.push(d.recv_ns - d.send_ns);
        lag.push(d.send_ns.saturating_sub(pl.due_ns));
    }
    let (tail_pct, tail_us) = lat.tail_us();
    let ops = lat.len().max(1) as f64;
    let fresh_writes = p
        .sent()
        .filter(|(pl, _)| matches!(pl.op, Op::Read { .. }))
        .count()
        .max(1) as f64;
    for (k, kind) in KINDS.iter().enumerate() {
        out.metric(&format!("wire.encode_ns.{kind}"), costs.encode_ns[k], "ns");
        out.metric(&format!("wire.decode_ns.{kind}"), costs.decode_ns[k], "ns");
    }
    out.metric("wire.bytes_per_op", costs.bytes_per_op, "B");
    out.metric("ring.route_ns", costs.route_ns, "ns");
    out.metric("sensor.measure_us", costs.measure_ns / 1e3, "us");
    out.metric("client.request_us.p50", request.quantile_us(0.5), "us");
    out.metric("client.request_us.p99", request.quantile_us(0.99), "us");
    out.metric("gen.lag_us.p50", lag.quantile_us(0.5), "us");
    out.metric("gen.lag_us.p99", lag.quantile_us(0.99), "us");
    out.metric(
        "serve.residual_us",
        request.quantile_us(0.5) - costs.per_op_ns / 1e3,
        "us",
    );
    out.metric("serve.samples", lat.len() as f64, "count");
    out.metric("serve.p99_us", lat.quantile_us(0.99), "us");
    out.metric("serve.tail_us", tail_us, "us");
    out.metric("serve.tail_pct", tail_pct, "%");
    out.metric("serve.start_ms", p.start_ns as f64 / 1e6, "ms");
    out.metric("serve.drain_ms", p.drain_ns as f64 / 1e6, "ms");
    out.metric("serve.crash_shard_ms", crash_ns as f64 / 1e6, "ms");
    out.metric("serve.kill_primary_ms", kill_ns as f64 / 1e6, "ms");
    let d = &p.delta;
    for (name, value) in [
        ("serve.frames_in", d.frames_in),
        ("serve.responses", d.responses),
        ("serve.shed", d.shed),
        ("serve.deduped", d.deduped),
        ("serve.replicated", d.replicated),
        ("serve.failovers", d.failovers),
        (
            "serve.fenced_writes",
            d.fenced_writes + faults.fenced_writes,
        ),
        ("serve.promotions", d.promotions + faults.promotions),
        (
            "serve.rejoin_repairs",
            d.rejoin_repairs + faults.rejoin_repairs,
        ),
        ("serve.connections", d.connections),
        ("serve.bad_frames", d.bad_frames),
    ] {
        out.metric(name, value as f64, "count");
    }
    out.metric("client.attempts_per_op", attempts as f64 / ops, "ratio");
    out.metric(
        "serve.replicated_per_write",
        d.replicated as f64 / fresh_writes,
        "ratio",
    );
    // Growth per op on the untraced phase: the traced one also keeps
    // two spans per op.
    out.metric(
        "mem.bytes_per_op",
        plain.rss_grew_kb as f64 * 1024.0 / plain.sent().count().max(1) as f64,
        "B",
    );
    // The same statistic the end-to-end p50_us and p90_us report.
    for (name, q) in [
        ("trace.overhead_p50_us", 0.5),
        ("trace.overhead_p90_us", 0.9),
    ] {
        let traced_ns = p.windowed_ns(FIXED_WINDOWS, q) as f64;
        let plain_ns = plain.windowed_ns(FIXED_WINDOWS, q) as f64;
        out.metric(name, (traced_ns - plain_ns) / 1e3, "us");
    }
    out.note(format!(
        "traced {} ops at {rate:.0}/s: from-due p50 {:.1} us p90 {:.1} us (n={}); untraced p50 {:.1} us p90 {:.1} us (n={})",
        lat.len(),
        lat.quantile_us(0.5),
        lat.quantile_us(0.9),
        lat.len(),
        plain_lat.quantile_us(0.5),
        plain_lat.quantile_us(0.9),
        plain_lat.len()
    ));
    Ok(())
}
