//! Measurement primitives owned by the benchmark: a seeded generator,
//! raw-sample percentiles at nanosecond resolution, in-memory spans,
//! and process memory readings.

use std::fmt::Write as _;
use std::thread;
use std::time::{Duration, Instant};

/// SplitMix64 — every input the benchmark generates comes from here,
/// seeded by `--seed`, so one seed always gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed gap with the given mean: Poisson
    /// arrivals.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() * mean
    }
}

/// Raw samples in nanoseconds. Percentiles are nearest-rank over the
/// sorted samples, so every reported percentile is a measured value.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn absorb(&mut self, other: Samples) {
        self.ns.extend(other.ns);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&mut self, q: f64) -> u64 {
        self.sort();
        if self.ns.is_empty() {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.ns.len() as f64).ceil() as usize;
        self.ns[rank.clamp(1, self.ns.len()) - 1]
    }

    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) as f64 / 1e3
    }

    /// The highest percentile with at least ten samples beyond it, as
    /// `(percent, value in µs)`; `(0, 0)` with ten samples or fewer.
    pub fn tail_us(&mut self) -> (f64, f64) {
        self.sort();
        let n = self.ns.len();
        if n <= 10 {
            return (0.0, 0.0);
        }
        let idx = n - 11;
        (
            100.0 * (idx + 1) as f64 / n as f64,
            self.ns[idx] as f64 / 1e3,
        )
    }
}

/// Median of a non-empty list of floats (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// One timed interval at a layer boundary. Spans of one request share
/// `trace` (its `req_id`); `parent` names the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: &'static str,
    pub trace: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covers (batched micro-measurements time
    /// many calls in one span).
    pub count: u64,
}

/// Keeps spans in memory while tracing is on; written out at the end.
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the run's origin.
    pub fn ns_since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn extend(&mut self, spans: Vec<Span>) {
        if self.on {
            self.spans.extend(spans);
        }
    }

    /// Runs `f`, returning its result and duration; records a span
    /// when tracing is on.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let dur = end.duration_since(start).as_nanos() as u64;
        if self.on {
            let span = Span {
                layer,
                name,
                parent: "",
                trace: 0,
                start_ns: self.ns_since_origin(start),
                end_ns: self.ns_since_origin(end),
                count,
            };
            self.spans.push(span);
        }
        (out, dur)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path, stamp: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120);
        let _ = writeln!(out, "{{\"stamp\": {stamp}}}");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"layer\":\"{}\",\"name\":\"{}\",\"parent\":\"{}\",\"trace\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.layer, s.name, s.parent, s.trace, s.start_ns, s.end_ns, s.count
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), 0 where the
/// platform does not provide it.
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Resets this process's resident-memory high-water mark (`VmHWM`) to
/// its current resident size, through its own `/proc/self/clear_refs`
/// (Linux 4.0 and later); where that is unavailable the mark keeps
/// counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Times `f` over batches of `batch` calls until `budget_ns` is spent
/// (at least three batches) and returns the median per-call cost in
/// nanoseconds.
pub fn per_call_ns(budget_ns: u64, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut per_call = Vec::new();
    let mut i = 0usize;
    while per_call.len() < 3 || (start.elapsed().as_nanos() as u64) < budget_ns {
        let t = Instant::now();
        for _ in 0..batch {
            f(i);
            i = i.wrapping_add(1);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_call)
}

/// Cumulative CPU time of the whole machine from `/proc/stat`: steal
/// (time the hypervisor gave to other guests) and the total.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// Zeros where the platform does not provide `/proc/stat`.
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|v| v.parse().ok())
            .collect();
        CpuTimes {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of CPU time stolen since `earlier`.
    pub fn steal_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Shrinks the calling thread's timer slack from Linux's default 50 µs
/// to 1 ns, so a lane wakes when its next op is due rather than up to
/// 50 µs later — otherwise the generator's own wake-up is most of the
/// latency measured at the fixed rate.
#[cfg(target_os = "linux")]
pub fn precise_sleeps() {
    use std::os::raw::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument, reads and
    // writes no memory of ours, and changes only this thread's slack.
    // A failure leaves the default slack, which the run reports as
    // generator lag.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
}

#[cfg(not(target_os = "linux"))]
pub fn precise_sleeps() {}

/// Sleeps until `due_ns` after `t0` and returns the time it woke, in
/// nanoseconds after `t0`.
pub fn wait_until(t0: Instant, due_ns: u64) -> u64 {
    let due = t0 + Duration::from_nanos(due_ns);
    let mut now = Instant::now();
    if now < due {
        thread::sleep(due - now);
        now = Instant::now();
    }
    now.saturating_duration_since(t0).as_nanos() as u64
}
