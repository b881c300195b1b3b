//! Clocks, process counters and registry reads shared by every workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use transmark::obs::{registry, Snapshot};

/// How one closed-loop op ended.
pub enum OpError {
    /// The server turned the request away (quota or saturation).
    Refused(String),
    /// The op ran but its answer differs from the set-up reference, or
    /// the call failed.
    Failed(String),
}

impl OpError {
    pub fn message(&self) -> &str {
        match self {
            OpError::Refused(m) | OpError::Failed(m) => m,
        }
    }
}

/// Length of one slice of a closed-loop phase. A quarter of a second
/// keeps the host reference taken at its ends close to what the slice
/// ran on.
pub const SLICE: Duration = Duration::from_millis(250);

/// Totals of one closed-loop phase, with the running totals at the start
/// and end of every slice.
#[derive(Default)]
pub struct LoopStats {
    pub attempted: u64,
    pub failed: u64,
    pub refused: u64,
    pub positions: u64,
    /// Wall and CPU time of the slices, without what ran between them.
    pub wall: Duration,
    pub cpu: Duration,
    /// Per-op latency in nanoseconds (saturating at 4.3 s), successful
    /// ops only. `peak_rss_mb` leaves this record out (see
    /// [`LoopStats::record_mib`]).
    pub latencies_ns: Vec<u32>,
    slices: Vec<(Mark, Mark)>,
    /// The [`HostReference`] time at every slice boundary, in seconds:
    /// one before the first slice and one after each.
    refs: Vec<f64>,
    pub first_error: Option<String>,
}

/// The phase's running totals at one op boundary.
#[derive(Clone, Copy, Default)]
struct Mark {
    attempted: u64,
    successes: usize,
    positions: u64,
    wall: Duration,
    cpu: Duration,
}

/// The ops of the faster half of a phase's slices, pooled, with every
/// time scaled to the nominal host speed (see [`HostReference`]).
pub struct FasterHalf {
    pub ops: u64,
    pub positions: u64,
    pub wall: Duration,
    pub cpu: Duration,
    /// Latencies of the successful ops, ascending.
    pub latencies_ns: Vec<u32>,
}

fn rate((a, b): &(Mark, Mark)) -> f64 {
    (b.attempted - a.attempted) as f64 / (b.wall - a.wall).as_secs_f64()
}

/// A slice with the factor that scales its times to the nominal host
/// speed.
struct Scaled<'a> {
    slice: &'a (Mark, Mark),
    scale: f64,
}

impl LoopStats {
    pub fn record(&mut self, started: Instant, outcome: Result<u64, OpError>) {
        let ns = u32::try_from(started.elapsed().as_nanos()).unwrap_or(u32::MAX);
        self.attempted += 1;
        match outcome {
            Ok(positions) => {
                self.positions += positions;
                self.latencies_ns.push(ns);
            }
            Err(e) => {
                self.failed += 1;
                if matches!(e, OpError::Refused(_)) {
                    self.refused += 1;
                }
                if self.first_error.is_none() {
                    self.first_error = Some(e.message().to_string());
                }
            }
        }
    }

    fn mark(&self, wall: Duration, cpu: Duration) -> Mark {
        Mark {
            attempted: self.attempted,
            successes: self.latencies_ns.len(),
            positions: self.positions,
            wall,
            cpu,
        }
    }

    /// Op rate of every slice, in order.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices.iter().map(rate).collect()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.wall.as_secs_f64()
    }

    pub fn mean_latency_us(&self) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let total: u64 = self.latencies_ns.iter().map(|&ns| u64::from(ns)).sum();
        total as f64 / self.latencies_ns.len() as f64 / 1e3
    }

    /// Pools the slices with the highest op rates: half of them rounded
    /// up, and more, fastest first, until they hold `min_successes`
    /// successful ops (or every slice is in). A final slice shorter than
    /// half a slice is left out. Then each pooled slice's wall time, CPU
    /// time and latencies are scaled by [`HostReference::scale`] of the
    /// mean of the reference times just before and just after it.
    ///
    /// On a shared host other tenants' load only ever adds time. What
    /// comes and goes within a run, such as time the CPU is taken away,
    /// the faster half leaves out. What slows this CPU's own work for
    /// minutes at a time (another tenant on the same core's caches) slows
    /// the reference pass too, and the scaling takes it out. The slices
    /// are chosen by their measured rates, not their scaled ones, so the
    /// choice does not favour slices whose reference happened to read
    /// slow. A change to the program does not touch the reference pass
    /// and slows or speeds every slice, so it moves these figures in
    /// full.
    pub fn faster_half(&self, min_successes: usize) -> FasterHalf {
        let mut slices: Vec<Scaled> = self
            .slices
            .iter()
            .zip(self.refs.windows(2))
            .filter(|((a, b), _)| b.wall - a.wall >= SLICE / 2)
            .map(|(slice, r)| Scaled {
                slice,
                scale: HostReference::scale((r[0] + r[1]) / 2.0),
            })
            .collect();
        slices.sort_by(|x, y| rate(y.slice).total_cmp(&rate(x.slice)));
        let mut take = slices.len().div_ceil(2);
        let successes = |s: &[Scaled]| -> usize {
            s.iter()
                .map(|x| x.slice.1.successes - x.slice.0.successes)
                .sum()
        };
        while take < slices.len() && successes(&slices[..take]) < min_successes {
            take += 1;
        }
        slices.truncate(take);
        let mut half = FasterHalf {
            ops: 0,
            positions: 0,
            wall: Duration::ZERO,
            cpu: Duration::ZERO,
            latencies_ns: Vec::new(),
        };
        for Scaled {
            slice: (a, b),
            scale,
        } in slices
        {
            half.ops += b.attempted - a.attempted;
            half.positions += b.positions - a.positions;
            half.wall += (b.wall - a.wall).mul_f64(scale);
            half.cpu += b.cpu.saturating_sub(a.cpu).mul_f64(scale);
            half.latencies_ns.extend(
                self.latencies_ns[a.successes..b.successes]
                    .iter()
                    .map(|&ns| (f64::from(ns) * scale).min(f64::from(u32::MAX)) as u32),
            );
        }
        half.latencies_ns.sort_unstable();
        half
    }

    /// The reference times of the phase, in seconds, in order.
    pub fn refs(&self) -> &[f64] {
        &self.refs
    }

    /// Resident size of the latency record in MiB: the bytes its ops
    /// were written to. The record is the benchmark's own and grows with
    /// the number of ops a run makes, so left in, `peak_rss_mb` would
    /// move with the host's speed (0.4 MiB of `serve_unary`'s 9 MiB
    /// between a slow run and a fast one).
    pub fn record_mib(&self) -> f64 {
        (self.latencies_ns.len() * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }
}

/// The benchmark's own fixed piece of work, timed at every slice
/// boundary to read how fast the host runs its CPUs at the time.
///
/// Other tenants on a shared host slow the CPUs the benchmark runs on for
/// seconds to minutes at a time: a second of `serve_stream` then runs 1.4
/// times slower, and so does this pass. The pass streams a 256 KiB
/// working set through the cache, as the program's kernels and buffers
/// do, and is timed in its thread's own CPU time, so it reads the speed
/// of the CPU while it runs, not time the CPU was taken away. It is timed
/// on every CPU the workload's threads may use, from a thread pinned to
/// each in turn, and the mean is taken: one CPU for the served
/// workloads, every CPU for `batch_fleet`. It is the benchmark's code,
/// so a change to the program leaves it as it is.
pub struct HostReference {
    /// The working sets, used in turn.
    buffers: Vec<(Vec<f64>, Vec<f64>)>,
    next: usize,
    cpus: Vec<usize>,
}

/// Working sets the reference takes turns with. Where in the cache a
/// buffer's pages land moves its time by up to about 5 %, for the whole
/// life of the process; taking turns averages that out.
const REFERENCE_BUFFERS: usize = 4;

/// Passes over the working set in one timed reference.
const REFERENCE_PASSES: usize = 192;

/// The reference time, in seconds, at which the end-to-end times are
/// reported: about what the pass takes on a quiet host of the 2-vCPU
/// Xeon VM the benchmark was tuned on. Only ratios to it matter; on
/// another machine the figures are in that machine's own units.
pub const REFERENCE_NOMINAL_S: f64 = 0.9e-3;

impl HostReference {
    /// A reference timed on every CPU the calling thread may use.
    pub fn new() -> Result<HostReference, String> {
        // Two 128 KiB vectors each: a working set that streams from the
        // 2 MiB L2, not from the 48 KiB L1.
        Ok(HostReference {
            buffers: (0..REFERENCE_BUFFERS)
                .map(|_| (vec![1.0; 1 << 14], vec![0.0; 1 << 14]))
                .collect(),
            next: 0,
            cpus: allowed_cpus()?,
        })
    }

    /// Times the reference on each CPU; returns the mean CPU time of one
    /// timing, in seconds.
    pub fn measure(&mut self) -> Result<f64, String> {
        let (x, y) = &mut self.buffers[self.next];
        self.next = (self.next + 1) % REFERENCE_BUFFERS;
        let mut total = 0.0;
        for &cpu in &self.cpus {
            total += std::thread::scope(|s| {
                s.spawn(|| pin_thread(cpu).map(|()| time_passes(x, y)))
                    .join()
                    .expect("the reference pass does not panic")
            })?;
        }
        Ok(total / self.cpus.len() as f64)
    }

    /// The factor that scales a time taken while the reference read
    /// `reference_s` to the nominal host speed.
    pub fn scale(reference_s: f64) -> f64 {
        REFERENCE_NOMINAL_S / reference_s
    }
}

/// One untimed pass brings the working set back into the cache; the
/// passes after it are timed in the thread's CPU time, in seconds.
fn time_passes(x: &[f64], y: &mut [f64]) -> f64 {
    pass(x, y);
    let t0 = thread_cpu();
    for _ in 0..REFERENCE_PASSES {
        pass(x, y);
    }
    (thread_cpu() - t0).as_secs_f64()
}

fn pass(x: &[f64], y: &mut [f64]) {
    // y converges to 2x: no overflow and no subnormals, ever.
    for (y, &x) in y.iter_mut().zip(x) {
        *y = *y * 0.5 + x;
    }
    std::hint::black_box(y);
}

/// More ops a second than any workload makes.
const MAX_OPS_PER_S: f64 = 100_000.0;

/// Runs `op` back to back (closed loop: the next op starts only after the
/// previous one returned) for `seconds`, numbering ops from `*next`. At
/// the first op boundary after every [`SLICE`] it closes the slice,
/// times `reference`, runs `between` with that time outside any slice,
/// and opens the next one. `reference` is also timed before the first
/// slice.
pub fn closed_loop<W>(
    seconds: f64,
    next: &mut u64,
    w: &mut W,
    reference: &mut HostReference,
    mut op: impl FnMut(&mut W, u64) -> Result<u64, OpError>,
    mut between: impl FnMut(&mut W, f64) -> Result<(), String>,
) -> Result<LoopStats, String> {
    let mut stats = LoopStats::default();
    // Room for every op up front: growing the record would copy it, and
    // the old copy's pages would stay in the peak. Pages not written to
    // stay out of the resident set.
    stats
        .latencies_ns
        .reserve((seconds * MAX_OPS_PER_S) as usize);
    stats.refs.push(reference.measure()?);
    let cpu0 = process_cpu();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut open = stats.mark(Duration::ZERO, Duration::ZERO);
    loop {
        let t0 = Instant::now();
        let elapsed = t0 - start;
        if elapsed >= open.wall + SLICE || elapsed >= budget {
            let close = stats.mark(elapsed, process_cpu().saturating_sub(cpu0));
            stats.wall += close.wall - open.wall;
            stats.cpu += close.cpu.saturating_sub(open.cpu);
            stats.slices.push((open, close));
            let r = reference.measure()?;
            stats.refs.push(r);
            if elapsed >= budget {
                break;
            }
            between(w, r)?;
            open = stats.mark(start.elapsed(), process_cpu().saturating_sub(cpu0));
            continue;
        }
        let outcome = op(w, *next);
        *next += 1;
        stats.record(t0, outcome);
    }
    Ok(stats)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the faster half of a sample of set-up times, each scaled to
/// the nominal host speed by the reference time taken just before it, in
/// seconds: the set-up time on the same terms as the loop's faster half
/// of slices.
pub fn faster_half_median(samples: &[(Duration, f64)]) -> f64 {
    let mut s: Vec<f64> = samples
        .iter()
        .map(|&(d, r)| d.as_secs_f64() * HostReference::scale(r))
        .collect();
    s.sort_by(f64::total_cmp);
    s.truncate(s.len().div_ceil(2));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may use, ascending, from
/// `Cpus_allowed_list` (for example `0-1,4`); never empty.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let status = std::fs::read_to_string("/proc/thread-self/status")
        .map_err(|e| format!("/proc/thread-self/status: {e}"))?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in the thread's status")?;
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let bad = || format!("bad Cpus_allowed_list entry {part:?}");
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let lo: usize = lo.parse().map_err(|_| bad())?;
        let hi: usize = hi.parse().map_err(|_| bad())?;
        cpus.extend(lo..=hi);
    }
    if cpus.is_empty() {
        return Err("Cpus_allowed_list is empty".into());
    }
    Ok(cpus)
}

/// Confines the calling thread, and every thread it starts afterwards,
/// to `cpu`.
pub fn pin_thread(cpu: usize) -> Result<(), String> {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return Err(format!("CPU {cpu} is beyond the affinity mask"));
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread, and `mask` is a live,
    // initialised buffer of exactly `size_of_val(&mask)` bytes that the
    // kernel only reads.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(())
}

/// Linux's clock ids for the CPU time of the whole process and of the
/// calling thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec (two 64-bit fields on
    // the 64-bit Linux targets this runs on) that the call only writes.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User plus system CPU time of the whole process (every thread, live or
/// exited), to the nanosecond.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, to the nanosecond.
fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// size, so a later [`peak_rss_mb`] leaves out what came and went before.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// A snapshot of the obs registry, to be diffed after a phase.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Sum of a histogram in a registry diff (0 when it recorded nothing).
pub fn hist_sum(d: &Snapshot, name: &str) -> u64 {
    d.histogram(name).map_or(0, |h| h.sum)
}

/// Count of a histogram in a registry diff.
pub fn hist_count(d: &Snapshot, name: &str) -> u64 {
    d.histogram(name).map_or(0, |h| h.count)
}

/// Registry counters that count work, not time.
const COUNTERS: [&str; 8] = [
    "kernel.advance.layers",
    "dataplane.bytes",
    "store.plan_cache.hits",
    "store.plan_cache.misses",
    "planner.strategy.dense",
    "planner.strategy.sparse",
    "planner.strategy.scan",
    "store.fleet.tasks",
];

/// The deterministic work counts of a fixed op sequence: identical on
/// every run at one seed, on any machine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExactCounts {
    pub ops: u64,
    pub values: BTreeMap<&'static str, u64>,
}

impl ExactCounts {
    /// Reads the registry-diff counts of one count pass of `ops` ops.
    pub fn from_diff(ops: u64, d: &Snapshot) -> ExactCounts {
        let mut values: BTreeMap<&'static str, u64> =
            COUNTERS.iter().map(|&c| (c, d.counter(c))).collect();
        values.insert("kernel.csr.entries", hist_sum(d, "kernel.csr.entries"));
        values.insert("kernel.csr.builds", hist_count(d, "kernel.csr.entries"));
        values.insert(
            "store.fleet.worker_runs",
            hist_count(d, "store.fleet.tasks_per_worker"),
        );
        ExactCounts { ops, values }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    pub fn per_op(&self, name: &str) -> f64 {
        self.get(name) as f64 / self.ops as f64
    }

    /// Share of `num` in `num + rest` (0 when both are 0).
    pub fn share(&self, num: &str, rest: &[&str]) -> f64 {
        let n = self.get(num);
        let total = n + rest.iter().map(|r| self.get(r)).sum::<u64>();
        if total == 0 {
            0.0
        } else {
            n as f64 / total as f64
        }
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = std::iter::once(format!("\"ops\":{}", self.ops))
            .chain(self.values.iter().map(|(k, v)| format!("\"{k}\":{v}")))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}
