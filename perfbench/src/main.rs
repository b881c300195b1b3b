//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <serve_unary|serve_stream|batch_fleet> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates its inputs and their reference answers from the
//! seed, sets the program up five times, runs a count pass, drives the
//! workload closed loop for the given seconds, and runs the count pass
//! again: the two passes' exact work counts must agree. With `--trace 0`
//! the last line of standard output is a JSON object with the end-to-end
//! metrics, taken over the faster half of the loop's quarter-second
//! slices with every time scaled to the nominal host speed by the
//! benchmark's own host reference (the program is set up afresh between
//! slices once a second, and `setup_s` is the median of the faster half
//! of all set-ups); with `--trace 1` the time is split between an
//! untraced and a traced phase and the object holds the per-layer
//! metrics instead. See `perfbench/README.md`.

mod fleet;
mod measure;
mod proxy;
mod queries;
mod served;
mod stream;
mod tracing;
mod unary;

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use std::time::Instant;

use transmark::obs::Recorder;
use transmark::serve::protocol::{WireError, ERR_QUOTA, ERR_SATURATED};

use measure::{
    closed_loop, hist_count, hist_sum, percentile, ExactCounts, HostReference, LoopStats, OpError,
};
use proxy::{Relay, WireCounts};
use tracing::{span, TraceAgg, CLIENT_RTT, PREPARE_HIT, REPLAY_LAYERS, STORE_FLEET, WINDOW};

/// Set-ups before the first timed op. An end-to-end run sets the program
/// up once more after every [`SETUP_EVERY`] slices of the loop (once a
/// second), so its set-ups span the same host speed levels as its ops;
/// `setup_s` is the median of the faster half of all of them.
const SETUPS_BEFORE_LOOP: usize = 5;
/// Slices per set-up in the loop: a set-up takes 10–30 ms, so one per
/// quarter-second slice would spend a tenth of the loop setting up.
const SETUP_EVERY: usize = 4;

/// A workload after set-up: closed-loop ops numbered from 0, each
/// checked against the reference answers computed with its inputs.
pub trait Workload {
    /// Runs op `i`; returns the Markov-sequence positions it processed.
    fn op(&mut self, i: u64) -> Result<u64, OpError>;
    /// The span a traced op runs under.
    fn op_span(&self) -> &'static str {
        CLIENT_RTT
    }
    /// The op class of op `i` (the Chrome trace keeps one op per class).
    fn class(&self, i: u64) -> &'static str;
    /// Replays op `i`'s inputs in-process through the public functions
    /// the program calls for it, each under its layer span. Returns the
    /// sliding-window ticks it advanced.
    fn replay(&mut self, i: u64) -> u64;
    /// Ops after which the op schedule repeats.
    fn cycle(&self) -> u64;
    /// Opens a fresh connection (served workloads).
    fn reconnect(&mut self) -> Result<(), String>;
    /// Routes the connection through a counting relay (served workloads).
    fn begin_relay(&mut self) -> Result<Option<Relay>, String>;
    fn end_relay(&mut self, relay: Option<Relay>) -> Result<WireCounts, String>;
    /// Stops the program and releases what it holds; the next set-up
    /// starts after this.
    fn shutdown(&mut self);
}

/// Maps a client failure: quota and saturation replies are refusals.
pub fn client_error(e: WireError) -> OpError {
    match e {
        WireError::Remote { code, .. } if code == ERR_QUOTA || code == ERR_SATURATED => {
            OpError::Refused(e.to_string())
        }
        other => OpError::Failed(other.to_string()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve_unary|serve_stream|batch_fleet> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() || args.seconds <= 0.0 {
        return Err("--workload and a positive --seconds are required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.workload.starts_with("serve_") {
        if let Err(e) = served::pin_to_one_cpu() {
            eprintln!("perfbench: running unpinned: {e}");
        }
    }
    let result = match args.workload.as_str() {
        "serve_unary" => {
            unary::inputs(args.seed).and_then(|inputs| run(&args, || unary::set_up(&inputs)))
        }
        "serve_stream" => {
            stream::inputs(args.seed).and_then(|inputs| run(&args, || stream::set_up(&inputs)))
        }
        "batch_fleet" => {
            fleet::inputs(args.seed).and_then(|inputs| run(&args, || fleet::set_up(&inputs)))
        }
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    match result {
        Ok(report) => {
            println!("{}", report.summary);
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    summary: String,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run<W: Workload>(args: &Args, set_up: impl Fn() -> Result<W, String>) -> Result<Report, String> {
    let mut reference = HostReference::new()?;
    // The inputs are made and checked; from here on the peak is the
    // program's set-up and load, plus the inputs the benchmark still holds.
    measure::reset_peak_rss()?;
    let r = reference.measure()?;
    let t0 = Instant::now();
    let mut w = set_up()?;
    let mut setup_times = vec![(t0.elapsed(), r)];
    while setup_times.len() < SETUPS_BEFORE_LOOP {
        let r = reference.measure()?;
        set_up_again(&mut w, &set_up, &mut setup_times, r)?;
    }
    let mut next = 0;
    let first = count_pass(&mut w, &mut next)?;

    let (stats, metrics) = if args.trace {
        let untraced_before = measure::snapshot();
        w.reconnect()?;
        let untraced = closed_loop(
            args.seconds / 2.0,
            &mut next,
            &mut w,
            &mut reference,
            |w, i| w.op(i),
            |_, _| Ok(()),
        )?;
        let diff = measure::snapshot().diff(&untraced_before);
        let (traced, agg) = traced_loop(&mut w, args.seconds / 2.0, &mut next);
        let counts = count_pass(&mut w, &mut next)?;
        check_counts(&first, &counts)?;
        write_traces(args, &agg)?;
        let metrics = layer_metrics(&w, &untraced, &diff, &counts, &agg);
        let mut stats = untraced;
        stats.attempted += traced.attempted;
        stats.failed += traced.failed;
        stats.refused += traced.refused;
        stats.first_error = stats.first_error.or(traced.first_error);
        (stats, metrics)
    } else {
        let mut boundaries = 0;
        let stats = closed_loop(
            args.seconds,
            &mut next,
            &mut w,
            &mut reference,
            |w, i| w.op(i),
            |w, r| {
                boundaries += 1;
                if boundaries % SETUP_EVERY == 0 {
                    set_up_again(w, &set_up, &mut setup_times, r)?;
                }
                Ok(())
            },
        )?;
        let counts = count_pass(&mut w, &mut next)?;
        check_counts(&first, &counts)?;
        let metrics = end_to_end(&stats, &setup_times)?;
        (stats, metrics)
    };
    w.shutdown();
    if let Some(e) = &stats.first_error {
        eprintln!("perfbench: first failed op: {e}");
    }
    Ok(Report {
        summary: format!(
            "# {} seed {}: attempted {}, failed {}, refused {}; exact counts per {} ops: {}",
            args.workload,
            args.seed,
            stats.attempted,
            stats.failed,
            stats.refused,
            first.ops,
            first.to_json()
        ),
        attempted: stats.attempted,
        failed: stats.failed,
        metrics,
    })
}

/// Shuts `w` down and sets the program up afresh in its place, timing
/// the set-up; records the time with `reference`, the host reference
/// time taken just before.
fn set_up_again<W: Workload>(
    w: &mut W,
    set_up: &impl Fn() -> Result<W, String>,
    times: &mut Vec<(Duration, f64)>,
    reference: f64,
) -> Result<(), String> {
    w.shutdown();
    let t0 = Instant::now();
    *w = set_up()?;
    times.push((t0.elapsed(), reference));
    Ok(())
}

/// Runs one full op cycle under registry diff (and, for served
/// workloads, through the counting relay). The ops up to the next cycle
/// boundary run first, unrecorded, so every pass sends the same requests
/// into the same plan-cache state.
fn count_pass<W: Workload>(w: &mut W, next: &mut u64) -> Result<ExactCounts, String> {
    let cycle = w.cycle();
    let start = next.div_ceil(cycle) * cycle;
    let fail = |e: OpError| format!("count pass: {}", e.message());
    for i in *next..start {
        w.op(i).map_err(fail)?;
    }
    let relay = w.begin_relay()?;
    let before = measure::snapshot();
    for i in start..start + cycle {
        w.op(i).map_err(fail)?;
    }
    let diff = measure::snapshot().diff(&before);
    let wire = w.end_relay(relay)?;
    *next = start + cycle;
    let mut counts = ExactCounts::from_diff(cycle, &diff);
    counts.values.insert("wire.bytes", wire.bytes);
    counts.values.insert("wire.data_frames", wire.data_frames);
    Ok(counts)
}

/// Exact work counts must not move between two passes over the same
/// ops: a difference is a benchmark bug, not timing noise.
fn check_counts(first: &ExactCounts, second: &ExactCounts) -> Result<(), String> {
    if first != second {
        return Err(format!(
            "exact counts differ between two passes over the same ops:\n  {}\n  {}",
            first.to_json(),
            second.to_json()
        ));
    }
    Ok(())
}

fn traced_loop<W: Workload>(w: &mut W, seconds: f64, next: &mut u64) -> (LoopStats, TraceAgg) {
    let mut stats = LoopStats::default();
    let mut agg = TraceAgg::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while start.elapsed() < budget {
        let i = *next;
        *next += 1;
        let rec = Arc::new(Recorder::new());
        let scope = rec.install("main");
        let t0 = Instant::now();
        let outcome = {
            let _s = span(w.op_span());
            w.op(i)
        };
        let op_ns = t0.elapsed().as_nanos() as u64;
        stats.record(t0, outcome);
        agg.window_ticks += w.replay(i);
        drop(scope);
        agg.add(w.class(i), op_ns, rec.finish());
    }
    stats.wall = start.elapsed();
    (stats, agg)
}

/// The end-to-end metrics: `setup_s` from the set-ups, the rest over the
/// faster half of the closed loop's slices, all times scaled to the
/// nominal host speed.
fn end_to_end(stats: &LoopStats, setup_times: &[(Duration, f64)]) -> Result<Vec<Metric>, String> {
    let rates: Vec<String> = stats
        .slice_rates()
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    let refs: Vec<String> = stats
        .refs()
        .iter()
        .map(|r| format!("{:.3}", r * 1e3))
        .collect();
    eprintln!(
        "perfbench: ops/s per slice (unscaled): {}; whole run {:.1}; reference ms: {}; \
         {} set-ups, fastest {:.6} s unscaled",
        rates.join(" "),
        stats.ops_per_s(),
        refs.join(" "),
        setup_times.len(),
        setup_times
            .iter()
            .map(|t| t.0)
            .min()
            .map_or(0.0, |d| d.as_secs_f64())
    );
    // p99 needs at least ten samples above it.
    const MIN_SAMPLES: usize = 1100;
    let half = stats.faster_half(MIN_SAMPLES);
    let lat = &half.latencies_ns;
    if lat.len() < MIN_SAMPLES {
        return Err(format!(
            "only {} successful ops: too few for a p99 with ten samples beyond it",
            lat.len()
        ));
    }
    let secs = half.wall.as_secs_f64();
    Ok(vec![
        Metric {
            name: "setup_s",
            value: measure::faster_half_median(setup_times),
            unit: "s",
        },
        Metric {
            name: "ops_per_s",
            value: half.ops as f64 / secs,
            unit: "1/s",
        },
        Metric {
            name: "positions_per_s",
            value: half.positions as f64 / secs,
            unit: "1/s",
        },
        Metric {
            name: "op_p50_us",
            value: f64::from(percentile(lat, 0.50)) / 1e3,
            unit: "us",
        },
        Metric {
            name: "op_p99_us",
            value: f64::from(percentile(lat, 0.99)) / 1e3,
            unit: "us",
        },
        Metric {
            name: "cpu_us_per_op",
            value: half.cpu.as_secs_f64() * 1e6 / half.ops as f64,
            unit: "us",
        },
        Metric {
            name: "peak_rss_mb",
            value: measure::peak_rss_mb() - stats.record_mib(),
            unit: "MiB",
        },
    ])
}

/// The per-layer metrics: registry reads from the untraced phase, exact
/// counts from the count pass, span times from the traced phase.
fn layer_metrics<W: Workload>(
    w: &W,
    untraced: &LoopStats,
    diff: &transmark::obs::Snapshot,
    counts: &ExactCounts,
    agg: &TraceAgg,
) -> Vec<Metric> {
    let ops = untraced.attempted.max(1) as f64;
    let per_op_us = |ns: u64| ns as f64 / ops / 1e3;
    let served = w.op_span() == CLIENT_RTT;
    let rtt = if served {
        untraced.mean_latency_us()
    } else {
        0.0
    };
    let request = per_op_us(hist_sum(diff, "serve.request_ns"));
    let entries = counts.per_op("kernel.csr.entries");
    let sparse_exec_ns = agg.sparse_execute_ns as f64 / agg.ops.max(1) as f64;
    let named_ns: u64 = if served {
        REPLAY_LAYERS.iter().map(|l| agg.total(l).total_ns).sum()
    } else {
        agg.critical_ns + agg.total(PREPARE_HIT).total_ns
    };
    let op_total = agg
        .total(if served { CLIENT_RTT } else { STORE_FLEET })
        .total_ns;
    let untraced_rate = untraced.ops_per_s();
    let traced_rate = agg.ops as f64 / (agg.op_ns as f64 / 1e9);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("client.rtt_us", rtt, "us"),
        m("serve.request_us", request, "us"),
        m("serve.wire_us", (rtt - request).max(0.0), "us"),
        m("serve.bytes_per_op", counts.per_op("wire.bytes"), "B"),
        m(
            "serve.chunks_per_op",
            counts.per_op("wire.data_frames"),
            "count",
        ),
        // Mean wait of one pool job: a fleet task, or a served
        // connection (one job per connection, so one sample per run).
        m(
            "pool.queue_wait_us",
            ratio(
                (hist_sum(diff, "store.pool.queue_wait_ns")
                    + hist_sum(diff, "store.fleet.queue_wait_ns")) as f64
                    / 1e3,
                (hist_count(diff, "store.pool.queue_wait_ns")
                    + hist_count(diff, "store.fleet.queue_wait_ns")) as f64,
            ),
            "us",
        ),
        m(
            "pool.tasks_per_worker",
            ratio(
                counts.get("store.fleet.tasks") as f64,
                counts.get("store.fleet.worker_runs") as f64,
            ),
            "count",
        ),
        m(
            "plan_cache.hit_ratio",
            counts.share("store.plan_cache.hits", &["store.plan_cache.misses"]),
            "ratio",
        ),
        m(
            "textio.query_parse_us",
            agg.per_op_us(tracing::QUERY_PARSE),
            "us",
        ),
        m(
            "textio.seq_parse_us",
            agg.per_op_us(tracing::SEQ_PARSE),
            "us",
        ),
        m(
            "plan.prepare_hit_us",
            agg.total(PREPARE_HIT).mean_us(),
            "us",
        ),
        m(
            "plan.prepare_miss_us",
            agg.total(tracing::PREPARE_MISS).mean_us(),
            "us",
        ),
        m("plan.bind_us", agg.per_op_us(tracing::BIND), "us"),
        m("plan.execute_us", agg.per_op_us(tracing::EXECUTE), "us"),
        m(
            "plan.dense_share",
            counts.share(
                "planner.strategy.dense",
                &["planner.strategy.sparse", "planner.strategy.scan"],
            ),
            "ratio",
        ),
        m(
            "kernel.layers_per_op",
            counts.per_op("kernel.advance.layers"),
            "count",
        ),
        m("kernel.csr_entries_per_op", entries, "count"),
        m("kernel.ns_per_entry", ratio(sparse_exec_ns, entries), "ns"),
        m(
            "kernel.csr_build_us",
            per_op_us(hist_sum(diff, "kernel.csr.build_ns")),
            "us",
        ),
        m(
            "dataplane.bytes_per_op",
            counts.per_op("dataplane.bytes"),
            "B",
        ),
        m(
            "dataplane.decode_us",
            per_op_us(
                hist_sum(diff, "dataplane.tmsb.decode_ns")
                    + hist_sum(diff, "dataplane.tms.decode_ns"),
            ),
            "us",
        ),
        m(
            "incremental.window_us_per_tick",
            ratio(
                agg.total(WINDOW).total_ns as f64 / 1e3,
                agg.window_ticks as f64,
            ),
            "us",
        ),
        m(
            "trace.attributed_fraction",
            ratio(named_ns as f64, op_total as f64),
            "ratio",
        ),
        m("trace.overhead", ratio(traced_rate, untraced_rate), "ratio"),
    ]
}

/// Where the traced run writes its Chrome traces, under the checkout's
/// ignored build directory.
const TRACE_DIR: &str = ".bench_build/perfbench-traces";

/// Writes one Chrome trace per op class through the program's exporter.
fn write_traces(args: &Args, agg: &TraceAgg) -> Result<(), String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    for (class, profile) in &agg.samples {
        let path =
            Path::new(TRACE_DIR).join(format!("{}-{class}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, transmark::obs::trace::chrome_trace(profile))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: wrote {}", path.display());
    }
    Ok(())
}
