//! The traced run's spans and their per-layer aggregation.
//!
//! The benchmark opens its spans from its own code, around each call it
//! makes into a layer, on the same profiler timeline the program's own
//! spans use ([`transmark::obs::profile`]). The benchmark's layer spans
//! never nest inside one another, so each span's duration is that
//! layer's self time within the benchmark's span tree; program spans
//! that open inside one belong to that layer.

use std::collections::BTreeMap;

use transmark::obs::profile::{span_begin, span_end, EventKind};
use transmark::obs::ExecutionProfile;

pub const CLIENT_CONNECT: &str = "client.connect";
pub const CLIENT_RTT: &str = "client.rtt";
pub const STORE_FLEET: &str = "store.fleet";
pub const QUERY_PARSE: &str = "textio.query_parse";
pub const SEQ_PARSE: &str = "textio.seq_parse";
pub const PREPARE_HIT: &str = "plan.prepare_hit";
pub const PREPARE_MISS: &str = "plan.prepare_miss";
pub const BIND: &str = "plan.bind";
pub const EXECUTE: &str = "plan.execute";
pub const DECODE: &str = "dataplane.decode";
pub const WINDOW: &str = "incremental.window";

/// Layer spans of the in-process replay: together they are the named
/// part of a served op's time.
pub const REPLAY_LAYERS: [&str; 8] = [
    QUERY_PARSE,
    SEQ_PARSE,
    PREPARE_HIT,
    PREPARE_MISS,
    BIND,
    EXECUTE,
    DECODE,
    WINDOW,
];

/// Closes the span it opened when dropped.
pub struct Span(());

/// Opens a benchmark span on the installed recorder (a no-op without one).
pub fn span(name: &'static str) -> Span {
    span_begin(name);
    Span(())
}

impl Drop for Span {
    fn drop(&mut self) {
        span_end();
    }
}

/// Count and total time of one named span.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
}

impl SpanTotal {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Per-layer totals over the traced ops.
#[derive(Default)]
pub struct TraceAgg {
    pub ops: u64,
    /// Wall time of the traced ops themselves (recorder on, replay off).
    pub op_ns: u64,
    pub spans: BTreeMap<&'static str, SpanTotal>,
    /// Fleet ops: bind and execute time of the busiest worker, per op.
    pub critical_ns: u64,
    /// Execute time of binds that ran the sparse (CSR) strategy.
    pub sparse_execute_ns: u64,
    /// Sliding-window ticks the replays advanced.
    pub window_ticks: u64,
    /// The first profile of each op class, for the Chrome trace files.
    pub samples: BTreeMap<&'static str, ExecutionProfile>,
}

impl TraceAgg {
    pub fn total(&self, name: &str) -> SpanTotal {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Mean time in a layer per traced op, in µs.
    pub fn per_op_us(&self, name: &str) -> f64 {
        self.total(name).total_ns as f64 / self.ops.max(1) as f64 / 1e3
    }

    /// Folds one op's profile in. Benchmark spans are summed by name
    /// wherever they sit; the program's `task/bind` and `task/execute`
    /// spans on fleet worker lanes are read as the bind and execute
    /// layers, since a fleet call binds and executes inside the program.
    pub fn add(&mut self, class: &'static str, op_ns: u64, profile: ExecutionProfile) {
        self.ops += 1;
        self.op_ns += op_ns;
        for (path, stat) in &profile.phases {
            let leaf = path.rsplit('/').next().unwrap_or(path);
            let name = match (path.as_str(), leaf) {
                ("task/bind", _) => BIND,
                ("task/execute", _) => EXECUTE,
                (_, CLIENT_CONNECT) => CLIENT_CONNECT,
                (_, CLIENT_RTT) => CLIENT_RTT,
                (_, STORE_FLEET) => STORE_FLEET,
                (_, l) => match REPLAY_LAYERS.iter().find(|n| **n == l) {
                    Some(n) => n,
                    None => continue,
                },
            };
            let t = self.spans.entry(name).or_default();
            t.count += stat.count;
            t.total_ns += stat.total_ns;
        }
        let (critical, sparse) = walk_lanes(&profile);
        self.critical_ns += critical;
        self.sparse_execute_ns += sparse;
        self.samples.entry(class).or_insert(profile);
    }
}

/// Walks the program's `bind` and `execute` spans on every lane: returns
/// the largest bind plus execute time of one fleet worker lane, and the
/// execute time of binds whose planner chose the sparse strategy.
fn walk_lanes(profile: &ExecutionProfile) -> (u64, u64) {
    let mut critical = 0;
    let mut sparse_execute = 0;
    for lane in &profile.lanes {
        let mut busy = 0;
        let mut open: Vec<(&str, u64)> = Vec::new();
        let mut sparse = false;
        for e in &lane.events {
            match e.kind {
                EventKind::Begin => open.push((e.name, e.t_ns)),
                EventKind::End => {
                    if let Some((name, begin)) = open.pop() {
                        let d = e.t_ns.saturating_sub(begin);
                        match name {
                            "bind" => busy += d,
                            "execute" => {
                                busy += d;
                                if sparse {
                                    sparse_execute += d;
                                }
                            }
                            _ => {}
                        }
                    }
                }
                EventKind::Instant if e.name == "planner.strategy" => sparse = e.detail == "sparse",
                _ => {}
            }
        }
        if lane.label.starts_with("worker-") {
            critical = critical.max(busy);
        }
    }
    (critical, sparse_execute)
}
