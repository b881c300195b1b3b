//! `serve_stream`: streamed `.tmsb` sessions over one connection to an
//! in-process server with one worker.
//!
//! Each op streams one of eight seeded 2048-position chains (|Σ| = 8,
//! about half the transition entries zero) in 64 KiB DATA frames. 31 of
//! every 32 sessions ask for the confidence of a fixed output under a
//! seeded first-three-events tracker; the 32nd asks for the
//! sliding-window series (w = 256) of "the window ends with a seeded
//! symbol".

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use transmark::engine::incremental::SlidingWindowQuery;
use transmark::engine::{PreparedQuery, SymbolId, Transducer};

use transmark::markov::binio::{read_prelude, to_tmsb_bytes, RawLayerReader, TmsbReader};
use transmark::markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark::markov::MarkovSequence;
use transmark::serve::client::StreamOptions;
use transmark::Engine;

use crate::measure::OpError;
use crate::proxy::{Relay, WireCounts};
use crate::queries::{distinct_symbols, ends_with, first_events_tracker};
use crate::served::Served;
use crate::tracing::{span, BIND, DECODE, EXECUTE, PREPARE_HIT, QUERY_PARSE, WINDOW};
use crate::{client_error, Workload};

const CHAINS: usize = 8;
/// Half the 2^12 of a longer session: at about 150 sessions a second,
/// the faster half of a 30 s run still holds the 1100 a p99 needs.
const CHAIN_LEN: usize = 2048;
const SYMBOLS: usize = 8;
const CHUNK: usize = 64 * 1024;
const WINDOW_W: u32 = 256;
/// One session in this many is a window session. A window session costs
/// four to five confidence sessions, so `op_p99_us` falls inside the
/// window class, at about its 68th percentile: clear of the class's own
/// tail, which on a shared host moves from run to run (with one in eight,
/// p99 sat at its 92nd percentile and spread 0.07–0.18 over sets of ten
/// runs).
const WINDOW_EVERY: u64 = 32;
/// Sessions after which the schedule repeats (every chain under both
/// kinds).
const CYCLE: u64 = CHAINS as u64 * WINDOW_EVERY;
/// Documented tolerance of the incremental window against recompute.
const WINDOW_RTOL: f64 = 1e-12;

pub struct Inputs {
    tmsb: Vec<Vec<u8>>,
    tracker: String,
    output: String,
    pattern: String,
    confidence_ref: Vec<u64>,
    window_ref: Vec<Vec<f64>>,
    replay_engine: Engine,
}

/// Generates the seeded chains and queries and computes the reference
/// answers in-process (not timed: the benchmark's own work): each
/// confidence from the same bytes, through the source-bound path, and
/// each window series. Only the `.tmsb` bytes of the chains are kept.
pub fn inputs(seed: u64) -> Result<Inputs, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let chains: Vec<MarkovSequence> = (0..CHAINS)
        .map(|_| {
            random_markov_sequence(
                &RandomChainSpec {
                    len: CHAIN_LEN,
                    n_symbols: SYMBOLS,
                    zero_prob: 0.5,
                },
                &mut rng,
            )
        })
        .collect();
    let tmsb: Vec<Vec<u8>> = chains.iter().map(to_tmsb_bytes).collect();
    let alphabet = chains[0].alphabet_arc();
    let picks = distinct_symbols(&mut rng, SYMBOLS, 3);
    let (tracker, output) = first_events_tracker(&alphabet, &picks[..2], 3, None);
    let window = ends_with(&alphabet, picks[2]);

    let tracker = transmark::engine::textio::to_text(&tracker);
    let pattern = transmark::engine::textio::to_text(&window);
    // The replay engine holds the plan the server's cache holds: the one
    // of the query as parsed from its text.
    let replay_engine = Engine::new();
    let t = transmark::engine::textio::from_text(&tracker).map_err(|e| e.to_string())?;
    let o = output_ids(&t, &output)?;
    let plan = replay_engine.prepare(&t);
    let confidence_ref = tmsb
        .iter()
        .map(|bytes| {
            let src = TmsbReader::new(&bytes[..]).map_err(|e| e.to_string())?;
            let mut bound = plan.bind_source(src).map_err(|e| e.to_string())?;
            bound
                .confidence(&o)
                .map(f64::to_bits)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    let wq = SlidingWindowQuery::new(window.underlying_nfa(), WINDOW_W as usize)
        .map_err(|e| e.to_string())?;
    let window_ref = chains
        .iter()
        .map(|m| wq.series(m).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Inputs {
        tmsb,
        tracker,
        output,
        pattern,
        confidence_ref,
        window_ref,
        replay_engine,
    })
}

/// Op `i`: `(is_window, chain)`. Every 32nd session is a window
/// session, and over one cycle each chain is streamed 31 times for
/// confidence and once for the window.
fn schedule(i: u64) -> (bool, usize) {
    let window = i % WINDOW_EVERY == WINDOW_EVERY - 1;
    (window, ((i + i / WINDOW_EVERY) % CHAINS as u64) as usize)
}

pub struct Live<'a> {
    inputs: &'a Inputs,
    served: Served,
}

/// Program set-up: start the server, connect, and warm up with one
/// session of each kind.
pub fn set_up(inputs: &Inputs) -> Result<Live<'_>, String> {
    let served = Served::start()?;
    let mut live = Live { inputs, served };
    for i in [0, WINDOW_EVERY - 1] {
        live.op(i)
            .map_err(|e| format!("warm-up: {}", e.message()))?;
    }
    Ok(live)
}

fn output_ids(t: &Transducer, names: &str) -> Result<Vec<SymbolId>, String> {
    names
        .split_whitespace()
        .map(|n| {
            t.output_alphabet()
                .get(n)
                .ok_or(format!("unknown output {n}"))
        })
        .collect()
}

impl Live<'_> {
    /// Replays a confidence session: the server's calls, in its order.
    fn replay_confidence(&self, bytes: &[u8]) {
        let t = {
            let _s = span(QUERY_PARSE);
            transmark::engine::textio::from_text(&self.inputs.tracker)
                .expect("parsed for the reference")
        };
        let plan: Arc<PreparedQuery> = {
            let _s = span(PREPARE_HIT);
            self.inputs.replay_engine.prepare(&t)
        };
        let o = output_ids(&t, &self.inputs.output).expect("checked for the reference");
        let (initial, layers) = decode(bytes);
        let mut sess = {
            let _s = span(BIND);
            plan.begin_confidence(&initial, &o)
                .expect("bound for the reference")
        };
        let _s = span(EXECUTE);
        for layer in layers.chunks_exact(SYMBOLS * SYMBOLS) {
            sess.step(layer).expect("stepped for the reference");
        }
        std::hint::black_box(sess.finish());
    }

    /// Replays a window session; returns the ticks it advanced.
    fn replay_window(&self, bytes: &[u8]) -> u64 {
        let t = {
            let _s = span(QUERY_PARSE);
            transmark::engine::textio::from_text(&self.inputs.pattern)
                .expect("parsed for the reference")
        };
        let (initial, layers) = decode(bytes);
        let wq = {
            let _s = span(BIND);
            SlidingWindowQuery::new(t.underlying_nfa(), WINDOW_W as usize)
                .expect("built for the reference")
        };
        let mut sess = wq.start(&initial).expect("started for the reference");
        let _s = span(WINDOW);
        let mut ticks = 0;
        for layer in layers.chunks_exact(SYMBOLS * SYMBOLS) {
            std::hint::black_box(sess.advance(layer).expect("advanced for the reference"));
            ticks += 1;
        }
        ticks
    }
}

/// Decodes a `.tmsb` payload layer by layer, as the server's reader does,
/// under the decode span: the initial distribution and every layer.
fn decode(bytes: &[u8]) -> (Vec<f64>, Vec<f64>) {
    let _s = span(DECODE);
    let mut r = bytes;
    let prelude = read_prelude(&mut r).expect("valid tmsb");
    let mut raw = RawLayerReader::new(&prelude).expect("valid tmsb");
    let mut layers = Vec::with_capacity(prelude.len() * SYMBOLS * SYMBOLS);
    while let Some(m) = raw.next_layer(&mut r).expect("valid tmsb") {
        layers.extend_from_slice(m);
    }
    (prelude.initial().to_vec(), layers)
}

fn close_enough(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= WINDOW_RTOL * w.abs().max(f64::MIN_POSITIVE))
}

impl Workload for Live<'_> {
    fn op(&mut self, i: u64) -> Result<u64, OpError> {
        let (window, c) = schedule(i);
        let bytes = &self.inputs.tmsb[c];
        let client = self.served.client();
        if window {
            let got = client
                .stream_window(
                    &self.inputs.pattern,
                    bytes,
                    WINDOW_W,
                    CHUNK,
                    StreamOptions::default(),
                )
                .map_err(client_error)?;
            if !close_enough(&got.value, &self.inputs.window_ref[c]) {
                return Err(OpError::Failed(format!(
                    "session {i}: window series differs"
                )));
            }
        } else {
            let got = client
                .stream_confidence(&self.inputs.tracker, &self.inputs.output, bytes, CHUNK)
                .map_err(client_error)?;
            if got.value.to_bits() != self.inputs.confidence_ref[c] {
                return Err(OpError::Failed(format!("session {i}: confidence differs")));
            }
        }
        Ok(CHAIN_LEN as u64)
    }

    fn class(&self, i: u64) -> &'static str {
        if schedule(i).0 {
            "window"
        } else {
            "confidence"
        }
    }

    fn replay(&mut self, i: u64) -> u64 {
        let (window, c) = schedule(i);
        let bytes = &self.inputs.tmsb[c];
        if window {
            self.replay_window(bytes)
        } else {
            self.replay_confidence(bytes);
            0
        }
    }

    fn cycle(&self) -> u64 {
        CYCLE
    }

    fn reconnect(&mut self) -> Result<(), String> {
        self.served.connect()
    }

    fn begin_relay(&mut self) -> Result<Option<Relay>, String> {
        self.served.begin_relay().map(Some)
    }

    fn end_relay(&mut self, relay: Option<Relay>) -> Result<WireCounts, String> {
        self.served
            .end_relay(relay.expect("served count passes are relayed"))
    }

    fn shutdown(&mut self) {
        self.served.shutdown();
    }
}
