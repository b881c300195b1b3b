//! `serve_unary`: self-contained top-1 requests over one connection to an
//! in-process server with one worker.
//!
//! Of every 32 requests, 31 cycle through eight hot queries that stay in
//! the server's plan cache: the paper's room tracker over its 5-position
//! hospital chain and seven seeded event trackers over 6-position chains.
//! The 32nd carries one of 64 further seeded trackers over 16-position
//! chains; that rotation is longer than the plan cache, so each cold
//! request pays prepare plus an eviction.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use transmark::engine::{Evaluation, Transducer};
use transmark::markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark::markov::MarkovSequence;
use transmark::serve::client::Sequence;
use transmark::store::DEFAULT_PLAN_CACHE_CAP;
use transmark::workloads::hospital;
use transmark::Engine;

use crate::measure::OpError;
use crate::proxy::{Relay, WireCounts};
use crate::queries::{distinct_symbols, first_events_tracker};
use crate::served::Served;
use crate::tracing::{span, BIND, EXECUTE, PREPARE_HIT, PREPARE_MISS, QUERY_PARSE, SEQ_PARSE};
use crate::{client_error, Workload};

const HOT: usize = 8;
const COLD: usize = 64;
/// One request in this many carries a cold query.
const COLD_EVERY: u64 = 32;
/// Requests after which the schedule repeats: every hot and cold query
/// has been sent, so a count pass over one cycle is the same work at any
/// offset.
const CYCLE: u64 = COLD_EVERY * COLD as u64;
/// Positions of the seeded hot chains (the hospital chain has five).
const HOT_LEN: usize = 6;
/// Positions of the cold chains: longer than the hot ones, so a cold
/// request costs about three hot ones and `op_p99_us` falls inside the
/// cold class.
const COLD_LEN: usize = 16;
const SYMBOLS: usize = 4;

/// One request: query and sequence as the wire carries them.
struct Request {
    query: String,
    sequence: String,
    positions: u64,
}

/// The expected top-1 answer, bit for bit: output symbols, `E_max` and
/// confidence bits. Empty when the query has no answer on its chain.
type Answer = Vec<(Vec<u32>, u64, u64)>;

pub struct Inputs {
    hot: Vec<Request>,
    cold: Vec<Request>,
    hot_ref: Vec<Answer>,
    cold_ref: Vec<Answer>,
    /// Replays requests through the layers with the server's plan-cache
    /// capacity, so hot replays hit and cold replays miss as served.
    replay_engine: Engine,
}

/// Generates the seeded requests and computes every reference answer
/// in-process (not timed: the benchmark's own work). Every query text is
/// distinct, so each one is its own plan-cache entry.
pub fn inputs(seed: u64) -> Result<Inputs, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut hot = vec![Request {
        query: transmark::engine::textio::to_text(&hospital::room_tracker()),
        sequence: transmark::markov::textio::to_text(&hospital::hospital_sequence()),
        positions: hospital::hospital_sequence().len() as u64,
    }];
    seen.insert(hot[0].query.clone());
    // Four symbols give 12 ordered event pairs, times 16 labellings: 192
    // distinct trackers, enough for the 7 hot and 64 cold queries.
    let mut tracker_request = |len| {
        let chain = seeded_chain(&mut rng, len);
        let events = distinct_symbols(&mut rng, SYMBOLS, 2);
        let (t, _) = first_events_tracker(&chain.alphabet_arc(), &events, 2, Some(&mut rng));
        request(&mut seen, &t, &chain)
    };
    while hot.len() < HOT {
        hot.extend(tracker_request(HOT_LEN));
    }
    let mut cold = Vec::with_capacity(COLD);
    while cold.len() < COLD {
        cold.extend(tracker_request(COLD_LEN));
    }
    let engine = Engine::with_plan_capacity(DEFAULT_PLAN_CACHE_CAP);
    let reference = |r: &Request| reference_answer(&engine, r);
    let hot_ref = hot.iter().map(reference).collect::<Result<Vec<_>, _>>()?;
    let cold_ref = cold.iter().map(reference).collect::<Result<Vec<_>, _>>()?;
    check_table1(&hot_ref[0])?;
    let replay_engine = Engine::with_plan_capacity(DEFAULT_PLAN_CACHE_CAP);
    for r in &hot {
        let t = transmark::engine::textio::from_text(&r.query).expect("reference parsed it");
        replay_engine.prepare(&t);
    }
    Ok(Inputs {
        hot,
        cold,
        hot_ref,
        cold_ref,
        replay_engine,
    })
}

fn seeded_chain(rng: &mut StdRng, len: usize) -> MarkovSequence {
    random_markov_sequence(
        &RandomChainSpec {
            len,
            n_symbols: SYMBOLS,
            zero_prob: 0.3,
        },
        rng,
    )
}

/// The request for `t` over `chain`, unless an earlier request already
/// carries the same query text.
fn request(seen: &mut HashSet<String>, t: &Transducer, chain: &MarkovSequence) -> Option<Request> {
    let query = transmark::engine::textio::to_text(t);
    seen.insert(query.clone()).then(|| Request {
        query,
        sequence: transmark::markov::textio::to_text(chain),
        positions: chain.len() as u64,
    })
}

/// Which request op `i` sends: `(is_cold, index)`.
fn schedule(i: u64) -> (bool, usize) {
    if i % COLD_EVERY == COLD_EVERY - 1 {
        (true, ((i / COLD_EVERY) % COLD as u64) as usize)
    } else {
        (false, (i % HOT as u64) as usize)
    }
}

pub struct Live<'a> {
    inputs: &'a Inputs,
    served: Served,
}

/// Program set-up: start the server, connect, and warm up with each
/// query once, cold ones first, so every query has been compiled and the
/// plan cache ends up holding the hot queries.
pub fn set_up(inputs: &Inputs) -> Result<Live<'_>, String> {
    let served = Served::start()?;
    let mut live = Live { inputs, served };
    let cold_ops = (0..COLD as u64).map(|j| j * COLD_EVERY + COLD_EVERY - 1);
    for i in cold_ops.chain(0..HOT as u64) {
        live.op(i)
            .map_err(|e| format!("warm-up: {}", e.message()))?;
    }
    Ok(live)
}

fn reference_answer(engine: &Engine, r: &Request) -> Result<Answer, String> {
    let t = transmark::engine::textio::from_text(&r.query).map_err(|e| e.to_string())?;
    let m = transmark::markov::textio::from_text(&r.sequence).map_err(|e| e.to_string())?;
    let plan = engine.prepare(&t);
    let ev = Evaluation::with_plan(&plan, &m).map_err(|e| e.to_string())?;
    let top = ev.top_k_scored(1).map_err(|e| e.to_string())?;
    Ok(top
        .iter()
        .map(|a| {
            let output = a.output.iter().map(|s| s.0).collect();
            (output, a.emax.to_bits(), a.confidence.to_bits())
        })
        .collect())
}

/// The hospital reference must reproduce the paper's Table 1 top row.
fn check_table1(a: &Answer) -> Result<(), String> {
    let (_, emax, conf) = a.first().ok_or("the hospital query has no answer")?;
    let (emax, conf) = (f64::from_bits(*emax), f64::from_bits(*conf));
    if (emax - 0.3969).abs() > 1e-9 || (conf - 0.4038).abs() > 1e-9 {
        return Err(format!(
            "hospital top-1 is E_max {emax}, confidence {conf}; Table 1 says 0.3969, 0.4038"
        ));
    }
    Ok(())
}

impl Inputs {
    /// Op `i`'s request and its reference answer.
    fn request(&self, i: u64) -> (&Request, &Answer) {
        match schedule(i) {
            (true, j) => (&self.cold[j], &self.cold_ref[j]),
            (false, j) => (&self.hot[j], &self.hot_ref[j]),
        }
    }
}

impl Workload for Live<'_> {
    fn op(&mut self, i: u64) -> Result<u64, OpError> {
        let (req, want) = self.inputs.request(i);
        let got = self
            .served
            .client()
            .top_k(&req.query, &Sequence::Text(&req.sequence), 1, false)
            .map_err(client_error)?;
        let got: Answer = got
            .value
            .iter()
            .map(|a| (a.output.clone(), a.emax.to_bits(), a.confidence.to_bits()))
            .collect();
        if got != *want {
            return Err(OpError::Failed(format!(
                "request {i}: answer differs from reference"
            )));
        }
        Ok(req.positions)
    }

    fn class(&self, i: u64) -> &'static str {
        if schedule(i).0 {
            "cold"
        } else {
            "hot"
        }
    }

    fn replay(&mut self, i: u64) -> u64 {
        let (req, _) = self.inputs.request(i);
        let t = {
            let _s = span(QUERY_PARSE);
            transmark::engine::textio::from_text(&req.query).expect("reference parsed it")
        };
        let m = {
            let _s = span(SEQ_PARSE);
            transmark::markov::textio::from_text(&req.sequence).expect("reference parsed it")
        };
        let plan = {
            let _s = span(if schedule(i).0 {
                PREPARE_MISS
            } else {
                PREPARE_HIT
            });
            self.inputs.replay_engine.prepare(&t)
        };
        let ev = {
            let _s = span(BIND);
            Evaluation::with_plan(&plan, &m).expect("reference bound it")
        };
        let _s = span(EXECUTE);
        std::hint::black_box(ev.top_k_scored(1).expect("reference ran it"));
        0
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
