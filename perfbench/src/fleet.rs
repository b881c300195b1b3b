//! `batch_fleet`: in-process store fleets, no server.
//!
//! One op is one `SequenceStore::confidence_all_parallel` pass over eight
//! seeded 4096-position chains (|Σ| = 8) on one worker per core. Four
//! chains are fully dense and four keep about a quarter of their
//! transition entries, so the planner binds both strategies in every op
//! and every op is one latency class. The fleet is saved once as a
//! `.tmsb` store directory; set-up loads it from there.

use std::collections::BTreeMap;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;
use transmark::engine::{SymbolId, Transducer};
use transmark::markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark::markov::MarkovSequence;
use transmark::store::SequenceStore;

use crate::measure::OpError;
use crate::proxy::{Relay, WireCounts};
use crate::queries::{distinct_symbols, first_events_tracker};
use crate::tracing::{span, PREPARE_HIT, STORE_FLEET};
use crate::Workload;

const CHAINS: usize = 8;
const SYMBOLS: usize = 8;
const CHAIN_LEN: usize = 4096;
/// Every op is the same pass, so two ops are a full cycle.
const CYCLE: u64 = 2;

/// Where the fleet's store directory goes, under the checkout's ignored
/// build directory; one per process, removed when the run ends.
const DATA_DIR: &str = ".bench_build/perfbench-data";

pub struct Inputs {
    dir: PathBuf,
    tracker: Transducer,
    output: Vec<SymbolId>,
    reference: BTreeMap<String, u64>,
    positions: u64,
}

impl Drop for Inputs {
    fn drop(&mut self) {
        // Best effort: a leftover directory is only ignored build output.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Generates the seeded fleet, saves it as a store directory, and
/// computes the reference confidences with the sequential pass (not
/// timed: the benchmark's own work).
pub fn inputs(seed: u64) -> Result<Inputs, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let chains: Vec<(String, MarkovSequence)> = (0..CHAINS)
        .map(|i| {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: CHAIN_LEN,
                    n_symbols: SYMBOLS,
                    zero_prob: if i < CHAINS / 2 { 0.0 } else { 0.75 },
                },
                &mut rng,
            );
            (format!("chain-{i}"), m)
        })
        .collect();
    let alphabet = chains[0].1.alphabet_arc();
    let picks = distinct_symbols(&mut rng, SYMBOLS, 2);
    let (tracker, output) = first_events_tracker(&alphabet, &picks[..1], 1, None);
    let output: Vec<SymbolId> = output
        .split_whitespace()
        .map(|n| tracker.output_alphabet().get(n).expect("tracker output"))
        .collect();
    let positions = chains.iter().map(|(_, m)| m.len() as u64).sum();
    let mut store = SequenceStore::new(alphabet);
    for (name, m) in chains {
        store.insert(name, m).map_err(|e| e.to_string())?;
    }
    let dir = PathBuf::from(DATA_DIR).join(format!("fleet-{}", std::process::id()));
    let mut inputs = Inputs {
        dir,
        tracker,
        output,
        reference: BTreeMap::new(),
        positions,
    };
    store
        .save_dir_binary(&inputs.dir)
        .map_err(|e| e.to_string())?;
    inputs.reference = store
        .confidence_all(&inputs.tracker, &inputs.output)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|(k, v)| (k, v.to_bits()))
        .collect();
    Ok(inputs)
}

pub struct Live<'a> {
    inputs: &'a Inputs,
    store: SequenceStore,
}

/// Program set-up: load the store from its directory, then run one
/// parallel pass to warm the store's plan cache.
pub fn set_up(inputs: &Inputs) -> Result<Live<'_>, String> {
    let store = SequenceStore::load_dir(&inputs.dir).map_err(|e| e.to_string())?;
    let mut live = Live { inputs, store };
    live.op(0)
        .map_err(|e| format!("warm-up: {}", e.message()))?;
    Ok(live)
}

impl Workload for Live<'_> {
    fn op(&mut self, i: u64) -> Result<u64, OpError> {
        let got = self
            .store
            .confidence_all_parallel(&self.inputs.tracker, &self.inputs.output, 0)
            .map_err(|e| OpError::Failed(e.to_string()))?;
        let reference = &self.inputs.reference;
        let matches = got.len() == reference.len()
            && got
                .iter()
                .all(|(k, v)| reference.get(k) == Some(&v.to_bits()));
        if !matches {
            return Err(OpError::Failed(format!(
                "pass {i}: confidences differ from reference"
            )));
        }
        Ok(self.inputs.positions)
    }

    fn op_span(&self) -> &'static str {
        STORE_FLEET
    }

    fn class(&self, _i: u64) -> &'static str {
        "fleet"
    }

    /// The fleet binds and executes inside the program, where its own
    /// spans time them; the replay adds the plan-cache lookup each pass
    /// makes before fanning out.
    fn replay(&mut self, _i: u64) -> u64 {
        let _s = span(PREPARE_HIT);
        std::hint::black_box(self.store.plan_cache().get_or_prepare(&self.inputs.tracker));
        0
    }

    fn cycle(&self) -> u64 {
        CYCLE
    }

    fn reconnect(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn begin_relay(&mut self) -> Result<Option<Relay>, String> {
        Ok(None)
    }

    fn end_relay(&mut self, _relay: Option<Relay>) -> Result<WireCounts, String> {
        Ok(WireCounts::default())
    }

    /// Drops the store's chains, so the next set-up's load does not
    /// count them twice in `peak_rss_mb`.
    fn shutdown(&mut self) {
        let names: Vec<String> = self.store.names().map(str::to_string).collect();
        for name in names {
            // Every listed name is present; nothing to report.
            let _ = self.store.remove(&name);
        }
    }
}
