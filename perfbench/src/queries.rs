//! Seeded query generators shared by the workloads.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::RngExt;
use transmark::engine::{Alphabet, SymbolId, Transducer};

/// `n` distinct symbols of an alphabet of `symbols`, seeded.
pub fn distinct_symbols(rng: &mut StdRng, symbols: usize, n: usize) -> Vec<SymbolId> {
    let mut picks: Vec<SymbolId> = Vec::new();
    while picks.len() < n {
        let s = SymbolId(rng.random_range(0..symbols) as u32);
        if !picks.contains(&s) {
            picks.push(s);
        }
    }
    picks
}

/// A deterministic transducer that reports each of the first `k`
/// occurrences of the chosen symbols with a label (`d0` or `d1`) and is
/// silent afterwards, plus a `k`-label output to ask about.
///
/// With `labels`, each state and symbol gets a seeded label and the
/// output is seeded: trackers of one `k` and alphabet cost about the same
/// to evaluate, and the labels and symbols make `2^(2k)` times the ordered
/// symbol pairs distinct machines. Without, every report is `d0` and so
/// is the output, so every event path matches and the evaluation's shape
/// does not depend on the seed: only the chosen symbols and the chain do.
pub fn first_events_tracker(
    alphabet: &Arc<Alphabet>,
    events: &[SymbolId],
    k: usize,
    mut labels: Option<&mut StdRng>,
) -> (Transducer, String) {
    let mut label = || labels.as_mut().map_or(0, |rng| rng.random_range(0..2u32));
    let output = Arc::new(Alphabet::from_names(["d0", "d1"]));
    let mut b = Transducer::builder(alphabet.clone(), output);
    let q: Vec<_> = (0..=k).map(|_| b.add_state(true)).collect();
    for (i, &from) in q.iter().enumerate() {
        for s in 0..alphabet.len() as u32 {
            let sym = SymbolId(s);
            let hit = events.iter().position(|&e| e == sym).filter(|_| i < k);
            let (to, emit) = match hit {
                Some(_) => (q[i + 1], vec![SymbolId(label())]),
                None => (from, vec![]),
            };
            b.add_transition(from, sym, to, &emit)
                .expect("valid tracker edge");
        }
    }
    let t = b.build().expect("valid tracker");
    let output = (0..k)
        .map(|_| format!("d{}", label()))
        .collect::<Vec<_>>()
        .join(" ");
    (t, output)
}

/// A silent two-state transducer accepting the strings that end with
/// `a`: its underlying automaton is what a window session evaluates.
pub fn ends_with(alphabet: &Arc<Alphabet>, a: SymbolId) -> Transducer {
    let output = Arc::new(Alphabet::from_names(["d0"]));
    let mut b = Transducer::builder(alphabet.clone(), output);
    let p = [b.add_state(false), b.add_state(true)];
    for s in 0..alphabet.len() as u32 {
        let sym = SymbolId(s);
        let to = p[usize::from(sym == a)];
        for from in p {
            b.add_transition(from, sym, to, &[])
                .expect("valid window edge");
        }
    }
    b.build().expect("valid window machine")
}
