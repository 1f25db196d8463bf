//! A deliberately naive reference explorer for differential tests: a FIFO
//! breadth-first search over deep [`Config`]s with a `HashMap<Config,
//! usize>` visited set. It shares no code with `StateGraph::explore` — no
//! interner, no id rows, no level merge, no threads, no POR — only the
//! stepping rules of [`SystemSpec`], and applies the explorer's documented
//! graph rules:
//!
//! * node ids are BFS discovery order, node 0 the initial configuration;
//! * successors in (pid ascending, outcome) order;
//! * with symmetry, every configuration is canonicalized — only when the
//!   system's symmetry groups are non-trivial — and each node's edges are
//!   then sorted and deduplicated by (pid, to);
//! * a successor that would exceed `max_configs` drops its edge and marks
//!   the graph truncated.
//!
//! Include it with `mod reference;`.

#![allow(dead_code)]

use std::collections::{HashMap, HashSet};

use subconsensus_modelcheck::{Edge, StateGraph};
use subconsensus_sim::{Config, SystemSpec};

/// The reference graph: configurations, per-node edges, terminals.
pub struct RefGraph {
    pub configs: Vec<Config>,
    pub edges: Vec<Vec<Edge>>,
    pub terminals: Vec<usize>,
    pub truncated: bool,
}

/// Explores `spec` (the orbit quotient when `symmetry`), keeping at most
/// `max_configs` configurations.
pub fn explore(spec: &SystemSpec, symmetry: bool, max_configs: usize) -> RefGraph {
    let symmetry = symmetry && !spec.symmetry_groups().is_trivial();
    let canon = |c: Config| {
        if symmetry {
            spec.canonicalize_config(c)
        } else {
            c
        }
    };
    let root = canon(spec.initial_config());
    let mut index: HashMap<Config, usize> = HashMap::from([(root.clone(), 0)]);
    let mut g = RefGraph {
        configs: vec![root],
        edges: Vec::new(),
        terminals: Vec::new(),
        truncated: false,
    };
    // `configs` doubles as the FIFO queue: node `i` is expanded i-th.
    let mut i = 0;
    while i < g.configs.len() {
        let config = g.configs[i].clone();
        let mut out = Vec::new();
        for pid in config.enabled() {
            for (next, _) in spec.successors(&config, pid).expect("reference step") {
                let next = canon(next);
                let to = match index.get(&next) {
                    Some(&j) => j,
                    None if g.configs.len() >= max_configs => {
                        g.truncated = true;
                        continue;
                    }
                    None => {
                        index.insert(next.clone(), g.configs.len());
                        g.configs.push(next);
                        g.configs.len() - 1
                    }
                };
                out.push(Edge { pid, to: to as u32 });
            }
        }
        if symmetry {
            out.sort_by_key(|e| (e.pid.index(), e.to));
            out.dedup();
        }
        if config.is_final() {
            g.terminals.push(i);
        }
        g.edges.push(out);
        i += 1;
    }
    g
}

/// Asserts that `g` is the reference graph node for node: configurations,
/// edges, terminals and truncation.
pub fn assert_matches(g: &StateGraph, r: &RefGraph, label: &str) {
    assert_eq!(g.len(), r.configs.len(), "{label}: node count");
    for (i, (config, edges)) in r.configs.iter().zip(&r.edges).enumerate() {
        assert_eq!(&g.config(i), config, "{label}: node {i}");
        assert_eq!(g.edges(i), edges.as_slice(), "{label}: edges of node {i}");
    }
    assert_eq!(g.terminals(), r.terminals.as_slice(), "{label}: terminals");
    assert_eq!(g.is_truncated(), r.truncated, "{label}: truncation");
}

/// Asserts that `g` reaches exactly the reference graph's terminal
/// configurations — what a POR-reduced graph must preserve.
pub fn assert_same_terminals(g: &StateGraph, r: &RefGraph, label: &str) {
    let got: HashSet<Config> = g.terminals().iter().map(|&t| g.config(t)).collect();
    let want: HashSet<Config> = r.terminals.iter().map(|&t| r.configs[t].clone()).collect();
    assert_eq!(
        g.terminals().len(),
        got.len(),
        "{label}: duplicate terminals"
    );
    assert_eq!(got, want, "{label}: terminal configurations");
}
