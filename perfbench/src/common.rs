//! Pieces every workload shares: the seeded generator, the determinism
//! check on counts, and the BSP counters summed from `RunStats`.

use crate::report::Report;
use std::collections::HashMap;
use vcsql::baseline::{self, ExecConfig, JoinAlgo};
use vcsql::bsp::{RunStats, DEFAULT_PARALLEL_THRESHOLD};
use vcsql::query::{AggClass, Analyzed};
use vcsql::relation::{Database, RelError, Relation};
use vcsql::workload::BenchQuery;

/// Engine threads: the benchmark host has two cores.
pub const THREADS: usize = 2;
/// Simulated machines for the distributed measurements.
pub const MACHINES: usize = 4;
/// Seed of the data generators. The workload seed varies the query stream
/// over one fixed database, so runs with different seeds measure the same
/// data (the generators' skew makes costs differ by 25% between datasets).
pub const DATA_SEED: u64 = 42;

/// The reference: the row store with hash joins, on the same analyzed plan.
pub fn row_hash(a: &Analyzed, db: &Database) -> Result<Relation, RelError> {
    baseline::execute(a, db, ExecConfig { join: JoinAlgo::Hash })
}

/// splitmix64: a small, seedable, platform-independent generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Group a query for the per-class executor times: correlated queries run
/// recursively whatever their class, so they form a group of their own.
pub fn query_group(q: &BenchQuery) -> &'static str {
    if q.correlated {
        return "correlated";
    }
    match q.class {
        AggClass::NoAgg => "none",
        AggClass::Local => "local",
        AggClass::Global => "global",
        AggClass::Scalar => "scalar",
    }
}

pub const GROUPS: [&str; 5] = ["none", "local", "global", "scalar", "correlated"];

/// Counts that must repeat exactly for the same query on the same data:
/// the first value seen under a key is the reference for every later one.
#[derive(Default)]
pub struct Fingerprints {
    seen: HashMap<String, (u64, u64)>,
}

impl Fingerprints {
    /// Record `value` under `key`; a differing repeat is a problem that
    /// fails the run.
    pub fn check(&mut self, key: String, value: (u64, u64), arm: &str, problems: &mut Vec<String>) {
        match self.seen.get(&key) {
            None => {
                self.seen.insert(key, value);
            }
            Some(&first) if first == value => {}
            Some(&first) => problems.push(format!(
                "{key}: counts not deterministic ({arm} gave {value:?}, first run gave {first:?})"
            )),
        }
    }
}

/// BSP counters summed over executions.
#[derive(Debug, Default, Clone)]
pub struct BspCounts {
    pub executions: u64,
    pub supersteps: u64,
    pub active_vertices: u64,
    pub messages: u64,
    pub message_bytes: u64,
    pub network_messages: u64,
    pub network_bytes: u64,
    /// Supersteps, and their activations, at or above the engine's
    /// parallel threshold (the ones the worker pool fans out).
    pub parallel_steps: u64,
    pub parallel_active: u64,
}

impl BspCounts {
    pub fn add(&mut self, s: &RunStats) {
        self.executions += 1;
        self.supersteps += s.supersteps;
        self.active_vertices += s.totals.active_vertices;
        self.messages += s.totals.messages;
        self.message_bytes += s.totals.message_bytes;
        self.network_messages += s.totals.network_messages;
        self.network_bytes += s.totals.network_bytes;
        for step in &s.steps {
            if step.active_vertices >= DEFAULT_PARALLEL_THRESHOLD as u64 {
                self.parallel_steps += 1;
                self.parallel_active += step.active_vertices;
            }
        }
    }

    pub fn merge(&mut self, o: &BspCounts) {
        self.executions += o.executions;
        self.supersteps += o.supersteps;
        self.active_vertices += o.active_vertices;
        self.messages += o.messages;
        self.message_bytes += o.message_bytes;
        self.network_messages += o.network_messages;
        self.network_bytes += o.network_bytes;
        self.parallel_steps += o.parallel_steps;
        self.parallel_active += o.parallel_active;
    }

    /// The `bsp.*` counters, per query execution.
    pub fn report(&self, rep: &mut Report) {
        let n = self.executions.max(1) as f64;
        let note = format!("per execution, n={}", self.executions);
        rep.add_noted("bsp.supersteps", self.supersteps as f64 / n, "count", note.clone());
        rep.add_noted(
            "bsp.active_vertices",
            self.active_vertices as f64 / n,
            "count",
            note.clone(),
        );
        rep.add_noted("bsp.messages", self.messages as f64 / n, "count", note.clone());
        rep.add_noted("bsp.message_mb", self.message_bytes as f64 / n / MB, "MB", note);
        rep.add("bsp.parallel_step_share", share(self.parallel_steps, self.supersteps), "share");
        rep.add(
            "bsp.parallel_work_share",
            share(self.parallel_active, self.active_vertices),
            "share",
        );
    }
}

pub const MB: f64 = 1024.0 * 1024.0;

pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_seeded_and_permutes() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix::new(7);
                move |_| g.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix::new(7);
                move |_| g.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let mut g = SplitMix::new(1);
        let mut p = g.permutation(20);
        assert_ne!(p, (0..20).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..20).collect::<Vec<_>>());
        assert!((0..1000).map(|_| g.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn fingerprints_flag_a_changed_count() {
        let mut f = Fingerprints::default();
        let mut problems = Vec::new();
        f.check("q1".into(), (3, 40), "pass 0", &mut problems);
        f.check("q1".into(), (3, 40), "pass 1", &mut problems);
        f.check("q2".into(), (1, 1), "pass 0", &mut problems);
        assert!(problems.is_empty());
        f.check("q1".into(), (3, 41), "1 thread", &mut problems);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("q1") && problems[0].contains("1 thread"));
    }
}
