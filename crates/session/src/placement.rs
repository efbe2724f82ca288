//! The execution path and placement controller shared by [`crate::Session`]
//! (a single [`Arbitration::Unilateral`] proposer) and `vcsql-server`.

use crate::{NetStats, SessionConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use vcsql_bsp::{
    balance_cap, migrate_step, EngineConfig, FaultInjector, PartitionStrategy, Partitioning,
    TrafficProfile, VertexId, WorkerPool,
};
use vcsql_core::{ExecOutput, QueryPlan, TagJoinExecutor};
use vcsql_relation::{AbortKind, RelError, Value};
use vcsql_tag::TagGraph;

/// Build a machine partitioning of `tag` with the given strategy. The TAG's
/// attribute vertices are the anchors: under `CoLocate`/`Refined` they
/// hash-place and tuple vertices cluster around them.
pub fn tag_partitioning(
    tag: &TagGraph,
    machines: usize,
    strategy: &PartitionStrategy,
) -> Partitioning {
    strategy.partition(tag.graph(), machines, &|v| !tag.is_tuple_vertex(v))
}

/// Run `plan` once under `placement`, on the given worker pool and fault
/// injector, returning the output and its [`NetStats::from_run`] traffic.
/// A panic in the executor becomes an [`AbortKind::Panic`] error: the
/// executor reads caller state only through `Arc`s, so unwinding cannot
/// leave that state torn.
pub fn execute_once(
    tag: &TagGraph,
    plan: &QueryPlan,
    engine: EngineConfig,
    placement: Option<Arc<Partitioning>>,
    workers: Option<&Arc<WorkerPool>>,
    faults: Option<&Arc<FaultInjector>>,
) -> Result<(ExecOutput, NetStats), RelError> {
    let mut exec = TagJoinExecutor::new(tag, engine);
    if let Some(p) = placement {
        exec = exec.with_partitioning_shared(p);
    }
    if let Some(pool) = workers {
        exec = exec.with_worker_pool(Arc::clone(pool));
    }
    if let Some(inj) = faults {
        exec = exec.with_fault_injector(Arc::clone(inj));
    }
    let out = catch_unwind(AssertUnwindSafe(|| exec.execute_plan(plan))).map_err(|payload| {
        RelError::Aborted { kind: AbortKind::Panic, message: panic_message(&*payload).to_string() }
    })??;
    let net = NetStats::from_run(&out.stats);
    Ok((out, net))
}

/// How a [`Placement`] reconciles competing proposers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arbitration {
    /// The arbitrated loop: the caller merges every tenant's decayed
    /// profile byte-weighted into one consensus vote; one target is derived
    /// when the *consensus* drifts and walked under the global budget.
    #[default]
    Merged,
    /// The policy of an independent session: the proposer's own profile
    /// drives the target, and a drifted proposer overwrites another
    /// proposer's in-flight target. With several tenants this is the
    /// thrashing baseline.
    Unilateral,
    /// Never adapt: the initial placement serves forever.
    Static,
}

/// What one [`Placement::step`] did, for the caller's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCounts {
    /// 1 iff the step derived a new target.
    pub adaptations: u64,
    /// 1 iff the step moved at least one vertex.
    pub migration_steps: u64,
    /// Vertices moved.
    pub migrated_vertices: u64,
    /// Bytes of moved vertex state.
    pub migration_bytes: u64,
}

/// An in-flight walk: the target, the vote it was derived from (adopted as
/// the placement profile once the walk completes), and who proposed it.
#[derive(Debug)]
struct Pending {
    target: Partitioning,
    profile: TrafficProfile,
    proposer: usize,
}

/// The placement controller: current placement, the profile it was derived
/// from, and the walk in flight. It takes no locks; callers hold their own.
pub struct Placement {
    tag: Arc<TagGraph>,
    drift_threshold: f64,
    migration_budget: usize,
    balance_slack: f64,
    /// `None` when the cluster has one machine. Mid-migration this is the
    /// in-between placement the next execution runs under.
    current: Option<Arc<Partitioning>>,
    /// Empty for the static strategies, so any observed traffic drifts
    /// maximally and self-tunes the placement on first use.
    profile: TrafficProfile,
    pending: Option<Pending>,
}

impl Placement {
    /// The initial placement of a valid `config`'s strategy (none on one
    /// machine); a `Workload` strategy's profile is its placement profile.
    pub fn new(tag: &Arc<TagGraph>, config: &SessionConfig) -> Placement {
        let current = (config.machines > 1)
            .then(|| Arc::new(tag_partitioning(tag, config.machines, &config.strategy)));
        let profile = match &config.strategy {
            PartitionStrategy::Workload(p) => p.clone(),
            _ => TrafficProfile::new(),
        };
        Placement {
            tag: Arc::clone(tag),
            drift_threshold: config.drift_threshold,
            migration_budget: config.migration_budget,
            balance_slack: config.balance_slack,
            current,
            profile,
            pending: None,
        }
    }

    /// The current placement (`None` on one machine).
    pub fn current(&self) -> Option<&Arc<Partitioning>> {
        self.current.as_ref()
    }

    /// The profile the current placement was derived from.
    pub fn profile(&self) -> &TrafficProfile {
        &self.profile
    }

    /// True iff a walk toward a target is in flight.
    pub fn migration_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Replace the placement and its profile outright, dropping any walk in
    /// flight (its target was derived for a placement that is gone).
    pub(crate) fn reset(&mut self, current: Option<Arc<Partitioning>>, profile: TrafficProfile) {
        self.current = current;
        self.profile = profile;
        self.pending = None;
    }

    /// One adaptation step after an execution by `proposer`: derive a
    /// `Workload(vote)` target if no walk is in flight (under
    /// [`Arbitration::Unilateral`]: no walk of this proposer's) and `vote`
    /// has `quorum` and drifts past the threshold, then migrate at most
    /// `migration_budget` vertices toward the target under the balance cap.
    /// A walk that converges, or is cap-blocked, adopts its vote's profile.
    pub fn step(
        &mut self,
        vote: &TrafficProfile,
        quorum: bool,
        proposer: usize,
        policy: Arbitration,
    ) -> StepCounts {
        let mut counts = StepCounts::default();
        let Some(current) = self.current.as_deref() else { return counts };
        if policy == Arbitration::Static {
            return counts;
        }
        let drifted = || quorum && vote.byte_drift(&self.profile) > self.drift_threshold;
        let need_target = match &self.pending {
            None => drifted(),
            // Unilateral proposers fight: a drifted proposer overwrites
            // another's in-flight target with its own. This is the thrash
            // the merged policy exists to prevent.
            Some(p) => policy == Arbitration::Unilateral && p.proposer != proposer && drifted(),
        };
        if need_target {
            let strategy = PartitionStrategy::Workload(vote.clone());
            let target = tag_partitioning(&self.tag, current.machines(), &strategy);
            self.pending = Some(Pending { target, profile: vote.clone(), proposer });
            counts.adaptations = 1;
        }
        let Some(pending) = &self.pending else { return counts };
        let cap =
            balance_cap(self.tag.graph().vertex_count(), current.machines(), self.balance_slack);
        let step = migrate_step(current, &pending.target, self.migration_budget, cap);
        if !step.moves.is_empty() {
            counts.migration_steps = 1;
            counts.migrated_vertices = step.moves.len() as u64;
            counts.migration_bytes =
                step.moves.iter().map(|m| vertex_state_bytes(&self.tag, m.vertex)).sum();
        }
        let done = step.remaining == 0 || step.moves.is_empty();
        self.current = Some(Arc::new(step.partitioning));
        if done {
            self.profile = self.pending.take().expect("pending checked above").profile;
        }
        counts
    }
}

/// Best-effort text of a caught panic payload (`&str` and `String` cover
/// every `panic!` in this workspace).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Wire size of one vertex's state, charged when the vertex migrates: the
/// same 8-byte-word-plus-aligned-strings model both engines charge for
/// messages (`Table::approx_bytes`, `unsafe_row_bytes`), plus one id word.
fn vertex_state_bytes(tag: &TagGraph, v: VertexId) -> u64 {
    let value_words = |val: &Value| -> u64 {
        8 + match val {
            Value::Str(s) => (s.len() as u64).div_ceil(8) * 8,
            _ => 0,
        }
    };
    8 + match tag.tuple(v) {
        Some(t) => t.0.iter().map(value_words).sum::<u64>(),
        None => tag.attr_value(v).map(value_words).unwrap_or(8),
    }
}
