//! The [`Cluster`] builder: one value describing a simulated cluster, from
//! which sessions are opened, plus the paper's Fig 16 runtime model
//! ([`modelled_runtime`]).
//!
//! One fluent entry point covers the paper's Section 8.6 flow — static
//! placements, the calibrate → workload-aware placement loop, and the
//! runtime model:
//!
//! ```ignore
//! let cluster = Cluster::new(6).bandwidth(1e9).strategy(PartitionStrategy::Refined);
//! let mut session = cluster.session(&tag)?;                 // static-shape placement
//! let mut tuned = cluster.calibrated_session(&tag, &ws)?;   // calibrate → profile → serve
//! let (out, net) = tuned.run_sql(sql)?;
//! let runtime = cluster.modelled_runtime(compute_secs, &net)?;
//! ```

use crate::{execute_once, tag_partitioning, NetStats, Session, SessionConfig};
use std::sync::Arc;
use vcsql_bsp::{EngineConfig, PartitionStrategy, TrafficProfile};
use vcsql_core::QueryPlan;
use vcsql_query::analyze::Analyzed;
use vcsql_relation::RelError;
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// Modelled end-to-end runtime: local compute plus network transfer at
/// `bandwidth_bytes_per_sec` (the paper's Fig 16 combines both the same
/// way; latency per round is dominated by transfer at these sizes).
///
/// Bandwidth comes from callers' configuration (e.g. `repro --bandwidth`),
/// so a non-positive or non-finite value is an error, not a panic.
pub fn modelled_runtime(
    compute_secs: f64,
    net: &NetStats,
    bandwidth_bytes_per_sec: f64,
) -> Result<f64> {
    if !bandwidth_bytes_per_sec.is_finite() || bandwidth_bytes_per_sec <= 0.0 {
        return Err(RelError::Other(format!(
            "bandwidth must be a positive number of bytes/sec, got {bandwidth_bytes_per_sec}"
        )));
    }
    Ok(compute_secs + net.network_bytes as f64 / bandwidth_bytes_per_sec)
}

/// A simulated cluster: machine count, modelled bandwidth, placement
/// strategy and session knobs. Build once, open any number of sessions.
#[derive(Debug, Clone)]
pub struct Cluster {
    bandwidth_bytes_per_sec: f64,
    config: SessionConfig,
}

impl Cluster {
    /// A cluster of `machines` simulated machines with the default session
    /// configuration (refined static placement, 1 GB/s modelled bandwidth,
    /// adaptation on).
    pub fn new(machines: usize) -> Cluster {
        Cluster {
            bandwidth_bytes_per_sec: 1e9,
            config: SessionConfig { machines, ..SessionConfig::default() },
        }
    }

    /// Modelled network bandwidth for [`Cluster::modelled_runtime`].
    pub fn bandwidth(mut self, bytes_per_sec: f64) -> Cluster {
        self.bandwidth_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Initial placement strategy for sessions of this cluster.
    pub fn strategy(mut self, strategy: PartitionStrategy) -> Cluster {
        self.config.strategy = strategy;
        self
    }

    /// BSP engine tuning for sessions of this cluster.
    pub fn engine(mut self, engine: EngineConfig) -> Cluster {
        self.config.engine = engine;
        self
    }

    /// Plan-cache capacity for sessions of this cluster.
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Cluster {
        self.config.plan_cache_capacity = capacity;
        self
    }

    /// Online-repartitioning drift threshold (see
    /// [`SessionConfig::drift_threshold`]).
    pub fn drift_threshold(mut self, threshold: f64) -> Cluster {
        self.config.drift_threshold = threshold;
        self
    }

    /// Per-step migration budget (see [`SessionConfig::migration_budget`]).
    pub fn migration_budget(mut self, budget: usize) -> Cluster {
        self.config.migration_budget = budget;
        self
    }

    /// Balance slack for placement and migration.
    pub fn balance_slack(mut self, slack: f64) -> Cluster {
        self.config.balance_slack = slack;
        self
    }

    /// Disable online repartitioning: sessions keep their initial placement
    /// for their whole lifetime (drift is in `[0, 1]`, so a threshold of 2
    /// can never trip). Strategy comparisons measure each strategy this way.
    pub fn static_placement(self) -> Cluster {
        self.drift_threshold(2.0)
    }

    /// Machine count.
    pub fn machines(&self) -> usize {
        self.config.machines
    }

    /// The session configuration sessions of this cluster are opened with.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Open a session over `tag` with this cluster's configuration.
    pub fn session(&self, tag: &Arc<TagGraph>) -> Result<Session> {
        Session::open(tag, self.config.clone())
    }

    /// Phase 1 of the workload-aware loop: run `workload` once under the
    /// untuned hash placement and return the observed per-edge-label
    /// [`TrafficProfile`], covering every edge label of the TAG (labels the
    /// workload never traversed get explicit zeros, so the `Workload`
    /// placement spends no locality on them rather than falling back to
    /// static weights).
    ///
    /// The profile records *total* per-label traffic, not the network share,
    /// so it is independent of the calibration placement; hash is used only
    /// because it is the cheap untuned baseline.
    pub fn calibrate(&self, tag: &TagGraph, workload: &[Analyzed]) -> Result<TrafficProfile> {
        self.config.check()?;
        let hash = Arc::new(tag_partitioning(tag, self.config.machines, &PartitionStrategy::Hash));
        let mut profile = TrafficProfile::new();
        for a in workload {
            let plan = QueryPlan::new(a.clone())?;
            let placement = Some(Arc::clone(&hash));
            let (out, _) = execute_once(tag, &plan, self.config.engine, placement, None, None)?;
            profile.observe_run(&out.stats, tag.graph(), None);
        }
        profile.cover_graph(tag.graph());
        Ok(profile)
    }

    /// Calibrate on `calibrate_on`, then open a session whose initial
    /// placement is derived from the observed profile. The session keeps
    /// observing and re-adapts online as the real mix drifts away from the
    /// calibration workload (unless the cluster has a static placement).
    pub fn calibrated_session(
        &self,
        tag: &Arc<TagGraph>,
        calibrate_on: &[Analyzed],
    ) -> Result<Session> {
        let profile = self.calibrate(tag, calibrate_on)?;
        let mut config = self.config.clone();
        config.strategy = PartitionStrategy::Workload(profile);
        Session::open(tag, config)
    }

    /// Modelled end-to-end runtime at this cluster's bandwidth: measured
    /// local compute plus network transfer (the paper's Fig 16 model).
    pub fn modelled_runtime(&self, compute_secs: f64, net: &NetStats) -> Result<f64> {
        modelled_runtime(compute_secs, net, self.bandwidth_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_baseline::SparkModel;
    use vcsql_core::TagJoinExecutor;
    use vcsql_query::{analyze::analyze, parse};
    use vcsql_workload::tpch;

    const JOIN_SQL: &str = "SELECT c.c_name FROM customer c, orders o, lineitem l \
                            WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey";

    fn analyzed(tag: &TagGraph, sql: &str) -> Analyzed {
        analyze(&parse(sql).unwrap(), tag.schemas()).unwrap()
    }

    /// A session that keeps `strategy`'s placement on `machines` machines.
    fn static_session(
        tag: &Arc<TagGraph>,
        machines: usize,
        strategy: PartitionStrategy,
        engine: EngineConfig,
    ) -> Result<Session> {
        Cluster::new(machines).strategy(strategy).engine(engine).static_placement().session(tag)
    }

    #[test]
    fn builder_round_trips_configuration() {
        let c = Cluster::new(6)
            .bandwidth(5e8)
            .strategy(PartitionStrategy::CoLocate)
            .engine(EngineConfig::sequential())
            .plan_cache_capacity(3)
            .drift_threshold(0.5)
            .migration_budget(99)
            .balance_slack(0.3);
        assert_eq!(c.machines(), 6);
        assert_eq!(c.config().plan_cache_capacity, 3);
        assert_eq!(c.config().migration_budget, 99);
        assert_eq!(c.config().strategy, PartitionStrategy::CoLocate);
        assert!((c.config().drift_threshold - 0.5).abs() < 1e-12);
        assert!((c.config().balance_slack - 0.3).abs() < 1e-12);
        let net = NetStats { network_bytes: 5u64 * 100_000_000, ..Default::default() };
        assert!((c.modelled_runtime(1.0, &net).unwrap() - 2.0).abs() < 1e-9);
        assert!(c.bandwidth(0.0).modelled_runtime(1.0, &net).is_err());
        // Zero machines is an Err from every builder entry point — never a
        // panic, and calibrated_session matches session's failure mode.
        let tag = Arc::new(TagGraph::build(&tpch::generate(0.004, 1)));
        assert!(Cluster::new(0).session(&tag).is_err());
        assert!(Cluster::new(0).calibrated_session(&tag, &[]).is_err());
    }

    #[test]
    fn calibrated_session_subsumes_the_profiled_loop() {
        let db = tpch::generate(0.01, 42);
        let tag = Arc::new(TagGraph::build(&db));
        let a = analyze(&parse(JOIN_SQL).unwrap(), tag.schemas()).unwrap();
        let cluster = Cluster::new(6).engine(EngineConfig::sequential()).static_placement();
        let workload = std::slice::from_ref(&a);

        // The explicit two-phase loop: calibrate, place for the profile,
        // execute once under that placement...
        let profile = cluster.calibrate(&tag, workload).unwrap();
        let placement = tag_partitioning(&tag, 6, &PartitionStrategy::Workload(profile.clone()));
        let plan = QueryPlan::new(a.clone()).unwrap();
        let (old_out, old_net) = execute_once(
            &tag,
            &plan,
            EngineConfig::sequential(),
            Some(Arc::new(placement)),
            None,
            None,
        )
        .unwrap();
        // ...and the Cluster form of the same thing.
        let mut session = cluster.calibrated_session(&tag, workload).unwrap();
        assert_eq!(session.placement_profile(), &profile);
        let (out, net) = session.run_sql(JOIN_SQL).unwrap();
        assert!(out.relation.same_bag_approx(&old_out.relation, 1e-9));
        assert_eq!(net.network_bytes, old_net.network_bytes);
        assert_eq!(net.rounds, old_net.rounds);
    }

    #[test]
    fn hash_cluster_matches_local_results() {
        let db = tpch::generate(0.01, 11);
        let tag = Arc::new(TagGraph::build(&db));
        let local =
            TagJoinExecutor::new(&tag, EngineConfig::sequential()).run_sql(JOIN_SQL).unwrap();
        let (out, net) =
            static_session(&tag, 6, PartitionStrategy::Hash, EngineConfig::sequential())
                .unwrap()
                .run_sql(JOIN_SQL)
                .unwrap();
        assert!(out.relation.same_bag_approx(&local.relation, 1e-9));
        assert!(net.network_bytes > 0, "a 6-machine run must use the network");
        assert!(net.network_bytes <= out.stats.total_bytes());
        assert_eq!(net.rounds, out.stats.supersteps);
    }

    #[test]
    fn one_machine_means_no_network() {
        let db = tpch::generate(0.01, 11);
        let tag = Arc::new(TagGraph::build(&db));
        let seq = EngineConfig::sequential();
        let (_, net) = static_session(&tag, 1, PartitionStrategy::Hash, seq)
            .unwrap()
            .run_sql(JOIN_SQL)
            .unwrap();
        assert_eq!(net.network_bytes, 0);
        assert_eq!(net.network_messages, 0);
        assert!(static_session(&tag, 0, PartitionStrategy::Hash, seq).is_err());
    }

    #[test]
    fn locality_strategies_preserve_results_and_cut_traffic() {
        let db = tpch::generate(0.02, 42);
        let tag = Arc::new(TagGraph::build(&db));
        let seq = EngineConfig::sequential();
        let local = TagJoinExecutor::new(&tag, seq).run_sql(JOIN_SQL).unwrap();
        let (_, hash) = static_session(&tag, 6, PartitionStrategy::Hash, seq)
            .unwrap()
            .run_sql(JOIN_SQL)
            .unwrap();
        for strategy in [PartitionStrategy::CoLocate, PartitionStrategy::Refined] {
            let name = strategy.name();
            let (out, net) =
                static_session(&tag, 6, strategy, seq).unwrap().run_sql(JOIN_SQL).unwrap();
            assert!(
                out.relation.same_bag_approx(&local.relation, 1e-9),
                "{name}: partitioning changed the result"
            );
            assert_eq!(out.stats.total_messages(), local.stats.total_messages());
            assert!(
                net.network_bytes <= hash.network_bytes,
                "{name}: {} > hash {}",
                net.network_bytes,
                hash.network_bytes
            );
        }
    }

    #[test]
    fn refined_partitioning_has_lower_edge_cut_than_hash() {
        let db = tpch::generate(0.01, 7);
        let tag = TagGraph::build(&db);
        let g = tag.graph();
        let hash = tag_partitioning(&tag, 6, &PartitionStrategy::Hash).diagnostics(g);
        let refined = tag_partitioning(&tag, 6, &PartitionStrategy::Refined).diagnostics(g);
        assert!(
            refined.edge_cut_fraction < hash.edge_cut_fraction,
            "refined {:.3} vs hash {:.3}",
            refined.edge_cut_fraction,
            hash.edge_cut_fraction
        );
        // Balance stays bounded by the strategies' slack.
        assert!(refined.load_imbalance <= 1.0 + vcsql_bsp::DEFAULT_BALANCE_SLACK + 0.05);
    }

    #[test]
    fn spark_model_ships_more_than_tag_on_joins() {
        let db = tpch::generate(0.02, 42);
        let tag = Arc::new(TagGraph::build(&db));
        let a = analyzed(&tag, JOIN_SQL);
        let (_, tag_net) =
            static_session(&tag, 6, PartitionStrategy::Hash, EngineConfig::with_threads(4))
                .unwrap()
                .run_sql(JOIN_SQL)
                .unwrap();
        let spark = SparkModel { machines: 6, broadcast_threshold: 0 };
        let spark_net = spark.run(&a, &db).unwrap();
        assert!(
            spark_net.network_bytes > tag_net.network_bytes,
            "spark {} <= tag {}",
            spark_net.network_bytes,
            tag_net.network_bytes
        );
    }

    #[test]
    fn whole_workload_runs_under_both_models() {
        let db = tpch::generate(0.01, 42);
        let tag = Arc::new(TagGraph::build(&db));
        let spark = SparkModel { machines: 6, broadcast_threshold: 0 };
        let mut session =
            static_session(&tag, 6, PartitionStrategy::Hash, EngineConfig::with_threads(4))
                .unwrap();
        for q in tpch::queries() {
            let a = analyzed(&tag, q.sql);
            let (_, tag_net) =
                session.run_sql(q.sql).unwrap_or_else(|e| panic!("{}: hash session: {e}", q.id));
            let spark_net =
                spark.run(&a, &db).unwrap_or_else(|e| panic!("{}: spark model: {e}", q.id));
            // Both sides of the comparison must produce *some* accounting.
            assert!(spark_net.rounds > 0, "{}: no exchanges modelled", q.id);
            let _ = tag_net;
        }
    }

    #[test]
    fn modelled_runtime_adds_transfer_time() {
        let net = NetStats {
            network_messages: 1,
            network_bytes: 2_000_000_000,
            rounds: 1,
            ..Default::default()
        };
        let t = modelled_runtime(0.5, &net, 1e9).unwrap();
        assert!((t - 2.5).abs() < 1e-9);
    }

    #[test]
    fn modelled_runtime_rejects_bad_bandwidth() {
        let net = NetStats { network_bytes: 1, ..NetStats::default() };
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(modelled_runtime(0.5, &net, bad).is_err(), "bandwidth {bad} accepted");
        }
    }

    #[test]
    fn calibration_profile_covers_graph_and_sees_join_labels() {
        let db = tpch::generate(0.01, 11);
        let tag = TagGraph::build(&db);
        let a = analyzed(&tag, JOIN_SQL);
        let profile = Cluster::new(6)
            .engine(EngineConfig::sequential())
            .calibrate(&tag, std::slice::from_ref(&a))
            .unwrap();
        // Every edge label of the graph is covered (explicit zeros included).
        assert_eq!(profile.len(), tag.graph().edge_labels().len());
        // The traversed join columns carried traffic; untouched columns did
        // not.
        assert!(profile.get("lineitem.l_orderkey").unwrap().bytes > 0);
        assert!(profile.get("orders.o_custkey").unwrap().bytes > 0);
        assert_eq!(profile.get("part.p_name").unwrap().bytes, 0);
        // And it round-trips through the text hand-off format.
        let text = profile.to_text();
        assert_eq!(TrafficProfile::from_text(&text).unwrap(), profile);
    }

    #[test]
    fn calibrated_session_preserves_results_and_beats_hash() {
        let db = tpch::generate(0.02, 42);
        let tag = Arc::new(TagGraph::build(&db));
        let a = analyzed(&tag, JOIN_SQL);
        let seq = EngineConfig::sequential();
        let local = TagJoinExecutor::new(&tag, seq).run_sql(JOIN_SQL).unwrap();
        let (_, hash) = static_session(&tag, 6, PartitionStrategy::Hash, seq)
            .unwrap()
            .run_sql(JOIN_SQL)
            .unwrap();
        let workload = std::slice::from_ref(&a);
        let mut tuned = Cluster::new(6)
            .engine(seq)
            .static_placement()
            .calibrated_session(&tag, workload)
            .unwrap();
        assert!(!tuned.placement_profile().is_empty());
        assert_eq!(tuned.partitioning().unwrap().machines(), 6);
        let (out, net) = tuned.run_sql(JOIN_SQL).unwrap();
        assert!(out.relation.same_bag_approx(&local.relation, 1e-9));
        assert_eq!(out.stats.total_messages(), local.stats.total_messages());
        assert!(
            net.network_bytes <= hash.network_bytes,
            "workload {} > hash {}",
            net.network_bytes,
            hash.network_bytes
        );
    }
}
