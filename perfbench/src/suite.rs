//! The `tpch` and `tpcds` workloads: one query suite through a local
//! `Session`, each query interleaved with the row-hash baseline on the same
//! plan, pass after pass in seed-shuffled order.

use crate::common::{
    query_group, row_hash, share, BspCounts, Fingerprints, SplitMix, DATA_SEED, GROUPS, MACHINES,
    MB, THREADS,
};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{mean, median, min_samples, suite_ratio, suite_time, tail};
use crate::trace::Tracer;
use crate::Options;
use std::sync::Arc;
use std::time::Instant;
use vcsql::bsp::{EngineConfig, PartitionStrategy};
use vcsql::core::{QueryPlan, TagJoinExecutor};
use vcsql::relation::Database;
use vcsql::tag::TagGraph;
use vcsql::workload::{tpcds, tpch, BenchQuery};
use vcsql::{Cluster, Session, SessionConfig};

pub struct Suite {
    pub name: &'static str,
    pub sf: f64,
    /// Tail percentile: the highest rung whose nearest rank falls inside
    /// the slowest query's executions rather than on the boundary between
    /// two queries (every query is an equal share of the samples).
    pub tail: f64,
    /// Set-ups per run (one takes about a second at SF 1).
    pub setups: usize,
    pub generate: fn(f64, u64) -> Database,
    pub queries: fn() -> Vec<BenchQuery>,
}

/// 15 queries: p95 falls at the slowest query's first quartile, and p99
/// would need 67 passes of about two seconds.
pub const TPCH: Suite = Suite {
    name: "tpch",
    sf: 1.0,
    tail: 0.95,
    setups: 5,
    generate: tpch::generate,
    queries: tpch::queries,
};
/// 20 queries: p95 would sit exactly on the boundary between the two
/// slowest queries (each is 5% of the samples) and read the second
/// slowest's maximum; p99 falls inside the slowest query's executions.
pub const TPCDS: Suite = Suite {
    name: "tpcds",
    sf: 0.5,
    tail: 0.99,
    setups: 15,
    generate: tpcds::generate,
    queries: tpcds::queries,
};
/// Passes a traced run alternates between tracing on and off, at least.
const TRACED_MIN_PASSES: usize = 4;
/// Passes of the static refined placement whose network bytes must agree.
const REFINED_PASSES: usize = 2;

pub fn run(suite: &Suite, opts: &Options) -> Report {
    let mut rep = Report::default();
    let mut tr = Tracer::new(opts.trace, Instant::now());
    let sf = opts.sf.unwrap_or(suite.sf);

    // Set-up, several times: data generation and the TAG encoding.
    let (mut gen_ms, mut build_ms, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut loaded: Option<(Database, TagGraph)> = None;
    for _ in 0..suite.setups {
        drop(loaded.take());
        let (db, g) = tr.time("workload.generate", None, 0, || (suite.generate)(sf, DATA_SEED));
        let (tag, b) = tr.time("tag.build", None, 0, || TagGraph::build(&db));
        gen_ms.push(g);
        build_ms.push(b);
        setup_s.push((g + b) / 1000.0);
        loaded = Some((db, tag));
    }
    let (db, tag) = loaded.expect("at least one set-up");
    let tag = Arc::new(tag);
    let queries = (suite.queries)();
    let id = |q: &BenchQuery| format!("{}/{}", suite.name, q.id);

    let engine = EngineConfig::with_threads(THREADS);
    let config = SessionConfig { machines: 1, engine, ..SessionConfig::default() };
    let mut session = Session::open(&tag, config).expect("local session opens");
    let pool = session.worker_pool().cloned().expect("a multi-thread session has a pool");
    let mut prints = Fingerprints::default();

    // Warm-up pass, untimed: fills the plan cache, spawns the pool's
    // workers and yields the reference bags for the refined passes.
    tr.set_enabled(false);
    let mut references = Vec::with_capacity(queries.len());
    for q in &queries {
        let prepared = match session.prepare(q.sql) {
            Ok(p) => p,
            Err(e) => {
                rep.outcomes.attempted += 1;
                rep.outcomes.errors.push(format!("{}: prepare: {e}", id(q)));
                return rep;
            }
        };
        let reference = match row_hash(prepared.plan().analyzed(), &db) {
            Ok(r) => r,
            Err(e) => {
                rep.problems.push(format!("{}: row-hash baseline failed: {e}", id(q)));
                return rep;
            }
        };
        let out = session.execute(&prepared);
        if rep.outcomes.check(&id(q), out.as_ref().map(|(o, _)| &o.relation), &reference) {
            let s = &out.expect("checked").0.stats;
            let key = id(q);
            prints.check(
                key,
                (s.totals.messages, s.totals.message_bytes),
                "warm-up",
                &mut rep.problems,
            );
        }
        references.push(reference);
    }

    // Untimed: the paper's distributed cost under a static refined
    // placement, run twice so its byte counts can be checked for repeats.
    tr.set_enabled(opts.trace);
    let (_, partition_ms) = tr.time("bsp.partition", None, 0, || {
        vcsql::dist::tag_partitioning(&tag, MACHINES, &PartitionStrategy::Refined)
    });
    let mut refined = Cluster::new(MACHINES)
        .engine(engine)
        .strategy(PartitionStrategy::Refined)
        .static_placement()
        .session(&tag)
        .expect("refined session opens");
    let mut net = BspCounts::default();
    for pass in 0..REFINED_PASSES {
        for (q, reference) in queries.iter().zip(&references) {
            let out = refined.run_sql(q.sql);
            let got = out.as_ref().map(|(o, _)| &o.relation);
            if rep.outcomes.check(&id(q), got, reference) {
                let s = &out.expect("checked").0.stats;
                let key = format!("{}@refined", id(q));
                let counts = (s.totals.network_messages, s.totals.network_bytes);
                prints.check(key, counts, &format!("refined pass {pass}"), &mut rep.problems);
                if pass == 0 {
                    net.add(s);
                }
            }
        }
    }
    drop(refined);

    // The timed passes.
    let mut rng = SplitMix::new(opts.seed);
    let need = if opts.trace { 0 } else { min_samples(suite.tail) };
    let n = queries.len();
    let mut tag_ms = Vec::new();
    let mut tag_by_query = vec![Vec::new(); n];
    let mut pairs = vec![Vec::new(); n];
    let mut pool_pairs = vec![Vec::new(); n];
    let mut segments: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut bsp = BspCounts::default();
    let mut request = 0u64;
    let start = Instant::now();
    for pass in 0.. {
        let timed_out = start.elapsed().as_secs_f64() >= opts.seconds;
        let enough = tag_ms.len() >= need && (!opts.trace || pass >= TRACED_MIN_PASSES);
        if timed_out && enough {
            break;
        }
        // A traced run alternates passes with tracing on and off; the
        // difference between the two is the tracing overhead.
        let traced = opts.trace && pass % 2 == 0;
        tr.set_enabled(traced);
        let mut segment = 0.0;
        for (i, qi) in rng.permutation(queries.len()).into_iter().enumerate() {
            let q = &queries[qi];
            request += 1;
            let seg_start = Instant::now();
            let span = tr.begin("query", Some(q.id), request);
            let (prepared, _) =
                tr.time("session.prepare", None, request, || session.prepare(q.sql));
            let prepared = match prepared {
                Ok(p) => p,
                Err(e) => {
                    tr.end(span);
                    rep.outcomes.attempted += 1;
                    rep.outcomes.errors.push(format!("{}: prepare: {e}", id(q)));
                    continue;
                }
            };
            let analyzed = prepared.plan().analyzed();
            // Interleave the arms, alternating which goes first.
            let ((out, t_ms), (row, r_ms)) = if (pass + i) % 2 == 0 {
                let t = tr.time("session.execute", None, request, || session.execute(&prepared));
                (t, tr.time("baseline.row_hash", None, request, || row_hash(analyzed, &db)))
            } else {
                let r = tr.time("baseline.row_hash", None, request, || row_hash(analyzed, &db));
                (tr.time("session.execute", None, request, || session.execute(&prepared)), r)
            };
            tr.end(span);
            let row = match row {
                Ok(row) => row,
                Err(e) => {
                    rep.problems.push(format!("{}: row-hash baseline failed: {e}", id(q)));
                    continue;
                }
            };
            let got = out.as_ref().map(|(o, _)| &o.relation);
            if rep.outcomes.check(&id(q), got, &row) {
                let s = &out.as_ref().expect("checked").0.stats;
                let counts = (s.totals.messages, s.totals.message_bytes);
                prints.check(id(q), counts, &format!("pass {pass}"), &mut rep.problems);
                bsp.add(s);
                tag_ms.push(t_ms);
                tag_by_query[qi].push(t_ms);
                pairs[qi].push((t_ms, r_ms));
            }
            segment += seg_start.elapsed().as_secs_f64() * 1000.0;

            if traced {
                // Layer probes, outside the segment the overhead compares:
                // uncached planning, and the executor on the same plan at
                // 2 threads (the session's pool) and at 1, interleaved.
                let _ = tr.time("query.prepare", None, request, || {
                    QueryPlan::prepare(q.sql, tag.schemas())
                });
                let plan = prepared.plan();
                let two = TagJoinExecutor::new(&tag, EngineConfig::with_threads(THREADS))
                    .with_worker_pool(Arc::clone(&pool));
                let one = TagJoinExecutor::new(&tag, EngineConfig::sequential());
                let group = Some(query_group(q));
                let ((o2, ms2), (o1, ms1)) = if (pass / 2 + i) % 2 == 0 {
                    let a = tr.time("core.execute", group, request, || two.execute_plan(plan));
                    (a, tr.time("core.execute_1t", None, request, || one.execute_plan(plan)))
                } else {
                    let b = tr.time("core.execute_1t", None, request, || one.execute_plan(plan));
                    (tr.time("core.execute", group, request, || two.execute_plan(plan)), b)
                };
                for (arm, o) in [("2 threads", o2), ("1 thread", o1)] {
                    if rep.outcomes.check(&id(q), o.as_ref().map(|o| &o.relation), &row) {
                        let s = &o.expect("checked").stats;
                        let counts = (s.totals.messages, s.totals.message_bytes);
                        prints.check(id(q), counts, arm, &mut rep.problems);
                    }
                }
                pool_pairs[qi].push((ms1, ms2));
            }
        }
        segments[usize::from(traced)].push(segment);
    }

    if !opts.trace {
        rep.add("setup_s", median(&setup_s), "s");
        let suite_s = suite_time(&tag_by_query) / 1000.0;
        rep.add_noted(
            "queries_per_s",
            n as f64 / suite_s,
            "1/s",
            format!("n={}, per-query median TAG execution time", tag_ms.len()),
        );
        rep.add_percentile("query_ms_p50", "p50", tail(&tag_ms, 0.5));
        let label = format!("p{}", suite.tail * 100.0);
        rep.add_percentile("query_ms_tail", &label, tail(&tag_ms, suite.tail));
        if let Some(r) = suite_ratio(&pairs) {
            let note = format!("{} interleaved pairs, per-query medians", tag_ms.len());
            rep.add_noted("tag_over_row_hash", r, "x", note);
        }
        rep.add_noted(
            "network_kb_per_query",
            net.network_bytes as f64 / n as f64 / 1024.0,
            "KB",
            format!("refined placement, {MACHINES} machines"),
        );
        if let Some(mb) = peak_rss_mb() {
            rep.add("peak_rss_mb", mb, "MB");
        }
    } else {
        rep.add("workload.generate_ms", median(&gen_ms), "ms");
        rep.add("tag.build_ms", median(&build_ms), "ms");
        let stats = tag.stats();
        rep.add("tag.edges", stats.edges as f64, "count");
        rep.add("tag.mb", stats.bytes as f64 / MB, "MB");
        rep.add("query.prepare_ms", mean(&tr.durations("query.prepare", None)), "ms");
        rep.add("session.prepare_ms", mean(&tr.durations("session.prepare", None)), "ms");
        let session_ms = mean(&tr.durations("session.execute", None));
        let core_ms = mean(&tr.durations("core.execute", None));
        rep.add("session.execute_ms", session_ms, "ms");
        rep.add("session.self_ms", session_ms - core_ms, "ms");
        rep.add("core.execute_ms", core_ms, "ms");
        for g in GROUPS {
            let name = format!("core.execute_ms.{g}");
            rep.add(name, mean(&tr.durations("core.execute", Some(g))), "ms");
        }
        bsp.report(&mut rep);
        rep.add("bsp.pool_speedup", suite_ratio(&pool_pairs).unwrap_or(0.0), "x");
        rep.add("bsp.partition_ms", partition_ms, "ms");
        rep.add("dist.network_share", share(net.network_bytes, net.message_bytes), "share");
        rep.add("dist.network_messages", net.network_messages as f64 / n as f64, "count");
        rep.add("baseline.row_hash_ms", mean(&tr.durations("baseline.row_hash", None)), "ms");
        crate::add_absent_server_layer(&mut rep);
        crate::add_trace_overhead(&mut rep, &segments, tr.spans().len());
    }
    crate::write_trace(&tr, opts);
    rep
}
