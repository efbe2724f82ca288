//! The `serve` workload: a `QueryServer` over a combined TPC-H + TPC-DS
//! TAG, four tenants driven in a closed loop by two client threads, each
//! tenant's mix swinging between TPC-H-heavy and TPC-DS-heavy phases so
//! the merged placement vote keeps drifting for the whole run.

use crate::common::{row_hash, share, BspCounts, SplitMix, DATA_SEED, MACHINES, MB, THREADS};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{chunked_tail, mean, median, min_samples, nearest_rank, suite_ratio, Outcomes};
use crate::trace::Tracer;
use crate::Options;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use vcsql::bsp::{EngineConfig, PartitionStrategy};
use vcsql::core::QueryPlan;
use vcsql::relation::{Database, Relation};
use vcsql::server::ServerStats;
use vcsql::tag::TagGraph;
use vcsql::workload::{tpcds, tpch};
use vcsql::{QueryServer, ServerConfig, TenantSession};

const SF: f64 = 0.05;
const TENANTS: usize = 4;
const CLIENTS: usize = 2;
/// Queries a tenant sends per mix phase.
const PHASE: usize = 100;
/// TPC-H share of a tenant's queries in its even and odd phases.
const TPCH_SHARE: [f64; 2] = [0.8, 0.2];
/// Queries each tenant sends before the clock starts.
const WARMUP: usize = 50;
/// Tail percentile reported: a serve run has thousands of samples.
const TAIL: f64 = 0.99;
/// Set-ups per run: one takes under a tenth of a second, and its time
/// swings by half between runs with the host's load.
const SETUPS: usize = 31;
/// Rounds over every query for the interleaved TAG/row-hash ratio.
const RATIO_ROUNDS: usize = 20;
/// Consecutive equal-count chunks of the window's completions; the
/// throughput and latency figures are medians over them, so a burst of
/// host noise in a few chunks does not move them. Each chunk carries its
/// own p99, so a run measures at least 10 × 1000 queries.
const CHUNKS: usize = 10;

struct Query {
    /// `suite/qN`; static so spans can carry it.
    id: &'static str,
    sql: &'static str,
    reference: Relation,
}

/// One tenant's seeded query stream.
struct Mix {
    rng: SplitMix,
    sent: usize,
    tpch: Vec<usize>,
    tpcds: Vec<usize>,
}

impl Mix {
    fn next(&mut self) -> usize {
        let share = TPCH_SHARE[(self.sent / PHASE) % 2];
        self.sent += 1;
        let suite = if self.rng.unit() < share { &self.tpch } else { &self.tpcds };
        suite[self.rng.below(suite.len())]
    }
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    /// Latency of each `run_sql`, whether its reply carried migration
    /// bytes, and when it completed.
    samples: Vec<(f64, bool, Instant)>,
    outcomes: Outcomes,
    bsp: BspCounts,
    /// Per-query time from before the call to after the check, with
    /// tracing off and on.
    segments: [Vec<f64>; 2],
}

fn server_config() -> ServerConfig {
    ServerConfig {
        machines: MACHINES,
        engine: EngineConfig::with_threads(THREADS),
        ..ServerConfig::default()
    }
}

/// What every client thread shares.
struct Loop<'a> {
    queries: &'a [Query],
    trace: bool,
    origin: Instant,
    seconds: f64,
    /// Correct completions in the window, across clients.
    done: AtomicUsize,
    barrier: Barrier,
}

/// Drive `tenants` in turn, each sending its next query after the reply.
/// Client `id` numbers its requests `id, id + CLIENTS, ...`, so request
/// ids are unique across clients.
fn client(
    id: usize,
    tenants: &[TenantSession],
    mixes: &mut [Mix],
    shared: &Loop,
) -> (ClientLog, Tracer) {
    let Loop { queries, trace, origin, seconds, ref done, ref barrier } = *shared;
    let mut tr = Tracer::new(false, origin);
    let mut log = ClientLog::default();
    // Warm-up: untimed, still checked.
    for _ in 0..WARMUP {
        for (t, mix) in tenants.iter().zip(mixes.iter_mut()) {
            let q = &queries[mix.next()];
            let out = t.run_sql(q.sql);
            log.outcomes.check(q.id, out.as_ref().map(|(o, _)| &o.relation), &q.reference);
        }
    }
    barrier.wait(); // warm-up over: the server's counters are read
    barrier.wait(); // the clock starts
    let start = Instant::now();
    let need = CHUNKS * min_samples(TAIL);
    let mut sent = 0u64;
    while start.elapsed().as_secs_f64() < seconds || done.load(Ordering::Relaxed) < need {
        for (t, mix) in tenants.iter().zip(mixes.iter_mut()) {
            let q = &queries[mix.next()];
            sent += 1;
            let request = sent * CLIENTS as u64 + id as u64;
            let traced = trace && sent.is_multiple_of(2);
            tr.set_enabled(traced);
            if traced {
                // A probe outside the interval the overhead compares.
                tr.time("server.prepare", None, request, || t.prepare(q.sql)).0.ok();
            }
            let seg = Instant::now();
            let span = tr.begin("query", Some(q.id), request);
            let (out, ms) = tr.time("server.run_sql", None, request, || t.run_sql(q.sql));
            tr.end(span);
            let got = out.as_ref().map(|(o, _)| &o.relation);
            if log.outcomes.check(q.id, got, &q.reference) {
                let (o, net) = out.as_ref().expect("checked");
                log.samples.push((ms, net.migration_bytes > 0, Instant::now()));
                log.bsp.add(&o.stats);
                done.fetch_add(1, Ordering::Relaxed);
            }
            log.segments[usize::from(traced)].push(seg.elapsed().as_secs_f64() * 1000.0);
        }
    }
    (log, tr)
}

pub fn run(opts: &Options) -> Report {
    let mut rep = Report::default();
    let origin = Instant::now();
    let mut tr = Tracer::new(opts.trace, origin);
    let sf = opts.sf.unwrap_or(SF);

    // Set-up, several times: both generators, the combined TAG, the server.
    let (mut gen_ms, mut build_ms, mut start_ms, mut setup_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut loaded: Option<(Database, Arc<TagGraph>, Arc<QueryServer>)> = None;
    for _ in 0..SETUPS {
        drop(loaded.take());
        let (db, g) = tr.time("workload.generate", None, 0, || {
            let mut db = tpch::generate(sf, DATA_SEED);
            for rel in tpcds::generate(sf, DATA_SEED).relations() {
                db.add(rel.clone());
            }
            db
        });
        let (tag, b) = tr.time("tag.build", None, 0, || Arc::new(TagGraph::build(&db)));
        let (server, s) =
            tr.time("server.start", None, 0, || QueryServer::start(&tag, server_config()));
        let server = match server {
            Ok(s) => s,
            Err(e) => {
                rep.problems.push(format!("server does not start: {e}"));
                return rep;
            }
        };
        gen_ms.push(g);
        build_ms.push(b);
        start_ms.push(s);
        setup_s.push((g + b + s) / 1000.0);
        loaded = Some((db, tag, server));
    }
    let (db, tag, server) = loaded.expect("at least one set-up");

    // Per-SQL row-hash references, computed once.
    let mut queries = Vec::new();
    let mut suites: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (suite, list) in [("tpch", tpch::queries()), ("tpcds", tpcds::queries())] {
        for q in list {
            let id: &'static str = Box::leak(format!("{suite}/{}", q.id).into_boxed_str());
            let (plan, _) =
                tr.time("query.prepare", None, 0, || QueryPlan::prepare(q.sql, tag.schemas()));
            let reference = match plan.and_then(|p| row_hash(p.analyzed(), &db)) {
                Ok(r) => r,
                Err(e) => {
                    rep.problems.push(format!("{id}: no row-hash reference: {e}"));
                    return rep;
                }
            };
            suites[usize::from(suite == "tpcds")].push(queries.len());
            queries.push(Query { id, sql: q.sql, reference });
        }
    }
    let (_, partition_ms) = tr.time("bsp.partition", None, 0, || {
        vcsql::dist::tag_partitioning(&tag, MACHINES, &PartitionStrategy::Refined)
    });

    // The closed loop.
    let tenants: Vec<TenantSession> = (0..TENANTS).map(|_| server.open_session()).collect();
    let mut mixes: Vec<Mix> = (0..TENANTS as u64)
        .map(|t| Mix {
            rng: SplitMix::new(opts.seed ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            sent: 0,
            tpch: suites[0].clone(),
            tpcds: suites[1].clone(),
        })
        .collect();
    let shared = Loop {
        queries: &queries,
        trace: opts.trace,
        origin,
        seconds: opts.seconds,
        done: AtomicUsize::new(0),
        barrier: Barrier::new(CLIENTS + 1),
    };
    let per_client = TENANTS / CLIENTS;
    let (before, after, (hits, admitted), (start, wall), logs) = std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .chunks(per_client)
            .zip(mixes.chunks_mut(per_client))
            .enumerate()
            .map(|(id, (ts, ms))| {
                let shared = &shared;
                s.spawn(move || client(id, ts, ms, shared))
            })
            .collect();
        shared.barrier.wait();
        let before = (
            server.stats(),
            server.plan_cache().hits(),
            server.plan_cache().misses(),
            server.admission_stats().admitted,
        );
        shared.barrier.wait();
        let start = Instant::now();
        let logs: Vec<(ClientLog, Tracer)> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        let wall = start.elapsed().as_secs_f64();
        let after = server.stats();
        let admitted = server.admission_stats().admitted - before.3;
        let hits = (server.plan_cache().hits() - before.1, server.plan_cache().misses() - before.2);
        (before.0, after, (hits, admitted), (start, wall), logs)
    });
    let mut samples: Vec<(f64, bool, Instant)> = Vec::new();
    let mut bsp = BspCounts::default();
    let mut segments: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (log, client_tr) in logs {
        samples.extend(log.samples);
        rep.outcomes.merge(log.outcomes);
        bsp.merge(&log.bsp);
        for (all, mine) in segments.iter_mut().zip(log.segments) {
            all.extend(mine);
        }
        tr.absorb(client_tr);
    }
    samples.sort_by_key(|s| s.2);
    let peak_in_flight = server.admission_stats().peak_in_flight;

    // After the clock: TAG through the server against row-hash on the same
    // data, interleaved query by query.
    tr.set_enabled(opts.trace);
    let mut rng = SplitMix::new(opts.seed.rotate_left(17));
    let mut pairs = vec![Vec::new(); queries.len()];
    for round in 0..RATIO_ROUNDS {
        for (i, qi) in rng.permutation(queries.len()).into_iter().enumerate() {
            let q = &queries[qi];
            let plan = match tenants[0].prepare(q.sql) {
                Ok(plan) => plan,
                Err(e) => {
                    rep.outcomes.attempted += 1;
                    rep.outcomes.errors.push(format!("{}: prepare: {e}", q.id));
                    continue;
                }
            };
            let (out, t_ms, r_ms) = if (round + i) % 2 == 0 {
                let (out, t) = tr.time("ratio.run_sql", None, 0, || tenants[0].run_sql(q.sql));
                let (_, r) =
                    tr.time("baseline.row_hash", None, 0, || row_hash(plan.analyzed(), &db));
                (out, t, r)
            } else {
                let (_, r) =
                    tr.time("baseline.row_hash", None, 0, || row_hash(plan.analyzed(), &db));
                let (out, t) = tr.time("ratio.run_sql", None, 0, || tenants[0].run_sql(q.sql));
                (out, t, r)
            };
            if rep.outcomes.check(q.id, out.as_ref().map(|(o, _)| &o.relation), &q.reference) {
                pairs[qi].push((t_ms, r_ms));
            }
        }
    }

    let window = delta(&before, &after);
    let latencies: Vec<f64> = samples.iter().map(|s| s.0).collect();
    if !opts.trace {
        rep.add("setup_s", median(&setup_s), "s");
        // Completions per second within each chunk, from the previous
        // chunk's last completion to this one's.
        let size = samples.len() / CHUNKS;
        let mut rates = Vec::with_capacity(CHUNKS);
        let mut from = start;
        for c in 0..CHUNKS {
            let end = if c + 1 == CHUNKS { samples.len() } else { (c + 1) * size };
            let Some(last) = end.checked_sub(1).map(|i| samples[i].2) else { break };
            let secs = last.saturating_duration_since(from).as_secs_f64();
            rates.push((end - c * size) as f64 / secs);
            from = last;
        }
        rep.add_noted(
            "queries_per_s",
            median(&rates),
            "1/s",
            format!(
                "n={}, median of {CHUNKS} chunks; mean over {wall:.2} s wall {:.1}",
                latencies.len(),
                latencies.len() as f64 / wall
            ),
        );
        let label = format!("median of {CHUNKS} chunks' p50");
        rep.add_percentile("query_ms_p50", &label, chunked_tail(&latencies, CHUNKS, 0.5));
        let label = format!("median of {CHUNKS} chunks' p99");
        rep.add_percentile("query_ms_tail", &label, chunked_tail(&latencies, CHUNKS, TAIL));
        if let Some(r) = suite_ratio(&pairs) {
            let n: usize = pairs.iter().map(Vec::len).sum();
            let note = format!("{n} interleaved pairs after the window, per-query medians");
            rep.add_noted("tag_over_row_hash", r, "x", note);
        }
        rep.add_noted(
            "network_kb_per_query",
            window.net.network_bytes as f64 / window.queries.max(1) as f64 / 1024.0,
            "KB",
            format!("{} queries, migrations included", window.queries),
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
        crate::add_absent_session_layer(&mut rep);
        bsp.report(&mut rep);
        rep.add_noted("bsp.pool_speedup", 0.0, "x", "not measured on this workload".into());
        rep.add("bsp.partition_ms", partition_ms, "ms");
        rep.add("dist.network_share", share(bsp.network_bytes, bsp.message_bytes), "share");
        rep.add(
            "dist.network_messages",
            bsp.network_messages as f64 / bsp.executions.max(1) as f64,
            "count",
        );
        rep.add("baseline.row_hash_ms", mean(&tr.durations("baseline.row_hash", None)), "ms");
        rep.add("server.start_ms", median(&start_ms), "ms");
        rep.add("server.prepare_ms", mean(&tr.durations("server.prepare", None)), "ms");
        let (h, m) = hits;
        rep.add("server.plan_cache_hit_rate", share(h, h + m), "share");
        rep.add("server.run_sql_ms", mean(&tr.durations("server.run_sql", None)), "ms");
        for (name, migrating) in
            [("server.migrating_query_ms_p50", true), ("server.plain_query_ms_p50", false)]
        {
            let part: Vec<f64> = samples.iter().filter(|s| s.1 == migrating).map(|s| s.0).collect();
            let n = part.len();
            rep.add_noted(name, nearest_rank(&part, 0.5).unwrap_or(0.0), "ms", format!("n={n}"));
        }
        rep.add("server.adaptations", window.adaptations as f64, "count");
        rep.add("server.migration_steps", window.migration_steps as f64, "count");
        rep.add("server.migrated_vertices", window.migrated_vertices as f64, "count");
        rep.add("server.migration_mb", window.migration_bytes as f64 / MB, "MB");
        rep.add("server.admitted", admitted as f64, "count");
        rep.add("server.peak_in_flight", peak_in_flight as f64, "count");
        rep.add("server.panics", window.failures.panics as f64, "count");
        rep.add("server.timeouts", window.failures.timeouts as f64, "count");
        rep.add("server.retries", window.failures.retries as f64, "count");
        crate::add_trace_overhead(&mut rep, &segments, tr.spans().len());
    }
    crate::write_trace(&tr, opts);
    rep
}

/// Server counters accumulated between two snapshots.
fn delta(before: &ServerStats, after: &ServerStats) -> ServerStats {
    let mut d = after.clone();
    d.queries -= before.queries;
    d.adaptations -= before.adaptations;
    d.migration_steps -= before.migration_steps;
    d.migrated_vertices -= before.migrated_vertices;
    d.migration_bytes -= before.migration_bytes;
    d.net.network_bytes -= before.net.network_bytes;
    d.net.network_messages -= before.net.network_messages;
    d.failures.panics -= before.failures.panics;
    d.failures.timeouts -= before.failures.timeouts;
    d.failures.retries -= before.failures.retries;
    d
}
