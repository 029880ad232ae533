//! Set-up, the measured window, the checks and the metrics of one run.

use crate::calib::{self, Probe, Scale};
use crate::check::{digest, reference, render_rows};
use crate::stats::{highest_supported, percentile, supports};
use crate::trace::{coverage, durations_us, Recorder, Span};
use crate::workload::{pool, Op, Stream, BUCKETS};
use crate::{num, quote, Args, Metric, Report, Workload};
use oodb_core::{
    BoundedOutcome, CacheKey, CacheStats, CachedBody, CachedPlan, CostParams, FeedbackStats,
    OpenOodb, OptimizerConfig, PlanCache,
};
use oodb_exec::{OpTrace, RunLimits};
use oodb_server::json::{self, Json};
use oodb_server::{Client, Server, ServerConfig};
use oodb_service::{DurabilityStats, QueryService, StageBreakdown, SubmitOptions};
use oodb_storage::{generate_paper_db, GenConfig, Store};
use oodb_wal::{FlushPolicy, WalRecord, WalSession};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Table 1 cardinalities are divided by this.
const SCALE_DIV: u64 = 10;
/// Plan-cache entries and shards, as the service benches size it.
const CACHE_CAPACITY: usize = 256;
const CACHE_SHARDS: usize = 8;
/// Set-ups per run; `setup_s` is the median of the scaled set-ups. A
/// fixed count, so `peak_rss_mb`, which the set-ups' heap reaches into,
/// does not depend on how fast they run.
const SETUP_REPS: usize = 9;
/// Kernel runs before each set-up; their median scales it.
const SETUP_PROBES: usize = 3;
/// Counts that must repeat exactly for a seed are taken over each
/// caller's first operations: this many for the one in-process caller,
/// half as many for each of the two connections.
const PREFIX_OPS: usize = 2000;
/// The window is cut into at most `SLICES` consecutive slices of equal
/// read count, each with at least `SLICE_READS` reads (ten beyond its
/// p99). Read percentiles and throughput are the median over slices, so
/// a few seconds of interference the calibration misses move them less
/// than pooled figures.
const SLICES: usize = 10;
const SLICE_READS: usize = 1000;
/// Reads and writes a run needs for its p99 and p90 to have ten samples
/// beyond them.
const READ_TAIL: f64 = 0.99;
const WRITE_TAIL: f64 = 0.90;
/// Percentiles the manifest says the samples would support.
const LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];
/// Refreshes timed on the workloads whose mix has none, so every
/// workload reports the write latency of its service. They go to a
/// second service built from the same data (the one under load keeps
/// its primed plans) and are spread evenly over the window, so they
/// sample the host's speed across all of it rather than in one second.
/// 100 is the fewest that give a p90 ten samples beyond it, and fewer is
/// better here: each refresh of a service runs a little slower than the
/// one before.
const PROBE_WRITES: usize = 100;
/// `peak_rss_mb` is read when the window has completed this many
/// operations, not at its end: the ad-hoc feedback ledger grows by one
/// entry per operation, so at the end it would measure how fast the
/// host ran.
const RSS_AT_OPS: usize = 8000;
/// Children must account for at least this share of their parent span.
const COVERAGE_MIN: f64 = 0.95;
/// Share of a traced run spent traced; the rest runs untraced so the
/// two call latencies give the tracing overhead.
const TRACED_SHARE: f64 = 0.75;
/// Server pool workers and client connections of `served_churn`.
const SERVER_WORKERS: usize = 2;
const CONNECTIONS: u64 = 2;
/// WAL flush policy of `served_churn`.
const FLUSH: FlushPolicy = FlushPolicy::Batch(32);

/// Operator kinds `OpTrace` self time is summed by.
const KINDS: [&str; 9] = [
    "file_scan",
    "index_scan",
    "filter",
    "hash_join",
    "pointer_join",
    "assembly",
    "unnest",
    "project",
    "other",
];

fn kind_of(label: &str) -> usize {
    const PREFIXES: [(&str, usize); 9] = [
        ("File Scan", 0),
        ("Index Scan", 1),
        ("Filter", 2),
        ("Hybrid Hash Join", 3),
        ("Pointer Join", 4),
        ("Assembly", 5),
        ("Warm Assembly", 5),
        ("Alg-Unnest", 6),
        ("Alg-Project", 7),
    ];
    PREFIXES
        .iter()
        .find(|(p, _)| label.starts_with(p))
        .map_or(8, |&(_, k)| k)
}

/// One completed read.
#[derive(Clone, Default)]
struct Read {
    /// Caller-side wall time.
    ns: u64,
    /// Completion time since the run's origin.
    at_ns: u64,
    sim_io_s: f64,
    hits: u64,
    misses: u64,
    cache_hit: bool,
    stages: StageBreakdown,
    /// Per-kind operator self time from the read's own `OpTrace`.
    self_ns: [u64; KINDS.len()],
    leaf_rows: u64,
    root_rows: u64,
}

/// Search effort of one optimizer run the benchmark replayed.
#[derive(Clone, Copy, Default)]
struct Search {
    firings: u64,
    costed: u64,
    memo_exprs: u64,
    pruned: u64,
    violations: u64,
}

/// The program's own counters, read at one instant.
#[derive(Clone, Default)]
struct Counters {
    cache: CacheStats,
    optimizer_runs: u64,
    verify_violations: u64,
    feedback: FeedbackStats,
    wal: DurabilityStats,
}

impl Counters {
    fn read(svc: &QueryService) -> Counters {
        let reg = svc.telemetry();
        Counters {
            cache: svc.cache().stats(),
            optimizer_runs: reg.counter("oodb_optimizer_runs_total", &[]).get(),
            verify_violations: reg.counter("oodb_verify_violations_total", &[]).get(),
            feedback: svc.feedback_stats(),
            wal: svc.durability_stats().unwrap_or_default(),
        }
    }
}

/// What one caller saw.
#[derive(Default)]
struct Tally {
    reads: Vec<Read>,
    /// Wall time of each refresh in the mix, and when it completed.
    writes: Vec<u64>,
    write_at_ns: Vec<u64>,
    /// Refreshes of the write probe: when each completed, and its wall
    /// time, which is not part of the workload's throughput.
    probe_writes: Vec<(u64, u64)>,
    /// Operations that returned an error.
    failed: u64,
    /// Answers that differed from the reference.
    wrong: Vec<String>,
    /// Digests of the ad-hoc answers in stream order (`None` for a
    /// failed query), checked after the window against the regenerated
    /// stream.
    adhoc: Vec<Option<u64>>,
    /// Replayed optimizer runs.
    searches: Vec<Search>,
    /// Counters at the end of this caller's prefix, and how many reads
    /// and searches it held.
    at_prefix: Option<(Counters, usize, usize)>,
    /// VmHWM once this caller completed its share of [`RSS_AT_OPS`].
    rss_mb: Option<f64>,
    /// Untraced calls (traced runs only), for the overhead: when each
    /// completed, and its latency.
    untraced_ns: Vec<(u64, u64)>,
    /// Window start and end of this caller.
    window: (Option<Instant>, Option<Instant>),
    spans: Vec<Span>,
    /// Calibration kernel samples taken between operations.
    probe: Probe,
}

impl Tally {
    fn ops(&self) -> usize {
        self.reads.len() + self.writes.len()
    }
}

/// The system under test after one set-up.
struct Sut {
    svc: QueryService,
    server: Option<Server>,
    dir: Option<PathBuf>,
    /// The benchmark's own plan cache the traced replay probes (same
    /// size and keys as the service's, so the same hits and misses).
    mirror: PlanCache,
    /// The benchmark's own WAL the traced write replica appends to.
    replica_wal: Option<Mutex<WalSession>>,
    /// The service the write probe refreshes (in-process workloads).
    probe_svc: Option<QueryService>,
}

impl Drop for Sut {
    /// Drains the server and deletes the scratch files, on every path
    /// out of a run.
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.replica_wal = None;
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
            // Remove the shared parent too once no run is using it.
            let _ = std::fs::remove_dir(SCRATCH);
        }
    }
}

fn service(store: Store) -> QueryService {
    QueryService::new(
        store,
        CostParams::default(),
        OptimizerConfig::all_rules(),
        CACHE_CAPACITY,
        CACHE_SHARDS,
    )
}

/// Scratch space inside the working directory (the checkout).
const SCRATCH: &str = ".bench_scratch";

fn scratch_dir(seed: u64, rep: usize) -> PathBuf {
    PathBuf::from(SCRATCH).join(format!("{}-{seed}-{rep}", std::process::id()))
}

/// Plans every pool query once, into the service's cache and, for a
/// traced run, the mirror cache.
fn prime(
    args: &Args,
    pool: &[String],
    svc: &QueryService,
    mirror: &PlanCache,
) -> Result<(), String> {
    if args.workload == Workload::AdhocPlan {
        return Ok(());
    }
    let mut rec = Recorder::new(Instant::now(), false);
    for q in pool {
        svc.submit(q).map_err(|e| format!("priming {q}: {e}"))?;
        if args.trace {
            replay(&mut rec, svc, mirror, q, true)?;
        }
    }
    Ok(())
}

fn setup(args: &Args, pool: &[String], rep: usize) -> Result<Sut, String> {
    let (store, _) = generate_paper_db(GenConfig {
        scale_div: SCALE_DIV,
        ..Default::default()
    });
    let svc = service(store);
    let mirror = PlanCache::new(CACHE_CAPACITY, CACHE_SHARDS);
    prime(args, pool, &svc, &mirror)?;
    let (mut server, mut dir, mut replica_wal) = (None, None, None);
    if args.workload == Workload::ServedChurn {
        let d = scratch_dir(args.seed, rep);
        let _ = std::fs::remove_dir_all(&d);
        svc.enable_durability(&d.join("served"), FLUSH)
            .map_err(|e| format!("enable durability: {e}"))?;
        server = Some(
            Server::start(
                svc.clone(),
                "127.0.0.1:0",
                ServerConfig {
                    pool_workers: SERVER_WORKERS,
                    ..Default::default()
                },
            )
            .map_err(|e| format!("server start: {e}"))?,
        );
        dir = Some(d);
    }
    if args.trace {
        // The write replica logs to a WAL of its own, never the served one.
        let d = dir.get_or_insert_with(|| scratch_dir(args.seed, rep));
        replica_wal = Some(Mutex::new(
            WalSession::create(&d.join("replica"), &svc.store(), FLUSH, None)
                .map_err(|e| format!("replica WAL: {e}"))?,
        ));
    }
    Ok(Sut {
        svc,
        server,
        dir,
        mirror,
        replica_wal,
        probe_svc: None,
    })
}

/// The service's submission, decomposed into the crates' public calls
/// with a span around each. With `plan_only` it stops once the plan is
/// cached (priming, and the search replay of a served miss). Returns the
/// sorted rows (empty with `plan_only`) and, on a mirror miss, the
/// search it ran.
fn replay(
    rec: &mut Recorder,
    svc: &QueryService,
    mirror: &PlanCache,
    text: &str,
    plan_only: bool,
) -> Result<(Vec<String>, Option<Search>), String> {
    rec.span("replay", |rec| {
        let (store, config) = rec.span("QueryService::store", |_| (svc.store(), svc.config()));
        let ast = rec
            .span("zql::parser::parse", |_| zql::parser::parse(text))
            .map_err(|e| e.to_string())?;
        let q = rec
            .span("zql::simplify", |_| {
                zql::simplify(&ast, store.schema(), store.catalog())
            })
            .map_err(|e| e.to_string())?;
        // The cache key is built inside the service's fingerprint stage too.
        let (fp, key) = rec.span("oodb_algebra::fingerprint", |_| {
            let fp = oodb_algebra::fingerprint(&q.env, &q.plan, q.result_vars, q.order.as_ref());
            let key = CacheKey::static_plan(
                &fp,
                config.fingerprint(),
                store.catalog().stats_epoch(),
                store.catalog().index_set_hash(),
                0,
            );
            (fp, key)
        });
        let mut search = None;
        let entry = match rec.span("PlanCache::get", |_| mirror.get(&key, &fp.key)) {
            Some(entry) => entry,
            None => {
                // Optimizer construction and entry building sit inside the
                // spans, as they sit inside the service's optimize stage.
                let out = rec.span("OpenOodb::optimize_within", |_| {
                    OpenOodb::new(&q.env, CostParams::default(), config).optimize_within(
                        &q.plan,
                        q.result_vars,
                        q.order,
                        None,
                    )
                });
                let BoundedOutcome::Complete(out) = out else {
                    return Err(format!("no plan for {text}"));
                };
                search = Some(Search {
                    firings: out.stats.transform_firings,
                    costed: out.stats.plans_costed,
                    memo_exprs: out.stats.exprs as u64,
                    pruned: out.stats.pruned,
                    violations: out.diagnostics.len() as u64,
                });
                rec.span("PlanCache::insert", |_| {
                    let entry = Arc::new(CachedPlan {
                        structural: fp.key.clone(),
                        env: q.env.clone(),
                        result_vars: q.result_vars,
                        body: CachedBody::Static {
                            plan: out.plan,
                            cost: out.cost,
                        },
                    });
                    mirror.insert(key, Arc::clone(&entry));
                    entry
                })
            }
        };
        if plan_only {
            return Ok((Vec::new(), search));
        }
        let CachedBody::Static { plan, .. } = &entry.body else {
            return Err("the mirror cache holds only static plans".into());
        };
        let (result, _, _) = rec
            .span("oodb_exec::try_execute_traced", |_| {
                oodb_exec::try_execute_traced(&store, &entry.env, plan, RunLimits::default())
            })
            .map_err(|e| e.to_string())?;
        let rows = rec.span("render_rows", |_| {
            let mut rows = render_rows(&entry.env, entry.result_vars, &result);
            rows.sort();
            rows
        });
        Ok((rows, search))
    })
}

/// Sums operator self time per kind and the leaf and root row counts.
fn walk(trace: &OpTrace, read: &mut Read) {
    fn go(t: &OpTrace, read: &mut Read) {
        read.self_ns[kind_of(&t.label)] += t.self_elapsed_ns();
        if t.children.is_empty() {
            read.leaf_rows += t.actual_rows;
        }
        t.children.iter().for_each(|c| go(c, read));
    }
    go(trace, read);
    read.root_rows += trace.actual_rows;
}

/// Shared, read-only context of the window.
struct Ctx<'a> {
    args: &'a Args,
    pool: &'a [String],
    refs: &'a [u64],
    svc: &'a QueryService,
    /// End of the traced part (traced runs) and of the window.
    traced_until: Instant,
    until: Instant,
}

/// One in-process caller (`warm_replay`, `adhoc_plan`).
fn inproc_caller(ctx: &Ctx<'_>, sut: &Sut, origin: Instant) -> Tally {
    let mut stream = match ctx.args.workload {
        Workload::AdhocPlan => Stream::adhoc(ctx.args.seed),
        _ => Stream::pool(ctx.args.seed, 0, ctx.pool.len(), false),
    };
    let mut rec = Recorder::new(origin, ctx.args.trace);
    let mut t = Tally::default();
    t.window.0 = Some(Instant::now());
    let mut op_id = 0u64;
    // The write probe's schedule: one refresh every 1/PROBE_WRITES of
    // the window, the first half a step in.
    let step = (ctx.until - origin) / PROBE_WRITES as u32;
    let mut next_write = origin + step / 2;
    loop {
        let now = Instant::now();
        if now >= ctx.until {
            break;
        }
        if rec.enabled() && now >= ctx.traced_until {
            rec.set_enabled(false);
        }
        if let Some(probe_svc) = &sut.probe_svc {
            if now >= next_write && t.probe_writes.len() < PROBE_WRITES {
                next_write += step;
                let i = t.probe_writes.len();
                t.probe.sample(origin);
                rec.begin_op(u64::MAX - i as u64);
                let buckets = BUCKETS.start() + i % (BUCKETS.end() - BUCKETS.start() + 1);
                match rec.span("op", |rec| {
                    refresh(rec, probe_svc, sut.replica_wal.as_ref(), buckets)
                }) {
                    Ok(ns) => t
                        .probe_writes
                        .push((origin.elapsed().as_nanos() as u64, ns)),
                    Err(e) => {
                        t.failed += 1;
                        t.wrong.push(format!("probe refresh: {e}"));
                    }
                }
                continue;
            }
        }
        let op = stream.next_op();
        let (text, expect) = match &op {
            Op::Pool(i) => (ctx.pool[*i].as_str(), Some(ctx.refs[*i])),
            Op::Adhoc(q) => (q.as_str(), None),
            Op::Refresh(_) => unreachable!("in-process streams carry no writes"),
        };
        op_id += 1;
        rec.begin_op(op_id);
        let traced = rec.enabled();
        let opts = SubmitOptions {
            trace: traced,
            ..Default::default()
        };
        rec.span("op", |rec| {
            let t0 = Instant::now();
            let out = rec.span("QueryService::submit_with", |_| {
                ctx.svc.submit_with(text, opts)
            });
            let ns = t0.elapsed().as_nanos() as u64;
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    t.failed += 1;
                    t.wrong.push(format!("{text}: {e}"));
                    if expect.is_none() {
                        t.adhoc.push(None);
                    }
                    return;
                }
            };
            let (got, read) = rec.span("check", |_| {
                let got = digest(&out.rows);
                match expect {
                    Some(want) if want != got => t.wrong.push(format!("wrong answer: {text}")),
                    Some(_) => {}
                    None => t.adhoc.push(Some(got)),
                }
                let mut read = Read {
                    ns,
                    at_ns: origin.elapsed().as_nanos() as u64,
                    sim_io_s: out.sim_io_s,
                    hits: out.buffer_hits,
                    misses: out.buffer_misses,
                    cache_hit: out.cache_hit,
                    stages: out.stages,
                    ..Default::default()
                };
                if let Some(trace) = &out.trace {
                    walk(trace, &mut read);
                }
                (got, read)
            });
            if ctx.args.trace && !traced {
                t.untraced_ns.push((read.at_ns, ns));
                return;
            }
            if traced {
                match replay(rec, ctx.svc, &sut.mirror, text, false) {
                    Ok((rows, search)) => {
                        if digest(&rows) != got {
                            t.wrong
                                .push(format!("replay disagrees with the service: {text}"));
                        }
                        t.searches.extend(search);
                    }
                    Err(e) => t.wrong.push(format!("replay of {text}: {e}")),
                }
            }
            t.reads.push(read);
        });
        if t.at_prefix.is_none() && t.reads.len() == PREFIX_OPS {
            t.at_prefix = Some((Counters::read(ctx.svc), t.reads.len(), t.searches.len()));
        }
        if t.rss_mb.is_none() && t.ops() == RSS_AT_OPS {
            t.rss_mb = Some(peak_rss_mb());
        }
        t.probe.tick(origin);
    }
    t.window.1 = Some(Instant::now());
    t.spans = rec.into_spans();
    t
}

/// Decodes a `POST /query` reply into a read plus its sorted rows.
fn decode(body: &str) -> Result<(Read, Vec<String>), String> {
    let v = json::parse(body)?;
    let rows: Vec<String> = v
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("reply without rows")?
        .iter()
        .filter_map(Json::as_str)
        .map(str::to_string)
        .collect();
    let n = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
    let read = Read {
        sim_io_s: v.get("sim_io_s").and_then(Json::as_f64).unwrap_or(0.0),
        hits: n("buffer_hits"),
        misses: n("buffer_misses"),
        cache_hit: v.get("cache_hit").and_then(Json::as_bool).unwrap_or(false),
        stages: v
            .get("stages")
            .and_then(json::decode_stages)
            .unwrap_or_default(),
        ..Default::default()
    };
    Ok((read, rows))
}

/// Refreshes statistics; traced, it then replays the refresh's store
/// and WAL calls on a copy so each gets a span of its own.
fn refresh(
    rec: &mut Recorder,
    svc: &QueryService,
    replica_wal: Option<&Mutex<WalSession>>,
    buckets: usize,
) -> Result<u64, String> {
    let t0 = Instant::now();
    rec.span("QueryService::refresh_statistics", |_| {
        svc.refresh_statistics(buckets)
    });
    let ns = t0.elapsed().as_nanos() as u64;
    if rec.enabled() {
        let mut store = rec.span("Store::clone", |_| (*svc.store()).clone());
        let catalog = rec.span("Store::collect_statistics", |_| {
            store.collect_statistics(&[], buckets)
        });
        rec.span("Store::set_catalog", |_| store.set_catalog(catalog));
        rec.span("Store::build_indexes", |_| store.build_indexes());
        if let Some(wal) = replica_wal {
            let mut wal = wal.lock().map_err(|_| "replica WAL lock poisoned")?;
            rec.span("WalSession::append", |_| {
                wal.append(&WalRecord::StatsRefresh {
                    buckets: buckets as u32,
                })
            })
            .map_err(|e| format!("replica WAL append: {e}"))?;
        }
    }
    Ok(ns)
}

/// One loopback connection of `served_churn`; connection 0 writes.
fn served_caller(
    ctx: &Ctx<'_>,
    mut client: Client,
    conn: u64,
    replica_wal: Option<&Mutex<WalSession>>,
    origin: Instant,
) -> Result<Tally, String> {
    let mut stream = Stream::pool(ctx.args.seed, conn, ctx.pool.len(), conn == 0);
    let mut rec = Recorder::new(origin, ctx.args.trace);
    let mut t = Tally::default();
    let mut op_id = conn << 48;
    t.window.0 = Some(Instant::now());
    loop {
        let now = Instant::now();
        if now >= ctx.until {
            break;
        }
        if rec.enabled() && now >= ctx.traced_until {
            rec.set_enabled(false);
        }
        let traced = rec.enabled();
        op_id += 1;
        rec.begin_op(op_id);
        match stream.next_op() {
            Op::Refresh(buckets) => {
                let ns = rec.span("op", |rec| refresh(rec, ctx.svc, replica_wal, buckets))?;
                t.writes.push(ns);
                t.write_at_ns.push(origin.elapsed().as_nanos() as u64);
            }
            Op::Pool(i) => {
                let text = ctx.pool[i].as_str();
                let mut body = String::from("{\"query\":");
                json::push_escaped(&mut body, text);
                body.push('}');
                rec.span("op", |rec| {
                    let t0 = Instant::now();
                    let resp = rec.span("Client::query", |_| {
                        client.request("POST", "/query", Some(&body))
                    });
                    let ns = t0.elapsed().as_nanos() as u64;
                    let decoded = rec.span("check", |_| {
                        let (read, rows) = match resp {
                            Ok(r) if r.status == 200 => decode(&r.body_str())?,
                            Ok(r) => return Err(format!("HTTP {}: {}", r.status, r.body_str())),
                            Err(e) => return Err(e.to_string()),
                        };
                        Ok((read, digest(&rows) == ctx.refs[i]))
                    });
                    let (mut read, right) = match decoded {
                        Ok(v) => v,
                        Err(e) => {
                            t.failed += 1;
                            t.wrong.push(format!("{text}: {e}"));
                            return;
                        }
                    };
                    if !right {
                        t.wrong.push(format!("wrong answer: {text}"));
                    }
                    if ctx.args.trace && !traced {
                        t.untraced_ns.push((origin.elapsed().as_nanos() as u64, ns));
                        return;
                    }
                    read.ns = ns;
                    read.at_ns = origin.elapsed().as_nanos() as u64;
                    if traced && !read.cache_hit {
                        // The server planned this read afresh; replay the
                        // search for its effort counts.
                        let scratch = PlanCache::new(1, 1);
                        match replay(rec, ctx.svc, &scratch, text, true) {
                            Ok((_, search)) => t.searches.extend(search),
                            Err(e) => t.wrong.push(format!("replay of {text}: {e}")),
                        }
                    }
                    t.reads.push(read);
                });
            }
            Op::Adhoc(_) => unreachable!("served streams replay the pool"),
        }
        if t.at_prefix.is_none() && t.ops() == PREFIX_OPS / CONNECTIONS as usize {
            t.at_prefix = Some((Counters::read(ctx.svc), t.reads.len(), t.searches.len()));
        }
        if t.rss_mb.is_none() && t.ops() == RSS_AT_OPS / CONNECTIONS as usize {
            t.rss_mb = Some(peak_rss_mb());
        }
        t.probe.tick(origin);
    }
    t.window.1 = Some(Instant::now());
    t.spans = rec.into_spans();
    Ok(t)
}

/// One slice of the window: read p50 and p99 in ms, operations per second.
struct Slice {
    p50_ms: f64,
    p99_ms: f64,
    ops_s: f64,
}

/// One read of the window with its scaled time.
struct Timed {
    /// Completion time since the run's origin.
    at_ns: u64,
    /// Caller-side wall time, scaled.
    ms: f64,
    /// Scale factor the calibration gave it.
    factor: f64,
}

/// Cuts the window into slices of equal read count (see [`SLICES`]).
/// Writes of the mix count toward the throughput of the slice they
/// completed in; the time of the write probe's refreshes (completion,
/// wall ns) is taken out of it. A slice's duration is scaled by the mean
/// factor of its reads.
fn slices(
    reads: &[Timed],
    write_at_ns: &[u64],
    probe_writes: &[(u64, u64)],
    start_ns: u64,
) -> Vec<Slice> {
    let mut reads: Vec<&Timed> = reads.iter().collect();
    reads.sort_by_key(|r| r.at_ns);
    let k = (reads.len() / SLICE_READS)
        .clamp(1, SLICES)
        .min(reads.len());
    let mut out = Vec::with_capacity(k);
    let mut from_ns = start_ns;
    for i in 0..k {
        let part = &reads[i * reads.len() / k..(i + 1) * reads.len() / k];
        let to_ns = part.last().map_or(from_ns, |r| r.at_ns);
        let ms = sorted(part.iter().map(|r| r.ms).collect());
        let factor = part.iter().map(|r| r.factor).sum::<f64>() / part.len() as f64;
        let within = |at: u64| at > from_ns && at <= to_ns;
        let writes = write_at_ns.iter().filter(|&&at| within(at)).count();
        let probe_ns: u64 = probe_writes
            .iter()
            .filter(|&&(at, _)| within(at))
            .map(|&(_, ns)| ns)
            .sum();
        out.push(Slice {
            p50_ms: percentile(&ms, 0.5),
            p99_ms: percentile(&ms, READ_TAIL),
            ops_s: (part.len() + writes) as f64
                / ((to_ns - from_ns).saturating_sub(probe_ns) as f64 / 1e9 * factor),
        });
        from_ns = to_ns;
    }
    out
}

/// `/proc/self/status` VmHWM in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn p50(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(&sorted(v.to_vec()), 0.5)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs one workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let pool = pool();
    // Set up SETUP_REPS times and keep the last: one set-up is too noisy
    // to bound, and `setup_s` is the median of the scaled set-ups.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setups_raw = Vec::with_capacity(SETUP_REPS);
    let mut sut = None;
    let mut kernel = calib::Kernel::default();
    for rep in 0..SETUP_REPS {
        drop(sut.take());
        let k: Vec<f64> = (0..SETUP_PROBES).map(|_| kernel.run() as f64).collect();
        let t0 = Instant::now();
        sut = Some(setup(args, &pool, rep)?);
        let s = t0.elapsed().as_secs_f64();
        setups_raw.push(s);
        setups.push(s * calib::REFERENCE_NS / crate::stats::median(&k));
    }
    let mut sut = sut.expect("at least one set-up");
    if args.workload != Workload::ServedChurn {
        let (store, _) = generate_paper_db(GenConfig {
            scale_div: SCALE_DIV,
            ..Default::default()
        });
        sut.probe_svc = Some(service(store));
    }
    let svc = sut.svc.clone();

    // Reference answers for the pool, outside set-up and window.
    let store = svc.store();
    let refs: Vec<u64> = match args.workload {
        Workload::AdhocPlan => Vec::new(),
        _ => pool
            .iter()
            .map(|q| reference(&store, q))
            .collect::<Result<_, _>>()?,
    };
    drop(store);
    let clients: Vec<Client> = match &sut.server {
        Some(server) => (0..CONNECTIONS)
            .map(|_| Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}")))
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };

    let start = Counters::read(&svc);
    let origin = Instant::now();
    let window = Duration::from_secs(args.seconds);
    let traced_for = if args.trace {
        window.mul_f64(TRACED_SHARE)
    } else {
        Duration::ZERO
    };
    let ctx = Ctx {
        args,
        pool: &pool,
        refs: &refs,
        svc: &svc,
        traced_until: origin + traced_for,
        until: origin + window,
    };
    let tallies: Vec<Tally> = if clients.is_empty() {
        vec![inproc_caller(&ctx, &sut, origin)]
    } else {
        let replica_wal = sut.replica_wal.as_ref();
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .zip(0..)
                .map(|(client, conn)| {
                    let ctx = &ctx;
                    s.spawn(move || served_caller(ctx, client, conn, replica_wal, origin))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect::<Result<Vec<_>, _>>()
        })?
    };
    finish(args, sut, (&setups, &setups_raw), &start, tallies, origin)
}

/// Post-window checks, then the metrics.
fn finish(
    args: &Args,
    sut: Sut,
    (setups, setups_raw): (&[f64], &[f64]),
    start: &Counters,
    mut tallies: Vec<Tally>,
    origin: Instant,
) -> Result<Report, String> {
    let svc = sut.svc.clone();
    let served = args.workload == Workload::ServedChurn;
    let w0 = tallies
        .iter()
        .filter_map(|t| t.window.0)
        .min()
        .unwrap_or(origin);
    let w1 = tallies
        .iter()
        .filter_map(|t| t.window.1)
        .max()
        .unwrap_or(origin);
    let window_s = (w1 - w0).as_secs_f64();
    let window_ops: usize = tallies.iter().map(Tally::ops).sum();
    let end = Counters::read(&svc);

    // Ad-hoc answers are checked after the window, against the stream
    // regenerated from the seed.
    let store = svc.store();
    for t in &mut tallies {
        let mut stream = Stream::adhoc(args.seed);
        for got in std::mem::take(&mut t.adhoc) {
            let Op::Adhoc(q) = stream.next_op() else {
                unreachable!("the ad-hoc stream only yields queries")
            };
            if got.is_some_and(|got| reference(&store, &q) != Ok(got)) {
                t.wrong.push(format!("wrong answer: {q}"));
            }
        }
    }
    drop(store);

    let probe_writes: usize = tallies.iter().map(|t| t.probe_writes.len()).sum();

    let mut wrong: Vec<String> = tallies.iter().flat_map(|t| t.wrong.clone()).collect();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();

    // The WAL must recover to the served store.
    let mut flush_policy = "off".to_string();
    if served {
        flush_policy = format!("{FLUSH:?}");
        let dir = sut.dir.as_ref().expect("served_churn has a scratch dir");
        match svc.flush_wal() {
            Some(Ok(())) => {}
            other => wrong.push(format!("WAL flush failed: {other:?}")),
        }
        match oodb_wal::recover(&dir.join("served")) {
            Ok((recovered, _)) => {
                if oodb_wal::store_digest(&recovered) != oodb_wal::store_digest(&svc.store()) {
                    wrong.push("recovered store differs from the served store".into());
                }
            }
            Err(e) => wrong.push(format!("WAL recovery failed: {e}")),
        }
    }

    // Span coverage.
    let mut spans: Vec<Span> = Vec::new();
    let recorded = tallies.iter_mut().map(|t| std::mem::take(&mut t.spans));
    for mut part in recorded {
        // Parent indices are local to each recorder.
        let base = spans.len();
        part.iter_mut()
            .for_each(|s| s.parent = s.parent.map(|p| p + base));
        spans.extend(part);
    }
    let cover = match coverage(&spans) {
        Ok(c) => c,
        Err(e) => {
            wrong.push(e);
            BTreeMap::new()
        }
    };
    let cover_min = cover.values().copied().fold(f64::INFINITY, f64::min);
    if args.trace && (cover_min.is_infinite() || cover_min < COVERAGE_MIN) {
        wrong.push(format!(
            "child spans cover {cover_min:.3} of their parents, below {COVERAGE_MIN}: {cover:?}"
        ));
    }

    // Every window time is scaled by the calibration around it.
    let scale = Scale::new(
        tallies
            .iter_mut()
            .flat_map(|t| std::mem::take(&mut t.probe.samples))
            .collect(),
    );

    // Prefix: each caller's first PREFIX_OPS operations.
    let mut prefix_reads: Vec<&Read> = Vec::new();
    let mut prefix_searches: Vec<Search> = Vec::new();
    for t in &tallies {
        let Some((_, reads, searches)) = &t.at_prefix else {
            return Err(format!(
                "a caller finished {} operations, too few for the prefix the exact counts need",
                t.ops()
            ));
        };
        prefix_reads.extend(&t.reads[..*reads]);
        prefix_searches.extend_from_slice(&t.searches[..*searches]);
    }
    // Counters at the prefix end of the caller that writes (served) or
    // of the only caller.
    let at = &tallies[0].at_prefix.as_ref().expect("checked above").0;

    let reads: Vec<&Read> = tallies.iter().flat_map(|t| &t.reads).collect();
    let timed: Vec<Timed> = reads
        .iter()
        .map(|r| {
            let factor = scale.factor(r.at_ns);
            Timed {
                at_ns: r.at_ns,
                ms: r.ns as f64 / 1e6 * factor,
                factor,
            }
        })
        .collect();
    let read_ms = sorted(timed.iter().map(|r| r.ms).collect());
    let raw_read_ms = sorted(reads.iter().map(|r| r.ns as f64 / 1e6).collect());
    let write_at_ns: Vec<u64> = tallies.iter().flat_map(|t| t.write_at_ns.clone()).collect();
    let probe_at: Vec<(u64, u64)> = tallies
        .iter()
        .flat_map(|t| t.probe_writes.clone())
        .collect();
    let cuts = slices(
        &timed,
        &write_at_ns,
        &probe_at,
        (w0 - origin).as_nanos() as u64,
    );
    // Every write: (completed at, wall ns), the mix's and the probe's.
    let all_writes: Vec<(u64, u64)> = tallies
        .iter()
        .flat_map(|t| t.write_at_ns.iter().copied().zip(t.writes.iter().copied()))
        .chain(probe_at.iter().copied())
        .collect();
    let writes: Vec<f64> = all_writes
        .iter()
        .map(|&(at, ns)| ns as f64 * scale.factor(at))
        .collect();
    let raw_write_ms = sorted(all_writes.iter().map(|&(_, ns)| ns as f64 / 1e6).collect());
    let slice_median = |f: fn(&Slice) -> f64| {
        let v: Vec<f64> = cuts.iter().map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    };
    let write_ms = sorted(writes.iter().map(|&ns| ns / 1e6).collect());
    if !args.trace {
        if !supports(read_ms.len(), READ_TAIL) {
            return Err(format!(
                "{} reads are too few for a p99 with ten samples beyond it",
                read_ms.len()
            ));
        }
        if !supports(write_ms.len(), WRITE_TAIL) {
            return Err(format!(
                "{} writes are too few for a p90 with ten samples beyond it",
                write_ms.len()
            ));
        }
    }

    // Read at RSS_AT_OPS; a run too short for that falls back to the end
    // of its window and says so in the manifest.
    let rss_at: Vec<f64> = tallies.iter().filter_map(|t| t.rss_mb).collect();
    let rss_at_ops = rss_at.len() == tallies.len();
    let rss_mb = if rss_at_ops {
        rss_at.iter().copied().fold(0.0, f64::max)
    } else {
        peak_rss_mb()
    };

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    let n_prefix = prefix_reads.len() as f64;
    let mean = |f: &dyn Fn(&Read) -> f64| prefix_reads.iter().map(|r| f(r)).sum::<f64>() / n_prefix;
    let pct = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { percentile(v, p) };
    if !args.trace {
        put("setup_s", crate::stats::median(setups), "s");
        put("throughput_ops_s", slice_median(|s| s.ops_s), "ops/s");
        put("read_p50_ms", slice_median(|s| s.p50_ms), "ms");
        put("read_p99_ms", slice_median(|s| s.p99_ms), "ms");
        put("write_p50_ms", pct(&write_ms, 0.5), "ms");
        put("write_p90_ms", pct(&write_ms, WRITE_TAIL), "ms");
        put("sim_io_s_per_read", mean(&|r| r.sim_io_s), "s");
        put("peak_rss_mb", rss_mb, "MiB");
    } else {
        let d = durations_us(&spans);
        let span_p50 = |name: &str| d.get(name).map_or(0.0, |v| p50(v));
        let stage_p50 = |f: &dyn Fn(&StageBreakdown) -> u64, misses_only: bool| {
            p50(&reads
                .iter()
                .filter(|r| !misses_only || !r.cache_hit)
                .map(|r| f(&r.stages) as f64 / 1e3)
                .collect::<Vec<_>>())
        };
        // In process the benchmark wraps each call itself; over HTTP the
        // calls run in the server's workers, so their times come from the
        // stages the server reports.
        let layer = |span: &str, f: &dyn Fn(&StageBreakdown) -> u64, misses_only: bool| {
            if served {
                stage_p50(f, misses_only)
            } else {
                span_p50(span)
            }
        };
        put(
            "zql.parse_us_p50",
            layer("zql::parser::parse", &|s| s.parse_ns, false),
            "us",
        );
        put(
            "zql.simplify_us_p50",
            layer("zql::simplify", &|s| s.simplify_ns, false),
            "us",
        );
        put(
            "algebra.fingerprint_us_p50",
            layer("oodb_algebra::fingerprint", &|s| s.fingerprint_ns, false),
            "us",
        );
        put(
            "plancache.probe_us_p50",
            layer("PlanCache::get", &|s| s.cache_probe_ns, false),
            "us",
        );
        let hits = at.cache.hits - start.cache.hits;
        let lookups = hits + at.cache.misses - start.cache.misses;
        put("plancache.lookups", lookups as f64, "count");
        put(
            "plancache.hit_ratio",
            ratio(hits as f64, lookups as f64),
            "ratio",
        );
        put(
            "plancache.evictions",
            (at.cache.evictions - start.cache.evictions) as f64,
            "count",
        );
        put(
            "plancache.stale_rejects",
            (at.cache.stale_rejects - start.cache.stale_rejects) as f64,
            "count",
        );
        put(
            "optimizer.optimize_us_p50",
            layer("OpenOodb::optimize_within", &|s| s.optimize_ns, true),
            "us",
        );
        put(
            "optimizer.runs",
            (at.optimizer_runs - start.optimizer_runs) as f64,
            "count",
        );
        let runs = prefix_searches.len() as f64;
        let per_run =
            |f: fn(&Search) -> u64| ratio(prefix_searches.iter().map(f).sum::<u64>() as f64, runs);
        put(
            "optimizer.transform_firings_per_run",
            per_run(|s| s.firings),
            "count",
        );
        put(
            "optimizer.plans_costed_per_run",
            per_run(|s| s.costed),
            "count",
        );
        put(
            "optimizer.memo_exprs_per_run",
            per_run(|s| s.memo_exprs),
            "count",
        );
        put("optimizer.pruned_per_run", per_run(|s| s.pruned), "count");
        put(
            "verify.violations",
            (at.verify_violations - start.verify_violations
                + prefix_searches.iter().map(|s| s.violations).sum::<u64>()) as f64,
            "count",
        );
        put(
            "exec.execute_us_p50",
            layer("oodb_exec::try_execute_traced", &|s| s.execute_ns, false),
            "us",
        );
        for (k, kind) in KINDS.iter().enumerate() {
            put(
                &format!("exec.self_us.{kind}"),
                mean(&|r| r.self_ns[k] as f64 / 1e3),
                "us",
            );
        }
        let leaf: u64 = prefix_reads.iter().map(|r| r.leaf_rows).sum();
        let root: u64 = prefix_reads.iter().map(|r| r.root_rows).sum();
        put(
            "exec.rows_examined_per_row_returned",
            ratio(leaf as f64, root as f64),
            "ratio",
        );
        put(
            "storage.buffer_hits_per_read",
            mean(&|r| r.hits as f64),
            "count",
        );
        put(
            "storage.buffer_misses_per_read",
            mean(&|r| r.misses as f64),
            "count",
        );
        put(
            "storage.collect_statistics_ms",
            span_p50("Store::collect_statistics") / 1e3,
            "ms",
        );
        put(
            "storage.build_indexes_ms",
            span_p50("Store::build_indexes") / 1e3,
            "ms",
        );
        put(
            "wal.records",
            (at.wal.records - start.wal.records) as f64,
            "count",
        );
        put(
            "wal.bytes",
            (at.wal.bytes - start.wal.bytes) as f64,
            "bytes",
        );
        // Batch(32) flushes too rarely for a prefix to hold one: flushes
        // and syncs count over the whole window.
        put(
            "wal.flushes",
            (end.wal.flushes - start.wal.flushes) as f64,
            "count",
        );
        put(
            "wal.syncs",
            (end.wal.syncs - start.wal.syncs) as f64,
            "count",
        );
        put("wal.append_us_p50", span_p50("WalSession::append"), "us");
        let stage_sum = |s: &StageBreakdown| {
            s.parse_ns
                + s.simplify_ns
                + s.fingerprint_ns
                + s.cache_probe_ns
                + s.optimize_ns
                + s.execute_ns
        };
        let gap = |r: &&Read| r.ns.saturating_sub(stage_sum(&r.stages)) as f64 / 1e3;
        let gaps: Vec<f64> = reads.iter().map(gap).collect();
        let (unattributed, overhead, roundtrip) = if served {
            let rt: Vec<f64> = reads.iter().map(|r| r.ns as f64 / 1e3).collect();
            (0.0, p50(&gaps), p50(&rt))
        } else {
            (p50(&gaps), 0.0, 0.0)
        };
        put("service.unattributed_us_p50", unattributed, "us");
        put("server.roundtrip_us_p50", roundtrip, "us");
        put("server.overhead_us_p50", overhead, "us");
        put("feedback.tracked", at.feedback.tracked as f64, "count");
        put("feedback.suspect", at.feedback.suspect as f64, "count");
        // Both sides scaled, so host drift between the traced and the
        // untraced part of the window does not read as overhead.
        let untraced: Vec<f64> = tallies
            .iter()
            .flat_map(|t| &t.untraced_ns)
            .map(|&(at, ns)| ns as f64 / 1e6 * scale.factor(at))
            .collect();
        let traced: Vec<f64> = timed.iter().map(|r| r.ms).collect();
        put(
            "trace.overhead_pct",
            (ratio(p50(&traced), p50(&untraced)) - 1.0) * 100.0,
            "%",
        );
        put(
            "trace.span_coverage",
            if cover_min.is_finite() {
                cover_min
            } else {
                0.0
            },
            "ratio",
        );
    }

    for w in wrong.iter().take(10) {
        eprintln!("check failed: {w}");
    }
    let attempted = window_ops as u64
        + failed
        + probe_writes as u64
        + tallies
            .iter()
            .map(|t| t.untraced_ns.len() as u64)
            .sum::<u64>();
    let samples = format!(
        "{{\"reads\": {}, \"writes\": {}, \"probe_writes\": {probe_writes}, \"prefix_reads\": {}, \
         \"prefix_searches\": {}, \"setups\": {}}}",
        read_ms.len(),
        write_ms.len(),
        prefix_reads.len(),
        prefix_searches.len(),
        setups.len()
    );
    let read_quartiles = if read_ms.len() >= 2 {
        let (q1, q3) = crate::stats::quartiles(&read_ms);
        format!("[{}, {}]", num(q1), num(q3))
    } else {
        "null".into()
    };
    let unscaled = format!(
        "{{\"setup_s\": {}, \"throughput_ops_s\": {}, \"read_p50_ms\": {}, \"read_p99_ms\": {}, \
         \"write_p50_ms\": {}, \"write_p90_ms\": {}}}",
        num(crate::stats::median(setups_raw)),
        num(window_ops as f64 / window_s),
        num(pct(&raw_read_ms, 0.5)),
        num(pct(&raw_read_ms, READ_TAIL)),
        num(pct(&raw_write_ms, 0.5)),
        num(pct(&raw_write_ms, WRITE_TAIL)),
    );
    let calibration = format!(
        "{{\"reference_ns\": {}, \"median_kernel_ns\": {}, \"samples\": {}, \"setup_probes\": {}}}",
        num(calib::REFERENCE_NS),
        num(scale.median_kernel_ns()),
        scale.len(),
        SETUP_PROBES * setups.len()
    );
    let manifest = vec![
        ("workload", quote(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        (
            "cores",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("git_commit", quote(oodb_server::GIT_HASH)),
        ("scale_div", SCALE_DIV.to_string()),
        ("flush_policy", quote(&flush_policy)),
        (
            "percentiles",
            quote("read p50/p99 and write p50/p90, nearest rank"),
        ),
        (
            "highest_supported_percentile",
            format!(
                "{{\"read\": {}, \"write\": {}}}",
                highest_supported(read_ms.len(), &LADDER).map_or("null".into(), num),
                highest_supported(write_ms.len(), &LADDER).map_or("null".into(), num)
            ),
        ),
        ("samples", samples),
        ("read_ms_quartiles", read_quartiles),
        ("calibration", calibration),
        (
            "peak_rss_read_at",
            quote(&if rss_at_ops {
                format!("{RSS_AT_OPS} operations")
            } else {
                "end of window".into()
            }),
        ),
        ("unscaled", unscaled),
        ("window_s", num(window_s)),
        ("read_slices", cuts.len().to_string()),
        ("coverage_min_required", num(COVERAGE_MIN)),
    ];
    drop(sut);
    Ok(Report {
        correct: wrong.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        manifest,
    })
}
