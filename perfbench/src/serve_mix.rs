//! `serve_mix`: hot serving traffic against hap-serve as deployed.
//!
//! The committed snapshot is served in-process at `Level::Metrics` with
//! the default 1 ms batch window, search enabled over a seeded corpus.
//! Two keep-alive clients run a closed loop of a ~70/15/15
//! classify/similarity/search mix over a skewed hot pool, so the
//! embedding cache answers about nine lookups in ten and HTTP, JSON, the
//! batch window and the cache dominate the latency. Searches are the
//! slowest route; at a 10% share the p90 would sit on the edge between
//! them and the rest, so they are 15%.

use crate::client::Client;
use crate::common::{
    build_index, check_body, decode, digest, parse, peak_rss_mb, reference_body, repeated_setup,
    search_recall, service, snapshot_load_ms, Decoded, Exchange, KeyBook,
};
use crate::gen::{hot_pool, http_request, stream, MixStream, Request};
use crate::replay::{submit_and_call, Loopback, HTTP_PATH};
use crate::report::Report;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use hap_serve::batch::Batcher;
use hap_serve::{serve_snapshot_file, Job, ServeConfig, ServerHandle, ServiceConfig};
use hap_snapshot::ModelSnapshot;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// The committed model the server runs.
const SNAPSHOT: &str = "results/model.snap";
/// Retrieval corpus size: its index build is most of the set-up.
const CORPUS: usize = 8_192;
/// Concurrent keep-alive clients (and server workers).
const CLIENTS: usize = 2;
/// `/search` requests of client 0's stream that `recall_at_10` covers.
const RECALL_QUERIES: usize = 200;

fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        search_corpus: CORPUS,
        search_seed: stream(seed, "serve_mix/corpus").next_u64(),
        ..ServiceConfig::default()
    }
}

fn load_snapshot() -> Result<ModelSnapshot, String> {
    ModelSnapshot::<f64>::load(Path::new(SNAPSHOT)).map_err(|e| format!("{SNAPSHOT}: {e}"))
}

/// Untimed warm-up requests: every hot-pool graph once, so the cache
/// holds the hot set before the first timed op.
fn warmup_requests(pool: &[String]) -> Vec<(&'static str, String)> {
    pool.iter().map(|g| ("/classify", g.clone())).collect()
}

fn start(seed: u64, pool: &[String]) -> Result<ServerHandle, String> {
    let config = ServeConfig {
        workers: CLIENTS,
        service: service_config(seed),
        ..ServeConfig::default()
    };
    let handle = serve_snapshot_file(Path::new(SNAPSHOT), config, None)
        .map_err(|e| format!("cannot serve {SNAPSHOT}: {e}"))?;
    let mut c = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
    for (path, body) in warmup_requests(pool) {
        let (status, reply) = c
            .exchange(&http_request(path, &body))
            .map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("warm-up {path} answered {status}: {reply}"));
        }
    }
    Ok(handle)
}

/// The closed loop: each client sends its next request as soon as the
/// previous one is answered, until `seconds` have passed.
fn timed_phase(
    addr: SocketAddr,
    seed: u64,
    pool: &[String],
    seconds: f64,
) -> Result<(Vec<Vec<Exchange>>, f64), String> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_client = std::thread::scope(|s| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || -> Result<Vec<Exchange>, String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut plan = MixStream::new(seed, c, pool);
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let req = plan.next_request();
                        let bytes = http_request(req.path, &req.body);
                        let t = Instant::now();
                        let (status, reply) = client.exchange(&bytes).map_err(|e| e.to_string())?;
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        out.push(Exchange {
                            path: req.path,
                            status,
                            reply: digest(&reply),
                            ms,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((per_client, started.elapsed().as_secs_f64()))
}

fn latency_metrics(report: &mut Report, ops: &[&Exchange], wall_s: f64) {
    let s = Summary::of(&ops.iter().map(|e| e.ms).collect::<Vec<_>>());
    report.set("p50_ms", s.p50, "ms");
    report.set("p90_ms", s.p90, "ms");
    report.set("ops_per_s", ops.len() as f64 / wall_s, "1/s");
    report.attempted = ops.len();
    crate::common::print_routes(ops.iter().map(|e| (e.path, e.ms)));
}

/// Each client's requests again, paired with what the timed phase
/// recorded for them.
fn regenerate<'a>(
    seed: u64,
    pool: &[String],
    per_client: &'a [Vec<Exchange>],
) -> Vec<Vec<(Request, &'a Exchange)>> {
    per_client
        .iter()
        .enumerate()
        .map(|(c, ops)| {
            let mut plan = MixStream::new(seed, c, pool);
            ops.iter().map(|e| (plan.next_request(), e)).collect()
        })
        .collect()
}

/// Every graph the server embeds in a run: the warm-up pool and every
/// request graph.
fn key_book(pool: &[String], ops: &[(Request, &Exchange)]) -> Result<KeyBook, String> {
    let mut book = KeyBook::default();
    let warmup = warmup_requests(pool);
    let requests = warmup
        .iter()
        .map(|(p, b)| (*p, b))
        .chain(ops.iter().map(|(r, _)| (r.path, &r.body)));
    for (path, body) in requests {
        for g in decode(path, &parse(body)?)?.graphs() {
            book.add(g);
        }
    }
    Ok(book)
}

/// Replays every answered request through a cache-free in-process
/// service and compares bodies (by digest). A body that differs is
/// still correct when it equals the answer for another graph of the run
/// with the same WL cache key — the substitution `wl_cache_key`
/// documents; those are counted and printed. Then measures recall of the
/// served budget against an exhaustive scan on client 0's first
/// [`RECALL_QUERIES`] searches.
fn check_outputs(
    report: &mut Report,
    seed: u64,
    pool: &[String],
    per_client: &[Vec<Exchange>],
) -> Result<(), String> {
    let snap = load_snapshot()?;
    let cfg = ServiceConfig {
        cache_capacity: 0,
        ..service_config(seed)
    };
    let mut svc = service(&snap, cfg.clone(), build_index(&snap, &cfg)?)?;
    let ops: Vec<_> = regenerate(seed, pool, per_client)
        .into_iter()
        .flatten()
        .collect();
    let book = key_book(pool, &ops)?;
    let mut substituted = 0usize;
    for (i, (req, e)) in ops.iter().enumerate() {
        if e.status != 200 {
            report.fail(&format!("op {i}: {} answered {}", e.path, e.status));
            continue;
        }
        let d = decode(req.path, &parse(&req.body)?)?;
        let reference = reference_body(&mut svc, d.clone(), None)?;
        if e.reply == digest(&reference) {
            continue;
        }
        let mut explained = false;
        for alt in d.substitutes(&book) {
            if digest(&reference_body(&mut svc, alt, None)?) == e.reply {
                explained = true;
                break;
            }
        }
        if explained {
            substituted += 1;
        } else {
            check_body(report, i, e.reply, &reference);
        }
    }
    println!("bodies answered from a same-key graph's cached embedding: {substituted}");
    let mut plan = MixStream::new(seed, 0, pool);
    let mut recalls = Vec::with_capacity(RECALL_QUERIES);
    while recalls.len() < RECALL_QUERIES {
        let req = plan.next_request();
        if req.path != "/search" {
            continue;
        }
        let d = decode(req.path, &parse(&req.body)?)?;
        recalls.push(search_recall(&mut svc, d, CORPUS)?.0);
    }
    report.set(
        "recall_at_10",
        recalls.iter().sum::<f64>() / recalls.len() as f64,
        "ratio",
    );
    Ok(())
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    hap_obs::set_level(hap_obs::Level::Metrics);
    let mut report = Report::new();
    let pool = hot_pool(seed);
    let (server, setup_s) = repeated_setup(|| start(seed, &pool));
    let server = server?;
    report.set("setup_s", setup_s, "s");
    let (per_client, wall_s) = timed_phase(server.addr(), seed, &pool, seconds)?;
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    drop(server);
    let ops: Vec<&Exchange> = per_client.iter().flatten().collect();
    latency_metrics(&mut report, &ops, wall_s);
    check_outputs(&mut report, seed, &pool, &per_client)?;
    Ok(report)
}

/// The traced run: the untraced loop first (for the overhead and
/// unaccounted shares), then the same requests replayed in-process
/// through each layer's public calls.
pub fn run_traced(seed: u64, seconds: f64) -> Result<(Report, Tracer), String> {
    hap_obs::set_level(hap_obs::Level::Metrics);
    let mut report = Report::new();
    let pool = hot_pool(seed);
    let bytes = std::fs::read(SNAPSHOT).map_err(|e| format!("{SNAPSHOT}: {e}"))?;
    report.set("snapshot.load_ms", snapshot_load_ms(&bytes)?, "ms");

    let server = start(seed, &pool)?;
    hap_obs::reset();
    let (per_client, untraced_wall) = timed_phase(server.addr(), seed, &pool, seconds)?;
    let jobs_per_batch = hap_obs::histogram("serve.batch_size").map_or(0.0, |h| h.mean());
    drop(server);
    let untraced_p50 = median(
        &per_client
            .iter()
            .flatten()
            .map(|e| e.ms)
            .collect::<Vec<_>>(),
    );
    report.set("serve.batch.jobs_per_batch", jobs_per_batch, "count");

    // Client streams interleaved round-robin, as the two clients sent
    // them. The order is not the server's, so a graph sharing its cache
    // key with another may be answered from the other's embedding here
    // and not there; the check skips exactly those.
    let streams = regenerate(seed, &pool, &per_client);
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let ops: Vec<&(Request, &Exchange)> = (0..longest)
        .flat_map(|i| streams.iter().filter_map(move |c| c.get(i)))
        .collect();
    report.attempted = ops.len();
    let book = key_book(&pool, &streams.concat())?;

    let snap = load_snapshot()?;
    let cfg = service_config(seed);
    let t = Instant::now();
    let index = build_index(&snap, &cfg)?;
    report.set("retrieval.index.build_s", t.elapsed().as_secs_f64(), "s");
    let mut svc = service(&snap, cfg.clone(), index)?;
    let batcher = Batcher::spawn(
        snap,
        cfg,
        ServeConfig::default().window,
        ServeConfig::default().max_batch,
    )
    .map_err(|e| e.to_string())?;
    let submit = batcher.client();
    for (path, body) in warmup_requests(&pool) {
        let Decoded::Classify(g) = decode(path, &parse(&body)?)? else {
            unreachable!("warm-up requests are classifications")
        };
        let _ = svc.classify_batch(std::slice::from_ref(&g));
        let _ = submit.submit(Job::Classify(g));
    }
    let (hits0, misses0) = (svc.cache_hits(), svc.cache_misses());

    let mut lo = Loopback::new().map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new();
    let mut wait_us = Vec::with_capacity(ops.len());
    let replay_start = Instant::now();
    for (i, (req, e)) in ops.iter().enumerate() {
        let root = tracer.open(i);
        let decoded = lo.receive(&mut tracer, root, req.path, &req.body)?;
        let (reply, wait) = submit_and_call(&mut tracer, root, &submit, &mut svc, &decoded);
        wait_us.push(wait);
        let body = reply.unwrap_or_else(|why| {
            report.fail(&format!("op {i}: {why}"));
            String::new()
        });
        lo.respond(&mut tracer, root, &body)?;
        tracer.close(root);
        if !book.shared_key(&decoded) {
            check_body(&mut report, i, e.reply, &body);
        }
    }
    let traced_wall = replay_start.elapsed().as_secs_f64();
    drop(submit);
    batcher.shutdown();

    for name in [
        "serve.http.read",
        "serve.http.write",
        "serve.json.parse",
        "serve.service.graph_build",
        "serve.service.classify",
        "serve.service.similarity",
        "serve.service.search",
    ] {
        report.timing_us(name, &tracer.durations_us(name));
    }
    report.timing_us("serve.batch.wait", &wait_us);
    let (hits, misses) = (svc.cache_hits() - hits0, svc.cache_misses() - misses0);
    report.set(
        "serve.cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    crate::trace_summary(
        &mut report,
        &tracer,
        &HTTP_PATH,
        (untraced_wall, traced_wall),
        untraced_p50,
    );
    Ok((report, tracer))
}
