//! `stream_update`: graph edits beside reads.
//!
//! A COLLAB-width model (hidden 32, clusters [16, 8]), trained in the
//! set-up for two epochs on seeded COLLAB graphs (see `train.rs`), serves
//! a seeded retrieval corpus. One keep-alive client alternates `/update`
//! (a log-uniform batch of 1–64 edge edits on a random corpus graph) and
//! `/search` (top-10 of a fresh graph), so the embedding cache almost
//! never hits and graph maintenance, re-embedding, index-slot rewrites
//! and the cascade dominate.

use crate::client::Client;
use crate::common::{
    self, build_index, check_body, decode, digest, hit_ids, parse, peak_rss_mb, reference_body,
    repeated_setup, search_recall, service, snapshot_load_ms, without_evicted, Decoded, Exchange,
    KeyBook,
};
use crate::gen::{http_request, one_off_graph, stream, StreamPlan, QUERY_NODES, SEARCH_K};
use crate::replay::{submit_and_call, Loopback, HTTP_PATH};
use crate::report::Report;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::train::{trained_model, CLUSTERS, HIDDEN};
use hap_autograd::ParamStore;
use hap_core::HapClassifier;
use hap_data::{RetrievalCorpus, CORPUS_FEATURE_DIM};
use hap_graph::{degree_one_hot, Graph, WlState};
use hap_pooling::PoolCtx;
use hap_rand::Rng;
use hap_retrieval::{GraphIndex, QueryEmbedding};
use hap_serve::batch::Batcher;
use hap_serve::{serve, Job, ServeConfig, ServiceConfig};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Retrieval corpus size: its index build is most of the set-up.
const CORPUS: usize = 4_096;
/// `/search` requests of the stream that `recall_at_10` covers.
const RECALL_QUERIES: usize = 200;
/// Untimed searches sent before the first timed op.
const WARMUP_SEARCHES: usize = 32;

fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        search_corpus: CORPUS,
        search_seed: stream(seed, "stream_update/corpus").next_u64(),
        ..ServiceConfig::default()
    }
}

fn corpus(seed: u64) -> RetrievalCorpus {
    common::corpus(&service_config(seed))
}

/// Untimed searches that warm the server before the first timed op.
/// They leave the index as it was but fill the embedding cache, so the
/// output check replays them too.
fn warmup_requests(seed: u64) -> Vec<String> {
    let mut rng = stream(seed, "stream_update/warmup");
    (0..WARMUP_SEARCHES)
        .map(|_| {
            let g = one_off_graph(&mut rng, QUERY_NODES);
            format!(
                "{{\"graph\": {}, \"k\": {SEARCH_K}}}",
                crate::gen::graph_json(&g)
            )
        })
        .collect()
}

fn start(seed: u64) -> Result<hap_serve::ServerHandle, String> {
    let config = ServeConfig {
        service: service_config(seed),
        ..ServeConfig::default()
    };
    let handle = serve(trained_model(seed).snapshot, config).map_err(|e| e.to_string())?;
    let mut c = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
    for body in warmup_requests(seed) {
        let (status, reply) = c
            .exchange(&http_request("/search", &body))
            .map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("warm-up search answered {status}: {reply}"));
        }
    }
    Ok(handle)
}

fn timed_phase(addr: SocketAddr, seed: u64, seconds: f64) -> Result<(Vec<Exchange>, f64), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut plan = StreamPlan::new(seed, corpus(seed));
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
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
    Ok((out, started.elapsed().as_secs_f64()))
}

/// Checks the set-up's training (see [`crate::train::Trained::check`]),
/// then replays the stream in order, with no HTTP and no batcher, through
/// two in-process services: one configured as the server is, whose
/// bodies must match the served ones (by digest), and a cache-free
/// one. Where the two services disagree, a WL cache-key collision must
/// explain it (the substitution `wl_cache_key` documents): the query
/// shares its key with an earlier graph of different adjacency, or a hit
/// is a corpus slot whose current graph does. The same replay, continued
/// past the timed ops when the run was short, scores the first
/// [`RECALL_QUERIES`] searches against an exhaustive scan.
fn check_outputs(report: &mut Report, seed: u64, ops: &[Exchange]) -> Result<(), String> {
    let trained = trained_model(seed);
    trained.check(report);
    let snap = trained.snapshot;
    let cfg = service_config(seed);
    let mut exact = service(&snap, cfg.clone(), build_index(&snap, &cfg)?)?;
    let cache_free = ServiceConfig {
        cache_capacity: 0,
        ..cfg
    };
    let mut free = service(&snap, cache_free.clone(), build_index(&snap, &cache_free)?)?;
    let corpus = corpus(seed);
    let mut book = KeyBook::default();
    for body in warmup_requests(seed) {
        let d = decode("/search", &parse(&body)?)?;
        book.add(d.graphs()[0]);
        reference_body(&mut exact, d, None)?;
    }
    let mut graphs: HashMap<usize, Graph> = HashMap::new();
    let mut tainted: HashSet<usize> = HashSet::new();
    let mut plan = StreamPlan::new(seed, corpus);
    let mut recalls = Vec::with_capacity(RECALL_QUERIES);
    let mut substituted = 0usize;
    let mut i = 0;
    while i < ops.len() || recalls.len() < RECALL_QUERIES {
        let req = plan.next_request();
        let d = decode(req.path, &parse(&req.body)?)?;
        let collided = match &d {
            Decoded::Update { id, ops } => {
                let g = graphs.entry(*id).or_insert_with(|| corpus.graph(*id));
                let mut changed = false;
                for op in ops {
                    changed |= g.apply(*op);
                }
                let collided = changed && book.add(g);
                if collided {
                    tainted.insert(*id);
                } else if changed {
                    tainted.remove(id);
                }
                collided
            }
            other => book.add(other.graphs()[0]),
        };
        let fresh = reference_body(&mut free, d.clone(), None)?;
        let want = if req.path == "/search" && recalls.len() < RECALL_QUERIES {
            let (recall, served) = search_recall(&mut exact, d, CORPUS)?;
            recalls.push(recall);
            served
        } else {
            reference_body(&mut exact, d, None)?
        };
        if let Some(e) = ops.get(i) {
            if e.status != 200 {
                report.fail(&format!("op {i}: {} answered {}", e.path, e.status));
            } else if e.reply != digest(&want) {
                check_body(report, i, e.reply, &want);
            } else if without_evicted(&want) != without_evicted(&fresh) {
                let hits = hit_ids(&want).into_iter().chain(hit_ids(&fresh));
                if collided || hits.into_iter().any(|id| tainted.contains(&id)) {
                    substituted += 1;
                } else {
                    report.fail(&format!(
                        "op {i}: the cached answer differs from a cache-free one with no \
                         WL-key collision to explain it\n  served:     {want}\n  cache-free: {fresh}"
                    ));
                }
            }
        }
        i += 1;
    }
    println!("bodies answered from a same-key graph's cached embedding: {substituted}");
    report.set(
        "recall_at_10",
        recalls.iter().sum::<f64>() / recalls.len() as f64,
        "ratio",
    );
    Ok(())
}

pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    hap_obs::set_level(hap_obs::Level::Metrics);
    let mut report = Report::new();
    let (server, setup_s) = repeated_setup(|| start(seed));
    let server = server?;
    report.set("setup_s", setup_s, "s");
    let (ops, wall_s) = timed_phase(server.addr(), seed, seconds)?;
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    drop(server);
    let s = Summary::of(&ops.iter().map(|e| e.ms).collect::<Vec<_>>());
    crate::common::print_routes(ops.iter().map(|e| (e.path, e.ms)));
    report.set("p50_ms", s.p50, "ms");
    report.set("p90_ms", s.p90, "ms");
    report.set("ops_per_s", ops.len() as f64 / wall_s, "1/s");
    report.attempted = ops.len();
    check_outputs(&mut report, seed, &ops)?;
    Ok(report)
}

/// Per-op state of the traced replay's outside view of the update path:
/// a warm-cached mirror of each touched corpus graph with its own WL
/// state, a classifier and an index of its own.
struct Mirror {
    corpus: RetrievalCorpus,
    graphs: HashMap<usize, (Graph, WlState)>,
    clf: HapClassifier<f64>,
    _store: ParamStore<f64>,
    index: GraphIndex,
    wl_iterations: usize,
}

impl Mirror {
    fn graph(&mut self, id: usize) -> &mut (Graph, WlState) {
        let (corpus, it) = (self.corpus, self.wl_iterations);
        self.graphs.entry(id).or_insert_with(|| {
            let g = corpus.graph(id);
            let _ = g.sym_norm_adjacency_cached();
            let _ = g.csr_adjacency_cached();
            let _ = g.wl_signature_cached(it);
            let wl = WlState::build(&g, it);
            (g, wl)
        })
    }

    /// `core.embed` then `retrieval.index.query_prep` for `g`.
    fn prepare(
        &self,
        tracer: &mut Tracer,
        root: usize,
        g: &Graph,
    ) -> Result<QueryEmbedding, String> {
        let features = degree_one_hot(g, CORPUS_FEATURE_DIM);
        let e = tracer
            .time("core.embed", root, || {
                let mut rng = Rng::from_seed(0);
                let mut ctx = PoolCtx {
                    training: false,
                    rng: &mut rng,
                };
                self.clf.try_embeddings(&[(g, &features)], &mut ctx)
            })
            .map_err(|e| e.to_string())?;
        let concat: Vec<f64> = e[0].row(0).to_vec();
        tracer
            .time("retrieval.index.query_prep", root, || {
                QueryEmbedding::from_concat(g, &concat, HIDDEN, CLUSTERS.len(), self.wl_iterations)
            })
            .map_err(|e| e.to_string())
    }
}

pub fn run_traced(seed: u64, seconds: f64) -> Result<(Report, Tracer), String> {
    hap_obs::set_level(hap_obs::Level::Metrics);
    let mut report = Report::new();
    let trained = trained_model(seed);
    trained.check(&mut report);
    report.set("data.generate_s", trained.generate_s, "s");
    report.timing_us("train.forward", &trained.timings.forward_us);
    report.timing_us("train.backward", &trained.timings.backward_us);
    report.timing_us("train.eval", &trained.timings.eval_us);
    let snap = trained.snapshot;
    report.set(
        "snapshot.load_ms",
        snapshot_load_ms(&snap.to_bytes())?,
        "ms",
    );

    let server = start(seed)?;
    hap_obs::reset();
    let (ops, untraced_wall) = timed_phase(server.addr(), seed, seconds)?;
    let jobs_per_batch = hap_obs::histogram("serve.batch_size").map_or(0.0, |h| h.mean());
    drop(server);
    let untraced_p50 = median(&ops.iter().map(|e| e.ms).collect::<Vec<_>>());
    report.set("serve.batch.jobs_per_batch", jobs_per_batch, "count");
    report.attempted = ops.len();

    let cfg = service_config(seed);
    let t = Instant::now();
    let index = build_index(&snap, &cfg)?;
    report.set("retrieval.index.build_s", t.elapsed().as_secs_f64(), "s");
    let mut svc = service(&snap, cfg.clone(), index)?;
    let (store, clf) = snap.build_classifier().map_err(|e| e.to_string())?;
    let mut mirror = Mirror {
        corpus: corpus(seed),
        graphs: HashMap::new(),
        clf,
        _store: store,
        index: build_index(&snap, &cfg)?,
        wl_iterations: cfg.wl_iterations,
    };
    let budget = cfg.search_budget.clamp(SEARCH_K, CORPUS);
    let batcher = Batcher::spawn(
        snap,
        cfg,
        ServeConfig::default().window,
        ServeConfig::default().max_batch,
    )
    .map_err(|e| e.to_string())?;
    let submit = batcher.client();
    for body in warmup_requests(seed) {
        let Decoded::Search { graph, k } = decode("/search", &parse(&body)?)? else {
            unreachable!("warm-up requests are searches")
        };
        let _ = svc.search(&graph, k, None, false);
        let _ = submit.submit(Job::Search {
            graph,
            k,
            budget: None,
            rerank: false,
        });
    }
    let (hits0, misses0) = (svc.cache_hits(), svc.cache_misses());

    let mut lo = Loopback::new().map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new();
    let mut wait_us = Vec::with_capacity(ops.len());
    let mut apply_us = Vec::new();
    let (mut refreshes, mut fallbacks) = (0usize, 0usize);
    let (mut pruned, mut coarse, mut refined, mut searches) = (0.0, 0.0, 0.0, 0usize);
    let replay_start = Instant::now();
    let mut plan = StreamPlan::new(seed, corpus(seed));
    for (i, e) in ops.iter().enumerate() {
        let req = plan.next_request();
        let root = tracer.open(i);
        let decoded = lo.receive(&mut tracer, root, req.path, &req.body)?;
        let (reply, wait) = submit_and_call(&mut tracer, root, &submit, &mut svc, &decoded);
        wait_us.push(wait);

        match decoded {
            Decoded::Update { id, ops } => {
                let (g, wl) = mirror.graph(id);
                let mut batch_ns = 0;
                for op in ops {
                    let start = tracer.now();
                    let changed = g.apply(op);
                    let end = tracer.now();
                    tracer.record("graph.apply", start, end, Some(root), i);
                    batch_ns += end - start;
                    if changed {
                        let (u, v) = match op {
                            hap_graph::EdgeDelta::Upsert { u, v, .. }
                            | hap_graph::EdgeDelta::Remove { u, v } => (u, v),
                        };
                        refreshes += 1;
                        if !tracer.time("graph.wl_refresh", root, || wl.refresh(g, u, v)) {
                            fallbacks += 1;
                        }
                    }
                }
                apply_us.push(batch_ns as f64 / 1e3);
                let q = mirror.prepare(&mut tracer, root, &mirror.graphs[&id].0)?;
                tracer.time("retrieval.index.update_entry", root, || {
                    mirror.index.update_entry(id, &q)
                });
            }
            Decoded::Search { graph, k } => {
                let q = mirror.prepare(&mut tracer, root, &graph)?;
                let (_, r) = tracer.time("retrieval.cascade.search", root, || {
                    mirror.index.cascade(&q, k, budget)
                });
                pruned += (r.skipped_size_degree + r.skipped_wl) as f64 / CORPUS as f64;
                coarse += r.coarse_evals as f64;
                refined += r.refined as f64;
                searches += 1;
            }
            _ => {}
        }

        let body = reply.unwrap_or_else(|why| {
            report.fail(&format!("op {i}: {why}"));
            String::new()
        });
        lo.respond(&mut tracer, root, &body)?;
        tracer.close(root);
        check_body(&mut report, i, e.reply, &body);
    }
    let traced_wall = replay_start.elapsed().as_secs_f64();
    drop(submit);
    batcher.shutdown();

    for name in [
        "serve.http.read",
        "serve.http.write",
        "serve.json.parse",
        "serve.service.graph_build",
        "serve.service.search",
        "serve.service.update",
        "graph.wl_refresh",
        "core.embed",
        "retrieval.index.query_prep",
        "retrieval.index.update_entry",
        "retrieval.cascade.search",
    ] {
        report.timing_us(name, &tracer.durations_us(name));
    }
    report.timing_us("graph.apply", &apply_us);
    report.timing_us("serve.batch.wait", &wait_us);
    report.set(
        "graph.wl_fallback_frac",
        fallbacks as f64 / refreshes.max(1) as f64,
        "ratio",
    );
    let per_search = searches.max(1) as f64;
    report.set(
        "retrieval.cascade.pruned_frac",
        pruned / per_search,
        "ratio",
    );
    report.set(
        "retrieval.cascade.coarse_evals",
        coarse / per_search,
        "count",
    );
    report.set("retrieval.cascade.refined", refined / per_search, "count");
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
