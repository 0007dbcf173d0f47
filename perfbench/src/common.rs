//! Pieces the workloads share: the host fingerprint, peak memory, the
//! request decoder and the reference renderer that output checks replay
//! requests through.

use hap_data::RetrievalCorpus;
use hap_graph::wl_cache_key;
use hap_graph::{EdgeDelta, Graph, GraphScalar};
use hap_retrieval::{GraphIndex, IndexConfig};
use hap_serve::json::{num, num_array};
use hap_serve::service::{clamp_labels, Classification, SearchResult, Similarity};
use hap_serve::{graph_from_json, Json, ModelService, SearchState, ServiceConfig};
use hap_snapshot::ModelSnapshot;
use std::collections::HashMap;
use std::time::Instant;

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// One op of a timed phase. Only a digest of the response body is kept,
/// and the request is regenerated from the seed when it is needed again:
/// holding every body would put the benchmark's own buffers into
/// `peak_rss_mb`.
pub struct Exchange {
    pub path: &'static str,
    pub status: u16,
    pub reply: u64,
    pub ms: f64,
}

/// FNV-1a over a response body.
pub fn digest(body: &str) -> u64 {
    body.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// nproc, CPU model, `HAP_THREADS` (and the thread count in effect) and
/// the 1-minute load average, as one line.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let env = std::env::var("HAP_THREADS").unwrap_or_else(|_| "unset".to_string());
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" HAP_THREADS={env} threads_in_effect={} load1={load1}",
        hap_par::threads()
    )
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The retrieval corpus a service configuration serves.
pub fn corpus(cfg: &ServiceConfig) -> RetrievalCorpus {
    RetrievalCorpus::new(cfg.search_seed, cfg.search_corpus)
}

/// The search index the model thread builds for `cfg`.
pub fn build_index(snap: &ModelSnapshot, cfg: &ServiceConfig) -> Result<GraphIndex, String> {
    let config = IndexConfig {
        wl_iterations: cfg.wl_iterations,
        ..IndexConfig::default()
    };
    GraphIndex::build(snap, &corpus(cfg), config).map_err(|e| e.to_string())
}

/// An in-process service over `index`, wired as the model thread wires
/// it.
pub fn service(
    snap: &ModelSnapshot,
    cfg: ServiceConfig,
    index: GraphIndex,
) -> Result<ModelService, String> {
    let (_store, clf) = snap.build_classifier().map_err(|e| e.to_string())?;
    let c = &snap.config;
    let corpus = corpus(&cfg);
    let mut svc = ModelService::new(clf, c.in_dim, c.hidden, c.cluster_sizes.len().max(1), cfg);
    svc.enable_search(SearchState::new(index, corpus));
    Ok(svc)
}

/// Median time of `ModelSnapshot::from_bytes` + `build_classifier` over
/// five loads, in ms.
pub fn snapshot_load_ms(bytes: &[u8]) -> Result<f64, String> {
    let mut ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let snap = ModelSnapshot::<f64>::from_bytes(bytes).map_err(|e| e.to_string())?;
        let built = snap.build_classifier().map_err(|e| e.to_string())?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(built);
    }
    Ok(crate::stats::median(&ms))
}

/// The share of the served top-k for search `req` that the exhaustive
/// answer (budget = corpus size) also contains, and the served body.
pub fn search_recall<T: GraphScalar>(
    svc: &mut ModelService<T>,
    req: Decoded,
    corpus_len: usize,
) -> Result<(f64, String), String> {
    let served = reference_body(svc, req.clone(), None)?;
    let exhaustive = reference_body(svc, req, Some(corpus_len))?;
    Ok((overlap(&hit_ids(&served), &hit_ids(&exhaustive)), served))
}

/// Runs `setup` [`SETUP_REPEATS`] times and keeps the last result; the
/// second value is the median set-up time in seconds.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first so repeats do not stack memory.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    println!("setup samples (s): {}", shown.join(" "));
    (
        last.expect("at least one set-up"),
        crate::stats::median(&times),
    )
}

/// A request body decoded the way the server's routes decode it.
// One value lives per request at a time; boxing the graphs buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum Decoded {
    Classify(Graph),
    Similarity(Graph, Graph),
    Search { graph: Graph, k: usize },
    Update { id: usize, ops: Vec<EdgeDelta> },
}

pub fn parse(body: &str) -> Result<Json, String> {
    Json::parse(body).map_err(|e| e.to_string())
}

/// Turns a parsed body of `path` into graphs and ops (`graph_from_json`
/// for every graph). Bodies here come from the benchmark's own
/// generators, so the only accepted shapes are the ones it sends.
pub fn decode(path: &str, v: &Json) -> Result<Decoded, String> {
    let graph = |key: &str| -> Result<Graph, String> {
        graph_from_json(v.get(key).ok_or(format!("missing {key:?}"))?)
    };
    match path {
        "/classify" => Ok(Decoded::Classify(graph_from_json(v)?)),
        "/similarity" => Ok(Decoded::Similarity(graph("a")?, graph("b")?)),
        "/search" => Ok(Decoded::Search {
            graph: graph("graph")?,
            k: v.get("k").and_then(Json::as_usize).ok_or("missing k")?,
        }),
        "/update" => {
            let id = v.get("id").and_then(Json::as_usize).ok_or("missing id")?;
            let raw = v.get("ops").and_then(Json::as_array).ok_or("missing ops")?;
            let ops = raw
                .iter()
                .map(|op| {
                    let field = |k: &str| op.get(k).and_then(Json::as_usize);
                    let (u, w) = (field("u").ok_or("bad u")?, field("v").ok_or("bad v")?);
                    match op.get("op").and_then(Json::as_str) {
                        Some("add") => Ok(EdgeDelta::Upsert {
                            u,
                            v: w,
                            w: op.get("w").and_then(Json::as_f64).unwrap_or(1.0),
                        }),
                        Some("remove") => Ok(EdgeDelta::Remove { u, v: w }),
                        _ => Err("bad op".to_string()),
                    }
                })
                .collect::<Result<_, String>>()?;
            Ok(Decoded::Update { id, ops })
        }
        other => Err(format!("no route {other}")),
    }
}

/// The response body the server renders for `req`, computed by calling
/// `svc` directly. `budget` overrides the server's default search budget
/// (`None` keeps it). Mirrors the model thread's renderers; classify
/// goes through the single-graph path, which the server's batched path
/// must match bit for bit.
pub fn reference_body<T: GraphScalar>(
    svc: &mut ModelService<T>,
    req: Decoded,
    budget: Option<usize>,
) -> Result<String, String> {
    let dim = svc.in_dim();
    match req {
        Decoded::Classify(mut g) => {
            clamp_labels(&mut g, dim);
            let Classification { label, logits } = svc.classify(&g).map_err(|e| e.to_string())?;
            Ok(format!(
                "{{\"label\":{label},\"logits\":{}}}",
                num_array(&logits)
            ))
        }
        Decoded::Similarity(mut a, mut b) => {
            clamp_labels(&mut a, dim);
            clamp_labels(&mut b, dim);
            let Similarity { per_level, mean } =
                svc.similarity(&a, &b).map_err(|e| e.to_string())?;
            Ok(format!(
                "{{\"mean\":{},\"per_level\":{}}}",
                num(mean),
                num_array(&per_level)
            ))
        }
        Decoded::Search { mut graph, k } => {
            clamp_labels(&mut graph, dim);
            let SearchResult {
                hits,
                budget,
                reranked,
            } = svc.search(&graph, k, budget, false)?;
            let results: Vec<String> = hits
                .iter()
                .map(|h| format!("{{\"id\":{},\"distance\":{}}}", h.id, num(h.distance)))
                .collect();
            Ok(format!(
                "{{\"results\":[{}],\"budget\":{budget},\"reranked\":{reranked}}}",
                results.join(",")
            ))
        }
        Decoded::Update { id, ops } => {
            let r = svc.update(id, &ops)?;
            Ok(format!(
                "{{\"id\":{},\"applied\":{},\"noops\":{},\"n\":{},\"edges\":{},\"max_degree\":{},\"reembedded\":{},\"evicted\":{}}}",
                r.id, r.applied, r.noops, r.n, r.edges, r.max_degree, r.reembedded, r.evicted
            ))
        }
    }
}

/// `/update` bodies report whether a stale embedding-cache entry was
/// evicted, which only a service with a cache can reproduce; comparisons
/// with a cache-free service leave that one field out.
pub fn without_evicted(body: &str) -> &str {
    body.split_once(",\"evicted\":")
        .map_or(body, |(head, _)| head)
}

/// Ids of the hits in a `/search` body, in rank order.
pub(crate) fn hit_ids(body: &str) -> Vec<usize> {
    parse(body)
        .ok()
        .and_then(|v| {
            v.get("results").and_then(Json::as_array).map(|hits| {
                hits.iter()
                    .filter_map(|h| h.get("id").and_then(Json::as_usize))
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// The share of `served` that `exhaustive` also contains.
fn overlap(served: &[usize], exhaustive: &[usize]) -> f64 {
    if served.is_empty() {
        return 0.0;
    }
    let common = served.iter().filter(|id| exhaustive.contains(id)).count();
    common as f64 / served.len() as f64
}

impl Decoded {
    /// The graphs whose embeddings the request looks up.
    pub fn graphs(&self) -> Vec<&Graph> {
        match self {
            Decoded::Classify(g) | Decoded::Search { graph: g, .. } => vec![g],
            Decoded::Similarity(a, b) => vec![a, b],
            Decoded::Update { .. } => Vec::new(),
        }
    }

    /// The same request with every looked-up graph replaced, in every
    /// combination, by a graph `book` holds under the same cache key.
    pub fn substitutes(&self, book: &KeyBook) -> Vec<Decoded> {
        match self {
            Decoded::Classify(g) => book
                .variants(g)
                .into_iter()
                .map(Decoded::Classify)
                .collect(),
            Decoded::Similarity(a, b) => {
                let bs = book.variants(b);
                book.variants(a)
                    .into_iter()
                    .flat_map(|a| {
                        bs.iter()
                            .map(move |b| Decoded::Similarity(a.clone(), b.clone()))
                    })
                    .collect()
            }
            Decoded::Search { graph, k } => book
                .variants(graph)
                .into_iter()
                .map(|graph| Decoded::Search { graph, k: *k })
                .collect(),
            Decoded::Update { .. } => Vec::new(),
        }
    }
}

/// The graphs a run sends, grouped by the serve cache's WL key, with
/// every distinct adjacency seen under each key.
///
/// The embedding cache is keyed by `wl_cache_key`, and
/// `hap_graph::wl_cache_key` documents its collision contract: graphs
/// sharing a key (isomorphic graphs numbered differently, or
/// 1-WL-equivalent ones) share one cache entry, and each is served the
/// embedding of whichever arrived first. That embedding can differ from
/// a fresh computation in the last bits (a permutation changes the
/// summation order) or more (1-WL-equivalent graphs). Output checks use
/// the book to tell that documented substitution from a wrong answer.
#[derive(Default)]
pub struct KeyBook {
    by_key: HashMap<u64, Vec<Graph>>,
}

impl KeyBook {
    /// Records `g`; `true` when its key already held a graph with a
    /// different adjacency.
    pub fn add(&mut self, g: &Graph) -> bool {
        let key = wl_cache_key(g, ServiceConfig::default().wl_iterations);
        let graphs = self.by_key.entry(key).or_default();
        let known = graphs.iter().any(|h| same_adjacency(g, h));
        if !known {
            graphs.push(g.clone());
        }
        graphs.len() > 1
    }

    /// Whether a graph `req` looks up shares its key with another graph
    /// of different adjacency.
    pub fn shared_key(&self, req: &Decoded) -> bool {
        req.graphs().into_iter().any(|g| self.variants(g).len() > 1)
    }

    /// Every distinct graph recorded under `g`'s key (at least `g`).
    pub fn variants(&self, g: &Graph) -> Vec<Graph> {
        let key = wl_cache_key(g, ServiceConfig::default().wl_iterations);
        match self.by_key.get(&key) {
            Some(graphs) if !graphs.is_empty() => graphs.clone(),
            _ => vec![g.clone()],
        }
    }
}

fn same_adjacency(a: &Graph, b: &Graph) -> bool {
    a.n() == b.n()
        && a.adjacency()
            .as_slice()
            .iter()
            .zip(b.adjacency().as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Records a failed op when the served body (by digest) differs from
/// `reference`.
pub fn check_body(report: &mut crate::report::Report, op: usize, served: u64, reference: &str) {
    if served != digest(reference) {
        report.fail(&format!(
            "op {op}: the body differs from the reference {reference}"
        ));
    }
}

/// Prints the exact p50/p90 and sample count of every route and of all
/// ops together.
pub fn print_routes<'a>(ops: impl Iterator<Item = (&'a str, f64)>) {
    let mut by_route: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut all = Vec::new();
    for (path, ms) in ops {
        by_route.entry(path).or_default().push(ms);
        all.push(ms);
    }
    by_route.insert("all", all);
    for (route, ms) in by_route {
        let s = crate::stats::Summary::of(&ms);
        println!(
            "latency {route:<12} n={:<7} p50={:.4} ms p90={:.4} ms",
            s.n, s.p50, s.p90
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicted_is_the_only_field_left_out() {
        let a = "{\"id\":1,\"applied\":2,\"noops\":0,\"n\":5,\"edges\":4,\"max_degree\":2,\"reembedded\":true,\"evicted\":true}";
        let b = "{\"id\":1,\"applied\":2,\"noops\":0,\"n\":5,\"edges\":4,\"max_degree\":2,\"reembedded\":true,\"evicted\":false}";
        assert_eq!(without_evicted(a), without_evicted(b));
        assert!(without_evicted(a).ends_with("\"reembedded\":true"));
    }

    #[test]
    fn overlap_is_the_shared_share() {
        assert_eq!(overlap(&[1, 2, 3, 4], &[4, 3, 9, 8]), 0.5);
        assert_eq!(hit_ids("{\"results\":[{\"id\":3,\"distance\":0.5},{\"id\":7,\"distance\":1.0}],\"budget\":128,\"reranked\":false}"), vec![3, 7]);
    }
}
