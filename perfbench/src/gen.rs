//! Seeded input generators. Every input a workload sends is a pure
//! function of `--seed`: each concern draws from its own labelled
//! `Rng::fork`, so adding draws to one stream never shifts another.

use hap_data::{ClassificationDataset, RetrievalCorpus};
use hap_graph::{generators, Graph};
use hap_rand::Rng;

/// Hot-pool size of `serve_mix`: large enough that no single graph's
/// size sets the latency (the hottest of 512 gets about 4% of picks).
pub const POOL_SIZE: usize = 512;
/// Node-count range of `serve_mix` request graphs (loadgen's range).
pub const MIX_NODES: (usize, usize) = (6, 32);
/// Share of `serve_mix` graph picks that are one-off graphs instead of
/// hot-pool entries; these are the cache misses of the steady state.
pub const FRESH_SHARE: f64 = 0.05;
/// Node-count range of `stream_update` query graphs: smaller graphs
/// (trees of 6–11 nodes) repeat up to isomorphism and would hit the cache.
pub const QUERY_NODES: (usize, usize) = (12, 24);
/// Largest `/update` edit batch.
pub const MAX_EDIT_BATCH: usize = 64;
/// Neighbours asked for by every `/search`.
pub const SEARCH_K: usize = 10;

/// A seeded root for one concern of one run.
pub fn stream(seed: u64, label: &str) -> Rng {
    Rng::from_seed(seed).fork(label)
}

/// A uniform node count in `lo..=hi`.
pub fn graph_size(rng: &mut Rng, (lo, hi): (usize, usize)) -> usize {
    rng.gen_range(lo..=hi)
}

/// Serialises a graph into the serve wire schema (loadgen's encoding).
pub fn graph_json(g: &Graph) -> String {
    let mut edges = Vec::new();
    for (u, v) in g.edges() {
        edges.push(format!("[{u},{v}]"));
    }
    format!("{{\"n\": {}, \"edges\": [{}]}}", g.n(), edges.join(","))
}

/// The exact bytes of one keep-alive `POST`.
pub fn http_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One planned request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub path: &'static str,
    pub body: String,
}

/// A connected Erdős–Rényi or Barabási–Albert graph with a random
/// density. Small ones can repeat earlier draws up to isomorphism.
pub fn one_off_graph(rng: &mut Rng, nodes: (usize, usize)) -> Graph {
    let n = graph_size(rng, nodes);
    if rng.gen_bool(0.5) {
        let p = rng.gen_range(0.2..0.5);
        generators::erdos_renyi_connected(n, p, rng)
    } else {
        let m = rng.gen_range(1..=3usize);
        generators::barabasi_albert(n, m, rng)
    }
}

/// The `serve_mix` hot pool: loadgen's mix of Erdős–Rényi,
/// Barabási–Albert, ring and star topologies.
pub fn hot_pool(seed: u64) -> Vec<String> {
    let mut rng = stream(seed, "serve_mix/pool");
    (0..POOL_SIZE)
        .map(|i| {
            let n = graph_size(&mut rng, MIX_NODES);
            let g = match i % 4 {
                0 => generators::erdos_renyi_connected(n, 0.3, &mut rng),
                1 => generators::barabasi_albert(n, 2, &mut rng),
                2 => generators::cycle(n),
                _ => generators::star(n),
            };
            graph_json(&g)
        })
        .collect()
}

/// One `serve_mix` client's request stream: ~70% `/classify`, ~15%
/// `/similarity`, ~15% `/search`, each graph a skewed hot-pool pick
/// (squaring a uniform draw favours low indices, loadgen's hot set) or,
/// with probability [`FRESH_SHARE`], a one-off graph.
pub struct MixStream<'a> {
    rng: Rng,
    pool: &'a [String],
}

impl<'a> MixStream<'a> {
    pub fn new(seed: u64, client: usize, pool: &'a [String]) -> Self {
        MixStream {
            rng: stream(seed, &format!("serve_mix/client{client}")),
            pool,
        }
    }

    fn pick(&mut self) -> String {
        if self.rng.gen_bool(FRESH_SHARE) {
            return graph_json(&one_off_graph(&mut self.rng, MIX_NODES));
        }
        let r = self.rng.gen_f64();
        let i = ((r * r * self.pool.len() as f64) as usize).min(self.pool.len() - 1);
        self.pool[i].clone()
    }

    pub fn next_request(&mut self) -> Request {
        let r = self.rng.gen_f64();
        if r < 0.15 {
            let (a, b) = (self.pick(), self.pick());
            Request {
                path: "/similarity",
                body: format!("{{\"a\": {a}, \"b\": {b}}}"),
            }
        } else if r < 0.30 {
            Request {
                path: "/search",
                body: format!("{{\"graph\": {}, \"k\": {SEARCH_K}}}", self.pick()),
            }
        } else {
            Request {
                path: "/classify",
                body: self.pick(),
            }
        }
    }
}

/// A log-uniform edit-batch size on `1..=MAX_EDIT_BATCH`: `⌊65^u⌋` for
/// uniform `u ∈ [0, 1)`, so every power-of-two band gets about the same
/// share and both ends are reachable.
pub fn edit_batch_size(rng: &mut Rng) -> usize {
    let b = ((MAX_EDIT_BATCH + 1) as f64).powf(rng.gen_f64()).floor() as usize;
    b.clamp(1, MAX_EDIT_BATCH)
}

/// The `stream_update` traffic: `/update` and `/search` alternate,
/// starting with an update. An update rewrites a uniformly chosen corpus
/// graph with a log-uniform batch of valid edge ops (distinct endpoints
/// in range, positive weights; removing an absent edge is a legal
/// no-op); a search asks for the top-10 of a freshly generated graph.
pub struct StreamPlan {
    corpus: RetrievalCorpus,
    rng: Rng,
    next_is_update: bool,
}

impl StreamPlan {
    pub fn new(seed: u64, corpus: RetrievalCorpus) -> Self {
        StreamPlan {
            corpus,
            rng: stream(seed, "stream_update/plan"),
            next_is_update: true,
        }
    }

    pub fn next_request(&mut self) -> Request {
        let update = self.next_is_update;
        self.next_is_update = !update;
        if !update {
            let g = one_off_graph(&mut self.rng, QUERY_NODES);
            return Request {
                path: "/search",
                body: format!("{{\"graph\": {}, \"k\": {SEARCH_K}}}", graph_json(&g)),
            };
        }
        let id = self.rng.gen_range(0..self.corpus.len());
        let n = self.corpus.graph(id).n();
        let batch = edit_batch_size(&mut self.rng);
        let ops: Vec<String> = (0..batch)
            .map(|_| {
                let u = self.rng.gen_range(0..n);
                let v = (u + self.rng.gen_range(1..n)) % n;
                if self.rng.gen_bool(0.5) {
                    let w = [1.0, 0.5, 2.0][self.rng.gen_range(0..3usize)];
                    format!("{{\"op\":\"add\",\"u\":{u},\"v\":{v},\"w\":{w:?}}}")
                } else {
                    format!("{{\"op\":\"remove\",\"u\":{u},\"v\":{v}}}")
                }
            })
            .collect();
        Request {
            path: "/update",
            body: format!("{{\"id\": {id}, \"ops\": [{}]}}", ops.join(",")),
        }
    }
}

/// Graphs in the `stream_update` model's training set.
pub const COLLAB_GRAPHS: usize = 150;

/// The `stream_update` model's training set: COLLAB-like graphs of
/// 40–110 nodes.
pub fn collab_dataset(seed: u64) -> ClassificationDataset {
    hap_data::collab(COLLAB_GRAPHS, 1.0, &mut stream(seed, "stream_update/data"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(seed: u64, client: usize, count: usize) -> Vec<Vec<u8>> {
        let pool = hot_pool(seed);
        let mut s = MixStream::new(seed, client, &pool);
        (0..count)
            .map(|_| {
                let r = s.next_request();
                http_request(r.path, &r.body)
            })
            .collect()
    }

    fn plan(seed: u64, count: usize) -> Vec<Request> {
        let mut p = StreamPlan::new(seed, RetrievalCorpus::new(seed, 256));
        (0..count).map(|_| p.next_request()).collect()
    }

    #[test]
    fn same_seed_gives_identical_request_bytes() {
        assert_eq!(mix(7, 0, 200), mix(7, 0, 200));
        assert_eq!(plan(7, 100), plan(7, 100));
    }

    #[test]
    fn different_seeds_and_clients_give_different_requests() {
        assert_ne!(mix(7, 0, 200), mix(8, 0, 200));
        assert_ne!(mix(7, 0, 200), mix(7, 1, 200));
        assert_ne!(plan(7, 100), plan(8, 100));
    }

    #[test]
    fn serve_mix_is_roughly_70_15_15() {
        let pool = hot_pool(3);
        let mut s = MixStream::new(3, 0, &pool);
        let (mut c, mut sim, mut se) = (0, 0, 0);
        for _ in 0..10_000 {
            match s.next_request().path {
                "/classify" => c += 1,
                "/similarity" => sim += 1,
                _ => se += 1,
            }
        }
        assert!((6_700..7_300).contains(&c), "{c}");
        assert!((1_300..1_700).contains(&sim), "{sim}");
        assert!((1_300..1_700).contains(&se), "{se}");
    }

    #[test]
    fn stream_alternates_updates_and_searches() {
        let reqs = plan(5, 40);
        for (i, r) in reqs.iter().enumerate() {
            let want = if i % 2 == 0 { "/update" } else { "/search" };
            assert_eq!(r.path, want, "request {i}");
        }
    }

    #[test]
    fn edit_batches_are_seed_determined_and_reach_both_ends() {
        let draw = |seed| {
            let mut rng = stream(seed, "t");
            (0..20_000)
                .map(|_| edit_batch_size(&mut rng))
                .collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        assert!(a.contains(&1) && a.contains(&MAX_EDIT_BATCH));
        assert!(a.iter().all(|&b| (1..=MAX_EDIT_BATCH).contains(&b)));
        // Log-uniform: batches of 1 and of 33..=64 are about equally
        // likely (each band holds about 1/6 of ln 65).
        let ones = a.iter().filter(|&&b| b == 1).count();
        let top = a.iter().filter(|&&b| b > 32).count();
        assert!(ones > 2_500 && top > 2_500, "{ones} {top}");
    }

    #[test]
    fn update_ops_are_valid_for_their_graph() {
        let corpus = RetrievalCorpus::new(11, 64);
        let mut p = StreamPlan::new(11, corpus);
        for _ in 0..200 {
            let r = p.next_request();
            if r.path != "/update" {
                continue;
            }
            let v = hap_serve::Json::parse(&r.body).unwrap();
            let id = v.get("id").and_then(hap_serve::Json::as_usize).unwrap();
            let n = corpus.graph(id).n();
            let ops = v.get("ops").and_then(hap_serve::Json::as_array).unwrap();
            assert!((1..=MAX_EDIT_BATCH).contains(&ops.len()));
            for op in ops {
                let u = op.get("u").and_then(hap_serve::Json::as_usize).unwrap();
                let w = op.get("v").and_then(hap_serve::Json::as_usize).unwrap();
                assert!(u < n && w < n && u != w, "({u},{w}) on n = {n}");
            }
        }
    }

    #[test]
    fn graph_size_draws_cover_their_range_without_gaps() {
        let mut rng = stream(9, "sizes");
        for range in [MIX_NODES, QUERY_NODES] {
            let mut seen = vec![false; range.1 + 1];
            for _ in 0..2_000 {
                seen[graph_size(&mut rng, range)] = true;
            }
            assert!(seen[..range.0].iter().all(|s| !s));
            assert!(seen[range.0..].iter().all(|&s| s), "{range:?}: {seen:?}");
        }
        // The COLLAB generator draws 40..110 nodes (the paper's sizes).
        let ds = hap_data::collab(600, 1.0, &mut stream(9, "collab-sizes"));
        let mut seen = [false; 110];
        for s in &ds.samples {
            seen[s.graph.n()] = true;
        }
        assert!(seen[..40].iter().all(|s| !s));
        assert!(seen[40..].iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn collab_dataset_is_seed_determined() {
        let key = |ds: &ClassificationDataset| -> Vec<(usize, usize, usize)> {
            ds.samples
                .iter()
                .map(|s| (s.graph.n(), s.graph.num_edges(), s.label))
                .collect()
        };
        let a = collab_dataset(4);
        assert_eq!(a.samples.len(), COLLAB_GRAPHS);
        assert_eq!(key(&a), key(&collab_dataset(4)));
        assert_eq!(
            a.samples[0].graph.adjacency().as_slice(),
            collab_dataset(4).samples[0].graph.adjacency().as_slice()
        );
        assert_ne!(key(&a), key(&collab_dataset(5)));
    }

    #[test]
    fn wire_graphs_parse_back_to_the_same_graph() {
        let mut rng = stream(2, "wire");
        let g = one_off_graph(&mut rng, MIX_NODES);
        let parsed =
            hap_serve::graph_from_json(&hap_serve::Json::parse(&graph_json(&g)).unwrap()).unwrap();
        assert_eq!(parsed.n(), g.n());
        assert_eq!(parsed.edges(), g.edges());
    }
}
