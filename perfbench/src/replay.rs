//! The traced replay of one serve request: the HTTP path timed layer by
//! layer on a loopback socket, the job through the batcher, and the same
//! job on a direct `ModelService`.

use crate::client::Client;
use crate::common::{decode, Decoded};
use crate::gen::http_request;
use crate::trace::Tracer;
use hap_serve::http::{read_request, write_response};
use hap_serve::{BatcherClient, Job, Json, ModelService};
use std::net::{TcpListener, TcpStream};

/// A connected loopback pair: the benchmark writes requests on the
/// client side and the server's `http` functions read and write the
/// other, so socket reads and writes are timed on a real socket.
pub struct Loopback {
    client: Client,
    server: TcpStream,
}

impl Loopback {
    pub fn new() -> std::io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = Client::connect(listener.local_addr()?)?;
        let (server, _) = listener.accept()?;
        server.set_nodelay(true)?;
        Ok(Loopback { client, server })
    }

    /// Sends the request and times `read_request`, `Json::parse` and the
    /// body decode (`graph_from_json` for graph routes) under `root`.
    pub fn receive(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
        path: &str,
        body: &str,
    ) -> Result<Decoded, String> {
        self.client
            .send(&http_request(path, body))
            .map_err(|e| e.to_string())?;
        let request = tracer
            .time("serve.http.read", root, || {
                read_request(&mut self.server, 1 << 20)
            })
            .map_err(|e| e.to_string())?;
        let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let json = tracer
            .time("serve.json.parse", root, || Json::parse(text))
            .map_err(|e| e.to_string())?;
        let name = if path == "/update" {
            "serve.json.decode_ops"
        } else {
            "serve.service.graph_build"
        };
        tracer.time(name, root, || decode(path, &json))
    }

    /// Times `write_response` of `body` under `root`, then reads the
    /// response back on the client side.
    pub fn respond(&mut self, tracer: &mut Tracer, root: usize, body: &str) -> Result<(), String> {
        tracer
            .time("serve.http.write", root, || {
                write_response(&mut self.server, 200, "OK", body, true)
            })
            .map_err(|e| e.to_string())?;
        self.client.receive().map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// Spans on one op's HTTP path: their per-op sum against the untraced
/// p50 gives `trace.unaccounted_frac`.
pub const HTTP_PATH: [&str; 6] = [
    "serve.http.read",
    "serve.json.parse",
    "serve.service.graph_build",
    "serve.json.decode_ops",
    "serve.batch.submit",
    "serve.http.write",
];

/// Submits `req` to the model thread (span `serve.batch.submit`), then
/// runs the same call on `svc` directly (span `serve.service.<route>`).
/// Returns the model thread's reply body, or why there is none, and the
/// batch wait in µs: the round trip minus the direct call.
pub fn submit_and_call(
    tracer: &mut Tracer,
    root: usize,
    batcher: &BatcherClient,
    svc: &mut ModelService,
    req: &Decoded,
) -> (Result<String, String>, f64) {
    let (job, name) = match req {
        Decoded::Classify(g) => (Job::Classify(g.clone()), "serve.service.classify"),
        Decoded::Similarity(a, b) => (
            Job::Similarity(a.clone(), b.clone()),
            "serve.service.similarity",
        ),
        Decoded::Search { graph, k } => (
            Job::Search {
                graph: graph.clone(),
                k: *k,
                budget: None,
                rerank: false,
            },
            "serve.service.search",
        ),
        Decoded::Update { id, ops } => (
            Job::Update {
                id: *id,
                ops: ops.clone(),
            },
            "serve.service.update",
        ),
    };
    let start = tracer.now();
    let reply = tracer.time("serve.batch.submit", root, || batcher.submit(job));
    let submitted = tracer.now();
    tracer.time(name, root, || match req {
        Decoded::Classify(g) => drop(svc.classify_batch(std::slice::from_ref(g))),
        Decoded::Similarity(a, b) => drop(svc.similarity(a, b)),
        Decoded::Search { graph, k } => drop(svc.search(graph, *k, None, false)),
        Decoded::Update { id, ops } => drop(svc.update(*id, ops)),
    });
    let direct = tracer.now() - submitted;
    let wait_ns = (submitted - start) as f64 - direct as f64;
    let reply = match reply {
        Some(Ok(body)) => Ok(body),
        other => Err(format!("the model thread answered {other:?}")),
    };
    (reply, wait_ns / 1e3)
}
