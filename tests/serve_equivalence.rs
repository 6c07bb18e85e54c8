//! The serving tier's end-to-end guarantee: every answer returned over
//! the wire is **bitwise identical** to the local [`QueryEngine`] on the
//! unsharded frozen store — across shard counts {1, 2, 4}, server worker
//! counts, pipelined and sequential clients, and every request type of
//! the protocol.

use std::net::SocketAddr;
use std::sync::Arc;

use proptest::prelude::*;

use adsketch::core::centrality::DecayKernel;
use adsketch::core::{
    freeze_sharded, freeze_sharded_format, AdsSet, FrozenAdsSet, QueryEngine, StoreFormat,
};
use adsketch::graph::{generators, Graph, NodeId};
use adsketch::serve::{Client, Request, Response, ServeError, Server, ShardedStore};

/// Freezes `ads` into `shards` files in a scratch dir, loads the store,
/// and runs a bound server with `workers` threads. Returns the client
/// address plus a guard that shuts the server down and wipes the dir.
fn spawn_server(ads: &AdsSet, shards: usize, workers: usize, tag: &str) -> ServerGuard {
    let dir = std::env::temp_dir().join(format!("adsketch_test_serve_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    freeze_sharded(ads, shards, &dir).expect("freeze_sharded");
    let store = Arc::new(ShardedStore::load(&dir).expect("load sharded store"));
    let server = Server::bind("127.0.0.1:0", store, workers).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    ServerGuard {
        addr,
        handle: Some(handle),
        join: Some(join),
        dir,
    }
}

struct ServerGuard {
    addr: SocketAddr,
    handle: Option<adsketch::serve::ServerHandle>,
    join: Option<std::thread::JoinHandle<std::io::Result<u64>>>,
    dir: std::path::PathBuf,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Fires every request type at the server and asserts each response is
/// bitwise equal to the local engine on the unsharded store.
fn assert_served_equals_local(client: &mut Client, ads: &AdsSet, frozen: &FrozenAdsSet) {
    let local = QueryEngine::new(frozen);
    let n = ads.num_nodes() as NodeId;
    let nodes: Vec<NodeId> = (0..n).collect();
    let rev: Vec<NodeId> = (0..n).rev().collect();

    assert_eq!(
        client.harmonic(&nodes).expect("harmonic"),
        local.harmonic_batch(&nodes)
    );
    // A shuffled batch must come back in request order, not node order.
    assert_eq!(
        client.harmonic(&rev).expect("harmonic rev"),
        local.harmonic_batch(&rev)
    );
    for kernel in [
        DecayKernel::Harmonic,
        DecayKernel::Constant,
        DecayKernel::Threshold(2.0),
        DecayKernel::Exponential { base: 2.0 },
    ] {
        assert_eq!(
            client.decay(kernel, &nodes).expect("decay"),
            local.decay_batch(kernel, &nodes),
            "kernel {kernel:?}"
        );
    }
    let queries: Vec<(NodeId, f64)> = nodes
        .iter()
        .map(|&v| (v, (v % 5) as f64))
        .chain([(0, f64::INFINITY), (n - 1, 0.0)])
        .collect();
    assert_eq!(
        client.cardinality(&queries).expect("cardinality"),
        local.cardinality_batch(&queries)
    );
    assert_eq!(
        client.neighborhood_function(&nodes).expect("nf"),
        local.neighborhood_function_batch(&nodes)
    );
    let pairs: Vec<(NodeId, NodeId)> = nodes.iter().map(|&v| (v, (v + 1) % n)).collect();
    assert_eq!(
        client.jaccard(2.0, &pairs).expect("jaccard"),
        local.jaccard_batch(&pairs, 2.0)
    );
}

#[test]
fn served_answers_bitwise_identical_across_shards_and_workers() {
    let g = generators::gnp_directed(80, 0.06, 17);
    let ads = AdsSet::build(&g, 4, 9);
    let frozen = ads.freeze();
    for shards in [1usize, 2, 4] {
        for workers in [1usize, 2, 4] {
            let guard = spawn_server(&ads, shards, workers, &format!("eq_{shards}_{workers}"));
            let mut client = Client::connect(guard.addr).expect("connect");
            assert_served_equals_local(&mut client, &ads, &frozen);
        }
    }
}

#[test]
fn served_answers_on_v2_shards_bitwise_identical_to_local_v1_engine() {
    // The wire-path leg of the cross-format identity gate: shards frozen
    // in the compressed v2 format must serve every request type bitwise
    // identical to the local engine on the unsharded full-width store.
    let g = generators::gnp_directed(90, 0.06, 17);
    let ads = AdsSet::build(&g, 4, 9);
    let frozen = ads.freeze();
    for shards in [1usize, 3] {
        let dir = std::env::temp_dir().join(format!("adsketch_test_serve_v2_{shards}"));
        let _ = std::fs::remove_dir_all(&dir);
        freeze_sharded_format(&ads, shards, &dir, StoreFormat::V2).expect("freeze v2");
        let store = Arc::new(ShardedStore::load(&dir).expect("load v2 sharded store"));
        let server = Server::bind("127.0.0.1:0", store, 2).expect("bind");
        let addr = server.local_addr().expect("addr");
        let guard = ServerGuard {
            addr,
            handle: Some(server.handle()),
            join: Some(std::thread::spawn(move || server.run())),
            dir,
        };
        let mut client = Client::connect(guard.addr).expect("connect");
        assert_served_equals_local(&mut client, &ads, &frozen);
    }
}

#[test]
fn weighted_and_disconnected_graphs_serve_identically() {
    let weighted = generators::random_weighted_digraph(60, 3, 0.5, 2.5, 7);
    let mut arcs = generators::gnp(30, 0.12, 5)
        .all_arcs()
        .map(|(u, v, _)| (u, v))
        .collect::<Vec<_>>();
    arcs.extend(
        generators::gnp(30, 0.12, 6)
            .all_arcs()
            .map(|(u, v, _)| (u + 30, v + 30)),
    );
    let disconnected = Graph::directed(70, &arcs).unwrap(); // nodes 60..70 isolated
    for (name, g) in [("weighted", &weighted), ("disconnected", &disconnected)] {
        let ads = AdsSet::build(g, 3, 2);
        let frozen = ads.freeze();
        let guard = spawn_server(&ads, 2, 2, &format!("kinds_{name}"));
        let mut client = Client::connect(guard.addr).expect("connect");
        assert_served_equals_local(&mut client, &ads, &frozen);
    }
}

#[test]
fn pipelined_and_concurrent_clients_get_ordered_identical_answers() {
    let g = generators::barabasi_albert(120, 3, 4);
    let ads = AdsSet::build(&g, 4, 6);
    let frozen = ads.freeze();
    let local = QueryEngine::new(&frozen);
    let guard = spawn_server(&ads, 4, 3, "pipeline");

    // Deep pipeline on one connection: responses must align with request
    // order.
    let reqs: Vec<Request> = (0..40u32)
        .map(|i| Request::Harmonic {
            nodes: vec![i, (i + 7) % 120, (i * 3) % 120],
        })
        .collect();
    let mut client = Client::connect(guard.addr).expect("connect");
    let responses = client.pipeline(&reqs).expect("pipeline");
    for (req, resp) in reqs.iter().zip(&responses) {
        let Request::Harmonic { nodes } = req else {
            unreachable!()
        };
        assert_eq!(resp, &Response::Floats(local.harmonic_batch(nodes)));
    }

    // Many concurrent connections served by a smaller worker pool.
    std::thread::scope(|s| {
        for c in 0..6u32 {
            let addr = guard.addr;
            let local = &local;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let nodes: Vec<NodeId> = (0..120).filter(|v| v % (c + 2) == 0).collect();
                for _ in 0..10 {
                    assert_eq!(
                        client.harmonic(&nodes).expect("harmonic"),
                        local.harmonic_batch(&nodes)
                    );
                }
            });
        }
    });
}

#[test]
fn out_of_range_nodes_get_error_frames_and_keep_the_connection() {
    let g = generators::gnp(30, 0.1, 3);
    let ads = AdsSet::build(&g, 2, 1);
    let frozen = ads.freeze();
    let guard = spawn_server(&ads, 2, 1, "errors");
    let mut client = Client::connect(guard.addr).expect("connect");
    let err = client.harmonic(&[0, 29, 30]).unwrap_err();
    match err {
        ServeError::Remote { code, message } => {
            assert_eq!(code, adsketch::serve::proto::ERR_NODE_RANGE);
            assert!(message.contains("30"), "{message}");
        }
        other => panic!("expected a Remote error, got {other}"),
    }
    let err = client.jaccard(1.0, &[(0, 99)]).unwrap_err();
    assert!(matches!(err, ServeError::Remote { .. }));
    // The connection survives error frames.
    assert_eq!(
        client.harmonic(&[0, 1]).expect("still usable"),
        QueryEngine::new(&frozen).harmonic_batch(&[0, 1])
    );
}

#[test]
fn graceful_shutdown_returns_and_refuses_new_work() {
    let g = generators::gnp(20, 0.2, 8);
    let ads = AdsSet::build(&g, 2, 3);
    let dir = std::env::temp_dir().join("adsketch_test_serve_shutdown");
    let _ = std::fs::remove_dir_all(&dir);
    freeze_sharded(&ads, 2, &dir).expect("freeze_sharded");
    let store = Arc::new(ShardedStore::load(&dir).expect("load"));
    let server = Server::bind("127.0.0.1:0", store, 2).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    assert_eq!(handle.addr(), addr);
    let join = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.harmonic(&[0]).expect("pre-shutdown").len(), 1);
    drop(client);

    handle.shutdown();
    let served = join.join().expect("join").expect("run");
    assert!(served >= 1, "at least our connection was served");
    std::fs::remove_dir_all(&dir).ok();
}

/// Shutdown ordering: a request whose frame is only partially on the
/// wire when shutdown fires must still be drained and answered — the
/// server may only stop at a clean frame boundary, never mid-frame.
#[test]
fn shutdown_drains_a_request_caught_mid_frame() {
    use std::io::{Read, Write};

    use adsketch::serve::proto::{WIRE_MAGIC, WIRE_VERSION};

    let g = generators::gnp(20, 0.2, 11);
    let ads = AdsSet::build(&g, 2, 5);
    let frozen = ads.freeze();
    let guard = spawn_server(&ads, 1, 1, "drain");

    // Raw socket so we control exactly how many bytes are on the wire.
    let mut stream = std::net::TcpStream::connect(guard.addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(&WIRE_MAGIC).expect("magic");
    stream
        .write_all(&WIRE_VERSION.to_le_bytes())
        .expect("version");
    let mut reply = [0u8; 5];
    stream.read_exact(&mut reply).expect("handshake reply");
    assert_eq!(reply[0], 1, "handshake accepted");

    let body = Request::Harmonic {
        nodes: vec![0, 1, 2],
    }
    .encode();
    let len = (body.len() as u32).to_le_bytes();
    // Two bytes of the length prefix, then shutdown fires mid-frame.
    stream.write_all(&len[..2]).expect("half prefix");
    let handle = guard.handle.as_ref().expect("handle");
    std::thread::sleep(std::time::Duration::from_millis(60));
    handle.shutdown();
    std::thread::sleep(std::time::Duration::from_millis(150));
    // Finish the frame well after the stop flag was raised.
    stream.write_all(&len[2..]).expect("rest of prefix");
    stream.write_all(&body).expect("body");

    // The committed request still gets its full answer.
    let mut resp_len = [0u8; 4];
    stream.read_exact(&mut resp_len).expect("response arrives");
    let mut resp_body = vec![0u8; u32::from_le_bytes(resp_len) as usize];
    stream.read_exact(&mut resp_body).expect("response body");
    match Response::decode(&resp_body).expect("decodes") {
        Response::Floats(vals) => {
            assert_eq!(vals, QueryEngine::new(&frozen).harmonic_batch(&[0, 1, 2]));
        }
        other => panic!("expected Floats, got {other:?}"),
    }
    // ... and then the server closes cleanly at the frame boundary.
    let n = stream.read(&mut resp_len).expect("clean close");
    assert_eq!(n, 0, "server must close, not answer past shutdown");
}

/// A raw socket past the handshake, so a test controls every byte on
/// the wire.
fn raw_connect(addr: SocketAddr) -> std::net::TcpStream {
    use std::io::{Read, Write};

    use adsketch::serve::proto::{WIRE_MAGIC, WIRE_VERSION};

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(&WIRE_MAGIC).expect("magic");
    stream
        .write_all(&WIRE_VERSION.to_le_bytes())
        .expect("version");
    let mut reply = [0u8; 5];
    stream.read_exact(&mut reply).expect("handshake reply");
    assert_eq!(reply[0], 1, "handshake accepted");
    stream
}

/// One framed request body: the length prefix, then the body.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(body);
    frame
}

/// Reads one response frame off a raw socket.
fn read_response(stream: &mut std::net::TcpStream) -> Response {
    use std::io::Read;

    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("response length");
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).expect("response body");
    Response::decode(&body).expect("response decodes")
}

/// The server closed the connection: the next read sees end of stream.
fn assert_closed(stream: &mut std::net::TcpStream) {
    use std::io::Read;

    let mut byte = [0u8; 1];
    assert_eq!(stream.read(&mut byte).expect("clean close"), 0);
}

fn assert_malformed(resp: Response) {
    match resp {
        Response::Error { code, .. } => assert_eq!(code, adsketch::serve::proto::ERR_MALFORMED),
        other => panic!("expected an ERR_MALFORMED frame, got {other:?}"),
    }
}

/// The server's framing over a raw socket: what a length prefix, an
/// undecodable body, a bad handshake, a dripped request and two requests
/// in one write each get back.
#[test]
fn raw_socket_framing_is_answered_frame_by_frame() {
    use std::io::{Read, Write};

    use adsketch::serve::proto::{MAX_FRAME_LEN, WIRE_MAGIC, WIRE_VERSION};

    let g = generators::gnp(20, 0.2, 13);
    let ads = AdsSet::build(&g, 2, 7);
    let frozen = ads.freeze();
    let local = QueryEngine::new(&frozen);
    let guard = spawn_server(&ads, 1, 1, "framing");
    let harmonic = |nodes: &[NodeId]| {
        Request::Harmonic {
            nodes: nodes.to_vec(),
        }
        .encode()
    };
    let expect_floats = |resp: Response, nodes: &[NodeId]| match resp {
        Response::Floats(xs) => assert_eq!(xs, local.harmonic_batch(nodes)),
        other => panic!("expected Floats, got {other:?}"),
    };

    // An oversized length prefix: one ERR_MALFORMED frame, then the
    // server hangs up.
    let mut stream = raw_connect(guard.addr);
    stream
        .write_all(&(MAX_FRAME_LEN + 1).to_le_bytes())
        .expect("oversized prefix");
    assert_malformed(read_response(&mut stream));
    assert_closed(&mut stream);

    // An undecodable body: ERR_MALFORMED, and the connection still
    // answers the next request.
    let mut stream = raw_connect(guard.addr);
    stream
        .write_all(&framed(&[0x7f, 1, 2, 3]))
        .expect("garbage");
    assert_malformed(read_response(&mut stream));
    stream.write_all(&framed(&harmonic(&[0, 1]))).expect("next");
    expect_floats(read_response(&mut stream), &[0, 1]);
    // The server has one worker: hang up so it takes the next connection.
    drop(stream);

    // A bad magic or a bad version: the 5-byte reject (status 0 and the
    // server's version), then end of stream.
    for (magic, version) in [(*b"ADSKWIR0", WIRE_VERSION), (WIRE_MAGIC, WIRE_VERSION + 1)] {
        let mut stream = std::net::TcpStream::connect(guard.addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("read timeout");
        stream.write_all(&magic).expect("magic");
        stream.write_all(&version.to_le_bytes()).expect("version");
        let mut reply = [0u8; 5];
        stream.read_exact(&mut reply).expect("reject reply");
        assert_eq!(reply[0], 0, "handshake rejected");
        assert_eq!(reply[1..], WIRE_VERSION.to_le_bytes());
        assert_closed(&mut stream);
    }

    // A request written one byte at a time is answered.
    let mut stream = raw_connect(guard.addr);
    for byte in framed(&harmonic(&[2, 3, 4])) {
        stream.write_all(&[byte]).expect("one byte");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    expect_floats(read_response(&mut stream), &[2, 3, 4]);

    // Two requests in one write are answered in order.
    let mut both = framed(&harmonic(&[5]));
    both.extend(framed(&harmonic(&[6, 7])));
    stream.write_all(&both).expect("two frames");
    expect_floats(read_response(&mut stream), &[5]);
    expect_floats(read_response(&mut stream), &[6, 7]);
}

proptest! {
    /// Random tiny graph, random shard count: a served mixed batch is
    /// bitwise identical to the local engine.
    #[test]
    fn random_graphs_serve_bitwise_identically(
        n in 2usize..24,
        seed in 0u64..500,
        k in 1usize..5,
        shards in 1usize..5,
    ) {
        let g = generators::gnp_directed(n, 0.15, seed);
        let ads = AdsSet::build(&g, k, seed);
        let frozen = ads.freeze();
        let local = QueryEngine::new(&frozen);
        let guard = spawn_server(&ads, shards, 2, "prop");
        let mut client = Client::connect(guard.addr).expect("connect");
        let nodes: Vec<NodeId> = (0..n as NodeId).collect();
        prop_assert_eq!(
            client.harmonic(&nodes).expect("harmonic"),
            local.harmonic_batch(&nodes)
        );
        let queries: Vec<(NodeId, f64)> =
            nodes.iter().map(|&v| (v, (seed % 4) as f64)).collect();
        prop_assert_eq!(
            client.cardinality(&queries).expect("cardinality"),
            local.cardinality_batch(&queries)
        );
    }
}
