//! End-to-end tests for the serving daemon: a real wire round trip over
//! TCP loopback and Unix-domain sockets, checked bit-identical against
//! the in-process `RemStore` answers, plus hot-swap, multi-namespace,
//! unknown-namespace, and shutdown behaviour under both [`ExecPolicy`]
//! arms, and the reply order of a drain that mixes frame kinds.

use aerorem::core::rem::RemGrid;
use aerorem::core::snapshot::RemSnapshot;
use aerorem::propagation::ap::MacAddress;
use aerorem::serve::wire::ErrorCode;
use aerorem::serve::{
    Daemon, DaemonConfig, ExecPolicy, Listener, Query, RemStore, Response, StoreConfig, WireClient,
    ClientError,
};
use aerorem::spatial::{Aabb, Vec3};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// A deterministic multi-AP snapshot; `bias` shifts every sample so two
/// calls with different biases produce stores with different answers.
fn synthetic_snapshot(aps: u32, bias: f64) -> RemSnapshot {
    let grids = (0..aps)
        .map(|a| {
            let values = (0..256)
                .map(|i| -35.0 - ((i + 7 * a as usize) % 40) as f64 - bias)
                .collect();
            RemGrid::from_parts(
                MacAddress::from_index(a + 1),
                Aabb::paper_volume(),
                (8, 8, 4),
                values,
            )
            .expect("synthetic grid is well-formed")
        })
        .collect();
    RemSnapshot::new(grids).expect("synthetic snapshot is non-empty")
}

/// A mixed query batch that exercises all four query kinds inside the
/// paper volume.
fn mixed_queries() -> Vec<Query> {
    let vol = Aabb::paper_volume();
    let span = vol.max() - vol.min();
    let at = |fx: f64, fy: f64, fz: f64| {
        Vec3::new(
            vol.min().x + span.x * fx,
            vol.min().y + span.y * fy,
            vol.min().z + span.z * fz,
        )
    };
    vec![
        Query::Point {
            pos: at(0.25, 0.25, 0.5),
            ap: MacAddress::from_index(1),
        },
        Query::Point {
            pos: at(0.8, 0.1, 0.3),
            ap: MacAddress::from_index(2),
        },
        Query::BestAp {
            pos: at(0.5, 0.5, 0.5),
        },
        Query::BoxStats {
            region: Aabb::new(at(0.1, 0.1, 0.1), at(0.6, 0.7, 0.9)).expect("positive extent"),
            ap: MacAddress::from_index(1),
        },
        Query::Coverage {
            threshold_dbm: -60.0,
            ap: MacAddress::from_index(2),
        },
        // Out of volume: must round-trip as a miss, not an error.
        Query::Point {
            pos: Vec3::new(-1000.0, -1000.0, -1000.0),
            ap: MacAddress::from_index(1),
        },
    ]
}

/// Compares at the bit level: a response that crossed the wire must be
/// indistinguishable from the in-process one, including float payloads.
fn assert_bit_identical(wire: &[Response], local: &[Response]) {
    assert_eq!(wire.len(), local.len());
    for (i, (w, l)) in wire.iter().zip(local).enumerate() {
        let same = match (w, l) {
            (Response::Value(a), Response::Value(b)) => {
                a.map(f64::to_bits) == b.map(f64::to_bits)
            }
            (Response::Best(a), Response::Best(b)) => {
                a.map(|(m, x)| (m, x.to_bits())) == b.map(|(m, x)| (m, x.to_bits()))
            }
            (Response::Stats(a), Response::Stats(b)) => {
                a.min.to_bits() == b.min.to_bits()
                    && a.max.to_bits() == b.max.to_bits()
                    && a.sum.to_bits() == b.sum.to_bits()
                    && a.count == b.count
            }
            (
                Response::Covered { cells: ac, fraction: af },
                Response::Covered { cells: bc, fraction: bf },
            ) => ac == bc && af.to_bits() == bf.to_bits(),
            _ => false,
        };
        assert!(same, "response {i} differs across the wire: {w:?} vs {l:?}");
    }
}

/// A short Unix socket path, unique to each call: the tests in this file
/// run concurrently, and no two of their daemons may share a path (UDS
/// paths have a ~100 byte limit, so `TMPDIR`-based tempfile paths are
/// risky).
fn uds_path(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, AtomicOrdering::Relaxed);
    std::env::temp_dir().join(format!("aerorem-{}-{n}-{tag}.sock", std::process::id()))
}

/// Runs `body` on its own thread and fails if it has not finished within
/// `secs` seconds, so a daemon that never shuts down fails the test
/// instead of hanging the suite.
fn with_watchdog(secs: u64, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("test body finished"),
        // The body panicked: re-raise its panic.
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => panic!("test body still running after {secs} s"),
    }
}

/// Reads one reply frame from a raw stream, keeping any surplus bytes in
/// `buf` for the next call.
fn read_frame(stream: &mut impl std::io::Read, buf: &mut Vec<u8>) -> aerorem::serve::Frame {
    use aerorem::serve::Frame;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((frame, consumed)) = Frame::decode_stream(buf).expect("reply frames cleanly") {
            buf.drain(..consumed);
            return frame;
        }
        let n = stream.read(&mut chunk).expect("read reply");
        assert!(n > 0, "daemon hung up before replying");
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn start_daemon(policy: ExecPolicy, snapshot: &RemSnapshot) -> (Daemon, aerorem::serve::ServerHandle, String, std::path::PathBuf) {
    let config = DaemonConfig {
        policy,
        store: StoreConfig::default(),
    };
    let daemon = Daemon::new(config);
    daemon
        .load("default", &snapshot.to_bytes())
        .expect("synthetic snapshot loads");
    let tcp = Listener::bind_tcp("127.0.0.1:0").expect("bind tcp loopback");
    let tcp_addr = tcp
        .endpoint()
        .strip_prefix("tcp ")
        .expect("tcp endpoint")
        .to_string();
    let sock = uds_path(match policy {
        ExecPolicy::Serial => "serial",
        ExecPolicy::Parallel => "parallel",
    });
    let uds = Listener::bind_uds(&sock).expect("bind uds");
    let handle = daemon.start(vec![tcp, uds]);
    (daemon, handle, tcp_addr, sock)
}

#[test]
fn wire_answers_are_bit_identical_to_in_process_answers() {
    let snapshot = synthetic_snapshot(3, 0.0);
    let queries = mixed_queries();
    for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
        // The independent ground truth: a store built directly from the
        // same snapshot, answered in-process.
        let store = RemStore::build(&snapshot, StoreConfig::default()).expect("store builds");
        let local = store
            .submit_batch(&queries, policy)
            .expect("in-process batch answers");

        let (_daemon, handle, tcp_addr, sock) = start_daemon(policy, &snapshot);

        let mut tcp = WireClient::connect_tcp(&tcp_addr).expect("connect tcp");
        let (generation, over_tcp) = tcp.query(0, &queries).expect("tcp query answers");
        assert_eq!(generation, 1);
        assert_bit_identical(&over_tcp, &local);

        #[cfg(unix)]
        {
            let mut uds = WireClient::connect_uds(&sock).expect("connect uds");
            let (generation, over_uds) = uds.query(0, &queries).expect("uds query answers");
            assert_eq!(generation, 1);
            assert_bit_identical(&over_uds, &local);
        }

        tcp.shutdown().expect("daemon acknowledges shutdown");
        handle.join();
    }
}

#[test]
fn pipelined_frames_answer_in_order() {
    let snapshot = synthetic_snapshot(2, 0.0);
    let queries = mixed_queries();
    let (daemon, handle, tcp_addr, _sock) = start_daemon(ExecPolicy::Serial, &snapshot);
    let (_, local) = daemon.answer(0, &queries).expect("in-process answers");

    // Fire many request frames before reading any reply: the daemon
    // batches what it finds queued, but replies must come back one frame
    // per request, in send order, each bit-identical to the ground truth.
    let mut client = WireClient::connect_tcp(&tcp_addr).expect("connect tcp");
    let seqs: Vec<u64> = (0..16)
        .map(|_| client.send_query(0, &queries).expect("send"))
        .collect();
    for seq in seqs {
        let (generation, responses) = client.recv_response(seq).expect("pipelined reply");
        assert_eq!(generation, 1);
        assert_bit_identical(&responses, &local);
    }

    client.shutdown().expect("daemon acknowledges shutdown");
    handle.join();
}

#[test]
fn hot_swap_bumps_the_generation_and_changes_answers() {
    let before = synthetic_snapshot(2, 0.0);
    let after = synthetic_snapshot(2, 11.0);
    let queries = mixed_queries();
    let (_daemon, handle, tcp_addr, _sock) = start_daemon(ExecPolicy::Serial, &before);

    let mut client = WireClient::connect_tcp(&tcp_addr).expect("connect tcp");
    let (gen1, first) = client.query(0, &queries).expect("pre-swap query");
    assert_eq!(gen1, 1);

    // Hot-swap over the wire: same name, same namespace id, generation +1.
    let info = client
        .load("default", &after.to_bytes())
        .expect("hot-swap loads");
    assert_eq!(info.namespace, 0);
    assert_eq!(info.generation, 2);

    let (gen2, second) = client.query(0, &queries).expect("post-swap query");
    assert_eq!(gen2, 2);
    match (&first[0], &second[0]) {
        (Response::Value(Some(a)), Response::Value(Some(b))) => {
            assert!((a - b).abs() > 1.0, "swap must change served values")
        }
        other => panic!("point queries must hit: {other:?}"),
    }

    client.shutdown().expect("daemon acknowledges shutdown");
    handle.join();
}

#[test]
fn namespaces_are_independent_and_listable() {
    let a = synthetic_snapshot(1, 0.0);
    let b = synthetic_snapshot(3, 5.0);
    let (_daemon, handle, tcp_addr, _sock) = start_daemon(ExecPolicy::Serial, &a);

    let mut client = WireClient::connect_tcp(&tcp_addr).expect("connect tcp");
    let info_a = client.load("building-a", &a.to_bytes()).expect("load a");
    let info_b = client.load("building-b", &b.to_bytes()).expect("load b");
    assert_ne!(info_a.namespace, info_b.namespace);
    assert_eq!(info_a.aps, 1);
    assert_eq!(info_b.aps, 3);

    // The namespace id in the frame header routes to the right store:
    // building-b serves AP 3, building-a does not.
    let probe = vec![Query::Point {
        pos: Vec3::new(1.0, 1.0, 1.0),
        ap: MacAddress::from_index(3),
    }];
    let (_, in_b) = client.query(info_b.namespace, &probe).expect("query b");
    let (_, in_a) = client.query(info_a.namespace, &probe).expect("query a");
    assert!(matches!(in_b[0], Response::Value(Some(_))));
    assert!(matches!(in_a[0], Response::Value(None)));

    let listing = client.list().expect("listing answers");
    assert_eq!(listing.len(), 3); // "default" + the two buildings
    let names: Vec<&str> = listing.iter().map(|n| n.name.as_str()).collect();
    assert!(names.contains(&"building-a") && names.contains(&"building-b"));

    client.shutdown().expect("daemon acknowledges shutdown");
    handle.join();
}

#[test]
fn unknown_namespaces_and_bad_snapshots_fail_with_typed_server_errors() {
    let snapshot = synthetic_snapshot(1, 0.0);
    let (_daemon, handle, tcp_addr, _sock) = start_daemon(ExecPolicy::Serial, &snapshot);

    let mut client = WireClient::connect_tcp(&tcp_addr).expect("connect tcp");

    let err = client
        .query(42, &mixed_queries())
        .expect_err("unknown namespace must fail");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::UnknownNamespace),
        other => panic!("expected a server error, got {other}"),
    }

    // A corrupt snapshot image is rejected server-side; the connection
    // stays usable afterwards.
    let err = client
        .load("broken", b"not a snapshot")
        .expect_err("garbage snapshot must be rejected");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::SnapshotRejected),
        other => panic!("expected a server error, got {other}"),
    }
    let (generation, _) = client.query(0, &mixed_queries()).expect("still serving");
    assert_eq!(generation, 1);

    client.shutdown().expect("daemon acknowledges shutdown");
    handle.join();
}

#[cfg(unix)]
#[test]
fn a_second_bind_on_a_live_socket_fails_and_the_first_daemon_still_joins() {
    with_watchdog(30, || {
        let snapshot = synthetic_snapshot(2, 0.0);
        let queries = mixed_queries();
        let (daemon, handle, _tcp_addr, sock) = start_daemon(ExecPolicy::Serial, &snapshot);
        let second = Listener::bind_uds(&sock).err().map(|e| e.kind());
        assert_eq!(second, Some(std::io::ErrorKind::AddrInUse));

        // The socket still reaches the first daemon, which answers and
        // then shuts down through it.
        let (_, local) = daemon.answer(0, &queries).expect("in-process answers");
        let mut client = WireClient::connect_uds(&sock).expect("connect uds");
        let (_, over_uds) = client.query(0, &queries).expect("uds query answers");
        assert_bit_identical(&over_uds, &local);
        client.shutdown().expect("daemon acknowledges shutdown");
        handle.join();
        assert!(!sock.exists(), "the daemon removes its socket on exit");
    });
}

#[cfg(unix)]
#[test]
fn a_stale_socket_file_is_replaced() {
    with_watchdog(30, || {
        let sock = uds_path("stale");
        // A listener dropped without unlinking leaves a socket file that
        // refuses connections, as a crashed daemon does.
        drop(std::os::unix::net::UnixListener::bind(&sock).expect("bind raw uds"));
        assert!(sock.exists());
        let daemon = Daemon::new(DaemonConfig {
            policy: ExecPolicy::Serial,
            store: StoreConfig::default(),
        });
        daemon
            .load("default", &synthetic_snapshot(1, 0.0).to_bytes())
            .expect("synthetic snapshot loads");
        let handle = daemon.start(vec![
            Listener::bind_uds(&sock).expect("stale socket replaced")
        ]);
        let mut client = WireClient::connect_uds(&sock).expect("connect uds");
        client.shutdown().expect("daemon acknowledges shutdown");
        handle.join();
    });
}

#[test]
fn a_drain_mixing_frame_kinds_answers_in_send_order() {
    with_watchdog(30, || {
        use aerorem::serve::{Frame, Message};
        use std::io::Write;

        let snapshot = synthetic_snapshot(2, 0.0);
        let queries = mixed_queries();
        let (daemon, handle, tcp_addr, _sock) = start_daemon(ExecPolicy::Serial, &snapshot);
        let (_, local) = daemon.answer(0, &queries).expect("in-process answers");

        let request = |namespace: u32, seq: u64| {
            Message::Request {
                queries: queries.clone(),
            }
            .into_frame(namespace, seq)
        };
        // Valid CRCs around an unknown query tag: byte 4 of a request
        // payload is the first record's tag, after the u32 count.
        let mut bad_tag = request(0, 4);
        bad_tag.payload[4] = 0xEE;
        let sent = [
            request(0, 1),
            request(7, 2),
            Message::List.into_frame(0, 3),
            bad_tag,
            request(0, 5),
        ];
        let wire: Vec<u8> = sent.iter().flat_map(Frame::encode).collect();

        // One write, so the daemon finds the five frames queued together.
        let mut stream = std::net::TcpStream::connect(&tcp_addr).expect("connect tcp");
        stream.write_all(&wire).expect("send the frames");
        let mut buf = Vec::new();
        let replies: Vec<Frame> = sent
            .iter()
            .map(|_| read_frame(&mut stream, &mut buf))
            .collect();
        assert!(buf.is_empty(), "exactly five replies");

        let seqs: Vec<u64> = replies.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, [1, 2, 3, 4, 5]);
        let messages: Vec<Message> = replies
            .iter()
            .map(|f| Message::from_frame(f).expect("reply payload decodes"))
            .collect();
        let [first, unknown, listing, bad_reply, last] = messages.as_slice() else {
            panic!("expected five replies, got {messages:?}");
        };
        for reply in [first, last] {
            match reply {
                Message::Response {
                    generation,
                    responses,
                } => {
                    assert_eq!(*generation, 1);
                    assert_bit_identical(responses, &local);
                }
                other => panic!("expected a Response, got {other:?}"),
            }
        }
        assert!(
            matches!(
                unknown,
                Message::Error {
                    code: ErrorCode::UnknownNamespace,
                    ..
                }
            ),
            "{unknown:?}"
        );
        assert!(
            matches!(listing, Message::Listing { namespaces } if namespaces.len() == 1),
            "{listing:?}"
        );
        assert!(
            matches!(
                bad_reply,
                Message::Error {
                    code: ErrorCode::BadPayload,
                    ..
                }
            ),
            "{bad_reply:?}"
        );

        WireClient::connect_tcp(&tcp_addr)
            .expect("connect tcp")
            .shutdown()
            .expect("daemon acknowledges shutdown");
        handle.join();
    });
}

#[test]
fn a_drain_addressing_two_namespaces_answers_each_from_its_own_store() {
    with_watchdog(30, || {
        use aerorem::serve::{Frame, Message};
        use std::io::Write;

        let (daemon, handle, tcp_addr, _sock) =
            start_daemon(ExecPolicy::Serial, &synthetic_snapshot(2, 0.0));
        // A second namespace, and a hot-swap of the first, so the two
        // serve different stores at different generations.
        let mut client = WireClient::connect_tcp(&tcp_addr).expect("connect tcp");
        let b = client
            .load("building-b", &synthetic_snapshot(3, 5.0).to_bytes())
            .expect("load b");
        let a = client
            .load("default", &synthetic_snapshot(2, 11.0).to_bytes())
            .expect("hot-swap a");
        assert_eq!((a.namespace, a.generation), (0, 2));
        assert_eq!((b.namespace, b.generation), (1, 1));

        // Every frame asks its own queries, in its own number, so a reply
        // cut from the wrong slice of its namespace's answers cannot match.
        let request = |namespace: u32, seq: u64| {
            let mut queries = mixed_queries();
            let len = queries.len();
            queries.rotate_left(seq as usize % len);
            queries.truncate(len - seq as usize % 3);
            Message::Request { queries }.into_frame(namespace, seq)
        };
        let sent = [
            request(a.namespace, 1),
            request(b.namespace, 2),
            request(a.namespace, 3),
            request(b.namespace, 4),
            Message::List.into_frame(0, 5),
            request(a.namespace, 6),
        ];
        let wire: Vec<u8> = sent.iter().flat_map(Frame::encode).collect();

        // One write, so the daemon finds the six frames queued together.
        let mut stream = std::net::TcpStream::connect(&tcp_addr).expect("connect tcp");
        stream.write_all(&wire).expect("send the frames");
        let mut buf = Vec::new();
        for frame in &sent {
            let reply = read_frame(&mut stream, &mut buf);
            assert_eq!(reply.seq, frame.seq);
            match Message::from_frame(&reply).expect("reply payload decodes") {
                Message::Response {
                    generation,
                    responses,
                } => {
                    let queries = match Message::from_frame(frame) {
                        Ok(Message::Request { queries }) => queries,
                        other => panic!("seq {} was not a request: {other:?}", frame.seq),
                    };
                    let (want_generation, want) = daemon
                        .answer(frame.namespace, &queries)
                        .expect("in-process answers");
                    assert_eq!(generation, want_generation, "seq {}", frame.seq);
                    assert_bit_identical(&responses, &want);
                }
                Message::Listing { namespaces } => {
                    assert_eq!(frame.seq, 5);
                    assert_eq!(namespaces.len(), 2);
                }
                other => panic!("seq {}: unexpected reply {other:?}", frame.seq),
            }
        }
        assert!(buf.is_empty(), "exactly six replies");

        client.shutdown().expect("daemon acknowledges shutdown");
        handle.join();
    });
}

#[test]
fn shutdown_joins_while_a_client_is_mid_header() {
    with_watchdog(30, || {
        use aerorem::serve::wire::FRAME_HEADER_LEN;
        use aerorem::serve::Message;
        use std::io::{Read, Write};

        let snapshot = synthetic_snapshot(2, 0.0);
        let queries = mixed_queries();
        let (daemon, handle, tcp_addr, _sock) = start_daemon(ExecPolicy::Serial, &snapshot);
        let (_, local) = daemon.answer(0, &queries).expect("in-process answers");

        // One whole request followed by half of the next frame's header,
        // in one write: the reply shows the connection is being served,
        // and the half header leaves it waiting for the rest.
        let request = |seq| {
            Message::Request {
                queries: queries.clone(),
            }
            .into_frame(0, seq)
            .encode()
        };
        let mut wire = request(1);
        wire.extend_from_slice(&request(2)[..FRAME_HEADER_LEN / 2]);
        let mut stream = std::net::TcpStream::connect(&tcp_addr).expect("connect tcp");
        stream
            .write_all(&wire)
            .expect("send a frame and a half header");
        let reply = read_frame(&mut stream, &mut Vec::new());
        assert_eq!(reply.seq, 1);
        match Message::from_frame(&reply).expect("reply payload decodes") {
            Message::Response { responses, .. } => assert_bit_identical(&responses, &local),
            other => panic!("expected a Response, got {other:?}"),
        }

        // The client keeps its connection open and sends nothing more.
        handle.shutdown();
        handle.join();
        let hung_up = stream.read(&mut [0u8; 1]);
        assert!(
            matches!(hung_up, Ok(0) | Err(_)),
            "the daemon hangs up on shutdown: {hung_up:?}"
        );
    });
}

#[test]
fn a_client_that_closes_without_reading_its_replies_leaves_the_daemon_serving() {
    with_watchdog(60, || {
        use aerorem::serve::Message;
        use std::io::{ErrorKind, Write};

        let snapshot = synthetic_snapshot(2, 0.0);
        let (daemon, handle, tcp_addr, sock) = start_daemon(ExecPolicy::Serial, &snapshot);

        // Coverage replies (17 bytes a record) outweigh their queries (15),
        // so the replies to a pipelined stream of these frames fill the
        // socket buffers before the requests do.
        let coverage: Vec<Query> = (0..4096u32)
            .map(|i| Query::Coverage {
                threshold_dbm: -40.0 - f64::from(i % 40),
                ap: MacAddress::from_index(1 + i % 2),
            })
            .collect();
        let frame = Message::Request {
            queries: coverage.clone(),
        }
        .into_frame(0, 1)
        .encode();
        let (generation, answers) = daemon.answer(0, &coverage).expect("in-process answers");
        let reply_len = Message::Response {
            generation,
            responses: answers,
        }
        .into_frame(0, 1)
        .encode()
        .len();

        // Pipeline frames without reading a reply until the daemon stops
        // reading: its reply writes are then blocked on full buffers.
        let mut greedy = std::net::TcpStream::connect(&tcp_addr).expect("connect tcp");
        greedy
            .set_write_timeout(Some(Duration::from_millis(500)))
            .expect("set write timeout");
        let mut sent = 0usize;
        loop {
            match greedy.write_all(&frame) {
                Ok(()) => sent += 1,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(e) => panic!("send failed after {sent} frames: {e}"),
            }
            assert!(
                sent * reply_len < 256 << 20,
                "the daemon never stopped reading after {sent} frames"
            );
        }
        assert!(sent > 0, "the first frame did not go out");
        // Close with the replies unread.
        drop(greedy);

        // A second client is answered exactly, and shutdown still joins.
        let queries = mixed_queries();
        let (_, local) = daemon.answer(0, &queries).expect("in-process answers");
        let mut client = WireClient::connect_uds(&sock).expect("connect uds");
        let (_, over_uds) = client.query(0, &queries).expect("uds query answers");
        assert_bit_identical(&over_uds, &local);
        client.shutdown().expect("daemon acknowledges shutdown");
        handle.join();
    });
}

#[test]
fn a_load_racing_a_shutdown_ends_in_loaded_or_a_disconnect() {
    with_watchdog(60, || {
        use std::sync::{Arc, Barrier};

        // 47 × 40 × 26 cells for each of 4 APs: a 1.6 MB load that takes
        // the daemon milliseconds (optimized) to hundreds of them (debug)
        // to receive, decode and build, so a shutdown can land inside it.
        let grids = (0..4u32)
            .map(|a| {
                let values = (0..47 * 40 * 26)
                    .map(|i| -40.0 - f64::from((i + 13 * a) % 50))
                    .collect();
                RemGrid::from_parts(
                    MacAddress::from_index(a + 1),
                    Aabb::paper_volume(),
                    (47, 40, 26),
                    values,
                )
                .expect("grid is well-formed")
            })
            .collect();
        let bytes = Arc::new(
            RemSnapshot::new(grids)
                .expect("snapshot is non-empty")
                .to_bytes(),
        );
        let small = synthetic_snapshot(1, 0.0);
        for round in 0..24u32 {
            let (_daemon, handle, tcp_addr, sock) = start_daemon(ExecPolicy::Serial, &small);
            let mut loader = WireClient::connect_tcp(&tcp_addr).expect("connect tcp");
            let mut stopper = WireClient::connect_uds(&sock).expect("connect uds");
            // One barrier releases both clients; then one waits a gap that
            // grows quadratically to 30 ms (the loader in odd rounds, the
            // stopper in even ones), so the shutdown lands before the load
            // and at points inside it.
            let gap = Duration::from_micros(u64::from(round / 2).pow(2) * 250);
            let (load_gap, stop_gap) = if round % 2 == 1 {
                (gap, Duration::ZERO)
            } else {
                (Duration::ZERO, gap)
            };
            let barrier = Arc::new(Barrier::new(2));
            let load = {
                let (barrier, bytes) = (Arc::clone(&barrier), Arc::clone(&bytes));
                std::thread::spawn(move || {
                    barrier.wait();
                    std::thread::sleep(load_gap);
                    loader.load("default", &bytes)
                })
            };
            barrier.wait();
            std::thread::sleep(stop_gap);
            stopper.shutdown().expect("the shutdown gets Bye");
            match load.join().expect("the loader thread ends") {
                Ok(info) => assert_eq!(
                    (info.namespace, info.generation, info.aps, info.cells),
                    (0, 2, 4, 47 * 40 * 26),
                    "round {round}"
                ),
                // A clean disconnect: the daemon hung up before it replied.
                Err(ClientError::Disconnected | ClientError::Io(_)) => {}
                Err(other) => panic!("round {round}: the load got {other}"),
            }
            handle.join();
        }
    });
}
