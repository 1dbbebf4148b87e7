//! End-to-end coverage of the networked front-end: a real
//! [`qldpc_client::Connection`] talking to a [`NetFrontend`] over TCP
//! and UDS, pinned against the in-process service for bit-identity.
//!
//! Everything is hermetic — loopback TCP on an OS-assigned port, UDS
//! under the test temp dir, no external processes.

use qldpc_bp::{BpConfig, MinSumDecoder};
use qldpc_client::{ClientError, Connection};
use qldpc_decoder_api::DecoderFactory;
use qldpc_gf2::{BitVec, SparseBitMatrix};
use qldpc_server::{DecodeService, FrontendConfig, NetFrontend, ServiceConfig};
use qldpc_wire::{read_frame, write_frame, DecodeFailure, ErrorCode, Frame, PROTOCOL_VERSION};
use std::sync::Arc;
use std::time::Duration;

/// Deadlock guard: runs `f` on a helper thread, fails the test if it
/// neither finishes nor panics within `limit`.
fn with_timeout<F: FnOnce() + Send + 'static>(limit: Duration, f: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        tx.send(()).ok();
    });
    match rx.recv_timeout(limit) {
        Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            worker.join().expect("test thread panicked")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("test exceeded {limit:?} — the front-end stranded a client")
        }
    }
}

fn rep5() -> SparseBitMatrix {
    SparseBitMatrix::from_row_indices(4, 5, &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]])
}

fn minsum_factory() -> DecoderFactory {
    Box::new(|h, priors| Box::new(MinSumDecoder::new(h, priors, BpConfig::default())))
}

fn sequential_config() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        max_wait: Duration::from_micros(50),
        ..Default::default()
    }
}

/// The registration every front-end test runs against: `rep5` under
/// min-sum BP on one shard.
fn rep5_service() -> Arc<DecodeService> {
    let mut builder = DecodeService::builder();
    builder.register_code_with(
        "rep5",
        &rep5(),
        &[0.05; 5],
        minsum_factory(),
        sequential_config(),
    );
    Arc::new(builder.start())
}

fn frontend_config(node: &str) -> FrontendConfig {
    FrontendConfig {
        node: node.to_string(),
        ..Default::default()
    }
}

#[test]
fn tcp_round_trip_is_bit_identical_to_in_process() {
    with_timeout(Duration::from_secs(60), || {
        let service = rep5_service();
        let mut frontend = NetFrontend::serve_tcp(
            Arc::clone(&service),
            "127.0.0.1:0",
            frontend_config("alpha"),
        )
        .expect("bind tcp");
        let addr = frontend.local_addr().expect("tcp front-end has an addr");

        let mut conn = Connection::connect_tcp(addr, "net-test").expect("connect");
        assert_eq!(conn.node(), "alpha");
        conn.set_reply_timeout(Some(Duration::from_secs(30)))
            .unwrap();

        let code = conn.lookup_code("rep5").expect("lookup");
        assert_eq!(code.name, "rep5");
        assert_eq!(code.syndrome_bits, 4);

        let h = rep5();
        let in_process_code = service.lookup_code("rep5").unwrap();
        let mut local = service.client();
        for error_bits in [vec![2], vec![0, 4], vec![]] {
            let error = BitVec::from_indices(5, &error_bits);
            let syndrome = h.mul_vec(&error);
            let reply = conn.decode(code.id, &syndrome).expect("wire decode");
            let remote = reply.result.expect("remote decode succeeded");
            let local_outcome = local
                .submit(in_process_code, syndrome)
                .unwrap()
                .wait()
                .result
                .expect("local decode succeeded");
            // The wire adds serialization, not arithmetic: the outcome —
            // error estimate, convergence flags, iteration counts,
            // telemetry — is bit-identical to the in-process decode.
            assert_eq!(remote, local_outcome);
            assert_eq!(remote.error_hat, error);
        }

        frontend.shutdown();
    });
}

#[test]
fn uds_round_trip_serves_metrics_with_node_label() {
    with_timeout(Duration::from_secs(60), || {
        let service = rep5_service();
        let path = std::env::temp_dir().join(format!("qldpc-net-{}-uds.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut frontend =
            NetFrontend::serve_uds(Arc::clone(&service), &path, frontend_config("beta"))
                .expect("bind uds");

        let mut conn = Connection::connect_uds(&path, "net-test").expect("connect");
        assert_eq!(conn.node(), "beta");
        conn.set_reply_timeout(Some(Duration::from_secs(30)))
            .unwrap();

        let code = conn.lookup_code("rep5").expect("lookup");
        let h = rep5();
        let error = BitVec::from_indices(5, &[1]);
        let reply = conn.decode(code.id, &h.mul_vec(&error)).expect("decode");
        assert_eq!(reply.result.unwrap().error_hat, error);

        // The metrics endpoint serves the node-labeled exposition, and
        // the decode above is already in it (the handle resolved before
        // the reply frame was written).
        let text = conn.metrics().expect("metrics");
        assert!(
            text.contains("node=\"beta\""),
            "missing node label:\n{text}"
        );
        assert!(text.contains("qldpc_requests_submitted_total{code=\"rep5\",node=\"beta\"}"));

        // Shutdown removes the socket file — rebinding the same path
        // must work without manual cleanup.
        frontend.shutdown();
        assert!(!path.exists(), "UDS path survived shutdown");
    });
}

/// Every caller mistake the in-process API signals (or panics on) comes
/// back over the wire as a typed [`ClientError::Remote`] — and the
/// connection stays usable afterwards.
#[test]
fn caller_mistakes_become_typed_remote_errors() {
    with_timeout(Duration::from_secs(120), || {
        let service = rep5_service();
        let mut frontend = NetFrontend::serve_tcp(
            Arc::clone(&service),
            "127.0.0.1:0",
            frontend_config("delta"),
        )
        .expect("bind tcp");
        let addr = frontend.local_addr().unwrap();
        let mut conn = Connection::connect_tcp(addr, "net-test").expect("connect");
        conn.set_reply_timeout(Some(Duration::from_secs(60)))
            .unwrap();

        let expect_remote = |err: ClientError, want: ErrorCode| match err {
            ClientError::Remote { code, .. } => assert_eq!(code, want),
            other => panic!("expected Remote({want}), got {other}"),
        };

        // Unknown code name.
        expect_remote(
            conn.lookup_code("no-such-code").unwrap_err(),
            ErrorCode::UnknownCode,
        );
        // Unknown numeric code id.
        expect_remote(
            conn.decode(999, &BitVec::zeros(4)).unwrap_err(),
            ErrorCode::UnknownCode,
        );

        let single = conn.lookup_code("rep5").unwrap();

        // Wrong syndrome length.
        expect_remote(
            conn.decode(single.id, &BitVec::zeros(7)).unwrap_err(),
            ErrorCode::SyndromeLength,
        );
        // The connection is still healthy after every refusal above.
        let h = rep5();
        let error = BitVec::from_indices(5, &[3]);
        let reply = conn.decode(single.id, &h.mul_vec(&error)).expect("decode");
        assert_eq!(reply.result.unwrap().error_hat, error);

        frontend.shutdown();
    });
}

/// Version negotiation: a client speaking a different protocol version
/// — a newer one, or version 1, whose streaming frames this server no
/// longer knows — is refused with `UnsupportedVersion` before anything
/// else happens.
#[test]
fn handshake_rejects_version_mismatch() {
    with_timeout(Duration::from_secs(60), || {
        let service = rep5_service();
        let mut frontend =
            NetFrontend::serve_tcp(Arc::clone(&service), "127.0.0.1:0", frontend_config("zeta"))
                .expect("bind tcp");
        let addr = frontend.local_addr().unwrap();

        for version in [PROTOCOL_VERSION + 1, 1] {
            let mut sock = std::net::TcpStream::connect(addr).expect("connect");
            sock.set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            write_frame(
                &mut sock,
                &Frame::Hello {
                    version,
                    client: "time-traveler".to_string(),
                },
            )
            .expect("send hello");
            use std::io::Write as _;
            sock.flush().unwrap();
            match read_frame(&mut sock, qldpc_wire::DEFAULT_MAX_PAYLOAD).expect("read refusal") {
                Some(Frame::Error { code, detail, .. }) => {
                    assert_eq!(code, ErrorCode::UnsupportedVersion, "version {version}");
                    assert!(detail.contains(&PROTOCOL_VERSION.to_string()));
                }
                other => panic!("expected UnsupportedVersion error, got {other:?}"),
            }
            // The server hangs up after the refusal.
            assert!(matches!(
                read_frame(&mut sock, qldpc_wire::DEFAULT_MAX_PAYLOAD),
                Ok(None)
            ));
        }

        frontend.shutdown();
    });
}

/// Dispatch deadlines cross the wire: a request that cannot be
/// dispatched in time resolves as a typed `DeadlineExceeded` failure,
/// not a transport error.
#[test]
fn wire_deadline_surfaces_as_typed_failure() {
    with_timeout(Duration::from_secs(60), || {
        struct SleepyDecoder;
        impl qldpc_decoder_api::SyndromeDecoder for SleepyDecoder {
            fn decode_syndrome(&mut self, _syndrome: &BitVec) -> qldpc_decoder_api::DecodeOutcome {
                std::thread::sleep(Duration::from_millis(400));
                qldpc_decoder_api::DecodeOutcome {
                    error_hat: BitVec::zeros(5),
                    solved: true,
                    serial_iterations: 1,
                    critical_iterations: 1,
                    postprocessed: false,
                    telemetry: qldpc_decoder_api::DecodeTelemetry::bp(1, true),
                }
            }
            fn label(&self) -> String {
                "SleepyDecoder".into()
            }
        }
        let mut builder = DecodeService::builder();
        builder.register_code_with(
            "slow",
            &rep5(),
            &[0.05; 5],
            Box::new(|_h, _priors| Box::new(SleepyDecoder)),
            sequential_config(),
        );
        let service = Arc::new(builder.start());
        let mut frontend =
            NetFrontend::serve_tcp(Arc::clone(&service), "127.0.0.1:0", frontend_config("eta"))
                .expect("bind tcp");
        let addr = frontend.local_addr().unwrap();

        // Connection A occupies the single worker for ~400 ms.
        let blocker = std::thread::spawn(move || {
            let mut conn = Connection::connect_tcp(addr, "blocker").expect("connect");
            conn.set_reply_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let code = conn.lookup_code("slow").unwrap();
            conn.decode(code.id, &BitVec::zeros(4))
                .expect("blocking decode")
        });
        std::thread::sleep(Duration::from_millis(100));

        // Connection B's request must wait behind it — far past its
        // 1 ms dispatch deadline.
        let mut conn = Connection::connect_tcp(addr, "deadline").expect("connect");
        conn.set_reply_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let code = conn.lookup_code("slow").unwrap();
        let reply = conn
            .decode_with_deadline(code.id, &BitVec::zeros(4), Some(Duration::from_millis(1)))
            .expect("transport round-trip succeeds");
        assert_eq!(reply.result, Err(DecodeFailure::DeadlineExceeded));

        let blocked = blocker.join().expect("blocker thread");
        assert!(blocked.result.expect("blocker decode").solved);
        frontend.shutdown();
    });
}

/// The accept loop blocks in `accept`; shutdown must wake it even when
/// no client ever connected. Bound to the wildcard address, so the
/// wake-up goes through loopback.
#[test]
fn tcp_shutdown_without_a_connection_returns() {
    with_timeout(Duration::from_secs(30), || {
        let service = rep5_service();
        let mut frontend =
            NetFrontend::serve_tcp(Arc::clone(&service), "0.0.0.0:0", frontend_config("idle"))
                .expect("bind tcp");
        frontend.shutdown();
    });
}

/// The UDS twin of the test above: shutdown wakes an accept that never
/// saw a client and still removes the socket file.
#[test]
fn uds_shutdown_without_a_connection_returns() {
    with_timeout(Duration::from_secs(30), || {
        let service = rep5_service();
        let path = std::env::temp_dir().join(format!("qldpc-net-{}-idle.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut frontend =
            NetFrontend::serve_uds(Arc::clone(&service), &path, frontend_config("idle"))
                .expect("bind uds");
        frontend.shutdown();
        assert!(!path.exists(), "UDS path survived shutdown");
    });
}
