//! Fault injection against the networked front-end: dead clients,
//! clients that never read, dead workers, rate limiting, and garbage on
//! the wire.
//! Every fault must surface as a *typed* outcome — never a hang, never
//! a leaked in-flight slot.

use qldpc_bp::{BpConfig, MinSumDecoder};
use qldpc_client::{ClientError, Connection};
use qldpc_decoder_api::{DecodeOutcome, DecodeTelemetry, DecoderFactory, SyndromeDecoder};
use qldpc_gf2::{BitVec, SparseBitMatrix};
use qldpc_server::{DecodeService, FrontendConfig, NetFrontend, ServiceConfig};
use qldpc_wire::{
    read_frame, write_frame, DecodeFailure, ErrorCode, Frame, DEFAULT_MAX_PAYLOAD, PROTOCOL_VERSION,
};
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
            panic!("test exceeded {limit:?} — a fault hung the front-end")
        }
    }
}

fn rep5() -> SparseBitMatrix {
    SparseBitMatrix::from_row_indices(4, 5, &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]])
}

fn sequential_config() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        max_wait: Duration::from_micros(50),
        ..Default::default()
    }
}

/// A decoder that sleeps `delay` per decode — the load generator for
/// rate-limit and disconnect races.
struct SleepyDecoder {
    delay: Duration,
}

impl SyndromeDecoder for SleepyDecoder {
    fn decode_syndrome(&mut self, _syndrome: &BitVec) -> DecodeOutcome {
        std::thread::sleep(self.delay);
        DecodeOutcome {
            error_hat: BitVec::zeros(5),
            solved: true,
            serial_iterations: 1,
            critical_iterations: 1,
            postprocessed: false,
            telemetry: DecodeTelemetry::bp(1, true),
        }
    }

    fn label(&self) -> String {
        "SleepyDecoder".into()
    }
}

fn sleepy_factory(delay: Duration) -> DecoderFactory {
    Box::new(move |_h, _priors| Box::new(SleepyDecoder { delay }))
}

/// A decoder whose every decode panics — the injected worker fault.
struct PanickingDecoder;

impl SyndromeDecoder for PanickingDecoder {
    fn decode_syndrome(&mut self, _syndrome: &BitVec) -> DecodeOutcome {
        panic!("injected decoder fault");
    }

    fn label(&self) -> String {
        "PanickingDecoder".into()
    }
}

/// Raw-socket handshake, for tests that need to speak frames the
/// blocking client refuses to send.
fn raw_handshake(addr: std::net::SocketAddr) -> std::net::TcpStream {
    let mut sock = std::net::TcpStream::connect(addr).expect("connect");
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write_frame(
        &mut sock,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            client: "raw".to_string(),
        },
    )
    .expect("send hello");
    sock.flush().unwrap();
    match read_frame(&mut sock, DEFAULT_MAX_PAYLOAD).expect("handshake reply") {
        Some(Frame::HelloAck { .. }) => sock,
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// A client that vanishes mid-request leaks nothing: its in-flight slot
/// resolves, the service accounting drains, and other clients are
/// unaffected.
#[test]
fn disconnected_client_leaks_no_inflight_slot() {
    with_timeout(Duration::from_secs(60), || {
        let mut builder = DecodeService::builder();
        builder.register_code_with(
            "slow",
            &rep5(),
            &[0.05; 5],
            sleepy_factory(Duration::from_millis(150)),
            sequential_config(),
        );
        let service = Arc::new(builder.start());
        let mut frontend = NetFrontend::serve_tcp(
            Arc::clone(&service),
            "127.0.0.1:0",
            FrontendConfig::default(),
        )
        .expect("bind tcp");
        let addr = frontend.local_addr().unwrap();

        // The doomed client: submit, then vanish without reading the
        // reply.
        {
            let mut sock = raw_handshake(addr);
            write_frame(
                &mut sock,
                &Frame::Submit {
                    tag: 7,
                    code: 0,
                    deadline_micros: 0,
                    syndrome: BitVec::zeros(4),
                },
            )
            .expect("send submit");
            sock.flush().unwrap();
            // `sock` drops here — the socket closes while the decode is
            // still running.
        }

        // A healthy client still gets served (queued behind the
        // abandoned decode).
        let mut conn = Connection::connect_tcp(addr, "survivor").expect("connect");
        conn.set_reply_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let code = conn.lookup_code("slow").unwrap();
        let reply = conn.decode(code.id, &BitVec::zeros(4)).expect("decode");
        assert!(reply.result.expect("decode outcome").solved);
        drop(conn);

        // Tearing down the front-end joins the abandoned connection's
        // writer, which must have waited out the orphaned handle — so
        // the service drains: every accepted request completed.
        frontend.shutdown();
        let service = Arc::into_inner(service).expect("front-end released the service");
        let metrics = service.shutdown();
        let (submitted, completed): (u64, u64) = metrics
            .iter()
            .fold((0, 0), |(s, c), m| (s + m.submitted, c + m.completed));
        assert_eq!(submitted, 2, "both submissions were accepted");
        assert_eq!(completed, 2, "the orphaned slot resolved");
        assert!(metrics.iter().all(|m| m.is_drained()));
    });
}

/// The per-connection in-flight cap refuses with `RateLimited` — a
/// distinct wire error from the service-wide `Overloaded` — and the
/// already-accepted request still completes.
#[test]
fn rate_limit_refusal_is_distinct_and_typed() {
    with_timeout(Duration::from_secs(60), || {
        let mut builder = DecodeService::builder();
        builder.register_code_with(
            "slow",
            &rep5(),
            &[0.05; 5],
            sleepy_factory(Duration::from_millis(300)),
            sequential_config(),
        );
        let service = Arc::new(builder.start());
        let config = FrontendConfig {
            max_inflight: 1,
            ..Default::default()
        };
        let mut frontend =
            NetFrontend::serve_tcp(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
        let addr = frontend.local_addr().unwrap();

        // Pipeline two submissions on the raw socket: the first is
        // accepted and occupies the connection's single in-flight slot
        // for ~300 ms; the second arrives while it is pending.
        let mut sock = raw_handshake(addr);
        for tag in [1u64, 2] {
            write_frame(
                &mut sock,
                &Frame::Submit {
                    tag,
                    code: 0,
                    deadline_micros: 0,
                    syndrome: BitVec::zeros(4),
                },
            )
            .expect("send submit");
        }
        sock.flush().unwrap();

        // Replies arrive in request order: the accepted decode first,
        // then the typed refusal of the second.
        match read_frame(&mut sock, DEFAULT_MAX_PAYLOAD).expect("first reply") {
            Some(Frame::DecodeReply { tag, result, .. }) => {
                assert_eq!(tag, 1);
                assert!(result.expect("first decode").solved);
            }
            other => panic!("expected DecodeReply, got {other:?}"),
        }
        match read_frame(&mut sock, DEFAULT_MAX_PAYLOAD).expect("second reply") {
            Some(Frame::Error { tag, code, .. }) => {
                assert_eq!(tag, 2);
                assert_eq!(code, ErrorCode::RateLimited);
            }
            other => panic!("expected RateLimited error, got {other:?}"),
        }

        // The slot freed once the first reply went out: a third
        // submission on the same connection is accepted again.
        write_frame(
            &mut sock,
            &Frame::Submit {
                tag: 3,
                code: 0,
                deadline_micros: 0,
                syndrome: BitVec::zeros(4),
            },
        )
        .expect("send third");
        sock.flush().unwrap();
        match read_frame(&mut sock, DEFAULT_MAX_PAYLOAD).expect("third reply") {
            Some(Frame::DecodeReply { tag, result, .. }) => {
                assert_eq!(tag, 3);
                assert!(result.expect("third decode").solved);
            }
            other => panic!("expected DecodeReply, got {other:?}"),
        }

        frontend.shutdown();
    });
}

/// A client that writes and never reads cannot make the server buffer
/// answers without limit: once `max_inflight` of them wait on the
/// connection's writer, the reader stops reading and the socket pushes
/// back. Every submission is still answered once the client reads.
#[test]
fn client_that_never_reads_is_pushed_back() {
    with_timeout(Duration::from_secs(120), || {
        let mut builder = DecodeService::builder();
        let factory: DecoderFactory =
            Box::new(|h, priors| Box::new(MinSumDecoder::new(h, priors, BpConfig::default())));
        builder.register_code_with("rep5", &rep5(), &[0.05; 5], factory, sequential_config());
        let service = Arc::new(builder.start());
        let path =
            std::env::temp_dir().join(format!("qldpc-faults-{}-mute.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = FrontendConfig {
            max_inflight: 2,
            ..Default::default()
        };
        let mut frontend =
            NetFrontend::serve_uds(Arc::clone(&service), &path, config).expect("bind uds");

        let mut sock = UnixStream::connect(&path).expect("connect");
        write_frame(
            &mut sock,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                client: "mute".to_string(),
            },
        )
        .expect("send hello");
        match read_frame(&mut sock, DEFAULT_MAX_PAYLOAD).expect("handshake reply") {
            Some(Frame::HelloAck { .. }) => {}
            other => panic!("expected HelloAck, got {other:?}"),
        }

        // Write submissions and read nothing until every write has been
        // refused for 500 ms.
        const LIMIT: usize = 16 << 20;
        let submit = |tag| {
            Frame::Submit {
                tag,
                code: 0,
                deadline_micros: 0,
                syndrome: BitVec::zeros(4),
            }
            .encode()
        };
        sock.set_nonblocking(true).unwrap();
        let (mut frame, mut offset, mut submissions) = (submit(0), 0, 1u64);
        let mut written = 0usize;
        let mut blocked_since = None;
        loop {
            if offset == frame.len() {
                (frame, offset) = (submit(submissions), 0);
                submissions += 1;
            }
            match sock.write(&frame[offset..]) {
                Ok(n) => {
                    offset += n;
                    written += n;
                    blocked_since = None;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let since = *blocked_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= Duration::from_millis(500) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("write failed: {e}"),
            }
            assert!(
                written < LIMIT,
                "{written} bytes ({submissions} submissions) went in with no reply read"
            );
        }

        // Read on a second handle, finish the partial frame and hang up
        // the write half: one answer per submission, in order.
        sock.set_nonblocking(false).unwrap();
        let mut reader = sock.try_clone().expect("clone socket");
        let answers = std::thread::spawn(move || {
            let mut tags = Vec::new();
            while let Some(frame) = read_frame(&mut reader, DEFAULT_MAX_PAYLOAD).expect("answer") {
                match frame {
                    Frame::DecodeReply { tag, result, .. } => {
                        assert!(result.expect("decode outcome").solved);
                        tags.push(tag);
                    }
                    Frame::Error {
                        tag,
                        code: ErrorCode::RateLimited,
                        ..
                    } => tags.push(tag),
                    other => panic!("expected DecodeReply or RateLimited, got {other:?}"),
                }
            }
            tags
        });
        sock.write_all(&frame[offset..]).expect("finish frame");
        sock.shutdown(std::net::Shutdown::Write).unwrap();
        let tags = answers.join().expect("answer reader panicked");
        assert_eq!(tags, (0..submissions).collect::<Vec<_>>());

        frontend.shutdown();
    });
}

/// A worker that dies mid-request answers with a typed `WorkerLost`
/// failure over the wire, and later submissions are refused with a
/// typed `Shutdown` — the client never hangs on a dead code.
#[test]
fn dead_worker_surfaces_as_typed_failure_then_shutdown() {
    with_timeout(Duration::from_secs(60), || {
        let mut builder = DecodeService::builder();
        builder.register_code_with(
            "doomed",
            &rep5(),
            &[0.05; 5],
            Box::new(|_h, _priors| Box::new(PanickingDecoder)),
            sequential_config(),
        );
        let service = Arc::new(builder.start());
        let mut frontend = NetFrontend::serve_tcp(
            Arc::clone(&service),
            "127.0.0.1:0",
            FrontendConfig::default(),
        )
        .expect("bind");
        let addr = frontend.local_addr().unwrap();

        let mut conn = Connection::connect_tcp(addr, "fault-test").expect("connect");
        conn.set_reply_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let code = conn.lookup_code("doomed").unwrap();

        let reply = conn
            .decode(code.id, &BitVec::zeros(4))
            .expect("transport survives the worker fault");
        assert_eq!(reply.result, Err(DecodeFailure::WorkerLost));

        // All workers of the code are dead: the next submission is
        // refused outright.
        let refused = loop {
            match conn.decode(code.id, &BitVec::zeros(4)) {
                Err(ClientError::Remote { code, .. }) => break code,
                // A brief window exists where a queue still accepts
                // before the drain marks the code dead; such a request
                // resolves as WorkerLost. Retry until the queue closes.
                Ok(reply) => assert_eq!(reply.result, Err(DecodeFailure::WorkerLost)),
                Err(other) => panic!("expected typed refusal, got {other}"),
            }
        };
        assert_eq!(refused, ErrorCode::Shutdown);

        frontend.shutdown();
    });
}

/// Garbage after a clean handshake: typed `BadFrame`, then hang-up. A
/// second Hello mid-session is refused but keeps the connection.
#[test]
fn garbage_frames_get_bad_frame_then_hangup() {
    with_timeout(Duration::from_secs(60), || {
        let mut builder = DecodeService::builder();
        let factory: DecoderFactory =
            Box::new(|h, priors| Box::new(MinSumDecoder::new(h, priors, BpConfig::default())));
        builder.register_code_with("rep5", &rep5(), &[0.05; 5], factory, sequential_config());
        let service = Arc::new(builder.start());
        let mut frontend = NetFrontend::serve_tcp(
            Arc::clone(&service),
            "127.0.0.1:0",
            FrontendConfig::default(),
        )
        .expect("bind");
        let addr = frontend.local_addr().unwrap();

        // A second Hello is a protocol violation but not a framing
        // desync: typed refusal, connection survives.
        let mut sock = raw_handshake(addr);
        write_frame(
            &mut sock,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                client: "again".to_string(),
            },
        )
        .expect("send second hello");
        sock.flush().unwrap();
        match read_frame(&mut sock, DEFAULT_MAX_PAYLOAD).expect("reply") {
            Some(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
            other => panic!("expected BadFrame, got {other:?}"),
        }
        write_frame(
            &mut sock,
            &Frame::CodeLookup {
                name: "rep5".to_string(),
            },
        )
        .expect("send lookup");
        sock.flush().unwrap();
        match read_frame(&mut sock, DEFAULT_MAX_PAYLOAD).expect("reply") {
            Some(Frame::CodeInfo { name, .. }) => assert_eq!(name, "rep5"),
            other => panic!("expected CodeInfo, got {other:?}"),
        }

        // Byte soup desynchronizes the framing: typed BadFrame, then
        // the server hangs up.
        sock.write_all(b"\xde\xad\xbe\xef not a frame")
            .expect("send garbage");
        sock.flush().unwrap();
        match read_frame(&mut sock, DEFAULT_MAX_PAYLOAD).expect("reply") {
            Some(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
            other => panic!("expected BadFrame, got {other:?}"),
        }
        assert!(matches!(
            read_frame(&mut sock, DEFAULT_MAX_PAYLOAD),
            Ok(None)
        ));

        frontend.shutdown();
    });
}
