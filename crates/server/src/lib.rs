//! Real-time decoding service runtime with dynamic micro-batching.
//!
//! The paper's throughput argument is a *service* argument: real
//! hardware emits one syndrome per code per round, from many logical
//! qubits at once, and the decoder must keep up with that aggregate
//! cadence. BP's shot-interleaved tiles
//! ([`qldpc_bp::MinSumDecoder::decode_batch_results`]) only pay off when
//! they are handed `B ≫ 1` syndromes per call — this crate is the piece
//! that *produces* those batches from independent request streams.
//!
//! Everything is in-process and hermetic: no async runtime and no
//! dependency outside the workspace, just `std::thread` workers, one
//! `Mutex` + `Condvar` queue per code, and `std::sync::mpsc` channels.
//!
//! # Architecture
//!
//! * **Clients** ([`Client`]) submit syndromes for a registered code and
//!   get a [`ResponseHandle`] back — blocking `wait`, bounded
//!   `wait_timeout`, and non-blocking `try_take`, plus per-request
//!   dispatch deadlines.
//! * **One queue per code** — each code has one bounded FIFO queue
//!   (full ⇒ [`SubmitError::Overloaded`] backpressure) and `shards`
//!   workers, each owning a decoder instance, that all pop its head. A
//!   client's requests therefore leave the queue in submission order,
//!   and no worker idles while work waits (completion order is
//!   additionally FIFO when the code runs a single worker; concurrent
//!   workers may finish their batches out of order).
//! * **Micro-batching scheduler** — a worker coalesces requests until
//!   `max_batch` (default: the kernel lane width,
//!   [`qldpc_bp::DEFAULT_MAX_LANES`]) or until the `max_wait` window
//!   closes, then decodes them in one
//!   [`decode_batch`](qldpc_decoder_api::SyndromeDecoder::decode_batch)
//!   call. Batched and per-shot decoding are bit-identical (pinned by
//!   `qldpc-bp`'s `batch_equivalence` suite), so batching is invisible
//!   to clients except in latency.
//! * **Telemetry** ([`MetricsSnapshot`]) — throughput counters, a
//!   dispatched batch-size histogram, the end-to-end latency and one
//!   duration histogram per [`Stage`] (the five stages queue-wait,
//!   coalesce-wait, kernel, post-process, fulfill), all lock-light
//!   [`StreamingHistogram`]s of constant memory; and decoder convergence
//!   counters ([`ConvergenceSnapshot`]). Recording is a few relaxed
//!   atomics per sample, so it stays on.
//!   [`DecodeService::render_exposition`] renders it all as a
//!   deterministic Prometheus-style text page: lines sorted, equal
//!   values formatted to equal bytes.
//! * **Shutdown drains** — shutting the service down closes every
//!   code's queue: it refuses new submissions, and the workers drain
//!   what it holds, so each accepted request still gets exactly one
//!   response.
//! * **Worker-death liveness** — a panicking decoder cannot strand its
//!   waiters: drop guards answer the in-flight batch, and the last
//!   panicking worker of a code closes that code's queue and answers
//!   what it held, with [`DecodeError::WorkerLost`]; later submissions
//!   are refused with [`SubmitError::Shutdown`].
//! * **Networked front-end** ([`NetFrontend`]) — an optional std-only
//!   TCP/UDS listener speaking the `qldpc-wire` binary protocol: one
//!   reader + one writer thread per connection, a per-connection
//!   in-flight cap ([`FrontendConfig::max_inflight`], answered with a
//!   typed `RateLimited` distinct from service-wide `Overloaded`),
//!   wire-carried deadlines, and the node-labeled text exposition
//!   served over the same socket.
//!   Requests accepted before a disconnect always drain — a vanished
//!   client cannot leak an in-flight slot.
//! * **Precision** — [`ServiceConfig::precision`] *declares* the
//!   message arithmetic of the decoders a code's factory builds (the
//!   service cannot look inside a factory) and surfaces it in
//!   [`MetricsSnapshot::precision`], so dashboards can attribute
//!   latency numbers to the arithmetic that produced them. Register
//!   `f32` factories under `f32` configs.
//!
//! # Examples
//!
//! ```
//! use qldpc_gf2::BitVec;
//! use qldpc_server::{DecodeService, ServiceConfig};
//! use std::time::Duration;
//!
//! // A 5-bit repetition code served by plain min-sum BP.
//! let h = qldpc_gf2::SparseBitMatrix::from_row_indices(
//!     4,
//!     5,
//!     &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]],
//! );
//! let factory: qldpc_decoder_api::DecoderFactory = Box::new(|h, priors| {
//!     Box::new(qldpc_bp::MinSumDecoder::new(h, priors, qldpc_bp::BpConfig::default()))
//! });
//! let mut builder = DecodeService::builder();
//! let code = builder.register_code_with(
//!     "rep5",
//!     &h,
//!     &[0.05; 5],
//!     factory,
//!     ServiceConfig { shards: 1, max_wait: Duration::from_micros(50), ..Default::default() },
//! );
//! let service = builder.start();
//!
//! let mut client = service.client();
//! let error = BitVec::from_indices(5, &[2]);
//! let handle = client.submit(code, h.mul_vec(&error)).unwrap();
//! let response = handle.wait();
//! let outcome = response.result.unwrap();
//! assert!(outcome.solved);
//! assert_eq!(outcome.error_hat, error);
//!
//! let metrics = service.shutdown().remove(0);
//! assert_eq!(metrics.completed, 1);
//! assert!(metrics.is_drained());
//! ```

#![forbid(unsafe_code)]

mod exposition;
mod histogram;
mod metrics;
mod net;
mod queue;
mod request;
mod service;
mod shard;
mod stage;

pub use histogram::{HistogramSnapshot, StreamingHistogram};
pub use metrics::{ConvergenceSnapshot, MetricsSnapshot, BATCH_HISTOGRAM_BUCKETS};
pub use net::{FrontendConfig, NetFrontend};
pub use request::{DecodeError, DecodeResponse, ResponseHandle, SubmitError};
pub use service::{Client, CodeId, DecodeService, ServiceBuilder, ServiceConfig};
pub use stage::{Stage, StageSet, StageSnapshot};
