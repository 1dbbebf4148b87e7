//! Service assembly: code registration, client handles, and
//! drain-on-shutdown.

use crate::exposition::Exposition;
use crate::metrics::{CodeMetrics, MetricsSnapshot};
use crate::queue::CodeQueue;
use crate::request::{Request, ResponseHandle, ResponseSlot, SubmitError};
use crate::shard::ShardContext;
use qldpc_decoder_api::{share_factory, DecoderFactory, Precision, SharedDecoderFactory};
use qldpc_gf2::{BitVec, SparseBitMatrix};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-code tuning of the scheduler and its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Workers on the code's queue (threads, each owning a decoder
    /// instance).
    pub shards: usize,
    /// Dispatch a batch as soon as this many requests are in hand. The
    /// default is the batch kernel's lane width,
    /// [`qldpc_bp::DEFAULT_MAX_LANES`] — one full tile per dispatch.
    pub max_batch: usize,
    /// How long a worker holds the batch window open waiting for more
    /// requests after the first one arrives.
    pub max_wait: Duration,
    /// Capacity of the code's one queue, shared by all its workers;
    /// submissions beyond it are rejected with
    /// [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Message precision of the decoders this code's factory builds.
    ///
    /// The service cannot see inside the factory closure, so this field
    /// is the *declared* precision: set it to match the factory (e.g.
    /// `Precision::F32` with an `MinSumDecoderF32` factory) and the
    /// service surfaces it in [`MetricsSnapshot::precision`] so
    /// dashboards can attribute throughput/latency to the arithmetic
    /// that produced it. Defaults to [`Precision::F64`], matching every
    /// factory that predates the precision parameter.
    pub precision: Precision,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            max_batch: qldpc_bp::DEFAULT_MAX_LANES,
            max_wait: Duration::from_micros(200),
            queue_capacity: 1024,
            precision: Precision::F64,
        }
    }
}

/// Opaque handle naming a registered code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodeId(pub(crate) usize);

struct CodeSpec {
    name: String,
    h: Arc<SparseBitMatrix>,
    priors: Arc<Vec<f64>>,
    factory: SharedDecoderFactory,
    config: ServiceConfig,
}

/// Staged registration; [`ServiceBuilder::start`] spawns every code's
/// workers and returns the running service.
#[derive(Default)]
pub struct ServiceBuilder {
    codes: Vec<CodeSpec>,
}

impl ServiceBuilder {
    /// Registers a code under the default [`ServiceConfig`].
    ///
    /// # Panics
    ///
    /// Panics on mismatched `priors` length or a degenerate config (see
    /// [`ServiceBuilder::register_code_with`]).
    pub fn register_code(
        &mut self,
        name: impl Into<String>,
        h: &SparseBitMatrix,
        priors: &[f64],
        factory: DecoderFactory,
    ) -> CodeId {
        self.register_code_with(name, h, priors, factory, ServiceConfig::default())
    }

    /// Registers a code with explicit scheduler tuning. Each of the
    /// `config.shards` workers builds its own decoder instance from
    /// `factory` on its own thread.
    ///
    /// # Panics
    ///
    /// Panics if `priors.len() != h.cols()` or any of `shards`,
    /// `max_batch`, `queue_capacity` is zero.
    pub fn register_code_with(
        &mut self,
        name: impl Into<String>,
        h: &SparseBitMatrix,
        priors: &[f64],
        factory: DecoderFactory,
        config: ServiceConfig,
    ) -> CodeId {
        assert_eq!(priors.len(), h.cols(), "one prior per variable required");
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.max_batch > 0, "max_batch must be positive");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let id = CodeId(self.codes.len());
        self.codes.push(CodeSpec {
            name: name.into(),
            h: Arc::new(h.clone()),
            priors: Arc::new(priors.to_vec()),
            factory: share_factory(factory),
            config,
        });
        id
    }

    /// Spawns every worker and opens the service for submissions.
    pub fn start(self) -> DecodeService {
        let mut codes = Vec::with_capacity(self.codes.len());
        let mut workers = Vec::new();
        for spec in self.codes {
            let queue = Arc::new(CodeQueue::new(spec.config.queue_capacity));
            let metrics = Arc::new(CodeMetrics::default());
            let completion_counter = Arc::new(AtomicU64::new(0));
            let alive = Arc::new(AtomicUsize::new(spec.config.shards));
            for shard_index in 0..spec.config.shards {
                let ctx = ShardContext {
                    queue: Arc::clone(&queue),
                    h: Arc::clone(&spec.h),
                    priors: Arc::clone(&spec.priors),
                    factory: Arc::clone(&spec.factory),
                    max_batch: spec.config.max_batch,
                    max_wait: spec.config.max_wait,
                    metrics: Arc::clone(&metrics),
                    completion_counter: Arc::clone(&completion_counter),
                    alive: Arc::clone(&alive),
                };
                let thread = std::thread::Builder::new()
                    .name(format!("qldpc-server/{}/{shard_index}", spec.name))
                    .spawn(move || ctx.run())
                    .expect("failed to spawn worker");
                workers.push(thread);
            }
            codes.push(CodeRuntime {
                rows: spec.h.rows(),
                name: spec.name,
                precision: spec.config.precision,
                queue,
                metrics,
            });
        }
        DecodeService {
            shared: Arc::new(Shared {
                codes,
                next_request_id: AtomicU64::new(0),
            }),
            workers,
        }
    }
}

struct CodeRuntime {
    name: String,
    /// Syndrome length the code accepts (`h.rows()`).
    rows: usize,
    precision: Precision,
    /// The code's one queue. Shutdown closes it, and so does the last
    /// of its workers to die panicking (`shard::WorkerGuard`); a closed
    /// queue refuses submissions.
    queue: Arc<CodeQueue>,
    metrics: Arc<CodeMetrics>,
}

impl CodeRuntime {
    /// Reads the counters under the queue's lock. A request is counted
    /// in `submitted` before any worker can pop it, so the snapshot
    /// agrees: `completed + expired + lost <= submitted`.
    fn snapshot(&self) -> MetricsSnapshot {
        self.queue.locked(|| self.metrics.snapshot(self.precision))
    }
}

struct Shared {
    codes: Vec<CodeRuntime>,
    next_request_id: AtomicU64,
}

/// The running decode service. Dropping it (or calling
/// [`DecodeService::shutdown`]) closes submissions, drains every code's
/// queue — every accepted request still gets its response — and joins
/// the worker threads.
pub struct DecodeService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl DecodeService {
    /// Starts assembling a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// Creates a submission handle. Each code has one FIFO queue and
    /// every worker pops its head, so a client's requests are pulled for
    /// decoding in submission order. Their *completion* order is also
    /// FIFO when the code runs a single worker; with several, batches
    /// decoded concurrently may finish out of order.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
            next_seq: 0,
        }
    }

    /// Display name a code was registered under.
    pub fn code_name(&self, code: CodeId) -> Option<&str> {
        self.shared.codes.get(code.0).map(|c| c.name.as_str())
    }

    /// Resolves a registered code by its registration name. Names are
    /// unique in practice (registration order decides ties); the
    /// networked front-end uses this to answer `CodeLookup` frames.
    pub fn lookup_code(&self, name: &str) -> Option<CodeId> {
        self.shared
            .codes
            .iter()
            .position(|c| c.name == name)
            .map(CodeId)
    }

    /// Syndrome length a code expects; `None` for unknown ids.
    pub fn syndrome_bits(&self, code: CodeId) -> Option<usize> {
        self.shared.codes.get(code.0).map(|c| c.rows)
    }

    /// Point-in-time metrics for one code. Submissions to the code wait
    /// while the counters are read, so they agree:
    /// `completed + expired + lost <= submitted`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown `code` id.
    pub fn metrics(&self, code: CodeId) -> MetricsSnapshot {
        self.shared.codes[code.0].snapshot()
    }

    /// Renders a Prometheus-style text exposition covering every
    /// registered code: request/convergence counters, batch-size
    /// buckets, and the end-to-end plus per-stage duration histograms
    /// (series named `*_seconds*`). Output is deterministic — lines are
    /// sorted, codes contribute under their `code="…"` label — so two
    /// renders of the same counter state are byte-identical; serve it
    /// from a `/metrics` handler or diff it in tests.
    pub fn render_exposition(&self) -> String {
        self.render_exposition_impl(None)
    }

    /// Like [`DecodeService::render_exposition`], with every series
    /// additionally labeled `node="{node}"` — the form the networked
    /// front-end serves, so scrapes from several service nodes aggregate
    /// without colliding.
    pub fn render_exposition_for(&self, node: &str) -> String {
        self.render_exposition_impl(Some(node))
    }

    fn render_exposition_impl(&self, node: Option<&str>) -> String {
        let mut exposition = Exposition::new();
        let mut codes: Vec<&CodeRuntime> = self.shared.codes.iter().collect();
        codes.sort_by(|a, b| a.name.cmp(&b.name));
        for runtime in codes {
            runtime
                .snapshot()
                .exposition_into(&runtime.name, node, &mut exposition);
        }
        exposition.render()
    }

    fn shutdown_impl(&mut self) {
        // A closed queue refuses submissions and hands its workers what
        // it still holds; once it is empty, their `pop` returns `None`
        // and they exit.
        for runtime in &self.shared.codes {
            runtime.queue.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Closes submissions, waits for the workers to drain every queue
    /// (all outstanding handles resolve), joins the workers, and
    /// returns the final per-code metrics in registration order.
    pub fn shutdown(mut self) -> Vec<MetricsSnapshot> {
        self.shutdown_impl();
        self.shared
            .codes
            .iter()
            .map(CodeRuntime::snapshot)
            .collect()
    }
}

impl Drop for DecodeService {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// A submission handle. `Send` but deliberately not `Clone`: one client
/// is one FIFO stream with a private sequence counter; concurrent
/// producers should each take their own client from
/// [`DecodeService::client`].
pub struct Client {
    shared: Arc<Shared>,
    next_seq: u64,
}

impl Client {
    /// Submits a syndrome with no deadline.
    pub fn submit(
        &mut self,
        code: CodeId,
        syndrome: BitVec,
    ) -> Result<ResponseHandle, SubmitError> {
        self.submit_inner(code, syndrome, None)
    }

    /// Submits a syndrome that must be *dispatched* within `deadline`
    /// from now; if the scheduler pulls it later than that, it is
    /// answered with `DecodeError::DeadlineExceeded` instead of being
    /// decoded.
    pub fn submit_with_deadline(
        &mut self,
        code: CodeId,
        syndrome: BitVec,
        deadline: Duration,
    ) -> Result<ResponseHandle, SubmitError> {
        self.submit_inner(code, syndrome, Some(Instant::now() + deadline))
    }

    fn submit_inner(
        &mut self,
        code: CodeId,
        syndrome: BitVec,
        deadline: Option<Instant>,
    ) -> Result<ResponseHandle, SubmitError> {
        let runtime = self
            .shared
            .codes
            .get(code.0)
            .ok_or(SubmitError::UnknownCode)?;
        if syndrome.len() != runtime.rows {
            return Err(SubmitError::SyndromeLength {
                expected: runtime.rows,
                got: syndrome.len(),
            });
        }
        let slot = Arc::new(ResponseSlot::default());
        let request = Request {
            id: self.shared.next_request_id.fetch_add(1, Ordering::Relaxed),
            client_seq: self.next_seq,
            deadline,
            submitted_at: Instant::now(),
            syndrome,
            slot: Arc::clone(&slot),
        };
        let (id, seq) = (request.id, request.client_seq);
        runtime.queue.push(request, &runtime.metrics)?;
        self.next_seq += 1;
        Ok(ResponseHandle {
            slot,
            request_id: id,
            client_seq: seq,
        })
    }
}
