//! The dynamic batcher: a bounded request queue drained by long-lived
//! workers that coalesce same-model requests into one batched simulation
//! call.
//!
//! ## Batching policy
//!
//! A worker pops the oldest queued request, then coalesces every other
//! queued request for the *same model* (in arrival order) up to
//! [`ServerConfig::max_batch`].  If the batch is not full and a positive
//! [`ServerConfig::batch_window`] is configured, the worker waits up to the
//! window for more same-model arrivals before executing; with the default
//! zero window it batches exactly the current backlog and never delays a
//! request.  Each batch becomes **one**
//! [`SnnNetwork::simulate_batch_each`](nrsnn_snn::SnnNetwork::simulate_batch_each)
//! call through the worker's own reusable [`SimWorkspace`], so replies stay
//! bit-identical to the offline simulator.  The engine runs the batch in
//! layer-major tiles of up to 8 requests (a batch of one is a tile of one)
//! and reads each dense weight once per tile; the replies of one tile are
//! released together, once the tile's last layer is done.
//!
//! ## Backpressure
//!
//! The queue is bounded by [`ServerConfig::queue_capacity`].  A submit
//! against a full queue fails *immediately* with [`ServeError::Busy`] —
//! requests are never silently dropped and never queued unboundedly; the
//! client decides whether to retry.
//!
//! ## Determinism
//!
//! Request `r` against model `m` is simulated with a fresh RNG seeded
//! `derive_seed(m.master_seed, r.seed)` — a pure function of the model and
//! the request, independent of batch companions, queue position, worker
//! count and workspace reuse.  The `serve determinism` tests pin this
//! against the offline `simulate_with` path byte for byte.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
// nrsnn-lint: allow(forbidden-api) -- Instant feeds Condvar::wait_timeout
// deadlines only; all observable timestamps go through the obs clock.
use std::time::{Duration, Instant};

use nrsnn_obs::{KernelPath, Span, Stage, TraceRecord};
use nrsnn_runtime::{derive_seed, ParallelConfig};
use nrsnn_snn::{BatchOutcome, SimStage, SimWorkspace};
use nrsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::Metrics;
use crate::protocol::InferenceReply;
use crate::{ModelRegistry, Result, ServeError};

/// Tunables of one server instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Number of batcher worker threads; `0` resolves like
    /// [`ParallelConfig::auto`] (the `NRSNN_THREADS` environment variable,
    /// then the machine's available parallelism).
    pub workers: usize,
    /// Maximum requests coalesced into one simulation batch (minimum 1).
    pub max_batch: usize,
    /// How long a worker may hold an incomplete batch open waiting for more
    /// same-model requests.  Zero (the default) batches exactly the current
    /// backlog: larger batches form under load, single requests are never
    /// delayed.
    pub batch_window: Duration,
    /// Bound of the submission queue; a submit against a full queue is
    /// rejected with [`ServeError::Busy`].
    pub queue_capacity: usize,
    /// Whether per-request tracing is enabled: stage spans from the
    /// simulation engine, trace ids in replies, and timelines in the
    /// flight recorder (queryable via the `trace` request).  On by default
    /// — the `obs_overhead` bench gates the cost at ≤2% of throughput —
    /// and guaranteed not to change any reply bit (tracing reads clocks,
    /// never the RNG stream).
    pub tracing: bool,
}

impl ServerConfig {
    /// Upper bound accepted for [`ServerConfig::batch_window`]: far beyond
    /// any sensible batching delay, and small enough that deadline
    /// arithmetic on [`Instant`] can never overflow.
    pub const MAX_BATCH_WINDOW: Duration = Duration::from_secs(60);

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`ServeError::InvalidRequest`] for a zero batch size or
    /// queue capacity, or a batch window above
    /// [`ServerConfig::MAX_BATCH_WINDOW`].
    pub fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidRequest(
                "max_batch must be at least 1".to_string(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidRequest(
                "queue_capacity must be at least 1".to_string(),
            ));
        }
        if self.batch_window > ServerConfig::MAX_BATCH_WINDOW {
            return Err(ServeError::InvalidRequest(format!(
                "batch_window must be at most {:?}, got {:?}",
                ServerConfig::MAX_BATCH_WINDOW,
                self.batch_window
            )));
        }
        Ok(())
    }

    /// The worker count this configuration resolves to right now.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            ParallelConfig::auto().effective_threads()
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            max_batch: 8,
            batch_window: Duration::ZERO,
            queue_capacity: 256,
            tracing: true,
        }
    }
}

/// One-shot rendezvous between a submitter and the worker that serves its
/// request.
///
/// The slot is strictly one-way: `Empty → Ready → Consumed`.  It never
/// returns to `Empty` once fulfilled, so a late [`PendingRequest`] drop
/// cannot mistake an already-served (and already-consumed) request for a
/// stranded one.
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
enum SlotState {
    #[default]
    Empty,
    Ready(Result<InferenceReply>),
    Consumed,
}

impl ResponseSlot {
    /// Stores the result (first write wins) and wakes the waiter; returns
    /// `true` if this call was the one that fulfilled the slot.
    fn fulfill(&self, result: Result<InferenceReply>) -> bool {
        // UNWRAP: lock poisoning — a worker panicked mid-fulfil; propagating the panic is correct.
        let mut state = self.state.lock().expect("slot lock");
        if matches!(*state, SlotState::Empty) {
            *state = SlotState::Ready(result);
            self.ready.notify_all();
            true
        } else {
            false
        }
    }

    /// Blocks until the worker fulfils the slot (single waiter; a second
    /// `wait` on a consumed slot errors instead of blocking forever).
    pub(crate) fn wait(&self) -> Result<InferenceReply> {
        // UNWRAP: lock poisoning — the fulfilling worker panicked; the waiter cannot get a reply anyway.
        let mut state = self.state.lock().expect("slot lock");
        loop {
            match std::mem::replace(&mut *state, SlotState::Consumed) {
                SlotState::Ready(result) => return result,
                SlotState::Empty => {
                    *state = SlotState::Empty;
                    // UNWRAP: lock poisoning — same slot-lock argument as the acquisition above.
                    state = self.ready.wait(state).expect("slot lock");
                }
                SlotState::Consumed => {
                    return Err(ServeError::Internal(
                        "response slot waited on twice".to_string(),
                    ));
                }
            }
        }
    }
}

/// A queued inference request.
pub(crate) struct PendingRequest {
    model: usize,
    seed: u64,
    input: Vec<f32>,
    enqueued: Instant,
    /// Server-unique trace id assigned at admission (0 when tracing is
    /// off); echoed in the reply and keying the flight-recorder timeline.
    trace_id: u64,
    slot: Arc<ResponseSlot>,
    /// Kept so the [`Drop`] safety net can account for a stranded request;
    /// deliberately an `Arc<Metrics>` rather than the whole core to avoid
    /// a queue → request → core reference cycle.
    metrics: Arc<Metrics>,
}

impl Drop for PendingRequest {
    /// Safety net: a request must never strand its waiter.  If the request
    /// is dropped unanswered — a batcher worker panicked mid-batch, or the
    /// queue itself is torn down — the slot is fulfilled with a typed
    /// error so `wait` unblocks instead of hanging forever, and the
    /// failure is counted so the stats invariant
    /// `received == served + failed + rejected_busy` survives.  On the
    /// normal path the slot is already fulfilled and this first-write-wins
    /// call is a no-op.
    fn drop(&mut self) {
        if self.slot.fulfill(Err(ServeError::Internal(
            "request dropped before a worker answered it".to_string(),
        ))) {
            self.metrics.record_failed(1);
        }
    }
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<PendingRequest>,
    shutting_down: bool,
}

/// Everything the workers, clients and front-ends share.
pub(crate) struct ServerCore {
    pub(crate) registry: ModelRegistry,
    pub(crate) config: ServerConfig,
    pub(crate) metrics: Arc<Metrics>,
    state: Mutex<QueueState>,
    not_empty: Condvar,
}

impl ServerCore {
    pub(crate) fn new(registry: ModelRegistry, config: ServerConfig) -> ServerCore {
        ServerCore {
            registry,
            metrics: Arc::new(Metrics::new(config.effective_workers(), config.tracing)),
            config,
            state: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
        }
    }

    /// Validates and enqueues one request, returning the slot its response
    /// will arrive on.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`] / [`ServeError::InputMismatch`] for bad
    /// requests, [`ServeError::Busy`] when the queue is full,
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub(crate) fn submit(
        &self,
        model_name: &str,
        input: Vec<f32>,
        seed: u64,
    ) -> Result<Arc<ResponseSlot>> {
        let model_index = self
            .registry
            .index_of(model_name)
            .ok_or_else(|| ServeError::UnknownModel(model_name.to_string()))?;
        let expected = self.registry.model(model_index).input_width();
        if input.len() != expected {
            return Err(ServeError::InputMismatch {
                model: model_name.to_string(),
                expected,
                actual: input.len(),
            });
        }
        if let Some(bad) = input.iter().find(|v| !v.is_finite()) {
            return Err(ServeError::InvalidRequest(format!(
                "input values must be finite, got {bad}"
            )));
        }
        let slot = Arc::new(ResponseSlot::default());
        {
            // UNWRAP: lock poisoning — a worker panicked holding the queue; the server is already lost.
            let mut state = self.state.lock().expect("queue lock");
            if state.shutting_down {
                return Err(ServeError::ShuttingDown);
            }
            // Every validly-addressed submit counts as received, whether it
            // is admitted or bounced for backpressure — so at quiescence
            // `received == served + failed + rejected_busy` holds exactly.
            self.metrics.record_received();
            if state.queue.len() >= self.config.queue_capacity {
                self.metrics.record_busy();
                return Err(ServeError::Busy {
                    capacity: self.config.queue_capacity,
                });
            }
            state.queue.push_back(PendingRequest {
                model: model_index,
                seed,
                input,
                enqueued: Instant::now(),
                // Admitted requests get their trace id here, so the queue
                // wait is part of the recorded timeline from the start.
                trace_id: if self.config.tracing {
                    self.metrics.next_trace_id()
                } else {
                    0
                },
                slot: Arc::clone(&slot),
                metrics: Arc::clone(&self.metrics),
            });
        }
        // notify_all: besides idle workers, a worker in a timed batch-window
        // wait may need to see the new arrival.
        self.not_empty.notify_all();
        Ok(slot)
    }

    /// Raises the shutdown flag and wakes every parked worker.  Queued
    /// requests are still drained and answered; new submits fail with
    /// [`ServeError::ShuttingDown`].
    pub(crate) fn begin_shutdown(&self) {
        // UNWRAP: lock poisoning — shutdown on a poisoned queue has nothing left to protect.
        self.state.lock().expect("queue lock").shutting_down = true;
        self.not_empty.notify_all();
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        // UNWRAP: lock poisoning — same queue-lock argument as `begin_shutdown`.
        self.state.lock().expect("queue lock").shutting_down
    }

    /// Number of requests currently queued (not yet claimed by a worker).
    pub(crate) fn queued(&self) -> usize {
        // UNWRAP: lock poisoning — same queue-lock argument as `begin_shutdown`.
        self.state.lock().expect("queue lock").queue.len()
    }
}

/// Per-worker reusable buffers: the simulation workspace, the flat input
/// staging buffer, the claimed-batch list, the skipped-requests deque used
/// while claiming, and the trace-record staging slot spans are assembled
/// into before being copied into the flight recorder.  None of them carry
/// values that influence results.
#[derive(Default)]
struct WorkerScratch {
    ws: SimWorkspace,
    flat: Vec<f32>,
    batch: Vec<PendingRequest>,
    skipped: VecDeque<PendingRequest>,
    trace: TraceRecord,
}

impl WorkerScratch {
    fn for_core(core: &ServerCore) -> WorkerScratch {
        let mut scratch = WorkerScratch::default();
        scratch.ws.set_stage_tracing(core.config.tracing);
        scratch
    }
}

/// Removes every queued request for `model` (in arrival order) into
/// `batch`, up to `max` total batch entries.
///
/// Runs in O(queue length) — one forward pass with skipped requests kept
/// aside in the caller's reusable `skipped` deque (left empty on return)
/// and pushed back in order — because it executes under the global
/// submission-queue lock, where an O(n²) shift-per-removal or a per-claim
/// allocation would stall every submitter and worker on a deep
/// multi-model queue.
fn drain_same_model(
    queue: &mut VecDeque<PendingRequest>,
    model: usize,
    batch: &mut Vec<PendingRequest>,
    max: usize,
    skipped: &mut VecDeque<PendingRequest>,
) {
    debug_assert!(skipped.is_empty());
    while batch.len() < max {
        match queue.pop_front() {
            Some(request) if request.model == model => batch.push(request),
            Some(request) => skipped.push_back(request),
            None => break,
        }
    }
    // Re-attach the skipped prefix ahead of the unscanned tail, order kept.
    while let Some(request) = skipped.pop_back() {
        queue.push_front(request);
    }
}

/// The body each batcher worker runs until shutdown: claim a batch, hold it
/// open for up to the batch window, execute, repeat.
///
/// A panic while executing a batch (a bug in a model's simulation, a
/// poisoned workspace invariant, …) is caught: the claimed requests are
/// failed with [`ServeError::Internal`], the worker's scratch is rebuilt,
/// and the worker keeps serving — a dead worker would otherwise leave
/// queued requests unanswered forever once the last worker is gone.
pub(crate) fn worker_loop(core: &ServerCore, worker: usize) {
    let mut scratch = WorkerScratch::for_core(core);
    loop {
        {
            // UNWRAP: lock poisoning — a sibling worker panicked holding the queue; die with it.
            let mut state = core.state.lock().expect("queue lock");
            loop {
                if !state.queue.is_empty() {
                    break;
                }
                if state.shutting_down {
                    return;
                }
                // UNWRAP: lock poisoning — same queue-lock argument as the acquisition above.
                state = core.not_empty.wait(state).expect("queue lock");
            }
            // UNWRAP: infallible — the wait loop above only exits with a non-empty queue.
            let first = state.queue.pop_front().expect("non-empty checked");
            let model = first.model;
            scratch.batch.push(first);
            let deadline = Instant::now() + core.config.batch_window;
            loop {
                drain_same_model(
                    &mut state.queue,
                    model,
                    &mut scratch.batch,
                    core.config.max_batch,
                    &mut scratch.skipped,
                );
                if scratch.batch.len() >= core.config.max_batch || state.shutting_down {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (next, timeout) = core
                    .not_empty
                    .wait_timeout(state, deadline - now)
                    // UNWRAP: lock poisoning — same queue-lock argument as the acquisition above.
                    .expect("queue lock");
                state = next;
                if timeout.timed_out() {
                    drain_same_model(
                        &mut state.queue,
                        model,
                        &mut scratch.batch,
                        core.config.max_batch,
                        &mut scratch.skipped,
                    );
                    break;
                }
            }
        }
        // The batch is sealed the moment the claim loop releases the queue
        // lock: everything before this instant is the requests' queue wait,
        // everything between it and a request's own simulation is its
        // batch-assembly share.
        let sealed = Instant::now();
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(core, worker, sealed, &mut scratch)
        }));
        if executed.is_err() {
            fail_batch(
                &scratch.batch,
                &ServeError::Internal("batch execution panicked".to_string()),
                &core.metrics,
                Some(worker),
            );
            // The panic may have left the scratch buffers in an arbitrary
            // state; rebuild them (results never depend on scratch content,
            // this only re-pays the warm-up cost once).
            scratch = WorkerScratch::for_core(core);
        }
    }
}

/// Fails every not-yet-fulfilled request of the batch with `error`,
/// counting only the requests this call actually failed (fulfil is
/// first-write-wins, so already-answered requests are not re-counted).
///
/// When a worker context is known and tracing is on, each failed request
/// also leaves a span-less `ok: false` timeline in the flight recorder —
/// failures are exactly the requests the outlier ring exists for.  (The
/// worker-less caller is the [`PendingRequest`] drop safety net, which has
/// no recorder shard to write into.)
fn fail_batch(
    batch: &[PendingRequest],
    error: &ServeError,
    metrics: &Metrics,
    worker: Option<usize>,
) {
    for request in batch {
        if request.slot.fulfill(Err(error.clone())) {
            metrics.record_failed(1);
            if let Some(worker) = worker {
                if metrics.tracing() && request.trace_id != 0 {
                    let start_ns = metrics.ns_since_epoch(request.enqueued);
                    metrics.record_trace(
                        worker,
                        &TraceRecord {
                            trace_id: request.trace_id,
                            model: request.model as u32,
                            seed: request.seed,
                            worker: worker as u32,
                            start_ns,
                            end_ns: metrics.ns_since_epoch(Instant::now()),
                            ok: false,
                            backend: nrsnn_tensor::simd::active_backend().name(),
                            spans: Vec::new(),
                            dropped_spans: 0,
                        },
                    );
                }
            }
        }
    }
}

/// Executes one claimed batch through the worker's workspace and fulfils
/// every request slot.
///
/// With tracing on, each request's reply carries its trace id and its full
/// timeline is assembled here — queue wait (enqueue → `sealed`), batch
/// assembly (`sealed` → the request's tile starting, which includes the
/// simulation time of earlier tiles of the batch), the simulation engine's
/// per-layer stage events for the request's whole tile (shared by the
/// tile's requests, see [`nrsnn_snn::StageEvent`]), and reply
/// serialization (from the tile's end, so it includes the replies of
/// earlier tile companions) — and copied into the flight recorder
/// **before** the slot is fulfilled, so any client holding a reply can
/// already resolve its trace id.
fn run_batch(core: &ServerCore, worker: usize, sealed: Instant, scratch: &mut WorkerScratch) {
    let WorkerScratch {
        ws,
        flat,
        batch,
        skipped: _,
        trace,
    } = scratch;
    if batch.is_empty() {
        return;
    }
    let model = core.registry.model(batch[0].model);
    let size = batch.len();
    core.metrics.record_batch(worker, size);

    let width = model.input_width();
    flat.clear();
    flat.reserve(size * width);
    for request in batch.iter() {
        flat.extend_from_slice(&request.input);
    }
    let inputs = match Tensor::from_vec(std::mem::take(flat), &[size, width]) {
        Ok(tensor) => tensor,
        Err(e) => {
            fail_batch(
                batch,
                &ServeError::Simulation(e.to_string()),
                &core.metrics,
                Some(worker),
            );
            batch.clear();
            return;
        }
    };

    let tracing = core.config.tracing;
    let backend = nrsnn_tensor::simd::active_backend().name();
    let result = model.network.simulate_batch_each(
        &inputs,
        0..size,
        model.coding.as_ref(),
        &model.config,
        model.noise.as_ref(),
        |sample| StdRng::seed_from_u64(derive_seed(model.master_seed, batch[sample].seed)),
        ws,
        |sample, outcome: BatchOutcome, ws| {
            let request = &batch[sample];
            let latency_us = request.enqueued.elapsed().as_micros() as u64;
            core.metrics
                .record_served(worker, latency_us, outcome.total_spikes as u64);
            if tracing {
                // Open the timeline: queue wait, batch assembly, then the
                // engine's stage events mapped onto the span taxonomy.
                let ns = |at: Instant| core.metrics.ns_since_epoch(at);
                let enqueued_ns = ns(request.enqueued);
                let sealed_ns = ns(sealed);
                let events = ws.stage_events();
                let own_start_ns = events.first().map_or(sealed_ns, |e| ns(e.start));
                trace.trace_id = request.trace_id;
                trace.model = request.model as u32;
                trace.seed = request.seed;
                trace.worker = worker as u32;
                trace.start_ns = enqueued_ns;
                trace.ok = true;
                trace.backend = backend;
                trace.dropped_spans = 0;
                trace.spans.clear();
                trace.spans.push(Span {
                    stage: Stage::QueueWait,
                    layer: None,
                    start_ns: enqueued_ns,
                    end_ns: sealed_ns,
                    kernel: KernelPath::None,
                    density: 0.0,
                });
                trace.spans.push(Span {
                    stage: Stage::BatchAssembly,
                    layer: None,
                    start_ns: sealed_ns,
                    end_ns: own_start_ns,
                    kernel: KernelPath::None,
                    density: 0.0,
                });
                let mut sim_end_ns = own_start_ns;
                for event in events {
                    let (stage, kernel) = match event.stage {
                        SimStage::Encode => (Stage::Encode, KernelPath::None),
                        SimStage::Noise => (Stage::Noise, KernelPath::None),
                        SimStage::Decode => (Stage::Decode, KernelPath::None),
                        SimStage::Forward => (Stage::Simulate, KernelPath::Dense),
                    };
                    sim_end_ns = ns(event.end);
                    trace.spans.push(Span {
                        stage,
                        layer: Some(event.layer),
                        start_ns: ns(event.start),
                        end_ns: sim_end_ns,
                        kernel,
                        density: event.density,
                    });
                }
                // Build the reply inside the reply-serialization span, then
                // record the finished timeline *before* fulfilling the slot:
                // a client holding the reply can already resolve its trace.
                let reply = InferenceReply {
                    model: model.name.clone(),
                    predicted: outcome.predicted,
                    logits: ws.logits().to_vec(),
                    total_spikes: outcome.total_spikes,
                    latency_us,
                    trace_id: request.trace_id,
                };
                let done_ns = ns(Instant::now());
                trace.spans.push(Span {
                    stage: Stage::ReplySerialize,
                    layer: None,
                    start_ns: sim_end_ns,
                    end_ns: done_ns,
                    kernel: KernelPath::None,
                    density: 0.0,
                });
                trace.end_ns = done_ns;
                for span in &trace.spans {
                    core.metrics
                        .record_stage(worker, span.stage, span.duration_ns());
                }
                core.metrics.record_trace(worker, trace);
                request.slot.fulfill(Ok(reply));
            } else {
                request.slot.fulfill(Ok(InferenceReply {
                    model: model.name.clone(),
                    predicted: outcome.predicted,
                    logits: ws.logits().to_vec(),
                    total_spikes: outcome.total_spikes,
                    latency_us,
                    trace_id: 0,
                }));
            }
        },
    );
    // Reclaim the staging buffer's capacity for the next batch.
    *flat = inputs.into_vec();
    flat.clear();
    if let Err(e) = result {
        // simulate_batch_each validates before simulating, so a failure here
        // fails the whole batch: no slot has been fulfilled yet (and fulfil
        // is first-write-wins in any case).
        fail_batch(batch, &ServeError::from(e), &core.metrics, Some(worker));
    }
    batch.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoiseSpec, ServedModel};
    use nrsnn_snn::{CodingConfig, CodingKind, SnnLayer, SnnNetwork};

    fn toy_registry() -> ModelRegistry {
        let network = SnnNetwork::new(vec![SnnLayer::Linear {
            weights: Tensor::from_vec(vec![1.0, -1.0, -1.0, 1.0], &[2, 2]).unwrap(),
            bias: Tensor::zeros(&[2]),
        }])
        .unwrap();
        let mut registry = ModelRegistry::new();
        registry
            .insert(
                ServedModel::new(
                    "toy",
                    network,
                    CodingKind::Rate,
                    CodingConfig::new(32, 1.0),
                    NoiseSpec::Clean,
                    1.0,
                    7,
                )
                .unwrap(),
            )
            .unwrap();
        registry
    }

    #[test]
    fn config_validation() {
        assert!(ServerConfig::default().validate().is_ok());
        let no_batch = ServerConfig {
            max_batch: 0,
            ..ServerConfig::default()
        };
        assert!(no_batch.validate().is_err());
        let no_queue = ServerConfig {
            queue_capacity: 0,
            ..ServerConfig::default()
        };
        assert!(no_queue.validate().is_err());
        // An absurd batch window is rejected up front instead of letting
        // deadline arithmetic panic inside a worker.
        let absurd_window = ServerConfig {
            batch_window: Duration::from_secs(u64::MAX),
            ..ServerConfig::default()
        };
        assert!(absurd_window.validate().is_err());
        let max_window = ServerConfig {
            batch_window: ServerConfig::MAX_BATCH_WINDOW,
            ..ServerConfig::default()
        };
        assert!(max_window.validate().is_ok());
        assert!(ServerConfig::default().effective_workers() >= 1);
        assert_eq!(
            ServerConfig {
                workers: 3,
                ..ServerConfig::default()
            }
            .effective_workers(),
            3
        );
    }

    #[test]
    fn submit_validates_model_and_width() {
        let core = ServerCore::new(toy_registry(), ServerConfig::default());
        assert!(matches!(
            core.submit("missing", vec![0.1, 0.2], 0),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(matches!(
            core.submit("toy", vec![0.1], 0),
            Err(ServeError::InputMismatch {
                expected: 2,
                actual: 1,
                ..
            })
        ));
        assert!(matches!(
            core.submit("toy", vec![0.1, f32::NAN], 0),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            core.submit("toy", vec![f32::INFINITY, 0.2], 0),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(core.submit("toy", vec![0.1, 0.2], 0).is_ok());
        assert_eq!(core.queued(), 1);
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        let config = ServerConfig {
            queue_capacity: 2,
            ..ServerConfig::default()
        };
        let core = ServerCore::new(toy_registry(), config);
        core.submit("toy", vec![0.1, 0.2], 0).unwrap();
        core.submit("toy", vec![0.1, 0.2], 1).unwrap();
        assert!(matches!(
            core.submit("toy", vec![0.1, 0.2], 2),
            Err(ServeError::Busy { capacity: 2 })
        ));
        let stats = core.metrics.snapshot();
        // The bounced submit still counts as received.
        assert_eq!(stats.requests_received, 3);
        assert_eq!(stats.rejected_busy, 1);
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let core = ServerCore::new(toy_registry(), ServerConfig::default());
        core.begin_shutdown();
        assert!(matches!(
            core.submit("toy", vec![0.1, 0.2], 0),
            Err(ServeError::ShuttingDown)
        ));
        assert!(core.is_shutting_down());
    }

    #[test]
    fn drain_same_model_preserves_arrival_order_and_skips_other_models() {
        let slot = || Arc::new(ResponseSlot::default());
        let request = |model: usize, seed: u64| PendingRequest {
            model,
            seed,
            input: vec![],
            enqueued: Instant::now(),
            trace_id: 0,
            slot: slot(),
            metrics: Arc::new(Metrics::default()),
        };
        let mut queue: VecDeque<PendingRequest> =
            [request(0, 1), request(1, 2), request(0, 3), request(0, 4)]
                .into_iter()
                .collect();
        let mut batch = vec![request(0, 0)];
        let mut skipped = VecDeque::new();
        drain_same_model(&mut queue, 0, &mut batch, 3, &mut skipped);
        assert!(skipped.is_empty(), "skipped deque must be left empty");
        let seeds: Vec<u64> = batch.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![0, 1, 3]); // capped at max=3, order kept
        assert_eq!(queue.len(), 2);
        assert_eq!(queue[0].model, 1);
        assert_eq!(queue[1].seed, 4);
    }

    #[test]
    fn worker_drains_queue_then_stops_on_shutdown() {
        let core = Arc::new(ServerCore::new(
            toy_registry(),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        ));
        let slots: Vec<_> = (0..5)
            .map(|seed| core.submit("toy", vec![0.9, 0.1], seed).unwrap())
            .collect();
        core.begin_shutdown();
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || worker_loop(&core, 0))
        };
        worker.join().unwrap();
        for slot in slots {
            let reply = slot.wait().unwrap();
            assert_eq!(reply.predicted, 0);
            assert_eq!(reply.logits.len(), 2);
        }
        let stats = core.metrics.snapshot();
        assert_eq!(stats.requests_served, 5);
        assert_eq!(stats.failed, 0);
        assert_eq!(core.queued(), 0);
    }

    #[test]
    fn dropping_an_unanswered_request_unblocks_its_waiter_with_an_error() {
        // Models a worker crashing after claiming a batch: the pending
        // requests unwind, and every waiter must receive a typed error
        // instead of hanging on the condvar forever.
        let slot = Arc::new(ResponseSlot::default());
        let metrics = Arc::new(Metrics::default());
        let request = PendingRequest {
            model: 0,
            seed: 1,
            input: vec![0.5, 0.5],
            enqueued: Instant::now(),
            trace_id: 0,
            slot: Arc::clone(&slot),
            metrics: Arc::clone(&metrics),
        };
        drop(request);
        assert!(matches!(slot.wait(), Err(ServeError::Internal(_))));
        // The stranded request is accounted as failed, keeping the stats
        // invariant `received == served + failed + rejected_busy` intact.
        assert_eq!(metrics.snapshot().failed, 1);
    }

    #[test]
    fn slot_fulfil_is_first_write_wins() {
        let slot = ResponseSlot::default();
        slot.fulfill(Err(ServeError::ShuttingDown));
        slot.fulfill(Ok(InferenceReply {
            model: "m".to_string(),
            predicted: 0,
            logits: vec![],
            total_spikes: 0,
            latency_us: 0,
            trace_id: 0,
        }));
        assert!(matches!(slot.wait(), Err(ServeError::ShuttingDown)));
    }
}
