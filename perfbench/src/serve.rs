//! The `serve_mlp_clean` workload: the MLP under TTAS(5) with clean noise,
//! exported as an NRSM file, loaded with `ModelRegistry::load_binary`,
//! served over binary TCP and driven by a closed loop of one
//! `TcpClient::connect_binary` client sending test rows in a seed-shuffled
//! order.  One client keeps a single request in flight, so its round trip
//! is the server's latency and not the scheduling of requests racing for
//! two shared cores: with two clients, replies/s and p50 spread by an
//! eighth from run to run, with one by a thirtieth.

use std::io::Write;
use std::net::SocketAddr;
use std::time::Duration;

use nrsnn::prelude::*;
use nrsnn_obs::{Clock, MonotonicClock};
use nrsnn_runtime::derive_seed;
use nrsnn_serve::binary::{request_to_frame, response_to_frame};
use nrsnn_serve::{
    InferenceReply, ModelRegistry, ModelSpec, NoiseSpec, Request, Response, ServeError,
    ServedModel, Server, ServerConfig, ServerStats, TcpClient,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{Profile, SetupTimes};
use crate::report::{EndToEnd, Metric, Outcome};
use crate::{
    bit_equal, median, peak_rss_mib, percentile, since, stream, Options, Result, Scale, THREADS,
};

/// Registry name of the served model.
const MODEL: &str = "mlp-ttas5-clean";
/// The served coding.
const CODING: CodingKind = CodingKind::Ttas(5);
/// Index of [`CODING`] in [`crate::CODINGS`].
const CODING_INDEX: usize = 4;
/// Alternating untraced/traced rounds of the tracing-overhead measurement.
const OVERHEAD_ROUNDS: usize = 4;
/// Repetitions of the wire codec timers over the workload's frames.
const WIRE_REPS: usize = 50;
/// Slice of the closed loop; the metrics pool the fastest quarter of them.
const WINDOW_NS: u64 = 1_000_000_000;

/// Request-seed phases: each phase draws distinct request seeds.
mod phase {
    pub const CHECK: u64 = 0;
    pub const ALTERNATE: u64 = 1;
    pub const PROFILE: u64 = 2;
    pub const LOOP: u64 = 3;
}

/// The `serve_loadgen` server configuration, with tracing off for the
/// end-to-end runs and the worker count pinned like the sweeps' threads.
fn server_config(tracing: bool) -> ServerConfig {
    ServerConfig {
        workers: THREADS,
        max_batch: 16,
        batch_window: Duration::ZERO,
        queue_capacity: 1024,
        tracing,
    }
}

/// Seed of request `k` of `client` in `phase`.
fn request_seed(base: u64, phase: u64, client: u64, k: u64) -> u64 {
    derive_seed(derive_seed(base, phase), (client << 32) | k)
}

/// A running server and its TCP address.
struct Served {
    server: Server,
    addr: SocketAddr,
}

fn start_server(model: &[u8], tracing: bool) -> Result<Served> {
    let mut registry = ModelRegistry::new();
    registry.load_binary(model)?;
    let mut server = Server::start(registry, server_config(tracing))?;
    let addr = server.serve_tcp(("127.0.0.1", 0))?;
    Ok(Served { server, addr })
}

/// Everything a set-up produces.
struct Deployment {
    pipeline: TrainedPipeline,
    model: Vec<u8>,
    served: Served,
}

/// Trains, converts, exports, loads and starts the server
/// `scale.setups` times; returns the last deployment and the median
/// timers.  Earlier servers are shut down.
fn setup(
    options: &Options,
    scale: &Scale,
    clock: &MonotonicClock,
) -> Result<(Deployment, SetupTimes)> {
    let config = scale.mlp_config();
    let master = derive_seed(options.seed, stream::MASTER);
    std::fs::create_dir_all(&options.results_dir)?;
    let model_path = options.results_dir.join("serve_mlp_clean.nrsm");
    let (mut total, mut build, mut convert, mut start) = (vec![], vec![], vec![], vec![]);
    let mut last: Option<Deployment> = None;
    for _ in 0..scale.setups.max(1) {
        let t0 = clock.now_ns();
        let pipeline = TrainedPipeline::build(&config)?;
        let t1 = clock.now_ns();
        let network = pipeline.to_snn(&WeightScaling::none())?;
        let t2 = clock.now_ns();
        let cfg = pipeline.coding_config(CODING, scale.time_steps);
        let spec =
            ModelSpec::from_network(MODEL, &network, CODING, &cfg, NoiseSpec::Clean, 1.0, master);
        std::fs::write(&model_path, spec.to_binary()?)?;
        let model = std::fs::read(&model_path)?;
        let t3 = clock.now_ns();
        let served = start_server(&model, false)?;
        let t4 = clock.now_ns();
        total.push((t4 - t0) as f64 / 1e9);
        build.push((t1 - t0) as f64 / 1e9);
        convert.push((t2 - t1) as f64 / 1e6);
        start.push((t4 - t3) as f64 / 1e6);
        if let Some(previous) = last.replace(Deployment {
            pipeline,
            model,
            served,
        }) {
            previous.served.server.shutdown();
        }
    }
    let deployment = last.ok_or("no set-up ran")?;
    Ok((
        deployment,
        SetupTimes {
            setup_s: median(&total),
            pipeline_build_s: median(&build),
            convert_ms: median(&convert),
            server_start_ms: Some(median(&start)),
        },
    ))
}

/// The served test rows, their labels and the offline expectation.
struct Expected {
    rows: Vec<Vec<f32>>,
    labels: Vec<usize>,
    /// Offline logits of each row (outputs of this workload do not depend
    /// on the request seed; [`Expected::compute`] checks that).
    logits: Vec<Vec<f32>>,
    base: u64,
}

impl Expected {
    /// Runs offline `simulate_with` on every row with the check-phase seed
    /// and with a second seed, recording a problem if they differ.
    fn compute(
        model: &ServedModel,
        pipeline: &TrainedPipeline,
        scale: &Scale,
        base: u64,
        outcome: &mut Outcome,
    ) -> Result<Expected> {
        let subset = pipeline.test_subset(scale.test)?;
        let mut ws = SimWorkspace::new();
        let mut expected = Expected {
            rows: Vec::new(),
            labels: subset.labels.clone(),
            logits: Vec::new(),
            base,
        };
        for row in 0..subset.labels.len() {
            let input = subset.inputs.row_slice(row)?.to_vec();
            let key = row as u64;
            let logits = offline(
                model,
                &input,
                request_seed(base, phase::CHECK, 0, key),
                &mut ws,
            )?;
            let alternate = offline(
                model,
                &input,
                request_seed(base, phase::ALTERNATE, 0, key),
                &mut ws,
            )?;
            if !bit_equal(&logits, &alternate) {
                outcome.problems.push(format!(
                    "row {row}: offline logits depend on the request seed, \
                     so replies cannot be checked per row"
                ));
            }
            expected.rows.push(input);
            expected.logits.push(logits);
        }
        Ok(expected)
    }
}

/// Offline `simulate_with` of one request, as the server seeds it.
fn offline(
    model: &ServedModel,
    input: &[f32],
    seed: u64,
    ws: &mut SimWorkspace,
) -> Result<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(derive_seed(model.master_seed, seed));
    model.network.simulate_with(
        input,
        model.coding.as_ref(),
        &model.config,
        model.noise.as_ref(),
        &mut rng,
        ws,
    )?;
    Ok(ws.logits().to_vec())
}

/// Sends every row once and checks each reply bit for bit.
fn check_server(
    addr: SocketAddr,
    expected: &Expected,
    outcome: &mut Outcome,
    what: &str,
) -> Result<Vec<Option<InferenceReply>>> {
    let mut client = TcpClient::connect_binary(addr)?;
    let mut replies = Vec::with_capacity(expected.rows.len());
    for (row, input) in expected.rows.iter().enumerate() {
        outcome.attempted += 1;
        let seed = request_seed(expected.base, phase::CHECK, 0, row as u64);
        match client.infer(MODEL, input, seed) {
            Ok(reply) if bit_equal(&reply.logits, &expected.logits[row]) => {
                replies.push(Some(reply));
            }
            other => {
                outcome.failed += 1;
                outcome.problems.push(format!(
                    "{what} server, row {row}: reply does not match offline simulate_with ({})",
                    match other {
                        Ok(_) => "logits differ".to_string(),
                        Err(e) => e.to_string(),
                    }
                ));
                replies.push(None);
            }
        }
    }
    Ok(replies)
}

/// What one closed-loop window measured.
#[derive(Debug, Default)]
struct LoopStats {
    /// `(completion, round trip)` of every checked reply, in ns; completion
    /// counts from the start of the loop.
    replies: Vec<(u64, u64)>,
    ok: u64,
    failed: u64,
    busy: u64,
    wall_ns: u64,
}

impl LoopStats {
    /// Appends `other`, a loop that followed this one, as if it had run
    /// on from this loop's end.
    fn merge(&mut self, other: LoopStats) {
        let offset = self.wall_ns;
        self.replies.extend(
            other
                .replies
                .into_iter()
                .map(|(done, rtt)| (done + offset, rtt)),
        );
        self.ok += other.ok;
        self.failed += other.failed;
        self.busy += other.busy;
        self.wall_ns += other.wall_ns;
    }

    /// Sorted round trips.
    fn sorted_latencies(&self) -> Vec<u64> {
        let mut latencies: Vec<u64> = self.replies.iter().map(|&(_, rtt)| rtt).collect();
        latencies.sort_unstable();
        latencies
    }

    /// Replies/s, p50 and p99 round trip (µs) over the fastest quarter of
    /// the loop's whole `window_ns` slices (by completion time, ranked by
    /// their replies), with the number of slices and of round trips they
    /// pool.  The host slows the loop by a quarter for seconds at a time,
    /// and the median slice of a run flipped between its fast and slow
    /// states from run to run; the fastest slices stay clear of that, and
    /// pooling a quarter of them leaves enough round trips for a steady
    /// p99.
    fn fastest_quarter(&self, window_ns: u64) -> ([f64; 3], usize, usize) {
        let window_ns = window_ns.min(self.wall_ns).max(1);
        let count = usize::try_from(self.wall_ns / window_ns)
            .unwrap_or(1)
            .max(1);
        let mut buckets = vec![Vec::new(); count];
        for &(done, rtt) in &self.replies {
            if let Some(bucket) =
                buckets.get_mut(usize::try_from(done / window_ns).unwrap_or(count))
            {
                bucket.push(rtt);
            }
        }
        buckets.sort_by_key(|rtts| std::cmp::Reverse(rtts.len()));
        let keep = count.div_ceil(4);
        let mut pooled: Vec<u64> = buckets.into_iter().take(keep).flatten().collect();
        pooled.sort_unstable();
        let metrics = [
            pooled.len() as f64 * 1e9 / (keep as f64 * window_ns as f64),
            percentile(&pooled, 0.50) as f64 / 1e3,
            percentile(&pooled, 0.99) as f64 / 1e3,
        ];
        (metrics, keep, pooled.len())
    }
}

/// Drives `addr` with one closed-loop client for `seconds`: it sends its
/// next request only after the previous reply.
fn closed_loop(
    addr: SocketAddr,
    expected: &Expected,
    order: &[usize],
    loop_phase: u64,
    seconds: f64,
    clock: MonotonicClock,
) -> Result<LoopStats> {
    let mut tcp = TcpClient::connect_binary(addr)?;
    let start = clock.now_ns();
    let deadline_ns = start + (seconds * 1e9) as u64;
    let mut stats = LoopStats::default();
    let mut k = 0u64;
    while clock.now_ns() < deadline_ns {
        let row = order[k as usize % order.len()];
        let seed = request_seed(expected.base, loop_phase, 0, k);
        k += 1;
        let t0 = clock.now_ns();
        let result = tcp.infer(MODEL, &expected.rows[row], seed);
        let done = clock.now_ns();
        match result {
            Ok(reply) if bit_equal(&reply.logits, &expected.logits[row]) => {
                stats.ok += 1;
                stats.replies.push((done.saturating_sub(start), done - t0));
            }
            Ok(_) => stats.failed += 1,
            Err(ServeError::Busy { .. }) => {
                stats.failed += 1;
                stats.busy += 1;
            }
            Err(e) => {
                stats.failed += 1;
                if matches!(e, ServeError::Io(_)) {
                    break;
                }
            }
        }
    }
    stats.wall_ns = since(&clock, start);
    Ok(stats)
}

/// The served rows in a seed-shuffled order (Fisher–Yates).
fn shuffled_order(rows: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rows).collect();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, stream::ORDER));
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// Per-layer metrics of the wire, the server and the tracing layer; all
/// `None` off the serve workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ServeLayers {
    wire_encode_ns: Option<f64>,
    wire_decode_ns: Option<f64>,
    wire_request_bytes: Option<f64>,
    wire_reply_bytes: Option<f64>,
    server_p50_us: Option<f64>,
    server_p99_us: Option<f64>,
    queue_wait_p50_us: Option<f64>,
    queue_wait_p99_us: Option<f64>,
    batch_size_mean: Option<f64>,
    transport_p50_us: Option<f64>,
    tracing_overhead_pct: Option<f64>,
}

impl ServeLayers {
    fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("wire.encode_ns", "ns", self.wire_encode_ns),
            Metric::new("wire.decode_ns", "ns", self.wire_decode_ns),
            Metric::new("wire.request_bytes", "B", self.wire_request_bytes),
            Metric::new("wire.reply_bytes", "B", self.wire_reply_bytes),
            Metric::new("serve.server_latency_us.p50", "us", self.server_p50_us),
            Metric::new("serve.server_latency_us.p99", "us", self.server_p99_us),
            Metric::new("serve.queue_wait_us.p50", "us", self.queue_wait_p50_us),
            Metric::new("serve.queue_wait_us.p99", "us", self.queue_wait_p99_us),
            Metric::new("serve.batch_size_mean", "count", self.batch_size_mean),
            Metric::new("serve.transport_us.p50", "us", self.transport_p50_us),
            Metric::new("obs.tracing_overhead_pct", "%", self.tracing_overhead_pct),
        ]
    }
}

/// The serve-only per-layer metrics, all absent (for the sweeps).
pub(crate) fn absent_layer_metrics() -> Vec<Metric> {
    ServeLayers::default().metrics()
}

/// Mean ns per call of `f` over `items`, repeated [`WIRE_REPS`] times.
fn time_per_item<T>(
    items: &[T],
    clock: &MonotonicClock,
    mut f: impl FnMut(&T) -> Result<()>,
) -> Result<f64> {
    let start = clock.now_ns();
    for _ in 0..WIRE_REPS {
        for item in items {
            f(item)?;
        }
    }
    Ok(since(clock, start) as f64 / (WIRE_REPS * items.len()).max(1) as f64)
}

/// Times `nrsnn_wire::encode_frame` / `decode_frame` on this workload's
/// request and reply frames; checks that every frame round-trips.
fn wire_timers(
    expected: &Expected,
    replies: &[Option<InferenceReply>],
    clock: &MonotonicClock,
    layers: &mut ServeLayers,
) -> Result<()> {
    let requests: Vec<_> = expected
        .rows
        .iter()
        .enumerate()
        .map(|(row, input)| {
            request_to_frame(&Request::Infer {
                model: MODEL.to_string(),
                seed: request_seed(expected.base, phase::CHECK, 0, row as u64),
                input: input.clone(),
            })
        })
        .collect();
    let reply_frames: Vec<_> = replies
        .iter()
        .flatten()
        .map(|reply| response_to_frame(&Response::Infer(reply.clone())))
        .collect();
    let mut frames = requests.clone();
    frames.extend(reply_frames.iter().cloned());
    let encoded = frames
        .iter()
        .map(nrsnn_wire::encode_frame)
        .collect::<std::result::Result<Vec<_>, _>>()?;
    for (frame, bytes) in frames.iter().zip(&encoded) {
        if nrsnn_wire::decode_frame(bytes)? != *frame {
            return Err("a wire frame does not round-trip".into());
        }
    }
    let mean_len = |bytes: &[Vec<u8>]| {
        bytes.iter().map(Vec::len).sum::<usize>() as f64 / bytes.len().max(1) as f64
    };
    layers.wire_request_bytes = Some(mean_len(&encoded[..requests.len()]));
    layers.wire_reply_bytes = Some(mean_len(&encoded[requests.len()..]));
    layers.wire_encode_ns = Some(time_per_item(&frames, clock, |frame| {
        std::hint::black_box(nrsnn_wire::encode_frame(frame)?);
        Ok(())
    })?);
    layers.wire_decode_ns = Some(time_per_item(&encoded, clock, |bytes| {
        std::hint::black_box(nrsnn_wire::decode_frame(bytes)?);
        Ok(())
    })?);
    Ok(())
}

/// Serial traced `simulate_with` over the served rows: the stage split of
/// one request's simulation.
fn serial_profile(
    model: &ServedModel,
    expected: &Expected,
    passes: usize,
    clock: &MonotonicClock,
    outcome: &mut Outcome,
) -> Result<Profile> {
    let mut ws = SimWorkspace::new();
    ws.set_stage_tracing(true);
    let mut profile = Profile::default();
    for pass in 0..passes.max(1) {
        for (row, input) in expected.rows.iter().enumerate() {
            let seed = request_seed(expected.base, phase::PROFILE, pass as u64, row as u64);
            let mut rng = StdRng::seed_from_u64(derive_seed(model.master_seed, seed));
            let start = clock.now_ns();
            let run = model.network.simulate_with(
                input,
                model.coding.as_ref(),
                &model.config,
                model.noise.as_ref(),
                &mut rng,
                &mut ws,
            )?;
            let elapsed = since(clock, start);
            profile.record(CODING_INDEX, elapsed, ws.stage_events(), run.total_spikes);
            outcome.attempted += 1;
            if !bit_equal(ws.logits(), &expected.logits[row]) {
                outcome.failed += 1;
                outcome.problems.push(format!(
                    "traced offline simulation of row {row} changed its logits"
                ));
            }
        }
    }
    Ok(profile)
}

/// Counts a closed-loop window into the outcome.
fn account(outcome: &mut Outcome, stats: &LoopStats, what: &str) {
    outcome.attempted += stats.ok + stats.failed;
    outcome.failed += stats.failed;
    if stats.failed > 0 {
        outcome.problems.push(format!(
            "{what}: {} of {} requests failed ({} busy)",
            stats.failed,
            stats.ok + stats.failed,
            stats.busy
        ));
    }
}

/// Fetches the server's `stats` reply.
fn server_stats(addr: SocketAddr) -> Result<ServerStats> {
    Ok(TcpClient::connect_binary(addr)?.stats()?)
}

/// Runs the serve workload.
pub(crate) fn run(options: &Options, scale: &Scale, out: &mut dyn Write) -> Result<Outcome> {
    let clock = MonotonicClock::new();
    let mut outcome = Outcome::default();
    let (deployment, setup) = setup(options, scale, &clock)?;
    writeln!(
        out,
        "set-up: {} deployment(s), median {:.3} s; serving {MODEL:?} on {} (binary wire)",
        scale.setups, setup.setup_s, deployment.served.addr
    )?;

    // Check before timing: every row once, bit-equal to offline.
    let model = ModelSpec::from_binary(&deployment.model)?.build()?;
    let base = derive_seed(options.seed, stream::REQUESTS);
    let expected = Expected::compute(&model, &deployment.pipeline, scale, base, &mut outcome)?;
    let order = shuffled_order(expected.rows.len(), options.seed);
    let replies = check_server(deployment.served.addr, &expected, &mut outcome, "untraced")?;
    outcome.notes.push(format!(
        "{} rows served once and compared bit for bit with offline simulate_with",
        expected.rows.len()
    ));

    if options.trace {
        let traced = start_server(&deployment.model, true)?;
        let traced_replies = check_server(traced.addr, &expected, &mut outcome, "traced")?;
        let same = replies
            .iter()
            .zip(&traced_replies)
            .all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => bit_equal(&a.logits, &b.logits),
                _ => false,
            });
        if !same {
            outcome
                .problems
                .push("traced replies differ from untraced replies".to_string());
        }
        let profile = serial_profile(
            &model,
            &expected,
            scale.serve_profile_passes,
            &clock,
            &mut outcome,
        )?;
        if let Err(message) = profile.check_coverage() {
            outcome.problems.push(message);
        }
        let mut layers = ServeLayers::default();
        wire_timers(&expected, &replies, &clock, &mut layers)?;

        // Alternate untraced and traced windows so drift hits both alike.
        let (mut untraced, mut traced_loop) = (LoopStats::default(), LoopStats::default());
        let window = options.seconds / (2 * OVERHEAD_ROUNDS) as f64;
        for round in 0..OVERHEAD_ROUNDS {
            for traced_first in [round % 2 == 1, round % 2 == 0] {
                let (addr, sink) = if traced_first {
                    (traced.addr, &mut traced_loop)
                } else {
                    (deployment.served.addr, &mut untraced)
                };
                let loop_phase = phase::LOOP + 1 + round as u64 * 2 + u64::from(traced_first);
                let stats = closed_loop(addr, &expected, &order, loop_phase, window, clock)?;
                sink.merge(stats);
            }
        }
        account(&mut outcome, &untraced, "untraced overhead windows");
        account(&mut outcome, &traced_loop, "traced overhead windows");
        let stats = server_stats(traced.addr)?;
        traced.server.shutdown();
        deployment.served.server.shutdown();

        let client_p50_us = percentile(&traced_loop.sorted_latencies(), 0.5) as f64 / 1e3;
        let queue = stats
            .stage_latency_ns
            .iter()
            .find(|s| s.stage == "queue_wait");
        layers.server_p50_us = Some(stats.p50_latency_us as f64);
        layers.server_p99_us = Some(stats.p99_latency_us as f64);
        layers.queue_wait_p50_us = queue.map(|q| q.p50_ns as f64 / 1e3);
        layers.queue_wait_p99_us = queue.map(|q| q.p99_ns as f64 / 1e3);
        layers.batch_size_mean = Some(stats.mean_batch_size);
        layers.transport_p50_us = Some(client_p50_us - stats.p50_latency_us as f64);
        // Replies/s of the fastest quarter of each side's windows, as the
        // end-to-end run reports them.
        let untraced_rps = untraced.fastest_quarter(WINDOW_NS).0[0];
        let traced_rps = traced_loop.fastest_quarter(WINDOW_NS).0[0];
        layers.tracing_overhead_pct = Some((untraced_rps / traced_rps - 1.0) * 100.0);
        outcome.notes.push(format!(
            "tracing overhead from {OVERHEAD_ROUNDS} alternating rounds: untraced {untraced_rps:.0} \
             req/s, traced {traced_rps:.0} req/s (fastest quarter of each side's windows)"
        ));

        let mut metrics = setup.metrics();
        metrics.extend(profile.metrics());
        metrics.push(Metric::new("runtime.parallel_speedup", "x", None));
        metrics.extend(layers.metrics());
        outcome.metrics = metrics;
        return Ok(outcome);
    }

    let served: Vec<&InferenceReply> = replies.iter().flatten().collect();
    let correct = served
        .iter()
        .zip(&expected.labels)
        .filter(|(reply, &label)| reply.predicted == label)
        .count();
    let spikes: usize = served.iter().map(|r| r.total_spikes).sum();
    let rows = expected.rows.len().max(1) as f64;
    let peak_rss_mb = peak_rss_mib()?;

    let stats = closed_loop(
        deployment.served.addr,
        &expected,
        &order,
        phase::LOOP,
        options.seconds,
        clock,
    )?;
    deployment.served.server.shutdown();
    account(&mut outcome, &stats, "closed loop");
    let ([samples_per_s, latency_p50_us, latency_p99_us], kept, pooled) =
        stats.fastest_quarter(WINDOW_NS);
    outcome.notes.push(format!(
        "closed loop of one client: {} replies; metrics over the fastest {kept} of its \
         {} ms windows, {pooled} round trips ({} beyond p99)",
        stats.ok,
        WINDOW_NS.min(stats.wall_ns) / 1_000_000,
        pooled - pooled * 99 / 100
    ));
    let e2e = EndToEnd {
        setup_s: setup.setup_s,
        samples_per_s,
        latency_p50_us,
        latency_p99_us,
        accuracy_pct: correct as f64 * 100.0 / rows,
        spikes_per_inference: spikes as f64 / rows,
        peak_rss_mb,
    };
    outcome.metrics = e2e.metrics();
    Ok(outcome)
}
