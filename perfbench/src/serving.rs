//! The `drive` (open loop) and `saturate` (closed loop) workloads against
//! an `sf-serve` fleet.
//!
//! Latency ends at fulfilment, taken as the end of the `Fleet::submit`
//! call plus the server's enqueue-to-fulfilment `Prediction::latency`.
//! That over-counts by the part of `submit` after the enqueue, never
//! under-counts, and avoids head-of-line error from the single collector
//! waiting on completions in submission order across replicas.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use sf_core::{BreakerConfig, DegradationPolicy, FusionScheme, NetworkConfig, Predictor};
use sf_scene::Rig;
use sf_serve::{
    BatchProbe, DispatchPolicy, Fleet, FleetCompletion, FleetConfig, FleetStats, Request,
    ServeConfig, ServeError, SourceId,
};
use sf_tensor::Tensor;

use crate::fixtures::{self, PoolFrame};
use crate::report::{setup_median, Outcome};
use crate::trace::Tracer;
use crate::util::{mean, ms, quantile, us, Mix};
use crate::SETUP_REPS;

/// The `drive` latency limit: one LiDAR sweep period.
const LIMIT_MS: f64 = 100.0;
/// The generator is late when its p99 submit lag exceeds this.
const MAX_LATE_MS: f64 = 25.0;
const VEHICLES: u64 = 5;
const PERIOD: Duration = Duration::from_millis(100);
const STAGGER: Duration = Duration::from_millis(20);
const MONITOR_EVERY: Duration = Duration::from_millis(50);
/// Pre-rendered frames per vehicle; the schedule cycles through them.
const POOL_FRAMES: usize = 8;
/// Requests kept outstanding by the `saturate` generator.
const OUTSTANDING: usize = 16;
/// Served outputs kept for the bit-equality check.
const CHECKED: usize = 48;
/// Source ids of the set-up warm-up requests, clear of vehicle ids.
const WARM_SOURCE_BASE: u64 = 1 << 20;

/// `(executor thread, batch index, fire time)` per `BatchProbe` call.
type ProbeLog = Arc<Mutex<Vec<(ThreadId, u64, Instant)>>>;

/// A started fleet plus what the traced run needs to attribute batches.
struct Started {
    fleet: Fleet,
    /// Executor thread of each replica, learnt from the warm-up requests.
    executors: Vec<Option<ThreadId>>,
    probes: ProbeLog,
}

/// Builds the network, starts the fleet and sends one warm-up frame to
/// each replica — the part `setup_s` times.
fn start(
    replicas: usize,
    serve: ServeConfig,
    traced: bool,
    warm: &PoolFrame,
) -> Result<Started, String> {
    let probes: ProbeLog = Arc::new(Mutex::new(Vec::new()));
    let mut serve = serve;
    if traced {
        let log = Arc::clone(&probes);
        serve.batch_probe = Some(BatchProbe::new(move |batch| {
            let now = Instant::now();
            log.lock()
                .expect("probe log poisoned")
                .push((thread::current().id(), batch, now));
        }));
    }
    let config = FleetConfig {
        replicas,
        dispatch: DispatchPolicy::ConsistentHash,
        serve,
        // Sources stay on their hashed replica while their breaker is
        // open, so the dead-sensor burst trips exactly one slot.
        route_around_open_breakers: false,
        ..FleetConfig::default()
    };
    let fleet = Fleet::start(fixtures::net(FusionScheme::AllFilterU), config)
        .map_err(|e| format!("fleet start: {e}"))?;
    let mut executors = vec![None; replicas];
    for (r, slot) in executors.iter_mut().enumerate() {
        let source = (WARM_SOURCE_BASE..WARM_SOURCE_BASE + 1024)
            .map(SourceId)
            .find(|&s| fleet.route_preview(Some(s)) == Some(r))
            .ok_or_else(|| format!("no warm-up source routes to replica {r}"))?;
        let (_, depth) = &warm.depths[0];
        let request = Request::new(warm.rgb.clone(), depth.clone()).with_source(source);
        fleet
            .submit(request)
            .and_then(FleetCompletion::wait)
            .map_err(|e| format!("warm-up on replica {r}: {e}"))?;
        *slot = probes
            .lock()
            .expect("probe log poisoned")
            .last()
            .map(|p| p.0);
    }
    Ok(Started {
        fleet,
        executors,
        probes,
    })
}

/// Starts the fleet `SETUP_REPS` times and keeps the last one.
fn start_timed(
    replicas: usize,
    serve: &ServeConfig,
    traced: bool,
    warm: &PoolFrame,
) -> Result<(Started, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            let Started { fleet, .. } = old;
            fleet.shutdown();
        }
        let t = Instant::now();
        kept = Some(start(replicas, serve.clone(), traced, warm)?);
        times.push(t.elapsed());
    }
    Ok((kept.expect("SETUP_REPS >= 1"), setup_median(&times)))
}

/// One submitted request and what became of it.
struct Rec {
    replica: usize,
    /// When the request was due (`drive`) or submitted (`saturate`).
    due: Instant,
    start: Instant,
    end: Instant,
    served: Option<Served>,
}

struct Served {
    latency: Duration,
    batch_size: usize,
    quarantined: bool,
}

impl Rec {
    fn fulfil(&self) -> Option<Instant> {
        self.served.as_ref().map(|s| self.end + s.latency)
    }

    fn latency_ms(&self) -> Option<f64> {
        self.fulfil().map(|f| ms(f - self.due))
    }
}

/// What the caller needs to re-run a checked request on a reference
/// predictor.
struct Kept {
    rgb: Tensor,
    depth: Tensor,
    prob: Tensor,
    quarantined: bool,
}

/// Counters the collector keeps while waiting on completions.
#[derive(Default)]
struct Tally {
    tag_mismatches: u64,
    latency_inconsistent: u64,
    errors: Vec<String>,
}

/// Waits on one completion and checks what can be checked immediately.
fn settle(
    completion: Result<FleetCompletion, ServeError>,
    source: SourceId,
    start: Instant,
    tally: &mut Tally,
) -> Option<(Served, Tensor)> {
    let result = completion.and_then(FleetCompletion::wait);
    let waited = Instant::now();
    match result {
        Ok(p) => {
            if p.source != Some(source) {
                tally.tag_mismatches += 1;
            }
            if start + p.latency > waited {
                tally.latency_inconsistent += 1;
            }
            Some((
                Served {
                    latency: p.latency,
                    batch_size: p.batch_size,
                    quarantined: p.quarantined.is_some(),
                },
                p.prob,
            ))
        }
        Err(e) => {
            if tally.errors.len() < 4 {
                tally.errors.push(e.to_string());
            }
            None
        }
    }
}

/// Waits until the fleet's counters reconcile (the executors update
/// replica counters just after fulfilling), bounded.
fn settled_stats(fleet: &Fleet) -> FleetStats {
    let mut stats = fleet.stats();
    for _ in 0..1000 {
        if stats.is_conserved() && stats.cross_check().is_ok() {
            break;
        }
        thread::sleep(Duration::from_millis(1));
        stats = fleet.stats();
    }
    stats
}

fn common_checks(out: &mut Outcome, stats: &FleetStats, tally: &Tally) {
    out.check(
        "fleet.conserved",
        stats.is_conserved(),
        format!(
            "submitted {} = completed {} + rejected {} + expired {} + failed {} + redirected {}",
            stats.submitted,
            stats.completed,
            stats.rejected,
            stats.expired,
            stats.failed,
            stats.redirected
        ),
    );
    out.check(
        "fleet.cross_check",
        stats.cross_check().is_ok(),
        stats
            .cross_check()
            .err()
            .unwrap_or_else(|| "router and replicas agree".into()),
    );
    out.check(
        "serve.source_tag_round_trip",
        tally.tag_mismatches == 0,
        format!("{} mismatched tags", tally.tag_mismatches),
    );
    out.check(
        "serve.latency_consistent",
        tally.latency_inconsistent == 0,
        format!(
            "{} predictions report more latency than the caller saw",
            tally.latency_inconsistent
        ),
    );
    if !tally.errors.is_empty() {
        out.note(format!("request errors (first few): {:?}", tally.errors));
    }
}

/// Re-runs each kept request on a fresh predictor of the served network
/// and requires bit-equal probabilities on the same route.
fn check_bit_equal(out: &mut Outcome, predictor: &mut Predictor, kept: &[Kept]) {
    let config = NetworkConfig::standard();
    let dead = Tensor::zeros(&[1, config.height, config.width]);
    let mut bad = 0usize;
    for k in kept {
        // A quarantined request (dead sensor, degraded depth or an open
        // breaker) ran the camera-only plan; a zero depth routes the
        // reference there too.
        let depth = if k.quarantined { &dead } else { &k.depth };
        match predictor.run(&k.rgb, depth) {
            Ok(r)
                if r.quarantined.is_some() == k.quarantined
                    && fixtures::bit_equal(r.prob.data(), k.prob.data()) => {}
            _ => bad += 1,
        }
    }
    out.check(
        "serve.bit_equal_to_predictor",
        bad == 0 && !kept.is_empty(),
        format!(
            "{bad} of {} checked requests differ from Predictor::run",
            kept.len()
        ),
    );
}

fn serve_config(breaker: Option<BreakerConfig>) -> ServeConfig {
    ServeConfig {
        policy: DegradationPolicy::CameraFallback,
        breaker,
        ..ServeConfig::default()
    }
}

/// The `drive` workload: five vehicles with triple-LiDAR rigs at 10 Hz
/// against a two-replica fleet, open loop.
///
/// `standalone` is false when a traced run borrows a short `drive` window
/// only for its serving, fleet and health layers: then a late generator
/// is reported but does not fail the run, since those layer metrics are
/// timed from submit, not from the due time.
pub fn drive(seed: u64, window: Duration, tracer: &Tracer, standalone: bool) -> Outcome {
    let mut out = Outcome::default();
    let rig = Rig::triple();
    let pool: Vec<Vec<PoolFrame>> = (0..VEHICLES)
        .map(|v| fixtures::rig_frames(&rig, seed, v, POOL_FRAMES, true))
        .collect();
    let mut mix = Mix::new(seed ^ 0xD7);
    // One mount of one vehicle goes dead for a burst of frames.
    let burst_vehicle = mix.below(VEHICLES);
    let burst_mount = mix.below(rig.len() as u64) as usize;
    let burst_start = 5 + mix.below(10);
    let burst_frames = 12;
    let burst_source = SourceId(burst_vehicle * 16 + rig.mounts()[burst_mount].source);
    let dead = Tensor::zeros(pool[0][0].depths[0].1.shape());
    let clear = pool
        .iter()
        .flatten()
        .filter(|f| f.weather.is_clear())
        .count();
    out.note(format!(
        "rig frames: {} pre-rendered, {clear} clear and the rest rain or fog",
        VEHICLES as usize * POOL_FRAMES
    ));
    let breaker = BreakerConfig {
        window: 4,
        min_samples: 4,
        trip_threshold: 0.5,
        cooldown: 4,
        success_probes: 2,
        probe_chance: 1.0,
        seed: 0xB4,
    };
    let serve = serve_config(Some(breaker));
    let (started, setup_s) = match start_timed(2, &serve, tracer.enabled(), &pool[0][0]) {
        Ok(s) => s,
        Err(e) => {
            out.check("drive.setup", false, e);
            return out;
        }
    };
    out.e2e("setup_s", setup_s);
    let fleet = &started.fleet;
    let frames_per_vehicle = (window.as_secs_f64() / PERIOD.as_secs_f64()).ceil() as u64;
    let check_every = ((frames_per_vehicle * VEHICLES * 3) as usize / CHECKED).max(1) as u64;

    let completed = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(
        Rec,
        SourceId,
        Option<Kept>,
        Result<FleetCompletion, ServeError>,
    )>();
    let mut stats_us: Vec<f64> = Vec::new();
    let mut late_ms: Vec<f64> = Vec::new();
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut backlog = 0u64;
    let mut sent = 0u64;
    let (recs, kept, tally) = thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut recs = Vec::new();
            let mut kept = Vec::new();
            let mut tally = Tally::default();
            for (mut rec, source, keep, completion) in rx {
                if let Some((served, prob)) = settle(completion, source, rec.start, &mut tally) {
                    if let Some(mut k) = keep {
                        k.prob = prob;
                        k.quarantined = served.quarantined;
                        kept.push(k);
                    }
                    rec.served = Some(served);
                }
                completed.fetch_add(1, Ordering::Relaxed);
                recs.push(rec);
            }
            (recs, kept, tally)
        });
        let mut next_stats = t0 + MONITOR_EVERY;
        for k in 0..frames_per_vehicle {
            for v in 0..VEHICLES {
                let due = t0 + PERIOD * k as u32 + STAGGER * v as u32;
                // The monitor polls on its own 50 ms clock between frames.
                loop {
                    let next = due.min(next_stats);
                    let now = Instant::now();
                    if next > now {
                        thread::sleep(next - now);
                    }
                    if Instant::now() >= next_stats {
                        let s = Instant::now();
                        let _ = fleet.stats();
                        let e = Instant::now();
                        stats_us.push(us(e - s));
                        tracer.record("serve.stats", 0, None, s, e);
                        next_stats += MONITOR_EVERY;
                    }
                    if Instant::now() >= due {
                        break;
                    }
                }
                let frame = &pool[v as usize][(k as usize) % POOL_FRAMES];
                for (mount_source, depth) in &frame.depths {
                    let source = SourceId(v * 16 + mount_source);
                    let is_dead = source == burst_source
                        && (burst_start..burst_start + burst_frames).contains(&k);
                    let depth = if is_dead { &dead } else { depth };
                    let keep = sent.is_multiple_of(check_every).then(|| Kept {
                        rgb: frame.rgb.clone(),
                        depth: depth.clone(),
                        prob: Tensor::zeros(&[1]),
                        quarantined: false,
                    });
                    let request =
                        Request::new(frame.rgb.clone(), depth.clone()).with_source(source);
                    let start = Instant::now();
                    let completion = fleet.submit(request);
                    let end = Instant::now();
                    late_ms.push(ms(start.saturating_duration_since(due)));
                    let replica = completion.as_ref().map_or(usize::MAX, |c| c.replica());
                    let rec = Rec {
                        replica,
                        due,
                        start,
                        end,
                        served: None,
                    };
                    sent += 1;
                    tx.send((rec, source, keep, completion))
                        .expect("collector outlives the generator");
                }
            }
        }
        backlog = sent - completed.load(Ordering::Relaxed);
        drop(tx);
        collector.join().expect("collector thread panicked")
    });

    let stats = settled_stats(fleet);
    summarize(&mut out, &recs, t0, Some(LIMIT_MS));
    let late_p99 = quantile(&late_ms, 0.99);
    out.note(format!(
        "generator: p99 lateness {late_p99:.3} ms, backlog at window end {backlog} requests, \
         {} stats polls",
        stats_us.len()
    ));
    out.check(
        "drive.generator_on_schedule",
        late_p99 <= MAX_LATE_MS || !standalone,
        format!("p99 submit lateness {late_p99:.3} ms (limit {MAX_LATE_MS} ms)"),
    );
    common_checks(&mut out, &stats, &tally);
    let trips: u64 = stats.replicas.iter().map(|r| r.breaker_trips).sum();
    let burst_tripped = stats.replicas.iter().any(|r| {
        r.breaker_slots
            .iter()
            .any(|s| s.source == Some(burst_source) && s.trips > 0)
    });
    // Four dead frames fill the breaker window, so a burst that starts
    // at least four frames before the end must trip its own slot.
    let burst_in_window = burst_start + 4 <= frames_per_vehicle;
    out.check(
        "health.breaker_follows_fault_schedule",
        !burst_in_window || burst_tripped,
        format!(
            "dead source {} from frame {burst_start} for {burst_frames} frames; {trips} trips",
            burst_source.0
        ),
    );
    if tracer.enabled() {
        serve_layers(&mut out, tracer, &recs, &started, &stats, &stats_us);
    }
    let Started { fleet, .. } = started;
    let (net, _) = fleet.shutdown();
    let mut reference = Predictor::compile(&net).with_policy(DegradationPolicy::CameraFallback);
    check_bit_equal(&mut out, &mut reference, &kept);
    out
}

/// The `saturate` workload: one generator keeps 16 requests outstanding
/// against a one-replica fleet, closed loop.
pub fn saturate(seed: u64, window: Duration, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let rig = Rig::single();
    let pool: Vec<PoolFrame> = (0..4)
        .flat_map(|v| fixtures::rig_frames(&rig, seed, v, POOL_FRAMES, false))
        .collect();
    let serve = serve_config(None);
    let (started, setup_s) = match start_timed(1, &serve, tracer.enabled(), &pool[0]) {
        Ok(s) => s,
        Err(e) => {
            out.check("saturate.setup", false, e);
            return out;
        }
    };
    out.e2e("setup_s", setup_s);
    let fleet = &started.fleet;
    let mut tally = Tally::default();
    let mut recs = Vec::new();
    let mut kept = Vec::new();
    let mut inflight: VecDeque<(Rec, SourceId, bool, Result<FleetCompletion, ServeError>)> =
        VecDeque::new();
    let mut sent = 0usize;
    let mut submit = |inflight: &mut VecDeque<_>| {
        let i = sent % pool.len();
        let frame = &pool[i];
        let source = SourceId(i as u64);
        let request =
            Request::new(frame.rgb.clone(), frame.depths[0].1.clone()).with_source(source);
        let start = Instant::now();
        let completion = fleet.submit(request);
        let end = Instant::now();
        let rec = Rec {
            replica: 0,
            due: start,
            start,
            end,
            served: None,
        };
        inflight.push_back((
            rec,
            source,
            sent.is_multiple_of(16) && sent / 16 < CHECKED,
            completion,
        ));
        sent += 1;
    };
    let t0 = Instant::now();
    for _ in 0..OUTSTANDING {
        submit(&mut inflight);
    }
    let stop = t0 + window;
    while let Some((mut rec, source, keep, completion)) = inflight.pop_front() {
        if let Some((served, prob)) = settle(completion, source, rec.start, &mut tally) {
            if keep {
                let frame = &pool[source.0 as usize];
                kept.push(Kept {
                    rgb: frame.rgb.clone(),
                    depth: frame.depths[0].1.clone(),
                    prob,
                    quarantined: served.quarantined,
                });
            }
            rec.served = Some(served);
        }
        recs.push(rec);
        if Instant::now() < stop {
            submit(&mut inflight);
        }
    }
    let stats = settled_stats(fleet);
    summarize(&mut out, &recs, t0, None);
    common_checks(&mut out, &stats, &tally);
    if tracer.enabled() {
        // `saturate` has no dashboard; time a burst of stats reads on the
        // fleet as the window left it.
        let mut stats_us = Vec::new();
        for _ in 0..20 {
            let s = Instant::now();
            let _ = fleet.stats();
            let e = Instant::now();
            stats_us.push(us(e - s));
            tracer.record("serve.stats", 0, None, s, e);
        }
        serve_layers(&mut out, tracer, &recs, &started, &stats, &stats_us);
    }
    let Started { fleet, .. } = started;
    let (net, _) = fleet.shutdown();
    let mut reference = Predictor::compile(&net).with_policy(DegradationPolicy::CameraFallback);
    check_bit_equal(&mut out, &mut reference, &kept);
    out
}

/// Counts and end-to-end latency/throughput from the request records.
fn summarize(out: &mut Outcome, recs: &[Rec], t0: Instant, limit_ms: Option<f64>) {
    let lat: Vec<f64> = recs.iter().filter_map(Rec::latency_ms).collect();
    let over = limit_ms.map_or(0, |l| lat.iter().filter(|&&x| x > l).count() as u64);
    let errors = recs.iter().filter(|r| r.served.is_none()).count() as u64;
    out.attempted = recs.len() as u64;
    out.failed = errors + over;
    out.succeeded = out.attempted - out.failed;
    let last = recs.iter().filter_map(Rec::fulfil).max().unwrap_or(t0);
    let rps = lat.len() as f64 / (last - t0).as_secs_f64();
    out.e2e("p50_ms", quantile(&lat, 0.5));
    out.e2e("p99_ms", quantile(&lat, 0.99));
    out.e2e("rps", rps);
    out.note(format!(
        "requests: attempted {} succeeded {} failed {} (errors {errors}, over limit {over}); \
         latency samples {}",
        out.attempted,
        out.succeeded,
        out.failed,
        lat.len()
    ));
}

/// Per-layer serving metrics. Each replica's executor takes requests in
/// the order they were enqueued, so its `k`-th batch holds the next
/// `batch_size` requests routed to it; the `BatchProbe` call tagged with
/// that replica's executor thread marks when the batch started.
fn serve_layers(
    out: &mut Outcome,
    tracer: &Tracer,
    recs: &[Rec],
    started: &Started,
    stats: &FleetStats,
    stats_us: &[f64],
) {
    let probes = started.probes.lock().expect("probe log poisoned").clone();
    let mut queue_ms = Vec::new();
    let mut exec_ms = Vec::new();
    let mut occupancy = Vec::new();
    let mut unmatched = 0usize;
    for (r, executor) in started.executors.iter().enumerate() {
        let fires: Vec<Instant> = probes
            .iter()
            .filter(|p| Some(p.0) == *executor && p.1 > 0)
            .map(|p| p.2)
            .collect();
        let mine: Vec<&Rec> = recs
            .iter()
            .filter(|x| x.replica == r && x.served.is_some())
            .collect();
        let mut i = 0usize;
        for (b, &fire) in fires.iter().enumerate() {
            let Some(first) = mine.get(i) else {
                unmatched += 1;
                break;
            };
            let size = first.served.as_ref().map_or(1, |s| s.batch_size).max(1);
            let group = &mine[i..(i + size).min(mine.len())];
            i += size;
            occupancy.push(group.len() as f64);
            let batch_end = group
                .iter()
                .filter_map(|x| x.fulfil())
                .max()
                .unwrap_or(fire);
            tracer.record(
                "serve.batch",
                ((r as u64) << 32) | b as u64,
                None,
                fire,
                batch_end,
            );
            for (k, x) in group.iter().enumerate() {
                let fulfil = x.fulfil().expect("grouped requests were served");
                if fire < x.start || x.served.as_ref().map(|s| s.batch_size) != Some(size) {
                    unmatched += 1;
                    continue;
                }
                queue_ms.push(ms(fire - x.start));
                exec_ms.push(ms(fulfil.saturating_duration_since(fire)));
                let id = (((r as u64) << 32) | b as u64) << 8 | k as u64;
                let root = tracer.record("serve.request", id, None, x.due, fulfil);
                if x.start > x.due {
                    tracer.record("drive.late", id, root, x.due, x.start);
                }
                tracer.record("serve.submit", id, root, x.start, x.end);
                tracer.record("serve.queue_wait", id, root, x.start, fire);
                tracer.record("serve.execute", id, root, fire, fulfil);
            }
        }
        if i != mine.len() {
            unmatched += 1;
        }
    }
    out.check(
        "trace.batches_attributed",
        unmatched == 0,
        format!("{unmatched} batch/request attribution mismatches"),
    );
    let submit_us: Vec<f64> = recs.iter().map(|x| us(x.end - x.start)).collect();
    out.layer("serve.queue_wait_ms.p50", quantile(&queue_ms, 0.5));
    out.layer("serve.queue_wait_ms.p99", quantile(&queue_ms, 0.99));
    out.layer("serve.execute_ms.p50", quantile(&exec_ms, 0.5));
    out.layer("serve.execute_ms.p99", quantile(&exec_ms, 0.99));
    out.layer("serve.batch_occupancy", mean(&occupancy));
    out.layer("serve.submit_us.p50", quantile(&submit_us, 0.5));
    out.layer("serve.submit_us.p99", quantile(&submit_us, 0.99));
    out.layer("serve.stats_us.p50", quantile(stats_us, 0.5));
    out.layer("serve.stats_us.max", quantile(stats_us, 1.0));
    // Warm-up legs (one per replica) are set-up, not traffic.
    let legs: Vec<f64> = stats
        .replicas
        .iter()
        .map(|r| r.submitted.saturating_sub(1) as f64)
        .collect();
    let total: f64 = legs.iter().sum();
    out.layer(
        "fleet.replica_share_max",
        legs.iter().cloned().fold(0.0, f64::max) / total.max(1.0),
    );
    out.layer("fleet.redirected", stats.redirected as f64);
    let served: Vec<&Served> = recs.iter().filter_map(|x| x.served.as_ref()).collect();
    let quarantined = served.iter().filter(|s| s.quarantined).count();
    out.layer(
        "health.quarantine_share",
        quarantined as f64 / served.len().max(1) as f64,
    );
    out.layer(
        "health.breaker_trips",
        stats.replicas.iter().map(|r| r.breaker_trips).sum::<u64>() as f64,
    );
    out.check(
        "fleet.no_redirects",
        stats.redirected == 0,
        format!("{} redirected legs", stats.redirected),
    );
}
