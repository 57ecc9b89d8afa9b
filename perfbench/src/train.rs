//! The `train` workload: `sf_core::train` with the FD loss (α = 0.3) at
//! the standard resolution and batch 8, one epoch of four optimizer steps
//! per call.

use std::time::{Duration, Instant};

use sf_core::{train, FusionNet, FusionScheme, TrainConfig};
use sf_dataset::Sample;

use crate::fixtures;
use crate::report::{setup_median, Outcome};
use crate::trace::Tracer;
use crate::util::{ms, quantile};
use crate::SETUP_REPS;

pub const BATCH: usize = 8;
/// Batches in the fixed sample set: each call trains one epoch over all
/// of them, so the per-epoch work `train` does (parameter snapshot,
/// optimizer build, shuffle) is spread over this many steps, as it is in
/// a real run.
const BATCHES: usize = 4;

fn config(call: u64) -> TrainConfig {
    // A fresh shuffle/flip seed per call keeps batches and augmentation
    // varied.
    TrainConfig::standard()
        .with_alpha(0.3)
        .with_batch_size(BATCH)
        .with_epochs(1)
        .with_seed(call)
}

/// One epoch over `samples` (one optimizer step per `BATCH` of them);
/// `Err` when a loss is non-finite or training diverged.
fn epoch(net: &mut FusionNet, samples: &[&Sample], n: u64) -> Result<(), String> {
    let report = train(net, samples, &config(n));
    let finite = report
        .seg_loss
        .iter()
        .chain(&report.fd_loss)
        .all(|l| l.is_finite());
    if report.diverged || !finite {
        return Err(format!(
            "step {n}: diverged {} seg {:?} fd {:?}",
            report.diverged, report.seg_loss, report.fd_loss
        ));
    }
    Ok(())
}

/// Builds the network and runs one warm-up step on one batch (the part
/// `setup_s` times).
fn start(warm: &[&Sample]) -> Result<FusionNet, String> {
    let mut net = fixtures::net(FusionScheme::AllFilterU);
    epoch(&mut net, warm, u64::MAX)?;
    Ok(net)
}

pub fn workload(seed: u64, window: Duration, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let set = fixtures::samples(seed ^ 0x7A1, BATCH * BATCHES);
    let samples: Vec<&Sample> = set.iter().collect();

    let mut times = Vec::new();
    let mut net = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        match start(&samples[..BATCH]) {
            Ok(n) => net = Some(n),
            Err(e) => {
                out.check("train.setup", false, e);
                return out;
            }
        }
        times.push(t.elapsed());
    }
    out.e2e("setup_s", setup_median(&times));
    let mut net = net.expect("SETUP_REPS >= 1");

    // Wall time per optimizer step: each call's time over its steps.
    let mut step_ms = Vec::new();
    let mut errors = Vec::new();
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t0.elapsed() < window {
        let start = Instant::now();
        let result = epoch(&mut net, &samples, calls);
        let end = Instant::now();
        tracer.record("train.call", calls, None, start, end);
        match result {
            Ok(()) => step_ms.push(ms(end - start) / BATCHES as f64),
            Err(e) => errors.push(e),
        }
        calls += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let steps = calls * BATCHES as u64;
    out.attempted = steps;
    out.failed = errors.len() as u64 * BATCHES as u64;
    out.succeeded = steps - out.failed;
    out.e2e("step_ms", quantile(&step_ms, 0.5));
    out.e2e("p50_ms", quantile(&step_ms, 0.5));
    out.e2e("p99_ms", quantile(&step_ms, 0.99));
    out.e2e("rps", steps as f64 / elapsed);
    out.note(format!(
        "steps: {steps} of batch {BATCH} in {calls} calls of {BATCHES}; {} calls failed",
        errors.len()
    ));
    out.check(
        "train.finite_and_not_diverged",
        errors.is_empty(),
        errors
            .first()
            .cloned()
            .unwrap_or_else(|| "every loss finite".into()),
    );
    out
}
