//! The `offline` workload: a fixed seeded test set through
//! `Predictor::run` at batch 1, for all five schemes, f32 then int8.

use std::time::{Duration, Instant};

use sf_core::{predict_probability, FusionNet, FusionScheme, Predictor};
use sf_dataset::Sample;

use crate::fixtures::{self, SCHEMES};
use crate::report::{setup_median, Outcome};
use crate::trace::Tracer;
use crate::util::{ms, quantile};
use crate::SETUP_REPS;

/// Frames in the test set and in the calibration set.
const TEST_FRAMES: usize = 12;
const CALIB_FRAMES: usize = 8;
/// Largest mean |int8 − f32| probability difference accepted per frame.
const INT8_MEAN_TOLERANCE: f32 = 0.02;
/// Smallest share of pixels on which int8 and f32 must agree about road
/// (probability above 0.5), per frame.
const INT8_MIN_AGREEMENT: f32 = 0.95;

/// One scheme's network with its f32 and calibrated int8 predictors.
pub struct Compiled {
    pub name: &'static str,
    pub net: FusionNet,
    pub f32: Predictor,
    pub int8: Predictor,
}

/// Builds the net, compiles the f32 plan, calibrates and compiles the
/// int8 plan, and runs one warm-up frame through each.
pub fn compile(scheme: FusionScheme, name: &'static str, calib: &[&Sample]) -> Compiled {
    let net = fixtures::net(scheme);
    let mut f32 = Predictor::compile(&net);
    let profile = sf_quant::calibrate(&net, calib);
    let mut int8 = Predictor::compile_int8(&net, &profile)
        .expect("calibration covers every activation both plans quantize");
    let warm = calib[0];
    f32.run(&warm.rgb, &warm.depth)
        .expect("warm-up frame fits the net");
    int8.run(&warm.rgb, &warm.depth)
        .expect("warm-up frame fits the net");
    Compiled {
        name,
        net,
        f32,
        int8,
    }
}

pub fn workload(seed: u64, window: Duration, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let calib_set = fixtures::samples(seed ^ 0xCA1B, CALIB_FRAMES);
    let calib: Vec<&Sample> = calib_set.iter().collect();
    let test = fixtures::samples(seed, TEST_FRAMES);

    let mut times = Vec::new();
    let mut models = Vec::new();
    for _ in 0..SETUP_REPS {
        models.clear();
        let t = Instant::now();
        for (scheme, name) in SCHEMES {
            models.push(compile(scheme, name, &calib));
        }
        times.push(t.elapsed());
    }
    out.e2e("setup_s", setup_median(&times));

    let mut f32_ms = Vec::new();
    let mut int8_ms = Vec::new();
    // First-pass outputs, to hold later passes and the int8/f32 gap to.
    let mut first_f32: Vec<Vec<f32>> = Vec::new();
    let mut first_int8: Vec<Vec<f32>> = Vec::new();
    let mut int8_drift = 0usize;
    let mut passes = 0u64;
    let t0 = Instant::now();
    // Whole passes only, so every run weighs the schemes alike.
    while passes == 0 || t0.elapsed() < window {
        for (m, model) in models.iter_mut().enumerate() {
            for (int8, sink) in [(false, &mut f32_ms), (true, &mut int8_ms)] {
                for (i, s) in test.iter().enumerate() {
                    let predictor = if int8 {
                        &mut model.int8
                    } else {
                        &mut model.f32
                    };
                    let start = Instant::now();
                    let p = predictor
                        .run(&s.rgb, &s.depth)
                        .expect("test frame fits the net");
                    let end = Instant::now();
                    sink.push(ms(end - start));
                    let mode = if int8 { "int8" } else { "f32" };
                    tracer.record(
                        format!("offline.{}.{mode}", model.name),
                        passes,
                        None,
                        start,
                        end,
                    );
                    let key = m * TEST_FRAMES + i;
                    let data = p.prob.into_vec();
                    match (passes, int8) {
                        (0, false) => first_f32.push(data),
                        (0, true) => first_int8.push(data),
                        (_, true) if !fixtures::bit_equal(&first_int8[key], &data) => {
                            int8_drift += 1
                        }
                        _ => {}
                    }
                }
            }
        }
        passes += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let frames = (f32_ms.len() + int8_ms.len()) as u64;
    out.attempted = frames;
    out.succeeded = frames;
    // Latency is the f32 frame's; a median over the f32/int8 mixture
    // would sit in the gap between the two modes.
    out.e2e("p50_ms", quantile(&f32_ms, 0.5));
    out.e2e("p99_ms", quantile(&f32_ms, 0.99));
    out.e2e("rps", frames as f64 / elapsed);
    out.e2e("f32_fps", 1e3 / quantile(&f32_ms, 0.5));
    out.e2e("int8_fps", 1e3 / quantile(&int8_ms, 0.5));
    out.note(format!(
        "frames: {frames} over {passes} passes ({} schemes x {TEST_FRAMES} frames x f32+int8)",
        models.len()
    ));

    // The compiled f32 plan must reproduce the graph path bit for bit.
    let mut graph_mismatch = 0usize;
    for (m, model) in models.iter().enumerate() {
        for i in [0, TEST_FRAMES / 2, TEST_FRAMES - 1] {
            let graph = predict_probability(&model.net, &test[i]);
            if !fixtures::bit_equal(graph.data(), &first_f32[m * TEST_FRAMES + i]) {
                graph_mismatch += 1;
            }
        }
    }
    out.check(
        "plan.f32_bit_equal_to_graph",
        graph_mismatch == 0,
        format!(
            "{graph_mismatch} of {} frames differ from predict_probability",
            3 * models.len()
        ),
    );
    out.check(
        "plan.int8_reproducible",
        int8_drift == 0,
        format!("{int8_drift} int8 outputs changed between passes"),
    );
    let (mut worst_mean, mut worst_agree) = (0.0f32, 1.0f32);
    for (a, b) in first_f32.iter().zip(&first_int8) {
        let n = a.len() as f32;
        let mean = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f32>() / n;
        let agree = a
            .iter()
            .zip(b)
            .filter(|(x, y)| (**x > 0.5) == (**y > 0.5))
            .count() as f32
            / n;
        worst_mean = worst_mean.max(mean);
        worst_agree = worst_agree.min(agree);
    }
    out.check(
        "plan.int8_within_tolerance",
        worst_mean <= INT8_MEAN_TOLERANCE && worst_agree >= INT8_MIN_AGREEMENT,
        format!(
            "worst frame: mean |int8 - f32| {worst_mean:.4} (tolerance {INT8_MEAN_TOLERANCE}), \
             road agreement {worst_agree:.3} (minimum {INT8_MIN_AGREEMENT})"
        ),
    );
    out
}
