//! The per-layer sweep every traced run makes after its workload window:
//! it times calls into each layer's public functions and hooks, records
//! them as spans, and derives the per-layer metrics from those spans.

use std::time::Instant;

use sf_autograd::Graph;
use sf_core::{
    fd_loss, CompiledPlan, DegradationPolicy, FusionScheme, HealthThresholds, NetworkConfig,
    PlanMode,
};
use sf_dataset::{Batch, Sample};
use sf_nn::{Mode, Optimizer, Parameterized, Sgd};
use sf_tensor::int8::{matmul_i8_into, quantize_i8};
use sf_tensor::{matmul_into, scratch, Tensor, TensorRng};

use crate::fixtures::{self, batch_of_one, SCHEMES};
use crate::offline;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::train::BATCH;
use crate::util::median;

/// Repetitions per per-op plan profile.
const OP_REPS: usize = 40;
/// Repetitions per scheme frame timing.
const SCHEME_REPS: usize = 16;
/// The per-op self times of one frame must sum to the untraced frame
/// time (after removing the observer overhead) within this share.
const OP_SUM_TOLERANCE: f64 = 0.2;

fn is_conv(label: &str) -> bool {
    label.ends_with(".conv")
        || label.ends_with(".d2r")
        || label.ends_with(".r2d")
        || label == "head"
}

/// Times one observed frame of `plan`, recording the frame span and one
/// child span per op, cut at consecutive observer calls. The first two
/// observer calls report the plan inputs, so op `j` runs between calls
/// `j + 1` and `j + 2`.
fn observed_frame(
    tracer: &Tracer,
    plan: &mut CompiledPlan,
    mode: &str,
    rep: u64,
    rgb: &Tensor,
    depth: &Tensor,
) {
    let mut marks: Vec<(Instant, String)> = Vec::with_capacity(48);
    let start = Instant::now();
    let probs = plan
        .run_batch_observed(rgb, Some(depth), &mut |label, _| {
            marks.push((Instant::now(), label.to_owned()))
        })
        .expect("sweep frame fits the plan");
    let end = Instant::now();
    scratch::recycle(probs.into_vec());
    let root = tracer.record(format!("plan.{mode}.frame"), rep, None, start, end);
    for pair in marks.windows(2).skip(1) {
        let (from, (to, label)) = (pair[0].0, &pair[1]);
        let name = if is_conv(label) {
            format!("plan.{mode}.{label}")
        } else {
            format!("plan.{mode}.other")
        };
        tracer.record(name, rep, root, from, *to);
    }
}

fn timed<R>(tracer: &Tracer, name: &str, id: u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    tracer.record(name, id, None, start, Instant::now());
    r
}

pub fn sweep(seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let calib_set = fixtures::samples(seed ^ 0xCA1B, 8);
    let calib: Vec<&Sample> = calib_set.iter().collect();
    let frames = fixtures::samples(seed, 8);
    let net = fixtures::net(FusionScheme::AllFilterU);

    // sf-quant: calibration, the int8 part of `offline` set-up.
    let mut profile = None;
    for rep in 0..3 {
        profile = Some(timed(tracer, "quant.calibrate", rep, || {
            sf_quant::calibrate(&net, &calib)
        }));
    }
    let profile = profile.expect("calibrated at least once");
    out.layer(
        "quant.calibrate_ms",
        median(&tracer.durations_us("quant.calibrate")) / 1e3,
    );

    // sf-core::plan: per-op self time at batch 1 for AU, f32 and int8.
    let mut plans = [
        ("f32", CompiledPlan::compile(&net, PlanMode::Fused)),
        (
            "int8",
            CompiledPlan::compile_int8(&net, &profile, PlanMode::Int8)
                .expect("calibration covers the fused plan"),
        ),
    ];
    let inputs: Vec<(Tensor, Tensor)> = frames
        .iter()
        .map(|s| (batch_of_one(&s.rgb), batch_of_one(&s.depth)))
        .collect();
    let macs = net.cost().macs as f64;
    for rep in 0..OP_REPS as u64 {
        let (rgb, depth) = &inputs[rep as usize % inputs.len()];
        for (mode, plan) in plans.iter_mut() {
            let probs = timed(tracer, &format!("plan.{mode}.untraced"), rep, || {
                plan.run_batch(rgb, Some(depth))
                    .expect("sweep frame fits the plan")
            });
            scratch::recycle(probs.into_vec());
            observed_frame(tracer, plan, mode, rep, rgb, depth);
        }
    }
    let mut op_labels: Vec<String> = Vec::new();
    plans[0]
        .1
        .run_batch_observed(&inputs[0].0, Some(&inputs[0].1), &mut |label, _| {
            if is_conv(label) {
                op_labels.push(label.to_owned())
            }
        })
        .expect("sweep frame fits the plan");
    for (mode, _) in &plans {
        for label in &op_labels {
            let name = format!("plan.{mode}.{label}");
            out.layer(format!("{name}.us"), median(&tracer.durations_us(&name)));
        }
        let other = format!("plan.{mode}.other");
        out.layer(
            format!("{other}.us"),
            median(&tracer.summed_by_id(|n| n == other)),
        );
        let prefix = format!("plan.{mode}.");
        let conv_us =
            median(&tracer.summed_by_id(|n| n.strip_prefix(&prefix).is_some_and(is_conv)));
        out.layer(
            format!("plan.{mode}.conv_gmacs_per_s"),
            macs / conv_us / 1e3,
        );

        // Tracing overhead at op level, and whether the op self times
        // account for the untraced frame.
        let untraced = median(&tracer.durations_us(&format!("plan.{mode}.untraced")));
        let traced = median(&tracer.durations_us(&format!("plan.{mode}.frame")));
        let ops = median(&tracer.summed_by_id(|n| {
            n.strip_prefix(&prefix)
                .is_some_and(|rest| rest != "frame" && rest != "untraced")
        }));
        let overhead = traced - untraced;
        let gap = (ops - overhead - untraced) / untraced;
        out.note(format!(
            "plan {mode} AU b1: untraced frame {untraced:.1} us, traced {traced:.1} us \
             (overhead {overhead:.1} us), sum of op self times {ops:.1} us, \
             sum minus overhead vs untraced {:+.1}%",
            gap * 100.0
        ));
        out.check(
            &format!("trace.{mode}_op_times_sum_to_frame"),
            gap.abs() <= OP_SUM_TOLERANCE,
            format!(
                "{:+.1}% (tolerance {:.0}%)",
                gap * 100.0,
                OP_SUM_TOLERANCE * 100.0
            ),
        );
    }

    // Whole frames for the five schemes, the wall-clock twin of Fig. 7.
    let calib4: Vec<&Sample> = calib.iter().take(4).copied().collect();
    let mut au = None;
    for (scheme, name) in SCHEMES {
        let mut model = offline::compile(scheme, name, &calib4);
        for rep in 0..SCHEME_REPS as u64 {
            let s = &frames[rep as usize % frames.len()];
            for (mode, predictor) in [("f32", &mut model.f32), ("int8", &mut model.int8)] {
                timed(tracer, &format!("plan.{name}.{mode}.frame"), rep, || {
                    predictor
                        .run(&s.rgb, &s.depth)
                        .expect("sweep frame fits the net")
                });
            }
        }
        let cost = model.net.cost();
        let mut line = format!(
            "fig7 {name:<8}: {:>9} MACs {:>7} params",
            cost.macs, cost.params
        );
        for mode in ["f32", "int8"] {
            let us = median(&tracer.durations_us(&format!("plan.{name}.{mode}.frame")));
            out.layer(format!("plan.{name}.{mode}.frame_us"), us);
            line.push_str(&format!("  {mode} {us:>8.1} us/frame"));
        }
        out.note(line);
        if scheme == FusionScheme::AllFilterU {
            au = Some(model);
        }
    }

    // sf-runtime pool use around b1 and b8 plan runs, and b8 per-image time.
    let mut au = au.expect("AU is one of the five schemes");
    let rgb8: Vec<&Tensor> = frames.iter().map(|s| &s.rgb).collect();
    let depth8: Vec<&Tensor> = frames.iter().map(|s| &s.depth).collect();
    let runs = 8u64;
    let before = sf_runtime::pool_stats();
    for rep in 0..runs {
        let s = &frames[rep as usize % frames.len()];
        au.f32
            .run(&s.rgb, &s.depth)
            .expect("sweep frame fits the net");
    }
    let b1 = sf_runtime::pool_stats() - before;
    let before = sf_runtime::pool_stats();
    for rep in 0..runs {
        timed(tracer, "plan.b8.f32", rep, || {
            au.f32
                .run_slots(&rgb8, &depth8)
                .expect("sweep batch fits the net")
        });
    }
    let b8 = sf_runtime::pool_stats() - before;
    out.layer(
        "plan.f32.b8.image_us",
        median(&tracer.durations_us("plan.b8.f32")) / BATCH as f64,
    );
    out.layer(
        "runtime.pool_batches_per_frame.b1",
        b1.batches as f64 / runs as f64,
    );
    out.layer(
        "runtime.pool_tasks_per_frame.b1",
        b1.tasks as f64 / runs as f64,
    );
    out.layer(
        "runtime.pool_batches_per_frame.b8",
        b8.batches as f64 / runs as f64,
    );
    out.layer(
        "runtime.pool_tasks_per_frame.b8",
        b8.tasks as f64 / runs as f64,
    );

    // sf-tensor kernels at the shapes the plan uses.
    for rep in 0..200 {
        let stacked = timed(tracer, "tensor.stack8", rep, || {
            Tensor::stack_refs(&rgb8).expect("frames share a shape")
        });
        scratch::recycle(stacked.into_vec());
    }
    out.layer(
        "tensor.stack8_us",
        median(&tracer.durations_us("tensor.stack8")),
    );
    // dec4.conv, the largest conv: c0 -> c0 channels, 3x3, at full
    // resolution, as an [m x k] by [k x n] im2col matmul.
    let config = NetworkConfig::standard();
    let (m, k, n) = (
        config.stage_channels[0],
        config.stage_channels[0] * 9,
        config.width * config.height,
    );
    let mut rng = TensorRng::seed_from(seed);
    let a = rng.uniform(&[m * k], -1.0, 1.0);
    let b = rng.uniform(&[k * n], 0.0, 1.0);
    let mut c = vec![0.0f32; m * n];
    let (mut qa, mut qb) = (vec![0i8; m * k], vec![0i8; k * n]);
    quantize_i8(a.data(), 1.0 / 127.0, &mut qa);
    quantize_i8(b.data(), 1.0 / 127.0, &mut qb);
    let mut qc = vec![0i32; m * n];
    for rep in 0..100 {
        c.fill(0.0);
        timed(tracer, "tensor.matmul_dec4", rep, || {
            matmul_into(a.data(), b.data(), &mut c, m, k, n)
        });
        qc.fill(0);
        timed(tracer, "tensor.matmul_i8_dec4", rep, || {
            matmul_i8_into(&qa, &qb, &mut qc, m, k, n)
        });
    }
    std::hint::black_box((&c, &qc));
    out.layer(
        "tensor.matmul_dec4_us",
        median(&tracer.durations_us("tensor.matmul_dec4")),
    );
    out.layer(
        "tensor.matmul_i8_dec4_us",
        median(&tracer.durations_us("tensor.matmul_i8_dec4")),
    );

    // sf-core::health: depth triage per frame.
    let thresholds = HealthThresholds::default();
    let policy = DegradationPolicy::CameraFallback;
    let dead = Tensor::zeros(frames[0].depth.shape());
    for rep in 0..400u64 {
        let d = if rep % 8 == 7 {
            &dead
        } else {
            &frames[rep as usize % 8].depth
        };
        let verdict = timed(tracer, "health.triage", rep, || {
            policy.quarantine_depth(d, &thresholds)
        });
        std::hint::black_box(verdict);
    }
    out.layer(
        "health.triage_us",
        median(&tracer.durations_us("health.triage")),
    );

    train_step_split(seed, tracer, out);
    out.layer(
        "tensor.scratch_peak_bytes",
        scratch::pool_stats().peak_bytes as f64,
    );
}

/// One optimizer step composed from the public calls `sf_core::train`
/// makes, each timed as a child of the step.
fn train_step_split(seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let set = fixtures::samples(seed ^ 0x7A1, BATCH);
    let samples: Vec<&Sample> = set.iter().collect();
    let mut net = fixtures::net(FusionScheme::AllFilterU);
    let mut optimizer = Sgd::new(0.02).with_momentum(0.9);
    let alpha = 0.3f32;
    for rep in 0..6u64 {
        let t0 = Instant::now();
        let batch = Batch::from_samples(&samples);
        let t1 = Instant::now();
        let mut g = Graph::new();
        let rgb = g.leaf(batch.rgb.clone());
        let depth = g.leaf(batch.depth.clone());
        let fwd = net.forward(&mut g, rgb, depth, Mode::Train);
        let t2 = Instant::now();
        let mut total = g.bce_with_logits(fwd.logits, &batch.gt);
        let t3 = Instant::now();
        let stages = fwd.fusion_pairs.len().max(1) as f32;
        for &(r, d) in &fwd.fusion_pairs {
            let fd = fd_loss(&mut g, r, d);
            let weighted = g.scale(fd, alpha / stages);
            total = g.add(total, weighted);
        }
        let t4 = Instant::now();
        g.backward(total);
        net.collect_grads(&g);
        let t5 = Instant::now();
        optimizer.step(&mut net);
        let t6 = Instant::now();
        let loss = g.value(total).at(&[]);
        drop(g);
        // The first step warms the arena and is not reported.
        if rep == 0 {
            continue;
        }
        let root = tracer.record("train.step", rep, None, t0, t6);
        tracer.record("train.batch", rep, root, t0, t1);
        tracer.record("train.forward", rep, root, t1, t2);
        tracer.record("train.fd_loss", rep, root, t3, t4);
        tracer.record("train.backward", rep, root, t4, t5);
        tracer.record("train.optim", rep, root, t5, t6);
        if !loss.is_finite() {
            out.check(
                "train.split_step_finite",
                false,
                format!("loss {loss} at step {rep}"),
            );
        }
    }
    for part in ["batch", "forward", "fd_loss", "backward", "optim"] {
        let d = tracer.durations_us(&format!("train.{part}"));
        out.layer(format!("train.{part}_ms"), median(&d) / 1e3);
    }
}
