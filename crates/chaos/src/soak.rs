//! Long-haul soak harness: an endless seeded scenario stream against a
//! replica fleet.
//!
//! Where the scene-list harnesses ([`crate::run`] / [`crate::run_fleet`])
//! prove the stack survives short, hand-picked fault schedules, the soak
//! harness proves it survives *time*: thousands of scene-clock frames of
//! weather fronts rolling through, occluder traffic wrapping the
//! corridor, and per-source sensor fault bursts — all rendered by the
//! real [`sf_scene`] pipeline through a multi-LiDAR [`Rig`], submitted
//! closed-loop to a [`Fleet`], and checked window by window:
//!
//! 1. **Conservation every window** — at each window boundary the fleet
//!    is quiescent and `submitted == completed + rejected + expired +
//!    failed + redirected`, plus the router-vs-replica cross-check.
//! 2. **Bounded memory** — the run's scratch-arena high-water mark must
//!    plateau: the final peak is already reached in the first quarter of
//!    the run. Monotonic growth here is a leak the conservation counters
//!    cannot see. The mark comes from a [`sf_tensor::scratch::Ledger`]
//!    attached to the driving thread and the fleet's executors, so other
//!    scratch users in the same process do not move it.
//! 3. **Breaker schedule** — exactly the sources given fault bursts trip
//!    their per-source circuit breakers, and every tripped breaker has
//!    recovered (closed) by the end of the run; burst-free sources never
//!    trip.
//! 4. **Bit-identical replay** — two runs of the same config produce the
//!    same [`SoakReport::fingerprint`] (wall-clock and scratch values are
//!    excluded; everything routed, served and tripped is included).
//!
//! # Examples
//!
//! ```
//! use sf_chaos::SoakConfig;
//!
//! let config = SoakConfig::smoke().with_seed(11);
//! let report = sf_chaos::run_soak(&config).unwrap();
//! assert!(report.stats.is_conserved());
//! assert!(report.source_trips.values().sum::<u64>() >= 1);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use sf_core::{
    BreakerConfig, BreakerState, DegradationPolicy, FusionNet, FusionScheme, NetworkConfig,
};
use sf_dataset::RigFrame;
use sf_scene::{Lighting, Occluder, PinholeCamera, Rig, RoadCategory, SceneBuilder, Weather};
use sf_serve::{
    Backpressure, DispatchPolicy, Fleet, FleetConfig, FleetStats, Request, ServeConfig, ServeError,
    SourceId,
};
use sf_tensor::Tensor;

/// A weather change at a scene-clock frame: from `frame` on, the stream
/// renders under `weather` (until a later front takes over).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherFront {
    /// First frame rendered under this front's weather.
    pub frame: u64,
    /// The weather the front brings.
    pub weather: Weather,
}

/// A per-source sensor outage: for `frames` frames starting at `frame`,
/// the mount tagged `source` submits all-zero depth (a dead sensor), so
/// its slot breaker must trip — and recover once the burst passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBurst {
    /// The [`SourceId`] whose sensor dies.
    pub source: u64,
    /// First dead frame.
    pub frame: u64,
    /// Length of the outage in frames.
    pub frames: u64,
}

impl FaultBurst {
    fn active(&self, frame: u64) -> bool {
        frame >= self.frame && frame < self.frame + self.frames
    }
}

/// A seeded long-haul scenario: the scene, the rig, the schedules, and
/// the fleet shape to drive with them.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Master seed: the scene, occluder convoy, per-mount scan streams
    /// and routing scores all derive from it.
    pub seed: u64,
    /// Scene-clock frames to run.
    pub frames: u64,
    /// Frames per assertion window (conservation + cross-check at every
    /// window boundary).
    pub window: u64,
    /// Fleet replicas.
    pub replicas: usize,
    /// The multi-LiDAR rig; each mount becomes its own [`SourceId`]
    /// stream at the fleet.
    pub rig: Rig,
    /// Moving occluder vehicles in the scene.
    pub occluders: usize,
    /// Weather schedule, sorted by frame; frames before the first front
    /// are clear.
    pub fronts: Vec<WeatherFront>,
    /// Per-source dead-sensor bursts.
    pub bursts: Vec<FaultBurst>,
    /// Per-replica batch-size bound.
    pub max_batch: usize,
    /// Per-replica queue capacity (must cover one frame's rig fan-out).
    pub queue_capacity: usize,
    /// Per-source circuit breaker bank on every replica.
    pub breaker: BreakerConfig,
    /// Depth densification iterations per mount image.
    pub fill_iterations: usize,
}

impl SoakConfig {
    /// The full long-haul recipe: 2000 frames, a 3-mount rig, four
    /// weather fronts and two fault bursts on the left-pod source.
    pub fn full() -> SoakConfig {
        let frames = 2000;
        SoakConfig {
            seed: 0x50A4_0001 ^ 0x2022,
            frames,
            window: 200,
            replicas: 3,
            // The full ray budget is wasted on a 48x16 serving frame;
            // trimming it keeps the long haul minutes-scale without
            // changing any code path.
            rig: Rig::triple().with_resolution(24, 72),
            occluders: 3,
            fronts: vec![
                WeatherFront {
                    frame: frames / 4,
                    weather: Weather::rain(0.5),
                },
                WeatherFront {
                    frame: frames / 2,
                    weather: Weather::fog(0.8),
                },
                WeatherFront {
                    frame: 3 * frames / 4,
                    weather: Weather::snow(0.7),
                },
            ],
            bursts: vec![
                // Early burst: the scratch pool must already be at its
                // final size before the plateau checkpoint, and the
                // breaker must trip and recover long before shutdown.
                FaultBurst {
                    source: 1,
                    frame: frames / 10,
                    frames: 12,
                },
                FaultBurst {
                    source: 1,
                    frame: 3 * frames / 5,
                    frames: 12,
                },
            ],
            max_batch: 4,
            queue_capacity: 16,
            breaker: BreakerConfig {
                window: 4,
                min_samples: 4,
                trip_threshold: 0.5,
                cooldown: 4,
                success_probes: 2,
                probe_chance: 1.0,
                seed: 23,
            },
            fill_iterations: 2,
        }
    }

    /// A CI-sized reduction (240 frames, 40-frame windows) that still
    /// rolls a weather front through, runs a dead-sensor burst and
    /// checks every invariant.
    pub fn smoke() -> SoakConfig {
        let frames = 240;
        SoakConfig {
            frames,
            window: 40,
            rig: Rig::triple().with_resolution(12, 48),
            fronts: vec![WeatherFront {
                frame: frames / 3,
                weather: Weather::fog(0.7),
            }],
            bursts: vec![FaultBurst {
                source: 1,
                frame: frames / 10,
                frames: 10,
            }],
            ..SoakConfig::full()
        }
    }

    /// Returns the config with a different seed (chainable).
    pub fn with_seed(mut self, seed: u64) -> SoakConfig {
        self.seed = seed;
        self
    }

    /// Returns the config with a different rig (chainable). Burst
    /// sources outside the new rig are dropped.
    pub fn with_rig(mut self, rig: Rig) -> SoakConfig {
        self.bursts
            .retain(|b| rig.mounts().iter().any(|m| m.source == b.source));
        self.rig = rig;
        self
    }

    /// Returns the config with one constant weather condition instead of
    /// the scheduled fronts (chainable).
    pub fn with_constant_weather(mut self, weather: Weather) -> SoakConfig {
        self.fronts = vec![WeatherFront { frame: 0, weather }];
        self
    }

    /// The weather in effect at `frame`: the latest front at or before
    /// it, clear before the first front.
    pub fn weather_at(&self, frame: u64) -> Weather {
        self.fronts
            .iter()
            .filter(|f| f.frame <= frame)
            .max_by_key(|f| f.frame)
            .map_or(Weather::clear(), |f| f.weather)
    }

    /// Checks that the scenario is runnable and its assertions are
    /// decidable (bursts end before the run does, every burst source is
    /// a rig mount, one frame's fan-out fits the queue, ...).
    ///
    /// # Errors
    ///
    /// Returns [`SoakError::Config`] describing the first problem.
    pub fn validate(&self) -> Result<(), SoakError> {
        let config = |reason: String| SoakError::Config { reason };
        if self.frames == 0 || self.window == 0 {
            return Err(config("frames and window must be >= 1".into()));
        }
        if self.frames < 2 * self.window {
            return Err(config(format!(
                "{} frames is fewer than two {}-frame windows: the plateau check \
                 needs an early window to compare against",
                self.frames, self.window
            )));
        }
        if self.replicas == 0 {
            return Err(config("the fleet needs at least one replica".into()));
        }
        if self.rig.is_empty() {
            return Err(config("the rig needs at least one mount".into()));
        }
        if self.max_batch == 0 || self.queue_capacity < self.rig.len() {
            return Err(config(format!(
                "queue_capacity {} cannot hold one frame's {} rig submissions",
                self.queue_capacity,
                self.rig.len()
            )));
        }
        if let Err(reason) = self.breaker.validate() {
            return Err(config(reason));
        }
        for burst in &self.bursts {
            if !self.rig.mounts().iter().any(|m| m.source == burst.source) {
                return Err(config(format!(
                    "fault burst targets source {} but the rig has no such mount",
                    burst.source
                )));
            }
            if burst.frames == 0 {
                return Err(config("a fault burst needs at least one frame".into()));
            }
            // The breaker must have healthy frames left to recover in.
            if burst.frame + burst.frames + 8 * u64::from(self.breaker.window as u32) > self.frames
            {
                return Err(config(format!(
                    "fault burst at frame {} runs too close to the end ({} frames): \
                     the tripped breaker has no room to recover",
                    burst.frame, self.frames
                )));
            }
        }
        let mut last = 0;
        for front in &self.fronts {
            if front.frame < last {
                return Err(config("weather fronts must be sorted by frame".into()));
            }
            last = front.frame;
        }
        Ok(())
    }
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig::full()
    }
}

/// One assertion window's summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Last frame included in the window.
    pub end_frame: u64,
    /// Fleet legs submitted so far (cumulative).
    pub submitted: u64,
    /// Fleet legs completed so far (cumulative).
    pub completed: u64,
    /// The run's scratch-ledger high-water mark at the boundary, bytes.
    pub scratch_peak_bytes: usize,
    /// Weather in effect at the boundary.
    pub weather: Weather,
}

/// Outcome of a soak run that satisfied every invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Final fleet statistics (conserved and cross-checked).
    pub stats: FleetStats,
    /// Frames driven.
    pub frames: u64,
    /// Window-boundary summaries, in order.
    pub windows: Vec<WindowSummary>,
    /// Index of the first window whose scratch peak equals the final
    /// peak (the plateau point).
    pub plateau_window: usize,
    /// Breaker trips per [`SourceId`], summed over replicas.
    pub source_trips: BTreeMap<u64, u64>,
}

impl SoakReport {
    /// A canonical string over everything that must replay bit-identically
    /// across runs of the same config: the fleet leg tally, per-replica
    /// terminal counters and per-source breaker trips. Deliberately
    /// excludes wall-clock values and scratch byte counts (both are
    /// thread-scheduling dependent).
    pub fn fingerprint(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "soak[{} frames] legs[submitted {} = completed {} + rejected {} + expired {} \
             + failed {} + redirected {}]",
            self.frames, s.submitted, s.completed, s.rejected, s.expired, s.failed, s.redirected,
        );
        for (source, trips) in &self.source_trips {
            out.push_str(&format!(" src{source}:trips={trips}"));
        }
        for r in &s.replicas {
            out.push_str(&format!(
                " | r{} sub={} comp={} rej={} exp={} fail={} trips={}",
                r.index, r.submitted, r.completed, r.rejected, r.expired, r.failed, r.breaker_trips,
            ));
        }
        out
    }

    /// Multi-line human rendering for the CLI and the experiment sweep.
    pub fn render(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "  {} frames, {} windows: submitted {} = completed {} + rejected {} + expired {} \
             + failed {} + redirected {}\n",
            self.frames,
            self.windows.len(),
            s.submitted,
            s.completed,
            s.rejected,
            s.expired,
            s.failed,
            s.redirected,
        );
        out.push_str(&format!(
            "  scratch peak {} KiB, plateaued at window {} of {}\n",
            self.windows.last().map_or(0, |w| w.scratch_peak_bytes) / 1024,
            self.plateau_window + 1,
            self.windows.len(),
        ));
        for (source, trips) in &self.source_trips {
            out.push_str(&format!("  source {source}: {trips} breaker trip(s)\n"));
        }
        for w in &self.windows {
            out.push_str(&format!(
                "  window ..{:>5}  weather {:<9}  completed {:>6}  scratch peak {:>6} KiB\n",
                w.end_frame,
                w.weather.to_string(),
                w.completed,
                w.scratch_peak_bytes / 1024,
            ));
        }
        out
    }
}

/// A broken soak invariant (or an unrunnable scenario). Any of these
/// from a run is a bug in the serving stack, not in the schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum SoakError {
    /// The scenario itself is invalid.
    Config {
        /// Human-readable reason.
        reason: String,
    },
    /// A frame's request terminated in a way the scenario cannot explain.
    UnexpectedOutcome {
        /// Scene-clock frame of the submission.
        frame: u64,
        /// The mount's source id.
        source: u64,
        /// The offending error.
        error: ServeError,
    },
    /// A window boundary found the fleet counters not conserved.
    NotConserved {
        /// Which window (0-based).
        window: usize,
        /// The failing tally, rendered.
        detail: String,
    },
    /// A window boundary failed the router-vs-replica cross-check.
    CrossCheck {
        /// Which window (0-based).
        window: usize,
        /// The failing identity, rendered.
        detail: String,
    },
    /// The scratch pool's high-water mark kept growing instead of
    /// plateauing — a leak the counters cannot see.
    MemoryGrowth {
        /// Human-readable description.
        detail: String,
    },
    /// The breaker record does not match the injected burst schedule.
    BreakerSchedule {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for SoakError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoakError::Config { reason } => write!(f, "invalid soak config: {reason}"),
            SoakError::UnexpectedOutcome {
                frame,
                source,
                error,
            } => write!(
                f,
                "soak frame {frame} source {source}: unexpected outcome: {error}"
            ),
            SoakError::NotConserved { window, detail } => {
                write!(f, "window {window}: legs not conserved: {detail}")
            }
            SoakError::CrossCheck { window, detail } => {
                write!(f, "window {window}: cross-check failed: {detail}")
            }
            SoakError::MemoryGrowth { detail } => {
                write!(f, "scratch pool did not plateau: {detail}")
            }
            SoakError::BreakerSchedule { detail } => {
                write!(f, "breaker record does not match burst schedule: {detail}")
            }
        }
    }
}

impl std::error::Error for SoakError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SoakError::UnexpectedOutcome { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Runs the soak scenario and checks every invariant. See the module
/// docs for the invariant list.
///
/// # Errors
///
/// Returns the first [`SoakError`] encountered.
pub fn run_soak(config: &SoakConfig) -> Result<SoakReport, SoakError> {
    config.validate()?;
    // Attached before the fleet starts, so its executors inherit it.
    let ledger = sf_tensor::scratch::Ledger::new();
    let _attached = ledger.attach();
    let net_config = NetworkConfig::tiny();
    let net =
        FusionNet::new(FusionScheme::AllFilterU, &net_config).map_err(|e| SoakError::Config {
            reason: format!("cannot build soak net: {e}"),
        })?;
    let serve = ServeConfig::builder()
        .max_batch(config.max_batch)
        .queue_capacity(config.queue_capacity)
        .backpressure(Backpressure::Reject)
        .max_wait(Duration::ZERO)
        .policy(DegradationPolicy::CameraFallback)
        .default_deadline(Duration::from_secs(30))
        .breaker(config.breaker)
        .build()
        .map_err(|e| SoakError::Config {
            reason: format!("replica server rejected soak config: {e}"),
        })?;
    let fleet = Fleet::start(
        net,
        FleetConfig {
            replicas: config.replicas,
            dispatch: DispatchPolicy::ConsistentHash,
            seed: config.seed,
            serve,
            // Sources stay pinned to their rendezvous replica even while
            // their breaker is open, so the burst's failure observations
            // all land on one slot and replay exactly.
            route_around_open_breakers: false,
            ..FleetConfig::default()
        },
    )
    .map_err(|e| SoakError::Config {
        reason: format!("fleet rejected soak config: {e}"),
    })?;

    // The world: one procedural scene observed for the whole run, with a
    // seeded occluder convoy advancing on the scene clock.
    let scene = SceneBuilder::new(RoadCategory::UrbanMarked, config.seed).build();
    let camera = PinholeCamera::kitti_like(net_config.width, net_config.height);
    let occluders = Occluder::convoy(&scene, config.occluders, config.seed);
    let depth_shape = [
        net_config.depth_channels,
        net_config.height,
        net_config.width,
    ];

    let mut windows: Vec<WindowSummary> = Vec::new();
    let mut drive = || -> Result<(), SoakError> {
        for frame in 0..config.frames {
            let weather = config.weather_at(frame);
            let frame_scene = scene.with_occluders(&occluders, frame);
            let rendered = RigFrame::render(
                &frame_scene,
                &camera,
                Lighting::day(),
                weather,
                &config.rig,
                config.seed,
                frame,
                config.fill_iterations,
            );
            // Fan the frame out: one tagged request per mount, then wait
            // them all — the stream is closed-loop per frame, so window
            // boundaries observe a quiescent fleet.
            let mut completions = Vec::with_capacity(rendered.depths.len());
            for (source, depth) in rendered.depths {
                let dead = config
                    .bursts
                    .iter()
                    .any(|b| b.source == source && b.active(frame));
                let depth = if dead {
                    Tensor::zeros(&depth_shape)
                } else {
                    depth
                };
                let request =
                    Request::new(rendered.rgb.clone(), depth).with_source(SourceId(source));
                let completion =
                    fleet
                        .submit(request)
                        .map_err(|error| SoakError::UnexpectedOutcome {
                            frame,
                            source,
                            error,
                        })?;
                completions.push((source, completion));
            }
            for (source, completion) in completions {
                let prediction =
                    completion
                        .wait()
                        .map_err(|error| SoakError::UnexpectedOutcome {
                            frame,
                            source,
                            error,
                        })?;
                // Return the frame's buffers to the scratch pool so the
                // stream reuses them instead of allocating fresh ones —
                // this is what makes the pool's high-water mark a real
                // bounded-memory probe: it grows while new buffer shapes
                // appear, then plateaus at steady state.
                sf_tensor::scratch::recycle(prediction.prob.into_vec());
            }
            sf_tensor::scratch::recycle(rendered.rgb.into_vec());
            if (frame + 1) % config.window == 0 || frame + 1 == config.frames {
                // The fleet-side counters settled inside wait(); the
                // replica-side ones are written by the executors just
                // after fulfilling, so give them a moment to catch up
                // before reconciling (bounded — a real loss stays
                // visible).
                let mut stats = fleet.stats();
                for _ in 0..500 {
                    if stats.is_conserved() && stats.cross_check().is_ok() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    stats = fleet.stats();
                }
                let window = windows.len();
                if !stats.is_conserved() {
                    return Err(SoakError::NotConserved {
                        window,
                        detail: format!(
                            "{} submitted vs {} completed + {} rejected + {} expired \
                             + {} failed + {} redirected",
                            stats.submitted,
                            stats.completed,
                            stats.rejected,
                            stats.expired,
                            stats.failed,
                            stats.redirected
                        ),
                    });
                }
                stats
                    .cross_check()
                    .map_err(|detail| SoakError::CrossCheck { window, detail })?;
                windows.push(WindowSummary {
                    end_frame: frame,
                    submitted: stats.submitted,
                    completed: stats.completed,
                    scratch_peak_bytes: ledger.stats().peak_bytes,
                    weather,
                });
            }
        }
        Ok(())
    };
    let drive_result = drive();
    let (_net, stats) = fleet.shutdown();
    drive_result?;

    // Invariant 2: the scratch high-water mark plateaus in the first
    // quarter of the run.
    let final_peak = windows.last().map_or(0, |w| w.scratch_peak_bytes);
    let plateau_window = windows
        .iter()
        .position(|w| w.scratch_peak_bytes == final_peak)
        .unwrap_or(0);
    let budget = windows.len().div_ceil(4).max(1) - 1;
    if plateau_window > budget {
        return Err(SoakError::MemoryGrowth {
            detail: format!(
                "final scratch peak {final_peak} B first reached at window {} of {}, \
                 past the first-quarter budget (window {}); peaks: {:?}",
                plateau_window + 1,
                windows.len(),
                budget + 1,
                windows
                    .iter()
                    .map(|w| w.scratch_peak_bytes)
                    .collect::<Vec<_>>()
            ),
        });
    }

    // Invariant 3: trips happened exactly where the schedule injected
    // them, and every tripped breaker recovered.
    let mut source_trips: BTreeMap<u64, u64> =
        config.rig.mounts().iter().map(|m| (m.source, 0)).collect();
    for replica in &stats.replicas {
        for slot in &replica.breaker_slots {
            if let Some(SourceId(source)) = slot.source {
                *source_trips.entry(source).or_insert(0) += slot.trips;
                if slot.trips > 0 && slot.state != BreakerState::Closed {
                    return Err(SoakError::BreakerSchedule {
                        detail: format!(
                            "source {source} breaker on replica {} ended {:?}, \
                             expected Closed after recovery",
                            replica.index, slot.state
                        ),
                    });
                }
            }
        }
    }
    for (&source, &trips) in &source_trips {
        let scheduled = config.bursts.iter().any(|b| b.source == source);
        if scheduled && trips == 0 {
            return Err(SoakError::BreakerSchedule {
                detail: format!("source {source} had a fault burst but never tripped"),
            });
        }
        if !scheduled && trips > 0 {
            return Err(SoakError::BreakerSchedule {
                detail: format!("source {source} tripped {trips} time(s) with no burst scheduled"),
            });
        }
    }

    Ok(SoakReport {
        stats,
        frames: config.frames,
        windows,
        plateau_window,
        source_trips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test-sized scenario, with every invariant checked.
    fn test_config() -> SoakConfig {
        SoakConfig {
            frames: 60,
            window: 15,
            rig: Rig::dual().with_resolution(8, 32),
            occluders: 2,
            fronts: vec![WeatherFront {
                frame: 20,
                weather: Weather::rain(0.6),
            }],
            bursts: vec![FaultBurst {
                source: 1,
                frame: 6,
                frames: 8,
            }],
            ..SoakConfig::full()
        }
    }

    #[test]
    fn soak_conserves_and_replays_bit_identically() {
        let config = test_config();
        let a = run_soak(&config).expect("soak run a");
        let b = run_soak(&config).expect("soak run b");
        assert!(a.stats.is_conserved());
        a.stats.cross_check().unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.windows.len(), 4);
        // The memory probe sees the run's own pooled frame buffers.
        assert!(a.windows.iter().all(|w| w.scratch_peak_bytes > 0));
        // Every frame fans out one leg per mount.
        assert_eq!(a.stats.completed, 60 * 2);
    }

    #[test]
    fn burst_source_trips_and_recovers_while_others_stay_closed() {
        let report = run_soak(&test_config()).expect("soak run");
        assert!(report.source_trips[&1] >= 1, "{:?}", report.source_trips);
        assert_eq!(report.source_trips[&0], 0, "{:?}", report.source_trips);
        // run_soak itself asserts recovery (final state Closed); reaching
        // here means the cycle completed.
        let text = report.render();
        assert!(text.contains("source 1"), "{text}");
        assert!(text.contains("rain:0.6"), "{text}");
    }

    #[test]
    fn different_seeds_change_the_fingerprint_tally_or_not_the_laws() {
        let a = run_soak(&test_config()).expect("seed a");
        let b = run_soak(&test_config().with_seed(99)).expect("seed b");
        // Conservation holds under any seed; the exact fingerprint need
        // not match across seeds (routing scores move).
        assert!(a.stats.is_conserved() && b.stats.is_conserved());
    }

    #[test]
    fn validation_rejects_undecidable_scenarios() {
        let ok = test_config();
        assert!(ok.validate().is_ok());
        let no_mount = SoakConfig {
            bursts: vec![FaultBurst {
                source: 9,
                frame: 6,
                frames: 4,
            }],
            ..test_config()
        };
        assert!(matches!(no_mount.validate(), Err(SoakError::Config { .. })));
        let late_burst = SoakConfig {
            bursts: vec![FaultBurst {
                source: 1,
                frame: 58,
                frames: 4,
            }],
            ..test_config()
        };
        assert!(late_burst.validate().is_err());
        let tiny_queue = SoakConfig {
            queue_capacity: 1,
            ..test_config()
        };
        assert!(tiny_queue.validate().is_err());
        let short = SoakConfig {
            frames: 10,
            window: 15,
            bursts: Vec::new(),
            ..test_config()
        };
        assert!(short.validate().is_err());
        assert!(SoakConfig::full().validate().is_ok());
        assert!(SoakConfig::smoke().validate().is_ok());
    }

    #[test]
    fn weather_fronts_resolve_by_frame() {
        let config = SoakConfig::full();
        assert!(config.weather_at(0).is_clear());
        assert_eq!(config.weather_at(500), Weather::rain(0.5));
        assert_eq!(config.weather_at(1999), Weather::snow(0.7));
        let constant = config.with_constant_weather(Weather::fog(0.3));
        assert_eq!(constant.weather_at(0), Weather::fog(0.3));
        assert_eq!(constant.weather_at(1999), Weather::fog(0.3));
    }
}
