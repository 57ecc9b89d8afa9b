//! Seeded inputs and networks. Everything here is load generation: it is
//! built before a timed window and never counted in a metric.

use sf_core::{FusionNet, FusionScheme, NetworkConfig};
use sf_dataset::{RigFrame, Sample};
use sf_scene::{Lighting, PinholeCamera, Rig, RoadCategory, SceneBuilder, Weather};
use sf_tensor::Tensor;

use crate::util::Mix;

/// The paper's five schemes, with the short names used in metric names.
pub const SCHEMES: [(FusionScheme, &str); 5] = [
    (FusionScheme::Baseline, "baseline"),
    (FusionScheme::AllFilterU, "au"),
    (FusionScheme::AllFilterB, "ab"),
    (FusionScheme::BaseSharing, "bs"),
    (FusionScheme::WeightedSharing, "ws"),
];

/// The standard 96×32 network with its fixed initial weights. The
/// workload seed only varies the inputs, so runs with different seeds
/// measure the same program.
pub fn net(scheme: FusionScheme) -> FusionNet {
    FusionNet::new(scheme, &NetworkConfig::standard())
        .expect("the standard network config is valid")
}

pub fn camera() -> PinholeCamera {
    let c = NetworkConfig::standard();
    PinholeCamera::kitti_like(c.width, c.height)
}

/// `count` seeded single-LiDAR samples (RGB, merged depth, ground truth)
/// across the three road categories, daylight, clear weather.
pub fn samples(seed: u64, count: usize) -> Vec<Sample> {
    let camera = camera();
    let mut mix = Mix::new(seed ^ 0x5A3F);
    (0..count)
        .map(|i| {
            let category = RoadCategory::ALL[i % RoadCategory::ALL.len()];
            Sample::render(category, mix.next(), "day", Lighting::day(), &camera)
        })
        .collect()
}

/// One pre-rendered rig frame: the camera image and one depth image per
/// mount, tagged with the mount's source id.
pub struct PoolFrame {
    pub rgb: Tensor,
    pub depths: Vec<(u64, Tensor)>,
    pub weather: Weather,
}

/// Weather of each frame in a vehicle's pool: half clear, a quarter
/// rain, a quarter fog, in a seeded order with seeded severities. The
/// shares are fixed so every seed offers the same mix of work.
fn weather_schedule(mix: &mut Mix, frames: usize) -> Vec<Weather> {
    let mut kinds: Vec<usize> = (0..frames).map(|i| i * 4 / frames).collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, mix.below(i as u64 + 1) as usize);
    }
    kinds
        .into_iter()
        .map(|k| {
            let severity = 0.3 + 0.3 * (mix.below(1000) as f32 / 1000.0);
            match k {
                0 => Weather::rain(severity),
                1 => Weather::fog(severity),
                _ => Weather::clear(),
            }
        })
        .collect()
}

/// `frames` rig frames of one vehicle's scene, under the seeded weather
/// schedule when `mixed_weather` is set and clear otherwise.
pub fn rig_frames(
    rig: &Rig,
    seed: u64,
    vehicle: u64,
    frames: usize,
    mixed_weather: bool,
) -> Vec<PoolFrame> {
    let camera = camera();
    let mut mix = Mix::new(seed ^ (vehicle << 20) ^ 0xD21E);
    let category = RoadCategory::ALL[(vehicle as usize) % RoadCategory::ALL.len()];
    let scene = SceneBuilder::new(category, mix.next()).build();
    let run_seed = mix.next();
    let weathers = if mixed_weather {
        weather_schedule(&mut mix, frames)
    } else {
        vec![Weather::clear(); frames]
    };
    weathers
        .into_iter()
        .enumerate()
        .map(|(frame, weather)| {
            let r = RigFrame::render(
                &scene,
                &camera,
                Lighting::day(),
                weather,
                rig,
                run_seed,
                frame as u64,
                2,
            );
            PoolFrame {
                rgb: r.rgb,
                depths: r.depths,
                weather,
            }
        })
        .collect()
}

/// Adds a leading unit axis: `[C, H, W]` → `[1, C, H, W]`.
pub fn batch_of_one(t: &Tensor) -> Tensor {
    let mut shape = vec![1usize];
    shape.extend_from_slice(t.shape());
    t.reshape(&shape)
        .expect("adding a unit axis preserves size")
}

/// True when two tensors hold bit-identical data.
pub fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
