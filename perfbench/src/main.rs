//! The workspace benchmark: one command, four workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from traced runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <drive|saturate|offline|train> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits non-zero when a
//! correctness check fails. See `perfbench/README.md` for the workloads,
//! the metrics and the predicted interactions.

mod fixtures;
mod layers;
mod offline;
mod report;
mod serving;
mod trace;
mod train;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use report::Outcome;
use trace::Tracer;
use util::Json;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 15;

/// Every end-to-end metric with its unit, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("rps", "req/s"),
    ("f32_fps", "frames/s"),
    ("int8_fps", "frames/s"),
    ("step_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

const WORKLOADS: [&str; 4] = ["drive", "saturate", "offline", "train"];

/// End-to-end metrics measured on one home workload only. Every other
/// workload takes them from a short companion run of the home workload in
/// a child process, with the same seed, after its own window and checks;
/// the child never shares this process's memory or scratch arena.
const HOMES: [(&str, &str); 3] = [
    ("f32_fps", "offline"),
    ("int8_fps", "offline"),
    ("step_ms", "train"),
];

/// Window of a companion run.
const COMPANION_SECONDS: u32 = 10;

/// Window of `drive` borrowed by traced `offline`/`train` runs to reach
/// the serving layers.
const MINI_DRIVE: Duration = Duration::from_secs(2);

/// Where results and spans are written, inside the working directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set on a companion run: it starts no companions of its own and
    /// writes no result file.
    companion: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut companion = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--companion" => companion = value == "1",
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        companion,
    })
}

fn run_window(workload: &str, seed: u64, window: Duration, tracer: &Tracer) -> Outcome {
    match workload {
        "drive" => serving::drive(seed, window, tracer, true),
        "saturate" => serving::saturate(seed, window, tracer),
        "offline" => offline::workload(seed, window, tracer),
        "train" => train::workload(seed, window, tracer),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Reads the checked-out revision from `.git` without running git; the
/// benchmark may run in an export that has no repository.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// UTC date and time from the system clock.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (H. Hinnant), for days since 1970-01-01.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// The box a result came from, written with every result so numbers from
/// different machines are never compared by accident.
fn machine_block() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Int(nproc as i64)),
        (
            "SF_THREADS",
            Json::str(std::env::var("SF_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        (
            "sf_runtime_threads",
            Json::Int(sf_runtime::num_threads() as i64),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_revision", Json::str(git_revision())),
        ("date", Json::str(utc_now())),
    ])
}

/// Unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.contains("_ms") {
        "ms"
    } else if name.ends_with("_us") || name.contains("_us.") || name.ends_with(".us") {
        "us"
    } else if name.ends_with("gmacs_per_s") {
        "GMAC/s"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else if name.ends_with("_share") || name.ends_with("share_max") {
        "ratio"
    } else if name.ends_with("occupancy") {
        "req/batch"
    } else {
        "count"
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn write_file(path: &Path, text: &str) {
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(path, text)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// The value of `name` in the result line of a benchmark run.
fn result_value(stdout: &str, name: &str) -> Option<f64> {
    let line = stdout.lines().last()?;
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs `workload` as a companion child process and reports the metrics
/// it is home to.
fn companion(workload: &str, seed: u64, metrics: &[&'static str], out: &mut Outcome) {
    let run = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &COMPANION_SECONDS.to_string()])
            .args(["--trace", "0", "--companion", "1"])
            .output()
    });
    let name = format!("companion.{workload}");
    let stdout = match run {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
        Ok(o) => {
            let text = String::from_utf8_lossy(&o.stdout);
            let tail: Vec<&str> = text.lines().rev().take(12).collect();
            out.check(&name, false, format!("{}: {tail:?}", o.status));
            return;
        }
        Err(e) => {
            out.check(&name, false, format!("could not run: {e}"));
            return;
        }
    };
    for &m in metrics {
        match result_value(&stdout, m) {
            Some(v) => out.e2e(m, v),
            None => out.check(&name, false, format!("no {m} in its result")),
        }
    }
    out.note(format!(
        "{} from a {COMPANION_SECONDS} s companion run of {workload}",
        metrics.join(", ")
    ));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let machine = machine_block();
    println!("machine: {}", machine.render());
    let window = Duration::from_secs_f64(args.seconds);
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );

    let (out, metrics) = if args.trace {
        // Half the window untraced, half traced: their difference is the
        // tracing overhead on each end-to-end metric.
        let base = run_window(args.workload, args.seed, window / 2, &Tracer::new(false));
        let tracer = Tracer::new(true);
        let mut out = run_window(args.workload, args.seed, window / 2, &tracer);
        for c in &base.checks {
            out.check(
                &format!("untraced half: {}", c.name),
                c.ok,
                c.detail.clone(),
            );
        }
        if !matches!(args.workload, "drive" | "saturate") {
            let mini = serving::drive(args.seed, MINI_DRIVE, &tracer, false);
            out.absorb(mini, "mini-drive: ");
        }
        layers::sweep(args.seed, &tracer, &mut out);
        // Metrics this workload measures itself; companions run untraced.
        for (name, unit) in END_TO_END.iter().filter(|(n, _)| *n != "peak_rss_mb") {
            let (Some(b), Some(t)) = (base.get(name), out.get(name)) else {
                continue;
            };
            out.note(format!(
                "tracing overhead {name}: untraced {b:.4} traced {t:.4} {unit} (traced - untraced {:+.4})",
                t - b
            ));
        }
        for (layer, (self_ms, spans)) in tracer.layer_self_ms() {
            out.note(format!(
                "self time {layer:<8} {self_ms:>10.2} ms over {spans} spans"
            ));
        }
        let spans = PathBuf::from(OUT_DIR).join(format!("{tag}.spans.jsonl"));
        if std::fs::create_dir_all(OUT_DIR).is_ok() {
            if let Err(e) = tracer.write_jsonl(&spans) {
                eprintln!("warning: could not write spans: {e}");
            }
        }
        let metrics: Vec<(String, Json)> = out
            .layers
            .iter()
            .map(|(n, v)| (n.clone(), metric(*v, layer_unit(n))))
            .collect();
        (out, metrics)
    } else {
        let mut out = run_window(args.workload, args.seed, window, &Tracer::new(false));
        out.e2e("peak_rss_mb", util::peak_rss_mb());
        if !args.companion {
            for home in ["offline", "train"] {
                let missing: Vec<&'static str> = HOMES
                    .iter()
                    .filter(|(m, h)| *h == home && out.get(m).is_none())
                    .map(|(m, _)| *m)
                    .collect();
                if !missing.is_empty() {
                    companion(home, args.seed, &missing, &mut out);
                }
            }
        }
        let metrics: Vec<(String, Json)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), metric(out.get(n).unwrap_or(f64::NAN), u)))
            .collect();
        (out, metrics)
    };

    for note in &out.notes {
        println!("{note}");
    }
    for c in &out.checks {
        println!(
            "check {:<40} {} {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    println!(
        "operations: attempted {} succeeded {} failed {}",
        out.attempted, out.succeeded, out.failed
    );
    let correct = out.correct() && out.attempted > 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    let record = Json::obj([
        ("workload", Json::str(args.workload)),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("machine", machine),
        ("succeeded", Json::Int(out.succeeded as i64)),
        (
            "checks",
            Json::Arr(
                out.checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name.clone())),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Arr(out.notes.iter().map(|n| Json::str(n.clone())).collect()),
        ),
        ("result", result.clone()),
    ]);
    if !args.companion {
        write_file(
            &PathBuf::from(OUT_DIR).join(format!("{tag}.json")),
            &record.render(),
        );
    }
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
