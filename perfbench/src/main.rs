//! The footsteps benchmark: one named workload per process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <report_scaled|sweep_smoke|stream_scaled> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds fresh inputs from `--seed`, repeats whole operations for
//! as long as they fit in `--seconds` (at least one), checks every
//! operation's outputs, and prints one JSON object as its last stdout line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (`setup_s`, `days_per_s`,
//! `peak_rss_mb`, `written_mb`); with `--trace 1` the run adds one traced
//! operation after the untraced ones and prints the per-layer metrics
//! (see `layers.rs` and README.md).
//!
//! The benchmark only calls the product's public entry points and times
//! them from here with `footsteps_obs::Stopwatch`; the split inside a phase
//! comes from the span tree and counters the product already records.

mod layers;
mod probe;
mod report;
mod stream;
mod sweep;

use footsteps_obs::Stopwatch;
use layers::Layers;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Environment knobs the product crates read. The benchmark fixes threads,
/// tracing and output itself, so a caller's values must not leak in.
const AMBIENT_KNOBS: [&str; 6] = [
    "FOOTSTEPS_THREADS",
    "FOOTSTEPS_TRACE",
    "FOOTSTEPS_TRACE_OUT",
    "FOOTSTEPS_QUIET",
    "FOOTSTEPS_SEED",
    "FOOTSTEPS_SMOKE",
];

/// Set-ups timed on top of the one each operation needs, so `setup_s` is a
/// median of many samples even when the run fits only one operation. Half
/// run before the first operation and half after the last, so one burst of
/// host contention cannot own every sample.
const EXTRA_SETUPS: usize = 20;

const USAGE: &str = "usage: perfbench --workload <report_scaled|sweep_smoke|stream_scaled> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug)]
pub(crate) struct Args {
    workload: String,
    pub(crate) seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpSample {
    /// Wall seconds of the operation, checks excluded.
    pub(crate) secs: f64,
    /// Study days the operation processed.
    pub(crate) days: f64,
    /// Bytes of the files the operation left.
    pub(crate) written_bytes: u64,
    /// A public call returned an error.
    pub(crate) failed: bool,
}

/// Correctness findings of a run; empty means correct.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    problems: Vec<String>,
}

impl Checks {
    /// Record a failed check unless `ok`.
    pub(crate) fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.problems.push(msg);
        }
    }
}

/// Times one operation: the sum of its timed calls, the wall time with
/// check work excluded, and (in a traced operation) the process CPU time
/// and minor faults it cost.
pub(crate) struct OpClock {
    watch: Stopwatch,
    excluded: f64,
    timed: f64,
    usage: probe::Usage,
}

impl OpClock {
    pub(crate) fn start() -> Self {
        Self {
            watch: Stopwatch::start(),
            excluded: 0.0,
            timed: 0.0,
            usage: probe::Usage::now(),
        }
    }

    /// Run one call into the product and return its result with its wall
    /// seconds.
    pub(crate) fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let w = Stopwatch::start();
        let r = f();
        let secs = w.elapsed_secs();
        self.timed += secs;
        (r, secs)
    }

    /// Run check or bookkeeping work whose time is not operation time.
    pub(crate) fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let w = Stopwatch::start();
        let r = f();
        self.excluded += w.elapsed_secs();
        r
    }

    /// The operation's wall seconds. In a traced operation, also record
    /// how much of it the timed calls explain and what it cost the process.
    pub(crate) fn stop(self, layers: Option<&mut Layers>) -> f64 {
        let secs = self.watch.elapsed_secs() - self.excluded;
        if let Some(l) = layers {
            let now = probe::Usage::now();
            l.set("bench.op_s", secs);
            l.set("bench.unattributed_s", secs - self.timed);
            l.set("proc.cpu_s", now.cpu_secs - self.usage.cpu_secs);
            l.set(
                "proc.minor_faults",
                (now.minor_faults - self.usage.minor_faults) as f64,
            );
        }
        secs
    }
}

/// A workload: how to build one operation's inputs, and the operation.
pub(crate) trait Workload {
    /// Fresh inputs for one operation.
    type World;
    /// Build one operation's inputs (timed as set-up).
    fn setup(&mut self) -> Self::World;
    /// Run one operation on fresh inputs, check its outputs and remove
    /// them. In the traced operation `layers` is `Some` and the workload
    /// fills in its per-layer metrics, including traced-run-only probes.
    fn op(
        &mut self,
        world: Self::World,
        layers: Option<&mut Layers>,
        checks: &mut Checks,
    ) -> OpSample;
}

/// A scratch directory inside the benchmark's own directory, removed when
/// dropped (also on panic), so no run leaves its outputs behind.
#[derive(Debug)]
pub(crate) struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using `.work`.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The result line.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Build one operation's inputs, recording the set-up time.
fn timed_setup<W: Workload>(w: &mut W, setup_secs: &mut Vec<f64>) -> W::World {
    let watch = Stopwatch::start();
    let world = w.setup();
    setup_secs.push(watch.elapsed_secs());
    world
}

/// Run whole operations for at most `args.seconds` (at least one), then
/// (traced runs) one traced operation.
fn drive<W: Workload>(w: &mut W, args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut setup_secs = Vec::new();
    for _ in 0..EXTRA_SETUPS / 2 {
        drop(timed_setup(w, &mut setup_secs));
    }
    let clock = Stopwatch::start();
    let mut ops: Vec<OpSample> = Vec::new();
    let mut iteration_secs = Vec::new();
    // Peak RSS as of the end of the first operation. Later operations add
    // whatever the allocator kept from earlier ones, and how many of them
    // fit in the run depends on the host's speed.
    let mut peak_rss_bytes = None;
    loop {
        let iteration = Stopwatch::start();
        let world = timed_setup(w, &mut setup_secs);
        let host = probe::HostTicks::now();
        let op = w.op(world, None, &mut checks);
        eprintln!(
            "perfbench: operation {} took {:.3} s ({:.3} days/s, host steal {:.1}%)",
            ops.len() + 1,
            op.secs,
            op.days / op.secs,
            100.0 * probe::HostTicks::now().steal_share_since(&host)
        );
        ops.push(op);
        peak_rss_bytes.get_or_insert_with(probe::peak_rss_bytes);
        iteration_secs.push(iteration.elapsed_secs());
        // Start another operation only if it should end within the run.
        if clock.elapsed_secs() + median(&iteration_secs) > args.seconds {
            break;
        }
    }
    for _ in EXTRA_SETUPS / 2..EXTRA_SETUPS {
        drop(timed_setup(w, &mut setup_secs));
    }
    let untraced: Vec<f64> = ops.iter().map(|o| o.secs).collect();
    let samples: Vec<String> = setup_secs.iter().map(|s| format!("{s:.4}")).collect();
    eprintln!("perfbench: set-up samples (s): {}", samples.join(" "));

    let metrics = if args.trace {
        let mut layers = Layers::new();
        let world = timed_setup(w, &mut setup_secs);
        let traced = w.op(world, Some(&mut layers), &mut checks);
        ops.push(traced);
        layers.set("obs.trace_overhead_s", traced.secs - median(&untraced));
        layers.into_metrics()
    } else {
        let ok: Vec<&OpSample> = ops.iter().filter(|o| !o.failed).collect();
        // The fastest operation: time the hypervisor steals for other
        // guests only ever slows an operation down.
        let fastest = ok.iter().map(|o| o.days / o.secs).fold(0.0, f64::max);
        let written: Vec<f64> = ok.iter().map(|o| o.written_bytes as f64).collect();
        [
            ("setup_s", median(&setup_secs), "s"),
            ("days_per_s", fastest, "days/s"),
            (
                "peak_rss_mb",
                peak_rss_bytes.unwrap_or_default() as f64 / 1e6,
                "MB",
            ),
            (
                "written_mb",
                if written.is_empty() {
                    0.0
                } else {
                    median(&written) / 1e6
                },
                "MB",
            ),
        ]
        .into_iter()
        .map(|(name, value, unit)| (name.to_string(), value, unit.to_string()))
        .collect()
    };
    Outcome {
        correct: checks.problems.is_empty(),
        attempted: ops.len(),
        failed: ops.iter().filter(|o| o.failed).count(),
        metrics,
    }
}

fn main() -> ExitCode {
    // Before any thread exists: the product must see none of the caller's
    // FOOTSTEPS_* knobs.
    for knob in AMBIENT_KNOBS {
        std::env::remove_var(knob);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = match WorkDir::create(&args.workload) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.workload.as_str() {
        "report_scaled" => drive(&mut report::ReportScaled::new(&args, &dir), &args),
        "sweep_smoke" => drive(&mut sweep::SweepSmoke::new(&args, &dir), &args),
        "stream_scaled" => drive(&mut stream::StreamScaled::new(&args, &dir), &args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    drop(dir);
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
