//! `perfbench`: end-to-end and per-layer benchmark for the Maya
//! reproduction. See README.md in this directory.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --mayac PATH --mayad PATH
//! ```
//!
//! Run from the repository root (it reads `tests/corpus/` and
//! `examples/maya/`, and works under `.bench_work/`). The last line of
//! stdout is the result object; with `--trace 0` it holds the end-to-end
//! metrics, with `--trace 1` the per-layer metrics of the traced pass.

mod corpus;
mod gen;
mod layers;
mod proc;
mod rng;
mod trace;
mod workloads;

use layers::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::Workload;

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Stop issuing ops past this much wall time (the run then fails), so a
/// pathologically slow machine still ends well inside the 180 s limit.
const BUDGET: Duration = Duration::from_secs(150);

pub struct Ctx {
    pub root: PathBuf,
    pub mayac: PathBuf,
    pub mayad: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub nproc: usize,
    started: Instant,
}

impl Ctx {
    pub fn out_of_time(&self) -> bool {
        self.started.elapsed() > BUDGET
    }
}

/// What a stretch of ops measured.
#[derive(Default)]
pub struct Measured {
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub peak_rss_kb: i64,
    pub errors: Vec<String>,
}

impl Measured {
    pub fn record(&mut self, ms: f64, verdict: Result<(), String>) {
        self.attempted += 1;
        self.lat_ms.push(ms);
        if let Err(e) = verdict {
            self.fail_counted(e);
        }
    }

    /// An op that failed before it produced a latency.
    pub fn fail(&mut self, e: String) {
        self.attempted += 1;
        self.fail_counted(e);
    }

    fn fail_counted(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    pub fn absorb(&mut self, o: Measured) {
        self.lat_ms.extend(o.lat_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.peak_rss_kb = self.peak_rss_kb.max(o.peak_rss_kb);
        for e in o.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Noise sentinels: reported with every run, never gated, never used to
/// rescale anything.
#[derive(Default)]
pub struct Sentinels {
    calib_ms: Vec<f64>,
    spawn_ms: Vec<f64>,
}

impl Sentinels {
    /// One sample of each: a fixed harness-only CPU loop, and spawning a
    /// trivial `mayac --help` to exit.
    pub fn sample(&mut self, ctx: &Ctx) {
        let t = Instant::now();
        std::hint::black_box(calib_loop(std::hint::black_box(2_000_000)));
        self.calib_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Ok(f) = proc::run(Command::new(&ctx.mayac).arg("--help")) {
            self.spawn_ms.push(f.wall.as_secs_f64() * 1e3);
        }
    }

    pub fn absorb(&mut self, o: Sentinels) {
        self.calib_ms.extend(o.calib_ms);
        self.spawn_ms.extend(o.spawn_ms);
    }

    fn medians(&mut self) -> (f64, f64) {
        (
            percentile(&mut self.calib_ms, 50.0),
            percentile(&mut self.spawn_ms, 50.0),
        )
    }
}

fn calib_loop(n: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    x
}

/// Linear-interpolated percentile (`p` in 0..=100); 0 for no samples.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    mayac: PathBuf,
    mayad: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut m: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        m.insert(key.to_owned(), val);
    }
    let get = |k: &str| m.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let seconds = num("seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace,
        mayac: get("mayac")?.into(),
        mayad: get("mayad")?.into(),
    })
}

fn metric_json(metrics: &BTreeMap<String, Value>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(v.value),
                v.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        // A failed op fails the run, after its result is printed.
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(String, bool), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let ctx = Ctx {
        root: root.clone(),
        mayac: std::fs::canonicalize(&args.mayac).map_err(|e| format!("mayac: {e}"))?,
        mayad: std::fs::canonicalize(&args.mayad).map_err(|e| format!("mayad: {e}"))?,
        seed: args.seed,
        seconds: args.seconds,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        started: Instant::now(),
    };
    // Relative, so unix socket paths under it stay short.
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let result = measure(&ctx, args, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure(ctx: &Ctx, args: &Args, work: &Path) -> Result<(String, bool), String> {
    let setup = |r: usize| -> Result<(Workload, f64), String> {
        let t = Instant::now();
        let w = Workload::setup(&args.workload, ctx, &work.join(format!("setup{r}")))
            .map_err(|e| format!("set-up of {} failed: {e}", args.workload))?;
        Ok((w, t.elapsed().as_secs_f64()))
    };
    let (mut w, first) = setup(0)?;
    let setup_s = vec![first];
    let total = w.total_ops(ctx);
    let mut sent = Sentinels::default();

    let (m, metrics) = if args.trace {
        traced(ctx, args, work, &mut w, total, &mut sent)?
    } else {
        untraced(ctx, args, &mut w, total, &mut sent, setup_s, &setup)?
    };
    w.finish().map_err(|e| e.to_string())?;
    for e in &m.errors {
        eprintln!("perfbench: {}: {e}", args.workload);
    }
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
        metric_json(&metrics)
    );
    Ok((line, m.failed == 0))
}

type Metrics = BTreeMap<String, Value>;

/// The measured run: the whole op sequence in `SETUP_REPS - 1` chunks, with
/// one more set-up (timed, then discarded) after each. Spread over the run,
/// the set-up repetitions meet the same machine drift the ops do.
fn untraced(
    ctx: &Ctx,
    args: &Args,
    w: &mut Workload,
    total: usize,
    sent: &mut Sentinels,
    mut setup_s: Vec<f64>,
    setup: &dyn Fn(usize) -> Result<(Workload, f64), String>,
) -> Result<(Measured, Metrics), String> {
    let chunks = SETUP_REPS - 1;
    let mut m = Measured::default();
    let mut wall_s = 0.0;
    for c in 0..chunks {
        let part = w.run(
            ctx,
            total * (c + 1) / chunks - total * c / chunks,
            sent,
            None,
        );
        wall_s += part.wall_s;
        m.absorb(part);
        let (extra, t) = setup(c + 1)?;
        setup_s.push(t);
        extra.finish().map_err(|e| e.to_string())?;
    }
    let setup_reps: Vec<String> = setup_s.iter().map(|&t| json_num(t)).collect();
    let n = m.lat_ms.len();
    let mut out = Metrics::new();
    let mut put = |k: &str, value, unit| {
        out.insert(k.to_owned(), Value { value, unit });
    };
    put("latency_p50_ms", percentile(&mut m.lat_ms, 50.0), "ms");
    put("latency_p90_ms", percentile(&mut m.lat_ms, 90.0), "ms");
    put("throughput_ops_s", n as f64 / wall_s, "1/s");
    put("peak_rss_mb", m.peak_rss_kb as f64 / 1024.0, "MB");
    put("setup_s", percentile(&mut setup_s, 50.0), "s");
    let (calib, spawn) = sent.medians();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"ops\": {n}, \"error_rate\": {}, \"sentinels\": {{\"harness.calib_ms\": {}, \"harness.spawn_floor_ms\": {}}}, \"setup_reps_s\": [{}], \"nproc\": {}}}",
        args.workload,
        args.seed,
        json_num(m.failed as f64 / m.attempted.max(1) as f64),
        json_num(calib),
        json_num(spawn),
        setup_reps.join(", "),
        ctx.nproc
    );
    Ok((m, out))
}

/// The traced run: half the op sequence, alternating untraced and traced
/// blocks (their median latency difference is the tracing overhead), then
/// the layer pass twice; every count must repeat between the two passes.
fn traced(
    ctx: &Ctx,
    args: &Args,
    work: &Path,
    w: &mut Workload,
    total: usize,
    sent: &mut Sentinels,
) -> Result<(Measured, Metrics), String> {
    // Alternate untraced and traced blocks of ops over the first half of
    // the sequence, so both sides see the same positions and drift.
    const BLOCK: usize = 8;
    let mut plain = Measured::default();
    let mut traced = Measured::default();
    let mut op_trace = trace::Tracer::new();
    for _ in 0..(total / (4 * BLOCK)).max(1) {
        plain.absorb(w.run(ctx, BLOCK, sent, None));
        let counters = maya::telemetry::Session::start(maya::telemetry::Config::default());
        traced.absorb(w.run(ctx, BLOCK, sent, Some(&mut op_trace)));
        drop(counters.finish());
    }
    let overhead = percentile(&mut traced.lat_ms, 50.0) - percentile(&mut plain.lat_ms, 50.0);
    plain.absorb(traced);

    let inputs = w.layer_inputs(ctx);
    let p1 =
        layers::pass(ctx, &inputs, &work.join("pass1")).map_err(|e| format!("layer pass: {e}"))?;
    let p2 =
        layers::pass(ctx, &inputs, &work.join("pass2")).map_err(|e| format!("layer pass: {e}"))?;
    let mut nondet = Vec::new();
    let mut metrics = Metrics::new();
    for (k, v1) in &p1.metrics {
        let v2 = p2.metrics.get(k).copied().unwrap_or(Value {
            value: f64::NAN,
            unit: v1.unit,
        });
        if v1.is_count() && v1.value != v2.value {
            nondet.push(format!("{k} ({} vs {})", v1.value, v2.value));
        }
        // Times: the mean of the two passes.
        let value = if v1.is_count() {
            v1.value
        } else {
            (v1.value + v2.value) / 2.0
        };
        metrics.insert(
            k.clone(),
            Value {
                value,
                unit: v1.unit,
            },
        );
    }
    let (calib, spawn) = sent.medians();
    let mut put = |k: &str, value, unit| {
        metrics.insert(k.to_owned(), Value { value, unit });
    };
    put("harness.calib_ms", calib, "ms");
    put("harness.spawn_floor_ms", spawn, "ms");
    put("harness.trace_overhead_ms", overhead, "ms");
    put(
        "harness.nondeterministic_counts",
        nondet.len() as f64,
        "count",
    );
    for n in &nondet {
        eprintln!("perfbench: nondeterministic count: {n}");
    }

    // The trace: op spans from the traced blocks and the first layer pass.
    let dir = PathBuf::from(".bench_work/traces");
    let _ = std::fs::create_dir_all(&dir);
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace_overhead_ms\": {}, \"nondeterministic_counts\": [{}],\n\"ops\": {},\n\"layer_pass\": {}}}\n",
        args.workload,
        args.seed,
        json_num(overhead),
        nondet.iter().map(|n| maya::telemetry::json_string(n)).collect::<Vec<_>>().join(", "),
        op_trace.to_json(),
        p1.trace.to_json()
    );
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: trace written to {}", path.display());

    for p in [&p1, &p2] {
        plain.attempted += p.attempted;
        for e in &p.errors {
            plain.fail_counted(e.clone());
        }
    }
    Ok((plain, metrics))
}
