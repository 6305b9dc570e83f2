//! The repository benchmark: one process runs one named workload for a
//! fixed time, checks its outputs, prints a stamped human-readable report
//! and, as its last line, a JSON result.
//!
//! ```text
//! perfbench --workload grid-bo|wf-sim|calibd-mixed --seed N --seconds S --trace 0|1
//!           --work DIR --reference FILE [--rustc VERSION] [--git-rev REV]
//! ```
//!
//! With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of a traced run. Exits 1
//! when an output check fails. `run.py` builds this program and passes
//! the stamps; see `README.md` for the workloads and metrics.

mod layers;
mod serving;
mod stats;
mod sweeps;
mod timed;

use layers::{Values, PER_LAYER};
use stats::{num, string, Summary};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up is repeated at least this many times and for at least
/// `SETUP_MIN_S` seconds (cheap set-ups are a few milliseconds), at most
/// `SETUP_MAX_REPEATS` times; the reported `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;
const SETUP_MAX_REPEATS: usize = 500;

/// Time `setup` repeatedly, passing every result but the last to the
/// untimed `teardown`; returns the times and the last result.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> T,
    mut teardown: impl FnMut(T),
) -> (Vec<f64>, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let made = setup(times.len());
        times.push(t0.elapsed().as_secs_f64());
        let enough =
            times.len() >= SETUP_MIN_REPEATS && start.elapsed().as_secs_f64() >= SETUP_MIN_S;
        if enough || times.len() >= SETUP_MAX_REPEATS {
            return (times, made);
        }
        teardown(made);
    }
}

/// The end-to-end metrics of the result line, with their units. Must match
/// the `end_to_end` list of `BENCHMARK.json` (the runner checks it).
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("sweep_s", "s"), ("peak_rss_mb", "MB")];

/// One benchmark invocation.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    references: Vec<(String, u64, String)>,
}

impl Run {
    /// The recorded reference digest of `workload` at `seed`.
    pub fn reference(&self, workload: &str, seed: u64) -> Option<&str> {
        self.references
            .iter()
            .find(|(w, s, _)| w == workload && *s == seed)
            .map(|(_, _, d)| d.as_str())
    }
}

/// What a workload measured.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// End-to-end figures by name, for the report and the result line.
    metrics: Vec<(&'static str, &'static str, Summary)>,
    pub layers: Values,
}

impl Outcome {
    pub fn new(attempted: usize, failed: usize) -> Outcome {
        Outcome {
            attempted,
            failed,
            metrics: Vec::new(),
            layers: Values::new(),
        }
    }

    pub fn summary(&mut self, name: &'static str, unit: &'static str, values: &[f64]) {
        self.metrics.push((name, unit, Summary::of(values)));
    }

    pub fn scalar(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.summary(name, unit, &[value]);
    }

    fn get(&self, name: &str) -> Option<&Summary> {
        self.metrics
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|(.., s)| s)
    }
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bytes of a file, or of every file below a directory (0 if absent).
pub fn dir_bytes(path: &Path) -> f64 {
    match std::fs::metadata(path) {
        Ok(m) if m.is_dir() => std::fs::read_dir(path)
            .expect("read a work directory")
            .filter_map(Result::ok)
            .map(|e| dir_bytes(&e.path()))
            .sum(),
        Ok(m) => m.len() as f64,
        Err(_) => 0.0,
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload grid-bo|wf-sim|calibd-mixed --seed N --seconds S \
         --trace 0|1 --work DIR --reference FILE [--rustc VERSION] [--git-rev REV]"
    );
    std::process::exit(2)
}

/// `workload seed digest` lines; `#` starts a comment.
fn read_references(path: &Path) -> Vec<(String, u64, String)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {}: {e}", path.display())));
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f[..] {
                [w, s, d] => (
                    w.to_string(),
                    s.parse()
                        .unwrap_or_else(|_| usage(&format!("bad seed in reference line {l:?}"))),
                    d.to_string(),
                ),
                _ => usage(&format!("bad reference line {l:?}")),
            }
        })
        .collect()
}

fn missing<T>(flag: &str) -> T {
    usage(&format!("missing {flag}"))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut work, mut reference) = (None, None);
    let (mut rustc, mut git_rev) = ("unknown".to_string(), "unknown".to_string());
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => seconds = Some(value.parse().unwrap_or_else(|_| usage("bad --seconds"))),
            "--trace" => trace = Some(value == "1"),
            "--work" => work = Some(PathBuf::from(value)),
            "--reference" => reference = Some(PathBuf::from(value)),
            "--rustc" => rustc = value,
            "--git-rev" => git_rev = value,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| missing("--workload"));
    let seconds: f64 = seconds.unwrap_or_else(|| missing("--seconds"));
    let work = work.unwrap_or_else(|| missing("--work"));
    let run = Run {
        seed: seed.unwrap_or_else(|| missing("--seed")),
        seconds,
        trace: trace.unwrap_or_else(|| missing("--trace")),
        work: work.join(format!("{workload}-{}", std::process::id())),
        references: read_references(&reference.unwrap_or_else(|| missing("--reference"))),
    };
    std::fs::create_dir_all(&run.work).expect("create the work directory");

    let out = match workload.as_str() {
        "grid-bo" => sweeps::run(&sweeps::GRID_BO, &run),
        "wf-sim" => sweeps::run(&sweeps::WF_SIM, &run),
        serving::NAME => serving::run(&run),
        other => usage(&format!("unknown workload {other}")),
    };
    std::fs::remove_dir_all(&run.work).expect("remove the work directory");

    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = rayon::current_num_threads();
    println!(
        "host: {host_cores} cores, CALIB_THREADS {} (pool of {threads}), {rustc}, revision {git_rev}",
        std::env::var("CALIB_THREADS").unwrap_or_else(|_| "unset".into())
    );
    for (name, unit, s) in &out.metrics {
        println!("metric {name:<26} {unit:<5} {}", s.text());
    }
    for (name, unit) in PER_LAYER.iter().filter(|_| run.trace) {
        match out.layers.get(name) {
            Some(v) => println!("layer  {name:<30} {v:>14.6} {unit}"),
            None => println!(
                "layer  {name:<30} {:>14} {unit} (not exercised; reported as 0)",
                "n/a"
            ),
        }
    }

    // The stamped record: every figure with its sample count and quartiles.
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, s)| {
            format!(
                "{}:{{\"unit\":{},\"summary\":{}}}",
                string(name),
                string(unit),
                s.json()
            )
        })
        .collect();
    println!(
        "record {{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"host_cores\":{host_cores},\
         \"calib_threads\":{threads},\"rustc\":{},\"git_rev\":{},\"attempted\":{},\"failed\":{},\
         \"metrics\":{{{}}}}}",
        string(&workload),
        run.seed,
        run.trace,
        num(seconds),
        string(&rustc),
        string(&git_rev),
        out.attempted,
        out.failed,
        metrics.join(",")
    );

    let correct = out.failed == 0 && out.attempted > 0;
    let table = if run.trace { PER_LAYER } else { END_TO_END };
    let result: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = if run.trace {
                out.layers.get(name).copied()
            } else {
                out.get(name).map(|s| s.median)
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                string(name),
                num(value.unwrap_or(0.0)),
                string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        result.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
