//! The in-process sweep workloads, `grid-bo` and `wf-sim`: one family
//! built from the seed, then back-to-back `lodsel` sweeps of it.

use crate::layers::{self, Values};
use crate::stats::median;
use crate::timed::Timed;
use crate::{dir_bytes, peak_rss_mb, repeat_setup, Outcome, Run};
use lodsel::family::VersionFamily;
use lodsel::ledger::Ledger;
use lodsel::prelude::{GridFamily, SweepConfig, SweepOutcome, WfFamily};
use lodsel::sweep::try_run_sweep;
use obs::TraceRecorder;
use simcal::prelude::Budget;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct SweepWorkload {
    pub name: &'static str,
    build: fn(u64) -> Box<dyn VersionFamily>,
    evals_per_run: usize,
    /// Give every sweep a fresh loss-cache directory and run ledger.
    durable: bool,
    /// The layer share that makes the workload what it is, checked in the
    /// traced run: `(metric, label)` must exceed one half.
    premise: (&'static str, &'static str),
}

/// Bound by the BO surrogate: 8 versions × 1 restart × 300 evaluations of
/// a cheap simulator, no ledger and no cache.
pub const GRID_BO: SweepWorkload = SweepWorkload {
    name: "grid-bo",
    build: |seed| Box::new(GridFamily::paper(true, seed)),
    evals_per_run: 300,
    durable: false,
    premise: ("simcal.search_share", "search share of calibrate busy time"),
};

/// Bound by simulation: 60 (version × application) runs × 40 evaluations
/// of the full workflow dataset, writing the loss cache and the ledger.
pub const WF_SIM: SweepWorkload = SweepWorkload {
    name: "wf-sim",
    build: |seed| Box::new(WfFamily::paper(false, seed)),
    evals_per_run: 40,
    durable: true,
    premise: (
        "simcal.objective_share",
        "objective share of calibrate busy time",
    ),
};

struct SweepRun {
    wall: f64,
    digest: String,
    test_error_pct: f64,
    healthy: bool,
    layers: Option<Values>,
}

fn one_sweep(
    w: &SweepWorkload,
    family: &dyn VersionFamily,
    config: &SweepConfig,
    dir: &Path,
    traced: bool,
) -> SweepRun {
    let timed = Timed::new(family);
    let mut config = config.clone();
    let ledger = w.durable.then(|| {
        std::fs::create_dir_all(dir).expect("create the sweep's work directory");
        config.cache = Some(dir.join("cache"));
        Ledger::open(dir.join("ledger.jsonl")).expect("open a fresh sweep ledger")
    });
    let recorder = traced.then(|| Arc::new(TraceRecorder::new()));
    if let Some(r) = &recorder {
        obs::install(r.clone());
    }
    let t0 = Instant::now();
    let outcome = try_run_sweep(&timed, &config, ledger.as_ref());
    let wall = t0.elapsed().as_secs_f64();
    if recorder.is_some() {
        obs::uninstall();
    }
    let threads = rayon::current_num_threads();
    let layers = recorder.map(|r| {
        let mut v = layers::of_sweep(&r, &timed, threads);
        if w.durable {
            v.insert("lodsel.ledger_bytes", dir_bytes(&dir.join("ledger.jsonl")));
            v.insert("simcal.cache_bytes", dir_bytes(&dir.join("cache")));
        }
        v
    });
    drop(ledger);
    if w.durable {
        std::fs::remove_dir_all(dir).expect("remove the sweep's work directory");
    }
    let (digest, test_error_pct, healthy) = match outcome {
        Ok(o) => (o.digest(), test_error_pct(&o), healthy(&o)),
        Err(e) => (format!("error: {e}"), 0.0, false),
    };
    SweepRun {
        wall,
        digest,
        test_error_pct,
        healthy,
        layers,
    }
}

/// A complete sweep with no failed run and a recommendation.
fn healthy(o: &SweepOutcome) -> bool {
    o.complete && o.failures.is_empty() && o.recommendation.is_some()
}

/// Held-out error of the recommended version, in percent.
fn test_error_pct(o: &SweepOutcome) -> f64 {
    o.recommendation
        .as_ref()
        .and_then(|r| o.versions.iter().find(|v| v.label == r.chosen))
        .map_or(0.0, |v| 100.0 * v.test_error)
}

pub fn run(w: &SweepWorkload, run: &Run) -> Outcome {
    let (setup, family) = repeat_setup(|_| (w.build)(run.seed), drop);
    let config = SweepConfig::per_run(Budget::Evaluations(w.evals_per_run), 1, run.seed);
    println!(
        "workload {}: family {} with {} units, {} evaluations per run, 1 restart",
        w.name,
        family.name(),
        family.units().len(),
        w.evals_per_run
    );

    // Untraced sweeps give the end-to-end figures; with --trace 1 traced
    // sweeps alternate with untraced ones, so the tracing overhead compares
    // neighbours rather than the start and end of the run.
    let mut sweeps: Vec<SweepRun> = Vec::new();
    let start = Instant::now();
    loop {
        let traced = run.trace && sweeps.len() % 2 == 1;
        let dir = run.work.join(format!("sweep-{}", sweeps.len()));
        sweeps.push(one_sweep(w, family.as_ref(), &config, &dir, traced));
        let enough = !run.trace || sweeps.len() >= 2;
        if enough && start.elapsed().as_secs_f64() >= run.seconds {
            break;
        }
    }
    let rss = peak_rss_mb();

    // Output check: every sweep healthy and bit-for-bit the same outcome,
    // traced or not, and equal to the recorded reference for this seed.
    let first = sweeps[0].digest.clone();
    let reference = run.reference(w.name, run.seed);
    let mut failed = 0;
    for (i, s) in sweeps.iter().enumerate() {
        let matches = reference.map_or(s.digest == first, |r| s.digest == r);
        if !(s.healthy && matches) {
            failed += 1;
            println!(
                "check FAILED: sweep {i} digest {} healthy {} (expected {})",
                s.digest,
                s.healthy,
                reference.unwrap_or(&first)
            );
        }
    }
    match reference {
        Some(r) => println!(
            "check digest {first} vs reference {r} for seed {}",
            run.seed
        ),
        None => println!(
            "check digest {first}: no reference for seed {}, checked that all sweeps agree",
            run.seed
        ),
    }
    println!("reference {} {} {first}", w.name, run.seed);

    let untraced: Vec<f64> = sweeps
        .iter()
        .filter(|s| s.layers.is_none())
        .map(|s| s.wall)
        .collect();
    let mut out = Outcome::new(sweeps.len(), failed);
    out.summary("setup_s", "s", &setup);
    out.summary("sweep_s", "s", &untraced);
    out.scalar("peak_rss_mb", "MB", rss);
    out.scalar("test_error_pct", "%", sweeps[0].test_error_pct);
    out.scalar("failed_ratio", "ratio", failed as f64 / sweeps.len() as f64);

    if run.trace {
        let mut traced: Vec<(f64, Values)> = sweeps
            .into_iter()
            .filter_map(|s| s.layers.map(|l| (s.wall, l)))
            .collect();
        // The layer figures are those of the median traced sweep, so they
        // add up to that one sweep's root span.
        traced.sort_by(|a, b| a.0.total_cmp(&b.0));
        let traced_wall: Vec<f64> = traced.iter().map(|t| t.0).collect();
        let mut v = traced.swap_remove(traced.len() / 2).1;
        v.insert(
            "obs.tracing_overhead",
            median(&traced_wall) / median(&untraced) - 1.0,
        );
        layers::gp_micro(run.seed, grid_dim(), &mut v);
        let adds_up = layers::adds_up(&v);
        let (metric, label) = w.premise;
        println!(
            "add-up: objective {:.4} s + search {:.4} s = calibrate busy {:.4} s over {} threads; \
             phases + unaccounted {:.4} s = sweep span {:.4} s: {}",
            v["simcal.objective_busy_s"],
            v["simcal.search_busy_s"],
            v["lodsel.calibrate_busy_s"],
            v["lodsel.threads"],
            ["plan", "calibrate", "evaluate", "reduce", "unaccounted"]
                .iter()
                .map(|p| v[format!("lodsel.{p}_s").as_str()])
                .sum::<f64>(),
            v["lodsel.sweep_span_s"],
            if adds_up { "ok" } else { "FAILED" }
        );
        println!(
            "premise: {label} {:.3} > 0.5: {}",
            v[metric],
            if v[metric] > 0.5 {
                "holds"
            } else {
                "DOES NOT HOLD"
            }
        );
        out.layers = v;
    }
    out
}

/// The largest parameter-space dimension of the grid versions, the size
/// the GP micro-benchmark fits in.
pub fn grid_dim() -> usize {
    gridsim::prelude::GridVersion::all()
        .iter()
        .map(|v| v.parameter_space().dim())
        .max()
        .expect("grid versions")
}
