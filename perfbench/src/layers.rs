//! Per-layer metrics of the traced run, read from outside the program:
//! counters, histograms and spans from an installed `obs::TraceRecorder`,
//! busy times from the [`Timed`] wrapper family, and direct calls into the
//! BO surrogate.

use crate::timed::Timed;
use obs::{Counter, Hist, TraceRecorder};
use simcal::surrogate::{GaussianProcess, Surrogate};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub type Values = BTreeMap<&'static str, f64>;

/// Every per-layer metric with its unit, in report order. Must match the
/// `per_layer` list of `BENCHMARK.json` (the runner checks it).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dessim.events", "count"),
    ("dessim.sharing_resolves", "count"),
    ("dessim.heap_reinserts", "count"),
    ("dessim.events_per_busy_s", "1/s"),
    ("family.evaluate_calls", "count"),
    ("family.evaluate_busy_s", "s"),
    ("simcal.evals", "count"),
    ("simcal.memo_hits", "count"),
    ("simcal.memo_hit_ratio", "ratio"),
    ("simcal.eval_failures", "count"),
    ("simcal.objective_busy_s", "s"),
    ("simcal.objective_mean_ms", "ms"),
    ("simcal.objective_share", "ratio"),
    ("simcal.disk_hits", "count"),
    ("simcal.disk_misses", "count"),
    ("simcal.cache_bytes", "bytes"),
    ("simcal.search_busy_s", "s"),
    ("simcal.search_share", "ratio"),
    ("simcal.gp_fit_ms.n50", "ms"),
    ("simcal.gp_fit_ms.n100", "ms"),
    ("simcal.gp_fit_ms.n200", "ms"),
    ("simcal.gp_predict512_ms.n50", "ms"),
    ("simcal.gp_predict512_ms.n100", "ms"),
    ("simcal.gp_predict512_ms.n200", "ms"),
    ("lodsel.sweep_span_s", "s"),
    ("lodsel.plan_s", "s"),
    ("lodsel.calibrate_s", "s"),
    ("lodsel.evaluate_s", "s"),
    ("lodsel.reduce_s", "s"),
    ("lodsel.unaccounted_s", "s"),
    ("lodsel.runs", "count"),
    ("lodsel.threads", "count"),
    ("lodsel.calibrate_busy_s", "s"),
    ("lodsel.pool_utilization", "ratio"),
    ("lodsel.ledger_bytes", "bytes"),
    ("lodsel.ledger_retries", "count"),
    ("calibd.submit_rtt_ms", "ms"),
    ("calibd.queue_wait_s", "s"),
    ("calibd.run_s", "s"),
    ("calibd.jobs_log_bytes", "bytes"),
    ("calibd.shard_ledger_bytes", "bytes"),
    ("calibd.jobs_accepted", "count"),
    ("obs.tracing_overhead", "ratio"),
];

/// `a / b`, or 0 when nothing was measured (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Layer metrics every workload reads from the recorder's counters and
/// its evaluation-latency histogram.
pub fn from_counters(rec: &TraceRecorder, v: &mut Values) {
    let c = |counter| rec.counter_value(counter) as f64;
    let hist = rec.histogram(Hist::EvalLatency);
    let objective_busy = hist.sum_secs;
    let (hits, misses, disk_hits) = (
        c(Counter::EvalCacheHits),
        c(Counter::EvalCacheMisses),
        c(Counter::DiskCacheHits),
    );
    v.insert("dessim.events", c(Counter::KernelEvents));
    v.insert("dessim.sharing_resolves", c(Counter::KernelSharingResolves));
    v.insert("dessim.heap_reinserts", c(Counter::KernelHeapReinserts));
    // Events include those of the held-out evaluate phase, which the
    // objective histogram does not time.
    v.insert(
        "dessim.events_per_busy_s",
        ratio(c(Counter::KernelEvents), objective_busy),
    );
    v.insert("simcal.evals", misses);
    v.insert("simcal.memo_hits", hits);
    v.insert(
        "simcal.memo_hit_ratio",
        ratio(hits, hits + misses + disk_hits),
    );
    v.insert(
        "simcal.eval_failures",
        c(Counter::EvalPanics) + c(Counter::EvalNonfinite),
    );
    v.insert("simcal.objective_busy_s", objective_busy);
    v.insert(
        "simcal.objective_mean_ms",
        1e3 * hist.mean_secs().unwrap_or(0.0),
    );
    v.insert("simcal.disk_hits", disk_hits);
    v.insert("simcal.disk_misses", c(Counter::DiskCacheMisses));
    v.insert("lodsel.ledger_retries", c(Counter::LedgerRetries));
    v.insert("calibd.jobs_accepted", c(Counter::JobsAccepted));
}

/// Layer metrics of one traced sweep: counters plus the sweep's phase
/// spans and the wrapper family's busy times. `threads` is the pool size
/// the busy sums overlap on.
pub fn of_sweep(rec: &TraceRecorder, timed: &Timed, threads: usize) -> Values {
    let mut v = Values::new();
    from_counters(rec, &mut v);
    let spans = rec.spans();
    let root = spans
        .iter()
        .find(|s| s.name == "sweep" && s.parent.is_none())
        .expect("a traced sweep records a root `sweep` span");
    let mut phases = [0.0; 4];
    for s in spans.iter().filter(|s| s.parent == Some(root.id)) {
        let slot = ["plan", "calibrate", "evaluate", "reduce"]
            .iter()
            .position(|&p| p == s.name);
        if let Some(i) = slot {
            phases[i] += s.duration_secs();
        }
    }
    let sweep = root.duration_secs();
    let calibrate_busy = timed.calibrate.secs();
    let objective_busy = v["simcal.objective_busy_s"];
    let search_busy = calibrate_busy - objective_busy;
    v.insert("lodsel.sweep_span_s", sweep);
    v.insert("lodsel.plan_s", phases[0]);
    v.insert("lodsel.calibrate_s", phases[1]);
    v.insert("lodsel.evaluate_s", phases[2]);
    v.insert("lodsel.reduce_s", phases[3]);
    v.insert("lodsel.unaccounted_s", sweep - phases.iter().sum::<f64>());
    v.insert("lodsel.runs", timed.calibrate.calls() as f64);
    v.insert("lodsel.threads", threads as f64);
    v.insert("lodsel.calibrate_busy_s", calibrate_busy);
    v.insert(
        "lodsel.pool_utilization",
        ratio(calibrate_busy, threads as f64 * phases[1]),
    );
    v.insert("family.evaluate_calls", timed.evaluate.calls() as f64);
    v.insert("family.evaluate_busy_s", timed.evaluate.secs());
    v.insert("simcal.search_busy_s", search_busy);
    v.insert("simcal.search_share", ratio(search_busy, calibrate_busy));
    v.insert(
        "simcal.objective_share",
        ratio(objective_busy, calibrate_busy),
    );
    v
}

/// The add-up check of a traced sweep: objective plus search busy time is
/// the calibrate busy time, with the objective part no larger than the
/// whole, and the four phases plus the unaccounted rest are the root span,
/// with a non-negative rest.
pub fn adds_up(v: &Values) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    let phases: f64 = ["plan", "calibrate", "evaluate", "reduce"]
        .iter()
        .map(|p| v[format!("lodsel.{p}_s").as_str()])
        .sum();
    close(
        v["simcal.objective_busy_s"] + v["simcal.search_busy_s"],
        v["lodsel.calibrate_busy_s"],
    ) && v["simcal.search_busy_s"] >= 0.0
        && close(phases + v["lodsel.unaccounted_s"], v["lodsel.sweep_span_s"])
        && v["lodsel.unaccounted_s"] >= 0.0
}

const GP_SIZES: [(usize, &str, &str); 3] = [
    (50, "simcal.gp_fit_ms.n50", "simcal.gp_predict512_ms.n50"),
    (100, "simcal.gp_fit_ms.n100", "simcal.gp_predict512_ms.n100"),
    (200, "simcal.gp_fit_ms.n200", "simcal.gp_predict512_ms.n200"),
];
const GP_REPEATS: usize = 7;

/// Direct single-threaded calls into the BO surrogate: the median time of
/// `GaussianProcess::fit` on `n` seeded unit-cube points of dimension
/// `dim`, and of predicting the 512 candidates one BO step scores.
pub fn gp_micro(seed: u64, dim: usize, v: &mut Values) {
    let mut state = seed ^ 0x6770_6d69_6372_6f00;
    let mut unit = move || (crate::splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
    for (n, fit_name, predict_name) in GP_SIZES {
        let mut point = |_| (0..dim).map(|_| unit()).collect::<Vec<f64>>();
        let x: Vec<Vec<f64>> = (0..n).map(&mut point).collect();
        let candidates: Vec<Vec<f64>> = (0..512).map(&mut point).collect();
        // A smooth, anisotropic loss-like surface.
        let y: Vec<f64> = x
            .iter()
            .map(|p| {
                p.iter()
                    .enumerate()
                    .map(|(i, c)| (3.0 * (i + 1) as f64 * c).sin())
                    .sum()
            })
            .collect();
        let mut fit = Vec::new();
        let mut predict = Vec::new();
        for _ in 0..GP_REPEATS {
            let mut gp = GaussianProcess::default();
            let t0 = Instant::now();
            gp.fit(black_box(&x), black_box(&y));
            fit.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            let mut acc = 0.0;
            for c in &candidates {
                let (m, s) = gp.predict(black_box(c));
                acc += m + s;
            }
            black_box(acc);
            predict.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        v.insert(fit_name, crate::stats::median(&fit));
        v.insert(predict_name, crate::stats::median(&predict));
    }
}
