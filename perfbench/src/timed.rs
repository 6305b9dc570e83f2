//! A timing wrapper around any [`VersionFamily`]: it forwards every call
//! unchanged (so sweep plans, keys and digests are those of the wrapped
//! family) and adds up the wall time spent inside `calibrate`,
//! `calibrate_at` and `evaluate`, measured from outside the program.

use lodsel::family::{SweepUnit, UnitEval, VersionFamily};
use simcal::prelude::{Budget, Calibration, CalibrationResult, Fidelity};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Calls made and wall time spent inside one family entry point.
#[derive(Default)]
pub struct Busy {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Busy {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        // Statistics only: nothing is published through these counters.
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

pub struct Timed<'a> {
    inner: &'a dyn VersionFamily,
    /// `calibrate` and `calibrate_at` together: one calibration run each.
    pub calibrate: Busy,
    pub evaluate: Busy,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a dyn VersionFamily) -> Self {
        Timed {
            inner,
            calibrate: Busy::default(),
            evaluate: Busy::default(),
        }
    }
}

impl VersionFamily for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn version_labels(&self) -> Vec<String> {
        self.inner.version_labels()
    }

    fn dim(&self, version: usize) -> usize {
        self.inner.dim(version)
    }

    fn units(&self) -> Vec<SweepUnit> {
        self.inner.units()
    }

    fn calibrate(&self, unit: &SweepUnit, budget: Budget, seed: u64) -> CalibrationResult {
        self.calibrate
            .time(|| self.inner.calibrate(unit, budget, seed))
    }

    fn calibrate_at(
        &self,
        unit: &SweepUnit,
        budget: Budget,
        seed: u64,
        fidelity: &Fidelity,
    ) -> CalibrationResult {
        self.calibrate
            .time(|| self.inner.calibrate_at(unit, budget, seed, fidelity))
    }

    fn evaluate(&self, unit: &SweepUnit, calibration: &Calibration) -> UnitEval {
        self.evaluate
            .time(|| self.inner.evaluate(unit, calibration))
    }
}
