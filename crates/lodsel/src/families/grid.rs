//! Case study #4 (federated data grid) as a sweepable family.
//!
//! Mirrors Figure 2's protocol in the data-grid domain: all 8
//! level-of-detail versions calibrate against the training workloads and
//! are judged by the mean relative per-job *turnaround* error on held-out
//! workloads (turnarounds are where cache hits, WAN queueing, and broker
//! serialisation live; makespans are dominated by total work). A sweep
//! unit is one version, and its summary samples are the per-workload
//! mean turnaround errors.

use crate::family::{calibrate_objective, SweepUnit, UnitEval, VersionFamily};
use gridsim::prelude::{
    dataset, objective, GridEmulatorConfig, GridScenario, GridSimulator, GridSpec, GridVersion,
};
use simcal::prelude::{
    relative_error, Agg, Budget, Calibration, CalibrationResult, ElementMix, Fidelity,
    StructuredLoss,
};

/// The data-grid simulator family: 8 versions × one unit each.
pub struct GridFamily {
    versions: Vec<GridVersion>,
    train: Vec<GridScenario>,
    test: Vec<GridScenario>,
    loss: StructuredLoss,
    fingerprint: u64,
}

impl GridFamily {
    /// Build from explicit versions, train/test workloads, and a loss.
    /// `loss_label` names the loss in the dataset fingerprint.
    pub fn new(
        versions: Vec<GridVersion>,
        train: Vec<GridScenario>,
        test: Vec<GridScenario>,
        loss: StructuredLoss,
        loss_label: &str,
    ) -> Self {
        assert!(
            !versions.is_empty() && !train.is_empty() && !test.is_empty(),
            "empty family"
        );
        let mut parts = vec![format!("grid|loss={loss_label}")];
        for (tag, set) in [("train", &train), ("test", &test)] {
            for s in set.iter() {
                parts.push(format!(
                    "{tag}|sites={}|jobs={}|makespan={:016x}",
                    s.workload.sites,
                    s.workload.jobs.len(),
                    s.makespan.to_bits()
                ));
            }
        }
        let fingerprint = super::fingerprint_of(parts);
        Self {
            versions,
            train,
            test,
            loss,
            fingerprint,
        }
    }

    /// The family the case-study-4 experiment sweeps: arrival pressure
    /// crossed with file-popularity skew, so the cache, WAN, and broker
    /// behaviours each matter in some workload and not in others.
    pub fn paper(fast: bool, seed: u64) -> Self {
        let cfg = GridEmulatorConfig::default();
        let mut grid = Vec::new();
        for (i, &interarrival) in [3.0, 9.0].iter().enumerate() {
            for (j, &skew) in [0.4, 1.8].iter().enumerate() {
                grid.push(GridSpec {
                    mean_interarrival: interarrival,
                    skew,
                    seed: seed ^ ((i * 2 + j) as u64) << 8,
                    ..GridSpec::default()
                });
            }
        }
        let (train_specs, test_specs) = grid.split_at(2);
        let reps = if fast { 2 } else { 3 };
        let train = dataset(train_specs, &cfg, reps, seed);
        let test = dataset(test_specs, &cfg, reps, seed);
        let loss = StructuredLoss::new(Agg::Avg, ElementMix::AddAvg, "L3");
        Self::new(GridVersion::all(), train, test, loss, "L3")
    }

    /// The training workloads.
    pub fn train(&self) -> &[GridScenario] {
        &self.train
    }

    /// The held-out test workloads.
    pub fn test(&self) -> &[GridScenario] {
        &self.test
    }

    /// Mean relative per-job turnaround error of `calibration` on each
    /// test workload (also used by the uncalibrated baseline).
    pub fn turnaround_errors(&self, version: GridVersion, calibration: &Calibration) -> Vec<f64> {
        let sim = GridSimulator::new(version);
        self.test
            .iter()
            .map(|s| {
                let out = sim.simulate(&s.workload, calibration);
                let errs: Vec<f64> = s
                    .turnarounds
                    .iter()
                    .zip(&out.turnarounds)
                    .map(|(&gt, &m)| relative_error(gt, m))
                    .collect();
                numeric::mean(&errs)
            })
            .collect()
    }

    /// The version behind unit index `i` (driver convenience).
    pub fn version(&self, i: usize) -> GridVersion {
        self.versions[i]
    }
}

impl VersionFamily for GridFamily {
    fn name(&self) -> &str {
        "grid"
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn version_labels(&self) -> Vec<String> {
        self.versions.iter().map(|v| v.label()).collect()
    }

    fn dim(&self, version: usize) -> usize {
        self.versions[version].parameter_space().dim()
    }

    fn units(&self) -> Vec<SweepUnit> {
        self.versions
            .iter()
            .enumerate()
            .map(|(vi, v)| SweepUnit {
                version: vi,
                slot: 0,
                label: v.label(),
            })
            .collect()
    }

    fn calibrate(&self, unit: &SweepUnit, budget: Budget, seed: u64) -> CalibrationResult {
        let sim = GridSimulator::new(self.versions[unit.version]);
        let obj = objective(&sim, &self.train, self.loss.clone());
        calibrate_objective(self, unit, obj, budget, seed, &Fidelity::full())
    }

    fn calibrate_at(
        &self,
        unit: &SweepUnit,
        budget: Budget,
        seed: u64,
        fidelity: &Fidelity,
    ) -> CalibrationResult {
        let sim = GridSimulator::new(self.versions[unit.version]);
        let obj = objective(&sim, &self.train, self.loss.clone());
        calibrate_objective(self, unit, obj, budget, seed, fidelity)
    }

    fn evaluate(&self, unit: &SweepUnit, calibration: &Calibration) -> UnitEval {
        let version = self.versions[unit.version];
        let sim = GridSimulator::new(version);
        let mut samples = Vec::new();
        let mut work_units = 0u64;
        for s in &self.test {
            let out = sim.simulate(&s.workload, calibration);
            let errs: Vec<f64> = s
                .turnarounds
                .iter()
                .zip(&out.turnarounds)
                .map(|(&gt, &m)| relative_error(gt, m))
                .collect();
            samples.push(numeric::mean(&errs));
            work_units += out.sim_events;
        }
        UnitEval {
            samples,
            work_units,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A deliberately tiny family so the tests finish in milliseconds.
    pub(crate) fn tiny_family(seed: u64) -> GridFamily {
        let cfg = GridEmulatorConfig::default();
        let specs = [
            GridSpec {
                jobs: 16,
                files: 24,
                mean_interarrival: 4.0,
                seed,
                ..GridSpec::default()
            },
            GridSpec {
                jobs: 16,
                files: 24,
                mean_interarrival: 12.0,
                skew: 1.8,
                seed: seed ^ 0x100,
                ..GridSpec::default()
            },
        ];
        let train = dataset(&specs[..1], &cfg, 1, seed);
        let test = dataset(&specs[1..], &cfg, 1, seed);
        GridFamily::new(
            GridVersion::all(),
            train,
            test,
            StructuredLoss::new(Agg::Avg, ElementMix::AddAvg, "L3"),
            "L3",
        )
    }

    #[test]
    fn eight_versions_one_unit_each() {
        let f = tiny_family(1);
        assert_eq!(f.units().len(), 8);
        assert_eq!(f.version_labels().len(), 8);
        assert_eq!(f.dim(0), 5);
        assert_eq!(f.dim(7), 7);
    }

    #[test]
    fn evaluate_matches_turnaround_errors_and_counts_events() {
        let f = tiny_family(1);
        let unit = &f.units()[0];
        let r = f.calibrate(unit, Budget::Evaluations(6), 2);
        let eval = f.evaluate(unit, &r.calibration);
        assert_eq!(
            eval.samples,
            f.turnaround_errors(f.versions[0], &r.calibration)
        );
        assert!(eval.work_units > 0);
    }

    #[test]
    fn fingerprint_tracks_the_dataset() {
        let a = tiny_family(1);
        let b = tiny_family(1);
        let c = tiny_family(2);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
