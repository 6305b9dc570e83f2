//! Case study #3 (batch scheduling) as a sweepable family.
//!
//! Mirrors Figure 2's protocol in the batch domain: all 4 level-of-detail
//! versions calibrate against the training traces and are judged by the
//! mean relative per-job *turnaround* error on held-out traces (job waits
//! are where scheduler behaviour lives; trace makespans are dominated by
//! total work and hide it). A sweep unit is one version, and its summary
//! samples are the per-trace mean turnaround errors.

use crate::family::{calibrate_objective, SweepUnit, UnitEval, VersionFamily};
use batchsim::prelude::{
    dataset, objective, BatchEmulatorConfig, BatchScenario, BatchSimulator, BatchVersion,
    WorkloadSpec,
};
use simcal::prelude::{
    relative_error, Agg, Budget, Calibration, CalibrationResult, ElementMix, Fidelity,
    StructuredLoss,
};

/// The batch simulator family: 4 versions × one unit each.
pub struct BatchFamily {
    versions: Vec<BatchVersion>,
    total_nodes: u32,
    train: Vec<BatchScenario>,
    test: Vec<BatchScenario>,
    loss: StructuredLoss,
    fingerprint: u64,
}

impl BatchFamily {
    /// Build from explicit versions, cluster size, train/test traces, and
    /// a loss. `loss_label` names the loss in the dataset fingerprint.
    pub fn new(
        versions: Vec<BatchVersion>,
        total_nodes: u32,
        train: Vec<BatchScenario>,
        test: Vec<BatchScenario>,
        loss: StructuredLoss,
        loss_label: &str,
    ) -> Self {
        assert!(
            !versions.is_empty() && !train.is_empty() && !test.is_empty(),
            "empty family"
        );
        let mut parts = vec![format!("batch|nodes={total_nodes}|loss={loss_label}")];
        for (tag, set) in [("train", &train), ("test", &test)] {
            for s in set.iter() {
                parts.push(format!(
                    "{tag}|jobs={}|makespan={:016x}",
                    s.jobs.len(),
                    s.makespan.to_bits()
                ));
            }
        }
        let fingerprint = super::fingerprint_of(parts);
        Self {
            versions,
            total_nodes,
            train,
            test,
            loss,
            fingerprint,
        }
    }

    /// The family the case-study-3 experiment sweeps: short-to-medium
    /// jobs under varied arrival pressure, so per-job waits (where the
    /// hidden scheduling cycle lives) are a visible share of the
    /// turnaround.
    pub fn paper(fast: bool, seed: u64) -> Self {
        let cfg = BatchEmulatorConfig::default();
        let mut grid = Vec::new();
        for (i, &interarrival) in [8.0, 20.0, 45.0].iter().enumerate() {
            for (j, &work) in [60.0, 240.0].iter().enumerate() {
                grid.push(WorkloadSpec {
                    num_jobs: 80,
                    mean_interarrival: interarrival,
                    mean_work: work,
                    max_nodes_log2: 5,
                    seed: seed ^ ((i * 2 + j) as u64) << 8,
                });
            }
        }
        let (train_specs, test_specs) = grid.split_at(if fast { 2 } else { 4 });
        let reps = if fast { 2 } else { 3 };
        let train = dataset(train_specs, &cfg, reps, seed);
        let test = dataset(test_specs, &cfg, reps, seed);
        let loss = StructuredLoss::new(Agg::Avg, ElementMix::AddAvg, "L3");
        Self::new(
            BatchVersion::all(),
            cfg.total_nodes,
            train,
            test,
            loss,
            "L3",
        )
    }

    /// The training traces.
    pub fn train(&self) -> &[BatchScenario] {
        &self.train
    }

    /// The held-out test traces.
    pub fn test(&self) -> &[BatchScenario] {
        &self.test
    }

    /// Cluster size the traces were generated for.
    pub fn total_nodes(&self) -> u32 {
        self.total_nodes
    }

    /// Mean relative per-job turnaround error of `calibration` on each
    /// test trace (also used by the uncalibrated baseline).
    pub fn turnaround_errors(&self, version: BatchVersion, calibration: &Calibration) -> Vec<f64> {
        let sim = BatchSimulator::new(version, self.total_nodes);
        self.test
            .iter()
            .map(|s| {
                let out = sim.simulate(&s.jobs, calibration);
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
}

impl VersionFamily for BatchFamily {
    fn name(&self) -> &str {
        "batch"
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
        let sim = BatchSimulator::new(self.versions[unit.version], self.total_nodes);
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
        let sim = BatchSimulator::new(self.versions[unit.version], self.total_nodes);
        let obj = objective(&sim, &self.train, self.loss.clone());
        calibrate_objective(self, unit, obj, budget, seed, fidelity)
    }

    fn evaluate(&self, unit: &SweepUnit, calibration: &Calibration) -> UnitEval {
        let version = self.versions[unit.version];
        let sim = BatchSimulator::new(version, self.total_nodes);
        let mut samples = Vec::new();
        let mut work_units = 0u64;
        for s in &self.test {
            let out = sim.simulate(&s.jobs, calibration);
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
mod tests {
    use super::*;

    /// A deliberately tiny grid so the tests finish in milliseconds.
    fn tiny_family(seed: u64) -> BatchFamily {
        let cfg = BatchEmulatorConfig::default();
        let specs = [
            WorkloadSpec {
                num_jobs: 20,
                mean_interarrival: 10.0,
                mean_work: 60.0,
                max_nodes_log2: 4,
                seed,
            },
            WorkloadSpec {
                num_jobs: 20,
                mean_interarrival: 25.0,
                mean_work: 120.0,
                max_nodes_log2: 4,
                seed: seed ^ 0x100,
            },
        ];
        let train = dataset(&specs[..1], &cfg, 1, seed);
        let test = dataset(&specs[1..], &cfg, 1, seed);
        BatchFamily::new(
            BatchVersion::all(),
            cfg.total_nodes,
            train,
            test,
            StructuredLoss::new(Agg::Avg, ElementMix::AddAvg, "L3"),
            "L3",
        )
    }

    #[test]
    fn four_versions_one_unit_each() {
        let f = tiny_family(1);
        assert_eq!(f.units().len(), 4);
        assert_eq!(f.version_labels().len(), 4);
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
}
