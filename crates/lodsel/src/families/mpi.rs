//! Case study #2 (MPI communication) as a sweepable family.
//!
//! Follows the paper's §6.4 protocol: every version calibrates against the
//! full base-scale scenario set and is judged on the same scenarios
//! (deliberate overfitting; generalization across scales is a separate
//! experiment, `sec6_5`). A sweep unit is one version, and its summary
//! samples are the per-scenario mean relative transfer-rate errors —
//! exactly what Figure 5's bars and error bars aggregate.

use crate::family::{calibrate_objective, SweepUnit, UnitEval, VersionFamily};
use mpisim::prelude::{
    dataset, mean_relative_rate_error, objective, BenchmarkKind, MpiEmulatorConfig, MpiScenario,
    MpiSimulator, MpiSimulatorVersion, NODE_COUNTS,
};
use simcal::prelude::{Budget, Calibration, CalibrationResult, Fidelity, MatrixLoss};

/// Node counts used by the experiments. The paper runs 128/256/512; the
/// `fast` grid shrinks the base scale (contention structure is preserved)
/// so smoke runs finish in seconds.
pub fn node_counts(fast: bool) -> Vec<usize> {
    if fast {
        vec![32, 64, 128]
    } else {
        NODE_COUNTS.to_vec()
    }
}

/// Ground-truth emulator configuration for the experiments.
pub fn emulator_config(fast: bool) -> MpiEmulatorConfig {
    MpiEmulatorConfig {
        repetitions: if fast { 3 } else { 5 },
        ..Default::default()
    }
}

/// Content hash of an MPI scenario set under a named loss: the dataset
/// component of both the family fingerprint and the persistent-cache
/// fingerprint. Rate observations contribute exact bit patterns, so two
/// hashes agree only when the ground truth is identical.
pub fn dataset_fingerprint(scenarios: &[MpiScenario], loss_label: &str) -> u64 {
    let mut parts = vec![format!("mpi|loss={loss_label}")];
    for s in scenarios {
        parts.push(format!(
            "bench={}|nodes={}|sizes={}",
            s.benchmark.name(),
            s.n_nodes,
            s.sizes.len()
        ));
        for rate in s.mean_rates() {
            parts.push(format!("rate={:016x}", rate.to_bits()));
        }
    }
    super::fingerprint_of(parts)
}

/// The MPI simulator family: 16 versions × one unit each.
pub struct MpiFamily {
    versions: Vec<MpiSimulatorVersion>,
    scenarios: Vec<MpiScenario>,
    loss: MatrixLoss,
    fingerprint: u64,
}

impl MpiFamily {
    /// Build from explicit versions, scenarios, and a loss. `loss_label`
    /// names the loss in the dataset fingerprint.
    pub fn new(
        versions: Vec<MpiSimulatorVersion>,
        scenarios: Vec<MpiScenario>,
        loss: MatrixLoss,
        loss_label: &str,
    ) -> Self {
        assert!(
            !versions.is_empty() && !scenarios.is_empty(),
            "empty family"
        );
        let fingerprint = dataset_fingerprint(&scenarios, loss_label);
        Self {
            versions,
            scenarios,
            loss,
            fingerprint,
        }
    }

    /// The family the paper's Figure 5 sweeps: all 16 versions over the
    /// base-scale calibration set, under the L1 loss selected by Table 5.
    pub fn paper(fast: bool, seed: u64) -> Self {
        let cfg = emulator_config(fast);
        let base_nodes = node_counts(fast)[0];
        let scenarios = dataset(&BenchmarkKind::CALIBRATION_SET, &[base_nodes], &cfg, seed);
        let loss = MatrixLoss::paper_set()[0].clone();
        Self::new(MpiSimulatorVersion::all(), scenarios, loss, "L1")
    }

    /// The scenario set (training and test are the same here).
    pub fn scenarios(&self) -> &[MpiScenario] {
        &self.scenarios
    }
}

impl VersionFamily for MpiFamily {
    fn name(&self) -> &str {
        "mpi"
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
        let sim = MpiSimulator::new(self.versions[unit.version]);
        let obj = objective(&sim, &self.scenarios, self.loss.clone());
        calibrate_objective(self, unit, obj, budget, seed, &Fidelity::full())
    }

    fn calibrate_at(
        &self,
        unit: &SweepUnit,
        budget: Budget,
        seed: u64,
        fidelity: &Fidelity,
    ) -> CalibrationResult {
        let sim = MpiSimulator::new(self.versions[unit.version]);
        let obj = objective(&sim, &self.scenarios, self.loss.clone());
        calibrate_objective(self, unit, obj, budget, seed, fidelity)
    }

    fn evaluate(&self, unit: &SweepUnit, calibration: &Calibration) -> UnitEval {
        let sim = MpiSimulator::new(self.versions[unit.version]);
        let mut samples = Vec::new();
        let mut work_units = 0u64;
        for s in &self.scenarios {
            samples.push(mean_relative_rate_error(&sim, s, calibration));
            work_units += sim.simulation_work(s.benchmark, s.n_nodes, &s.sizes, calibration);
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

    fn tiny() -> MpiFamily {
        let cfg = MpiEmulatorConfig {
            repetitions: 2,
            ..Default::default()
        };
        let scenarios = dataset(&[BenchmarkKind::PingPong], &[8], &cfg, 5);
        MpiFamily::new(
            vec![
                MpiSimulatorVersion::lowest_detail(),
                MpiSimulatorVersion::highest_detail(),
            ],
            scenarios,
            MatrixLoss::paper_set()[0].clone(),
            "L1",
        )
    }

    #[test]
    fn one_unit_per_version() {
        let f = tiny();
        assert_eq!(f.units().len(), 2);
        assert_eq!(f.units()[1].version, 1);
    }

    #[test]
    fn evaluation_reports_per_scenario_samples_and_ordered_work() {
        let f = tiny();
        let units = f.units();
        let lo = f.calibrate(&units[0], Budget::Evaluations(5), 1);
        let hi = f.calibrate(&units[1], Budget::Evaluations(5), 1);
        let e_lo = f.evaluate(&units[0], &lo.calibration);
        let e_hi = f.evaluate(&units[1], &hi.calibration);
        assert_eq!(e_lo.samples.len(), f.scenarios().len());
        assert!(
            e_hi.work_units > e_lo.work_units,
            "higher detail must cost more simulation work"
        );
    }
}
