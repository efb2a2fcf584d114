//! The objective's reductions do not depend on who computed what: error
//! vectors and residual Jacobians are bit-identical under the block and
//! the load-balanced schedule and under any rank count, so a fit is
//! reproducible across machines whose file timings (and so whose LPT
//! schedules) differ.

use std::time::Duration;

use rms_parallel::{block_schedule, ExperimentFile, ParallelEstimator, Simulator};

/// Two-parameter decay `p₀·e^{−p₁·t}`, scaled per file so that no two
/// files contribute the same addends. File 0 is slow, which is all the
/// load balancer needs to leave the block schedule.
struct Decay;

impl Decay {
    fn scale(file: usize) -> f64 {
        1.0 + (file as f64 + 1.0).sqrt() / 7.0
    }
}

impl Simulator for Decay {
    fn simulate(&self, p: &[f64], file: usize, times: &[f64]) -> Result<Vec<f64>, String> {
        if file == 0 {
            std::thread::sleep(Duration::from_millis(30));
        }
        let scale = Decay::scale(file);
        Ok(times
            .iter()
            .map(|t| scale * p[0] * (-p[1] * t).exp())
            .collect())
    }

    fn sensitivity_params(&self) -> usize {
        2
    }

    fn simulate_with_sensitivities(
        &self,
        p: &[f64],
        file: usize,
        times: &[f64],
    ) -> Result<(Vec<f64>, Vec<Vec<f64>>), String> {
        let values = self.simulate(p, file, times)?;
        let sens = times
            .iter()
            .zip(&values)
            .map(|(t, v)| vec![v / p[0], -t * v])
            .collect();
        Ok((values, sens))
    }
}

/// Four files of different horizons (5, 9, 14 and 20 records).
fn files() -> Vec<ExperimentFile> {
    [5usize, 9, 14, 20]
        .iter()
        .enumerate()
        .map(|(i, &records)| {
            let times: Vec<f64> = (1..=records).map(|j| j as f64 * 0.37 / 3.0).collect();
            let values = Decay.simulate(&[1.0, 0.8], i, &times).unwrap();
            ExperimentFile {
                label: format!("exp{i}"),
                times,
                values,
            }
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn error_vector_and_jacobian_ignore_schedule_and_rank_count() {
    let params = [1.1, 0.7];
    let reference = ParallelEstimator::new(&Decay, files(), 1, false);
    let error = bits(&reference.objective(&params).unwrap().error_vector);
    let jacobian = bits(&reference.objective_jacobian(&params).unwrap());
    assert_eq!((error.len(), jacobian.len()), (20, 20 * 2));

    for ranks in [1, 2, 3] {
        for dynamic in [false, true] {
            let estimator = ParallelEstimator::new(&Decay, files(), ranks, dynamic);
            // The warm-up call records the file times the load balancer
            // schedules the next calls from.
            let warm_up = estimator.objective(&params).unwrap();
            assert_eq!(bits(&warm_up.error_vector), error, "warm-up, {ranks} ranks");
            // Slow file 0 gets a rank to itself; the block schedule pairs
            // it with file 1. (One rank merely reorders its files.)
            let block = block_schedule(4, ranks).unwrap();
            if !dynamic {
                assert_eq!(estimator.current_schedule(), block, "{ranks} ranks");
            } else if ranks > 1 {
                assert_ne!(estimator.current_schedule(), block, "{ranks} ranks");
            }
            let label = format!("{ranks} ranks, dynamic = {dynamic}");
            let out = estimator.objective(&params).unwrap();
            assert_eq!(bits(&out.error_vector), error, "{label}");
            let jac = estimator.objective_jacobian(&params).unwrap();
            assert_eq!(bits(&jac), jacobian, "{label}");
        }
    }
}

/// The rank count is outside input (`rmsc estimate --workers`, a served
/// job's `"workers"`): the estimator starts one thread per rank, so it
/// clamps the request to what the files can use.
#[test]
fn rank_count_is_clamped_to_the_file_count() {
    let params = [1.1, 0.7];
    let four = ParallelEstimator::new(&Decay, files(), 4, true);
    let error = bits(&four.objective(&params).unwrap().error_vector);
    let jacobian = bits(&four.objective_jacobian(&params).unwrap());
    for (asked, ranks) in [(64, 4), (usize::MAX, 4), (4, 4), (3, 3), (0, 1)] {
        let estimator = ParallelEstimator::new(&Decay, files(), asked, true);
        assert_eq!(estimator.current_schedule().len(), ranks, "asked {asked}");
        let out = estimator.objective(&params).unwrap();
        assert_eq!(out.health.per_rank_wall.len(), ranks, "asked {asked}");
        assert_eq!(bits(&out.error_vector), error, "asked {asked}");
        let jac = estimator.objective_jacobian(&params).unwrap();
        assert_eq!(bits(&jac), jacobian, "asked {asked}");
    }
}
