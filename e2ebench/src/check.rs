//! Output checks. Every job's decrypted output is compared with a value
//! computed apart from the compiler and the CKKS backends: the plaintext
//! `reference_run` of the traced, uncompiled source, or the plain-math
//! `invsqrt_eval`. A check fails on the first slot that misses.

/// Absolute tolerance per slot for `train-durable` (toy backend, 40-bit
/// scale). The worst error seen is about 6e-5 (K-means, 2^9); 1e-3 leaves
/// a 16× margin while still catching a wrong value in any one slot.
pub const TRAIN_TOL: f64 = 1e-3;

/// Absolute tolerance per slot for `compile-tune` (exact simulation
/// backend: plain `f64` arithmetic, so only reassociation by unrolling
/// and packing separates it from the reference).
pub const TUNE_TOL: f64 = 1e-6;

/// Absolute tolerance per slot for `serve-toy` (toy backend at 2^10,
/// 40-bit scale, three substitute bootstraps per execution; outputs lie
/// in [1, 3.2]).
pub const SERVE_TOL: f64 = 1e-3;

/// Compares every slot of every output with the expected vectors.
pub fn outputs_match(got: &[Vec<f64>], want: &[Vec<f64>], tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} outputs, expected {}", got.len(), want.len()));
    }
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        if g.len() != w.len() {
            return Err(format!(
                "output {k}: {} slots, expected {}",
                g.len(),
                w.len()
            ));
        }
        for (i, (a, b)) in g.iter().zip(w).enumerate() {
            let d = (a - b).abs();
            if d.is_nan() || d > tol {
                return Err(format!("output {k} slot {i}: {a} vs {b} (tolerance {tol})"));
            }
        }
    }
    Ok(())
}

/// `serve-toy`: the output is the job's window of `invsqrt(t)`,
/// replicated cyclically over every slot.
pub fn window_matches(got: &[Vec<f64>], t: &[f64], trips: u64, tol: f64) -> Result<(), String> {
    let want: Vec<f64> = t
        .iter()
        .map(|&x| halo_ml::approx::invroot::invsqrt_eval(x, trips))
        .collect();
    let [out] = got else {
        return Err(format!("{} outputs, expected 1", got.len()));
    };
    if out.is_empty() {
        return Err("empty output".into());
    }
    let cyclic: Vec<f64> = (0..out.len()).map(|i| want[i % want.len()]).collect();
    outputs_match(got, &[cyclic], tol)
}

/// `compile-tune`'s property check: the branch-and-bound tuner's own
/// estimate may not exceed HALO's at the tuner's assumed trip count, and
/// its accounting must cover the whole search space.
pub fn tuner_sound(
    tuned_cost_us: f64,
    halo_cost_us: f64,
    evaluated: usize,
    pruned: usize,
    space: usize,
) -> Result<(), String> {
    // Relative slack for summation order only; any real loss is far larger.
    if tuned_cost_us.is_nan() || tuned_cost_us > halo_cost_us * (1.0 + 1e-9) {
        return Err(format!(
            "tuned estimate {tuned_cost_us} us exceeds HALO's {halo_cost_us} us"
        ));
    }
    if evaluated + pruned != space {
        return Err(format!(
            "evaluated {evaluated} + pruned {pruned} != space {space}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! The checker self-test: each workload's check must reject an output
    //! with one slot moved by more than its tolerance.
    use super::*;

    fn sample() -> Vec<Vec<f64>> {
        vec![
            (0..64).map(|i| f64::from(i) * 0.01).collect(),
            vec![0.5; 64],
        ]
    }

    fn moved(mut v: Vec<Vec<f64>>, k: usize, i: usize, by: f64) -> Vec<Vec<f64>> {
        v[k][i] += by;
        v
    }

    #[test]
    fn exact_outputs_pass_every_tolerance() {
        for tol in [TRAIN_TOL, TUNE_TOL, SERVE_TOL] {
            assert!(outputs_match(&sample(), &sample(), tol).is_ok());
        }
    }

    #[test]
    fn one_slot_moved_past_the_tolerance_is_rejected() {
        for tol in [TRAIN_TOL, TUNE_TOL] {
            for (k, i) in [(0, 0), (0, 63), (1, 17)] {
                let bad = moved(sample(), k, i, 1.5 * tol);
                let err = outputs_match(&bad, &sample(), tol).unwrap_err();
                assert!(err.contains(&format!("slot {i}")), "{err}");
                // Within the tolerance the same move passes.
                let ok = moved(sample(), k, i, 0.5 * tol);
                assert!(outputs_match(&ok, &sample(), tol).is_ok());
            }
        }
    }

    #[test]
    fn nan_and_shape_mismatches_are_rejected() {
        let nan = moved(sample(), 1, 3, f64::NAN);
        assert!(outputs_match(&nan, &sample(), TRAIN_TOL).is_err());
        let short = vec![sample()[0].clone()];
        assert!(outputs_match(&short, &sample(), TRAIN_TOL).is_err());
        let mut narrow = sample();
        narrow[0].pop();
        assert!(outputs_match(&narrow, &sample(), TRAIN_TOL).is_err());
    }

    #[test]
    fn serve_window_check_rejects_one_moved_slot() {
        let t: Vec<f64> = (0..32).map(|i| 0.1 + 0.025 * f64::from(i)).collect();
        let y: Vec<f64> = (0..512)
            .map(|i| halo_ml::approx::invroot::invsqrt_eval(t[i % 32], 3))
            .collect();
        assert!(window_matches(std::slice::from_ref(&y), &t, 3, SERVE_TOL).is_ok());
        for slot in [0, 31, 32, 511] {
            let mut bad = y.clone();
            bad[slot] -= 1.5 * SERVE_TOL;
            assert!(
                window_matches(&[bad], &t, 3, SERVE_TOL).is_err(),
                "slot {slot}"
            );
        }
        // A window from too few trips is not accepted either.
        assert!(window_matches(&[y], &t, 1, SERVE_TOL).is_err());
    }

    #[test]
    fn tuner_check_rejects_an_estimate_above_halo() {
        assert!(tuner_sound(80.0e6, 84.8e6, 68, 0, 68).is_ok());
        assert!(tuner_sound(84.8e6, 84.8e6, 60, 8, 68).is_ok());
        assert!(tuner_sound(91.0e6, 84.8e6, 68, 0, 68).is_err());
        assert!(tuner_sound(84.8e6 * 1.000_001, 84.8e6, 68, 0, 68).is_err());
        assert!(tuner_sound(f64::NAN, 84.8e6, 68, 0, 68).is_err());
        assert!(tuner_sound(80.0e6, 84.8e6, 67, 0, 68).is_err());
    }
}
