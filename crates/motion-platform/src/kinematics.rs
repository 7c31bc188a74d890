//! Inverse kinematics of the Stewart platform.

use crate::geometry::{PlatformPose, StewartGeometry};

/// Inverse kinematics: the six leg lengths that realize `pose`.
///
/// This is the computation the motion platform controller performs every
/// update; for a Stewart platform it is closed-form.
pub fn inverse_kinematics(geometry: &StewartGeometry, pose: &PlatformPose) -> [f64; 6] {
    let mut lengths = [0.0; 6];
    for (i, slot) in lengths.iter_mut().enumerate() {
        *slot = geometry.leg_length(pose, i);
    }
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sim_math::Vec3;

    /// Forward kinematics, the oracle that checks the inverse: estimates the
    /// pose that produces the given leg lengths.
    ///
    /// There is no closed form for the forward problem; this uses damped numerical
    /// coordinate descent from the neutral pose, which is ample for the small
    /// excursions of a training platform. Returns the estimated pose and the final
    /// root-mean-square leg-length error in metres.
    fn forward_kinematics(
        geometry: &StewartGeometry,
        target_lengths: &[f64; 6],
    ) -> (PlatformPose, f64) {
        let mut state = [0.0f64; 6]; // x, y, z, yaw, pitch, roll
        let mut step = 0.02;
        let mut error = rms_error(geometry, &state, target_lengths);
        for _ in 0..400 {
            let mut improved = false;
            for axis in 0..6 {
                for direction in [1.0, -1.0] {
                    let mut candidate = state;
                    candidate[axis] += direction * step;
                    let candidate_error = rms_error(geometry, &candidate, target_lengths);
                    if candidate_error < error {
                        state = candidate;
                        error = candidate_error;
                        improved = true;
                    }
                }
            }
            if !improved {
                step *= 0.5;
                if step < 1e-6 {
                    break;
                }
            }
        }
        (pose_from_state(&state), error)
    }

    fn pose_from_state(state: &[f64; 6]) -> PlatformPose {
        PlatformPose::from_euler(
            Vec3::new(state[0], state[1], state[2]),
            state[3],
            state[4],
            state[5],
        )
    }

    fn rms_error(geometry: &StewartGeometry, state: &[f64; 6], target: &[f64; 6]) -> f64 {
        let pose = pose_from_state(state);
        let lengths = inverse_kinematics(geometry, &pose);
        let sum: f64 = lengths.iter().zip(target).map(|(a, b)| (a - b) * (a - b)).sum();
        (sum / 6.0).sqrt()
    }

    #[test]
    fn inverse_then_forward_recovers_the_pose() {
        let g = StewartGeometry::training_platform();
        let pose = PlatformPose::from_euler(Vec3::new(0.04, 0.06, -0.03), 0.03, 0.05, -0.04);
        let lengths = inverse_kinematics(&g, &pose);
        let (recovered, error) = forward_kinematics(&g, &lengths);
        assert!(error < 2e-3, "rms error {error}");
        // The contract of forward kinematics is that the recovered pose
        // reproduces the commanded leg lengths; for small excursions the pose
        // itself is also close (the problem is mildly ill-conditioned, so the
        // pose tolerance is looser than the leg tolerance).
        let reproduced = inverse_kinematics(&g, &recovered);
        for (a, b) in reproduced.iter().zip(&lengths) {
            assert!((a - b).abs() < 5e-3, "leg mismatch: {a} vs {b}");
        }
        assert!(recovered.translation.distance(pose.translation) < 0.08);
        assert!(recovered.rotation.angle_to(&pose.rotation) < 0.1);
    }

    #[test]
    fn neutral_lengths_solve_to_neutral_pose() {
        let g = StewartGeometry::training_platform();
        let (pose, error) = forward_kinematics(&g, &g.neutral_leg_lengths());
        assert!(error < 1e-3);
        assert!(pose.translation.length() < 0.01);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_ik_is_smooth_in_the_pose(dx in -0.08..0.08f64, dy in -0.08..0.08f64,
                                         pitch in -0.1..0.1f64, roll in -0.1..0.1f64) {
            let g = StewartGeometry::training_platform();
            let pose = PlatformPose::from_euler(Vec3::new(dx, dy, 0.0), 0.0, pitch, roll);
            let nearby = PlatformPose::from_euler(Vec3::new(dx + 1e-4, dy, 0.0), 0.0, pitch, roll);
            let a = inverse_kinematics(&g, &pose);
            let b = inverse_kinematics(&g, &nearby);
            for i in 0..6 {
                prop_assert!((a[i] - b[i]).abs() < 1e-3, "leg {i} jumped");
                prop_assert!(a[i].is_finite() && a[i] > 0.0);
            }
        }
    }
}
