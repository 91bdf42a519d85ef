//! The reference workload gives usable timings on one and on two threads,
//! and converting a time at its own speed gives exactly the reference
//! length.

use emm_perfbench::calib::{Reference, REFERENCE_S};

#[test]
fn reference_timings_are_positive_and_convert_to_reference_seconds() {
    let reference = Reference::new();
    for threads in [1, 2] {
        let t = reference.time(threads);
        assert!(t.wall_s.is_finite() && t.wall_s > 0.0, "{t:?}");
        assert!(t.cpu_s.is_finite() && t.cpu_s > 0.0, "{t:?}");
        assert!((t.wall_to_reference(t.wall_s) - REFERENCE_S).abs() < 1e-12);
        assert!((t.cpu_to_reference(2.0 * t.cpu_s) - 2.0 * REFERENCE_S).abs() < 1e-12);
    }
}
