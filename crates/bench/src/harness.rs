//! Wall-clock reporting for `wlansim` sweeps.
//!
//! Output format (one line per sweep point, then a total):
//!
//! ```text
//! ip3_sweep/point[-40]                        1.23 s/point
//! ip3_sweep/total (9 points)                  9.87 s
//! ```

use std::time::Duration;

/// Prints a sweep's per-point wall-clock followed by a total. This is
/// where `SweepPoint::elapsed` lands instead of being dropped on the
/// floor.
pub fn report_point_timing(group: &str, points: &[(String, Duration)]) {
    let mut total = Duration::ZERO;
    for (label, elapsed) in points {
        let line = format!("{group}/point[{label}]");
        println!("{line:<42} {:>14}/point", si_time(elapsed.as_secs_f64()));
        total += *elapsed;
    }
    let line = format!("{group}/total ({} points)", points.len());
    println!("{line:<42} {:>14}", si_time(total.as_secs_f64()));
}

fn si_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.2} µs", seconds * 1e6)
    } else {
        format!("{:.0} ns", seconds * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_timing_totals() {
        // Smoke: must not panic, and formatting must accept any label.
        report_point_timing(
            "selftest",
            &[
                ("-40".to_string(), Duration::from_millis(3)),
                ("0".to_string(), Duration::from_millis(5)),
            ],
        );
    }

    #[test]
    fn si_formatting() {
        assert_eq!(si_time(2.5e-6), "2.50 µs");
        assert_eq!(si_time(0.0015), "1.50 ms");
    }
}
