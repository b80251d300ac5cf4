//! # tfm-bench — the paper-reproduction harness
//!
//! One bench target, `figures`, regenerates every table of simulated cycles
//! (the TrackFM paper's evaluation and this repository's extensions to it)
//! from one table of exhibits ([`EXHIBITS`]; see the experiment index in
//! DESIGN.md and the measured-vs-paper record in EXPERIMENTS.md, whose
//! tables it generates). It prints each exhibit's tables, asserts the claim
//! about it, and at full scale compares every cell it produced with the
//! exhibit's block in EXPERIMENTS.md ([`golden`]). The other targets measure
//! host time (`trace_overhead`, `guard_micro`) or print run reports
//! (`telemetry_report`).
//!
//! Set `TFM_SCALE=<divisor>` to shrink workload sizes for a quick pass
//! (e.g. `TFM_SCALE=8`); shapes are preserved at small scale, absolute
//! counts are not.

mod check;
mod exhibits;
pub mod golden;
mod table;

pub use exhibits::{Exhibit, EXHIBITS};
pub use table::{Cell, Table};

use tfm_telemetry::RunReport;

/// Workload scale divisor from `TFM_SCALE` (default 1 = full scale).
///
/// # Panics
/// Panics when the variable is set to anything but a whole number >= 1: a
/// typo must not silently run (and compare against the golden) at full scale.
pub fn scale() -> usize {
    match std::env::var("TFM_SCALE") {
        Ok(s) => parse_scale(Some(&s)),
        Err(std::env::VarError::NotPresent) => parse_scale(None),
        Err(e) => panic!("TFM_SCALE: {e}"),
    }
}

fn parse_scale(var: Option<&str>) -> usize {
    match var.map(str::parse) {
        None => 1,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => panic!(
            "TFM_SCALE must be a whole number >= 1, got {:?}",
            var.unwrap()
        ),
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// One compact summary line per [`RunReport`], for sweep benches that print
/// many reports: cycles, stall share, slow-guard share, and the hottest
/// guard site.
pub fn report_line(rep: &RunReport) -> String {
    let cycles = rep.field("exec", "cycles").unwrap_or(0);
    let stall = rep.field("exec", "stall_cycles").unwrap_or(0);
    let fast = rep.field("exec", "guards_fast").unwrap_or(0);
    let slow = rep.field("exec", "guards_slow_local").unwrap_or(0)
        + rep.field("exec", "guards_slow_remote").unwrap_or(0);
    let total = fast + slow;
    let hot = rep
        .sites
        .first()
        .map(|s| format!(", hottest {} ({} stall)", s.label, s.stats.stall_cycles))
        .unwrap_or_default();
    format!(
        "{} on {}: {} cycles ({:.1}% stalled), {}/{} slow guards{}",
        rep.workload,
        rep.system,
        cycles,
        if cycles > 0 {
            100.0 * stall as f64 / cycles as f64
        } else {
            0.0
        },
        slow,
        total,
        hot
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(f2(1.2345), "1.23");
    }

    #[test]
    fn scale_parses_a_divisor_and_defaults_to_one() {
        assert_eq!(parse_scale(Some("8")), 8);
        assert_eq!(parse_scale(None), 1);
    }

    #[test]
    fn scale_rejects_what_is_not_a_divisor() {
        for bad in ["0", "x", "O8", "-1", ""] {
            let caught = std::panic::catch_unwind(|| parse_scale(Some(bad)));
            let msg = *caught.unwrap_err().downcast::<String>().unwrap();
            assert!(msg.contains(&format!("{bad:?}")), "{msg}");
        }
    }

    #[test]
    fn report_line_reads_exec_section() {
        use tfm_sim::ExecStats;
        let mut rep = RunReport::new("w", "trackfm");
        rep.push_section(&ExecStats {
            cycles: 1000,
            stall_cycles: 250,
            guards_fast: 9,
            guards_slow_remote: 1,
            ..Default::default()
        });
        let line = report_line(&rep);
        assert!(line.contains("1000 cycles"), "{line}");
        assert!(line.contains("25.0% stalled"), "{line}");
        assert!(line.contains("1/10 slow guards"), "{line}");
    }
}
