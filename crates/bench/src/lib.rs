//! # tfm-bench — the paper-reproduction harness
//!
//! One bench target, `figures`, regenerates every table of simulated cycles
//! (the TrackFM paper's evaluation and this repository's extensions to it)
//! from one table of exhibits ([`EXHIBITS`]; see the experiment index in
//! DESIGN.md and the measured-vs-paper record in EXPERIMENTS.md, whose
//! tables it generates). It prints each exhibit's tables, asserts the claim
//! about it, and at full scale compares every cell it produced with the
//! exhibit's block in EXPERIMENTS.md ([`golden`]). The other target,
//! `trace_overhead`, bounds the host cost of span tracing; `tfm-perf`'s
//! per-layer rows (`benchmark/`) time every other host-side path.
//!
//! Set `TFM_SCALE=<divisor>` to shrink workload sizes for a quick pass
//! (e.g. `TFM_SCALE=8`); shapes are preserved at small scale, absolute
//! counts are not.

#![warn(missing_docs)]

mod check;
mod exhibits;
pub mod golden;
mod table;

pub use exhibits::{Exhibit, EXHIBITS};
pub use table::{Cell, Table};

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
}
