//! Experiment implementations behind the `tables` binary.
//!
//! Each function renders one of the paper's tables or figures as text
//! (see EXPERIMENTS.md for the paper-vs-measured record). All outputs
//! are deterministic given their parameters, except Table II's wall-
//! clock timings. Performance of the library layers is tracked by the
//! repository benchmark (`benchmark/README.md`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod baselines;
pub mod extensions;
pub mod figures;
pub mod resources;
pub mod tables;

/// Formats a `f64` with thousands separators for rate reporting.
pub(crate) fn with_commas(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comma_formatting() {
        assert_eq!(with_commas(0), "0");
        assert_eq!(with_commas(999), "999");
        assert_eq!(with_commas(1000), "1,000");
        assert_eq!(with_commas(1_048_576), "1,048,576");
    }
}
