//! Drivers for the figures no scenario kind produces.
//!
//! Fig. 1 (queue traces) and Fig. 9 (describing-function / Nyquist
//! sweep) render the rows the paper reports (see EXPERIMENTS.md for
//! paper-vs-measured); every other data figure is reproduced by a
//! `dctcp-scenario` spec. Each driver takes a [`Scale`]: `Quick` for CI
//! and tests, `Full` for paper-scale runs from the `fig01`/`fig09`
//! binaries.

mod fig1;
mod fig9;

pub use fig1::{fig1, Fig1Result, Fig1Trace};
pub use fig9::{fig9, Fig9Result, Fig9Row, FIG9_CALIBRATED_GAIN};

/// How much work an experiment driver performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Short windows and sparse sweeps — seconds of wall-clock, used by
    /// tests and `--quick`.
    Quick,
    /// Paper-scale windows and dense sweeps — minutes of wall-clock.
    Full,
}

impl Scale {
    /// Parses `--quick` / `--full` style command-line arguments
    /// (defaults to `Quick` when neither flag is present).
    pub fn from_args(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_args() {
        assert_eq!(Scale::from_args(&[]), Scale::Quick);
        assert_eq!(Scale::from_args(&["--quick".into()]), Scale::Quick);
        assert_eq!(Scale::from_args(&["--full".into()]), Scale::Full);
        assert_eq!(
            Scale::from_args(&["--csv".into(), "x.csv".into(), "--full".into()]),
            Scale::Full
        );
    }
}
