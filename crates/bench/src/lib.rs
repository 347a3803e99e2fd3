//! Shared plumbing for the table-printing binaries (`fig01_queue_traces`,
//! `fig09_nyquist`, `ablation`, `stability_map`, `convergence`,
//! `microbench_buildup`) and the [`harness`] behind the `engine` bench.
//! Figs. 10–15 are reproduced by the `repro` binary of `dctcp-scenario`.
//!
//! Each table binary accepts:
//!
//! * `--quick` (default) / `--full` — experiment scale;
//! * `--csv PATH` — additionally write the primary table as CSV.
//!
//! Anything else is rejected with a usage message and exit code 2.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::fs;
use std::path::PathBuf;

use dctcp_workloads::{Scale, Table};

pub mod harness;
pub use harness::Runner;

/// Parsed command-line options common to all figure binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigArgs {
    /// Experiment scale.
    pub scale: Scale,
    /// Optional CSV output path.
    pub csv: Option<PathBuf>,
}

impl FigArgs {
    /// Parses `std::env::args()`-style arguments. `--full` anywhere
    /// selects paper scale; the default is `--quick`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument for an unknown
    /// flag, a stray operand, or a `--csv` without a path.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<FigArgs, String> {
        let args: Vec<String> = args.into_iter().collect();
        let mut csv = None;
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            match arg.as_str() {
                "--quick" | "--full" => {}
                "--csv" => match rest.next() {
                    Some(path) if !path.starts_with("--") => csv = Some(PathBuf::from(path)),
                    _ => return Err("--csv needs a PATH".into()),
                },
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        Ok(FigArgs {
            scale: Scale::from_args(&args),
            csv,
        })
    }

    /// Parses the process arguments (skipping `argv[0]`); on a malformed
    /// command line prints the usage and exits with status 2.
    pub fn from_env() -> FigArgs {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        FigArgs::parse(argv).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: {bin} [--quick | --full] [--csv PATH]");
            std::process::exit(2)
        })
    }
}

/// Prints a table and, when requested, writes its CSV form.
///
/// # Panics
///
/// Panics if the CSV file cannot be written (reproduction binaries want
/// loud failures, not silently missing data).
pub fn emit(table: &Table, args: &FigArgs) {
    println!("{table}");
    if let Some(path) = &args.csv {
        fs::write(path, table.to_csv())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FigArgs, String> {
        FigArgs::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parses_flags_in_any_order() {
        let a = parse(&["--csv", "out.csv", "--full"]).unwrap();
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.csv.as_deref().unwrap().to_str(), Some("out.csv"));

        let a = parse(&["--full", "--quick"]).unwrap();
        assert_eq!(a.scale, Scale::Full);

        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Quick);
        assert!(a.csv.is_none());
    }

    #[test]
    fn csv_without_path_is_an_error() {
        assert_eq!(parse(&["--csv"]).unwrap_err(), "--csv needs a PATH");
        assert_eq!(
            parse(&["--csv", "--full"]).unwrap_err(),
            "--csv needs a PATH"
        );
    }

    #[test]
    fn unknown_arguments_are_errors() {
        assert_eq!(
            parse(&["--ful"]).unwrap_err(),
            "unexpected argument `--ful`"
        );
        assert!(parse(&["--quick", "extra"]).is_err());
    }

    #[test]
    fn emit_writes_csv() {
        let dir = std::env::temp_dir().join("dctcp-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let mut t = Table::new("x", &["a"]);
        t.row(&["1"]);
        emit(
            &t,
            &FigArgs {
                scale: Scale::Quick,
                csv: Some(path.clone()),
            },
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\n1\n");
    }
}
