//! The describing-function stability analysis of Section V: how much
//! loop gain can each marking scheme tolerate before the Nyquist loci
//! intersect and a queue limit cycle is predicted?
//!
//! ```sh
//! cargo run --release --example nyquist_analysis
//! ```

use dt_dctcp::control::{
    analyze, critical_gain, AnalysisGrid, HysteresisDf, PlantParams, RelayDf, FIG9_CALIBRATED_GAIN,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid = AnalysisGrid::default();
    let relay = RelayDf::new(40.0)?;
    let hyst = HysteresisDf::new(30.0, 50.0)?;

    println!("Loop-gain margin before self-oscillation (higher = more stable)\n");
    println!("{:>4} | {:>12} | {:>12}", "N", "DCTCP", "DT-DCTCP");
    for n in [10.0, 30.0, 55.0, 80.0, 120.0] {
        let plant = PlantParams::paper_defaults(n);
        let m_dc = critical_gain(&plant, &relay, &grid).unwrap_or(f64::INFINITY);
        let m_dt = critical_gain(&plant, &hyst, &grid).unwrap_or(f64::INFINITY);
        println!("{n:>4} | {m_dc:>12.2} | {m_dt:>12.2}");
    }

    // At the calibrated loop gain, find the predicted limit cycle.
    let plant = PlantParams::paper_defaults(60.0).with_gain(FIG9_CALIBRATED_GAIN);
    let report = analyze(&plant, &relay, &grid);
    if let Some(lc) = report.limit_cycle {
        println!(
            "\nAt N = 60 with calibrated gain {FIG9_CALIBRATED_GAIN}, DCTCP's predicted limit \
             cycle:\n  amplitude {:.1} pkts, frequency {:.0} rad/s ({:.1} kHz)",
            lc.amplitude,
            lc.frequency,
            lc.frequency / (2.0 * std::f64::consts::PI) / 1e3
        );
    }
    Ok(())
}
