//! Convergence dynamics: how fast a flow joining established flows
//! reaches its fair share under each marking scheme (the
//! Alizadeh-style convergence question behind the paper's fluid model).
//!
//! ```sh
//! cargo run --release --example convergence
//! ```

use dt_dctcp::core::MarkingScheme;
use dt_dctcp::workloads::{run_convergence, ConvergenceConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("A flow joining established flows on a 1 Gb/s bottleneck\n");
    println!(
        "{:>11} | {:<32} | {:>10} | {:>10} | {:>10}",
        "established", "scheme", "50% fair", "80% fair", "final Jain"
    );
    for established in [1, 3, 7, 15] {
        for scheme in [
            MarkingScheme::dctcp_packets(20),
            MarkingScheme::dt_dctcp_packets(15, 25),
        ] {
            let report = run_convergence(&ConvergenceConfig {
                established,
                ..ConvergenceConfig::standard(scheme)
            })?;
            let ms = |fraction: f64| {
                report
                    .time_to_fraction(fraction)
                    .map_or_else(|| "-".into(), |t| format!("{:.1} ms", t * 1e3))
            };
            println!(
                "{established:>11} | {:<32} | {:>10} | {:>10} | {:>10.3}",
                scheme.to_string(),
                ms(0.5),
                ms(0.8),
                report.final_fairness,
            );
        }
    }
    Ok(())
}
