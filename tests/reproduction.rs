//! Headline reproduction checks across the whole stack, at quick scale:
//! each of the paper's main claims, exercised through the public façade.

use std::sync::OnceLock;

use dctcp_scenario::{run_scenario, Artifact, Point, ScenarioSpec};
use dt_dctcp::control::{critical_gain, AnalysisGrid, HysteresisDf, PlantParams, RelayDf};
use dt_dctcp::core::MarkingScheme;
use dt_dctcp::workloads::{run_query_rounds, QueryWorkload, TestbedConfig};

/// The quick-scale Figs. 10–12 flow sweep: K = 40 vs (K1, K2) =
/// (30, 50) at N = 10..100 on the default 10 Gb/s, 300 µs dumbbell
/// (`g = 1/16`). EXPERIMENTS.md's paper-scale stanza samples N in
/// steps of 5 over longer windows.
const QUICK_FLOW_SWEEP: &str = "\
[scenario]
name = quick_flow_sweep
kind = long_lived

[run]
flows = 10, 40, 70, 100
warmup = 30 ms
duration = 80 ms

[marking \"dctcp\"]
scheme = dctcp
k = 40 pkts

[marking \"dt-dctcp\"]
scheme = dt-dctcp
k1 = 30 pkts
k2 = 50 pkts
";

/// The quick flow sweep, run once and shared by every test that reads
/// it.
fn quick_sweep() -> &'static Artifact {
    static SWEEP: OnceLock<Artifact> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let spec = ScenarioSpec::parse(QUICK_FLOW_SWEEP).expect("valid sweep spec");
        run_scenario(&spec, dt_dctcp::parallel::available_threads()).expect("sweep runs")
    })
}

/// One marking's points, ordered by flow count.
fn scheme_points<'a>(sweep: &'a Artifact, marking: &str) -> Vec<&'a Point> {
    sweep
        .points
        .iter()
        .filter(|p| p.marking == marking)
        .collect()
}

fn metric(p: &Point, name: &str) -> f64 {
    p.metric(name)
        .unwrap_or_else(|| panic!("N={} lacks {name}", p.flows))
}

/// Every (marking, N) cell of the sweep is present, queues build and
/// the bottleneck stays busy.
#[test]
fn sweep_covers_both_schemes_and_all_n() {
    let sweep = quick_sweep();
    assert_eq!(sweep.points.len(), 8);
    for marking in ["dctcp", "dt-dctcp"] {
        let flows: Vec<u32> = scheme_points(sweep, marking)
            .iter()
            .map(|p| p.flows)
            .collect();
        assert_eq!(flows, [10, 40, 70, 100], "{marking}");
    }
    for p in &sweep.points {
        assert!(metric(p, "queue_mean") > 0.0, "{} N={}", p.marking, p.flows);
        let goodput = metric(p, "goodput_gbps");
        assert!(goodput > 5.0, "goodput {goodput} Gb/s at N={}", p.flows);
    }
}

/// Section III observation (Fig. 1): DCTCP's queue oscillation grows
/// with the number of flows.
#[test]
fn oscillation_grows_with_flows() {
    let dc = scheme_points(quick_sweep(), "dctcp");
    let at10 = metric(dc.first().unwrap(), "queue_std");
    let at100 = metric(dc.last().unwrap(), "queue_std");
    assert!(
        at100 > 1.5 * at10,
        "queue std must grow with N: {at10:.2} -> {at100:.2}"
    );
}

/// The core claim (Figs. 10–11): DT-DCTCP holds a steadier queue than
/// DCTCP as flows grow.
#[test]
fn dt_dctcp_is_steadier_across_the_sweep() {
    let sweep = quick_sweep();
    let dc = scheme_points(sweep, "dctcp");
    let dt = scheme_points(sweep, "dt-dctcp");
    assert_eq!(dc.len(), dt.len());
    // At every sampled N above the baseline, DT's std is at most DCTCP's
    // (allowing a small tolerance at the lowest N where both are tiny).
    let mut wins = 0;
    for (a, b) in dc.iter().zip(&dt) {
        assert_eq!(a.flows, b.flows);
        if metric(b, "queue_std") < metric(a, "queue_std") {
            wins += 1;
        }
    }
    assert!(
        wins >= dc.len() - 1,
        "DT should win std at nearly every N ({wins}/{} wins)",
        dc.len()
    );
    // At the highest N the win is strict.
    let dc100 = metric(dc.last().unwrap(), "queue_std");
    let dt100 = metric(dt.last().unwrap(), "queue_std");
    assert!(dt100 < dc100, "N=100: DT std {dt100} !< DCTCP std {dc100}");
    // And both keep the link saturated.
    for p in dc.iter().chain(&dt) {
        let goodput = metric(p, "goodput_gbps");
        assert!(goodput > 0.9 * 10.0 * 0.55, "goodput {goodput} Gb/s");
    }
}

/// Fig. 12: the congestion-extent estimate α is lower (or equal) under
/// DT-DCTCP — the network is less congested.
#[test]
fn alpha_is_not_higher_under_dt() {
    let sweep = quick_sweep();
    let dc = scheme_points(sweep, "dctcp");
    let dt = scheme_points(sweep, "dt-dctcp");
    let mean = |pts: &[&Point]| {
        pts.iter().map(|p| metric(p, "alpha_mean")).sum::<f64>() / pts.len() as f64
    };
    let (mean_dc, mean_dt) = (mean(&dc), mean(&dt));
    assert!(
        mean_dt <= mean_dc + 0.02,
        "mean alpha: dt {mean_dt:.3} should not exceed dc {mean_dc:.3}"
    );
}

/// Fig. 12: DCTCP's α grows with congestion, from N = 10 to N = 100.
#[test]
fn alpha_grows_with_flows() {
    let dc = scheme_points(quick_sweep(), "dctcp");
    let first = metric(dc.first().unwrap(), "alpha_mean");
    let last = metric(dc.last().unwrap(), "alpha_mean");
    assert!(last > first, "alpha must grow with N: {first} -> {last}");
}

/// Theorems 1 & 2 (Fig. 9): the hysteresis tolerates strictly more loop
/// gain before predicting a limit cycle, at every flow count.
#[test]
fn df_analysis_favors_dt_at_every_n() {
    let grid = AnalysisGrid {
        w_points: 1200,
        x_points: 500,
        ..AnalysisGrid::default()
    };
    let relay = RelayDf::new(40.0).unwrap();
    let hyst = HysteresisDf::new(30.0, 50.0).unwrap();
    for n in [10.0, 40.0, 70.0, 110.0] {
        let plant = PlantParams::paper_defaults(n);
        let m_dc = critical_gain(&plant, &relay, &grid).expect("finite margin");
        let m_dt = critical_gain(&plant, &hyst, &grid).expect("finite margin");
        assert!(m_dt > m_dc, "N={n}: {m_dt} !> {m_dc}");
    }
}

/// Fig. 9's onset ordering at the calibrated gain: the first flow count
/// at which each scheme's loci intersect, read off a `stability`
/// artifact over a sparse N grid at the paper's operating point.
#[test]
fn nyquist_onset_ordering() {
    const NYQUIST: &str = "\
[scenario]
name = quick_nyquist
kind = stability

[topology]
bottleneck = 10 Gbps
rtt = 100 us

[run]
flows = 10, 30, 50, 60, 70, 90, 110

[marking \"dctcp\"]
scheme = dctcp
k = 40 pkts

[marking \"dt-dctcp\"]
scheme = dt-dctcp
k1 = 30 pkts
k2 = 50 pkts
";
    let spec = ScenarioSpec::parse(NYQUIST).expect("valid stability spec");
    let artifact =
        run_scenario(&spec, dt_dctcp::parallel::available_threads()).expect("analysis runs");
    let onset = |marking: &str| {
        scheme_points(&artifact, marking)
            .into_iter()
            .find(|p| metric(p, "oscillates") == 1.0)
            .map(|p| p.flows)
    };
    let dc = onset("dctcp").expect("DCTCP onset");
    let dt = onset("dt-dctcp").expect("DT onset");
    assert!(dt > dc, "onsets: dc {dc}, dt {dt}");
}

/// Fig. 14/15 mechanics: small Incast is healthy under both schemes;
/// far past the cliff every round stalls on RTO_min and the completion
/// time is ~20x the transfer floor.
#[test]
fn incast_cliff_reproduces_rto_min_stalls() {
    let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
    let healthy = run_query_rounds(&cfg, &QueryWorkload::incast(4, 2)).unwrap();
    assert_eq!(healthy.timeout_fraction(), 0.0);
    assert!(healthy.mean_goodput_bps() > 5e8);
    let dt = TestbedConfig::paper(MarkingScheme::dt_dctcp_bytes(28 * 1024, 34 * 1024));
    let healthy_dt = run_query_rounds(&dt, &QueryWorkload::incast(4, 2)).unwrap();
    assert!(healthy_dt.mean_goodput_bps() > 5e8);

    let collapsed = run_query_rounds(&cfg, &QueryWorkload::incast(44, 2)).unwrap();
    assert!(collapsed.timeout_fraction() > 0.5);
    let comps = collapsed.completions();
    if let Some(mean) = comps.mean() {
        assert!(
            mean > 0.15,
            "collapsed completion {mean}s should be near RTO_min (200 ms)"
        );
    }
}

/// Fig. 15: the fastest 1 MB partition-aggregate query completes just
/// above the line-rate floor — 1 MB at 1 Gb/s is ≈ 8.6 ms with headers;
/// the paper reports ≈ 10 ms.
#[test]
fn query_completion_minimum_near_10ms() {
    let cfg = TestbedConfig::paper(MarkingScheme::dctcp_bytes(32 * 1024));
    let best = [4, 16, 32, 40, 48]
        .into_iter()
        .filter_map(|n| {
            let report = run_query_rounds(&cfg, &QueryWorkload::partition_aggregate(n, 3))
                .expect("valid testbed");
            report.completions().mean()
        })
        .fold(f64::INFINITY, f64::min);
    assert!(best > 0.008 && best < 0.03, "best completion {best}s");
}
