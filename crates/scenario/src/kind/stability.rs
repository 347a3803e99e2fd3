//! `kind = stability` ([`ScenarioKind::Stability`]): the Section V
//! describing-function / Nyquist analysis behind Theorems 1–2 and
//! Fig. 9, one flow count per cell.
//!
//! Each cell linearises the dumbbell's DCTCP loop
//! ([`PlantParams::from_link`] at 1500 B packets) on the default
//! [`AnalysisGrid`] and reports the loop-gain margin before the loci
//! touch, plus whether (and how large) a limit cycle is predicted at the
//! shared calibrated gain [`FIG9_CALIBRATED_GAIN`]. No packets, no time
//! axis and no randomness: the kind takes no `[run]` key but `flows`
//! and is seed-free.

use dctcp_fluid::FluidMarking;
use dctcp_workloads::control::{
    analyze, critical_gain, AnalysisGrid, DescribingFunction, HysteresisDf, PlantParams, RelayDf,
    FIG9_CALIBRATED_GAIN,
};

use super::fluid::{dctcp_gain, fluid_marking, UNSUPPORTED_MARKING};
use super::long_lived::parse_dumbbell;
use super::*;

pub(super) struct Stability;

impl Kind for Stability {
    fn name(&self) -> &'static str {
        "stability"
    }

    /// `margin`: the loop-gain multiplier at which the plant locus first
    /// touches the marking's critical locus (higher = more stable).
    /// `oscillates` (0/1) and `lc_amplitude` (queue packets, 0 when no
    /// limit cycle) are the verdict at the calibrated gain.
    fn metrics(&self) -> &'static [&'static str] {
        &["margin", "oscillates", "lc_amplitude"]
    }

    /// The analysis is deterministic: one cell per (marking, N).
    fn sweeps_seeds(&self) -> bool {
        false
    }

    fn parse(&self, doc: &Document) -> Result<KindSections, ScenarioError> {
        let d = parse_dumbbell(doc, self.name())?;
        no_workload(doc, self.name())?;
        let (_, run) = run_section(doc, &["flows"], MAX_FLUID_FLOWS)?;
        // The plant is DCTCP's linearised loop: only its EWMA gain is an
        // input, so every other transport knob would be silently ignored.
        if let Some(s) = doc.section("transport") {
            s.reject_unknown_keys(&["g", "cc"])?;
            if let Some(e) = s.get("cc").filter(|e| e.value != "dctcp") {
                return Err(e.bad_value("stability scenarios analyse the dctcp loop only"));
            }
        }
        Ok(KindSections::new(TopologySpec::Dumbbell(d), run))
    }

    fn reject_marking(&self, scheme: &MarkingScheme) -> Option<&'static str> {
        fluid_marking(scheme)
            .is_none()
            .then_some(UNSUPPORTED_MARKING)
    }

    /// Milliseconds of arithmetic per cell: the deadline takes its floor.
    fn simulated_ns(&self, _spec: &ScenarioSpec) -> u64 {
        0
    }

    /// Topology, transport, marking and flows are the shared key
    /// material; the grid and the calibrated gain are code.
    fn key_fields(&self, _spec: &ScenarioSpec, _kb: &mut KeyBuilder) {}

    fn run_cell(
        &self,
        spec: &ScenarioSpec,
        cell: &Cell,
        _cancel: Option<CancelToken>,
    ) -> Result<Vec<(String, f64)>, SimError> {
        let d = spec
            .dumbbell()
            .expect("stability scenarios parse a dumbbell");
        let df: Box<dyn DescribingFunction> = match fluid_marking(&cell.scheme)
            .ok_or_else(|| SimError::InvalidConfig(UNSUPPORTED_MARKING.into()))?
        {
            FluidMarking::Relay { k } => Box::new(RelayDf::new(k)?),
            FluidMarking::Hysteresis { k1, k2 } => Box::new(HysteresisDf::new(k1, k2)?),
        };
        let plant = PlantParams::from_link(
            d.bottleneck_bps as f64,
            1500,
            f64::from(cell.flows),
            d.rtt.as_secs_f64(),
            dctcp_gain(spec)?,
        );
        let grid = AnalysisGrid::default();
        // A missing margin must fail the cell: rendered as 0 it would
        // read as the *least* stable point and invert every ordering.
        let margin = critical_gain(&plant, df.as_ref(), &grid).ok_or_else(|| {
            SimError::InvalidConfig(format!(
                "stability cell: the loci never touch at N = {}",
                cell.flows
            ))
        })?;
        let report = analyze(&plant.with_gain(FIG9_CALIBRATED_GAIN), df.as_ref(), &grid);
        Ok(vec![
            ("margin".into(), margin),
            ("oscillates".into(), if report.stable { 0.0 } else { 1.0 }),
            (
                "lc_amplitude".into(),
                report.limit_cycle.map_or(0.0, |lc| lc.amplitude),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::cell_key;

    const SPEC: &str = "\
[scenario]
name = s
kind = stability

[topology]
bottleneck = 10 Gbps
rtt = 100 us

[run]
flows = 20, 60

[marking \"dc\"]
scheme = dctcp
k = 40 pkts

[marking \"dt\"]
scheme = dt-dctcp
k1 = 30 pkts
k2 = 50 pkts
";

    fn cell(spec: &ScenarioSpec, label: &str, flows: u32) -> Cell {
        let (label, scheme) = spec
            .markings
            .iter()
            .find(|(l, _)| l == label)
            .expect("marking in spec")
            .clone();
        Cell {
            label,
            scheme,
            flows,
            seed: 1,
        }
    }

    #[test]
    fn cells_equal_direct_control_calls() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        assert_eq!(spec.num_points(), 4);
        let grid = AnalysisGrid::default();
        for (label, df) in [
            (
                "dc",
                Box::new(RelayDf::new(40.0).unwrap()) as Box<dyn DescribingFunction>,
            ),
            ("dt", Box::new(HysteresisDf::new(30.0, 50.0).unwrap())),
        ] {
            for flows in [20, 60] {
                let rows = Stability
                    .run_cell(&spec, &cell(&spec, label, flows), None)
                    .unwrap();
                let plant = PlantParams::paper_defaults(f64::from(flows));
                let margin = critical_gain(&plant, df.as_ref(), &grid).unwrap();
                let report = analyze(&plant.with_gain(FIG9_CALIBRATED_GAIN), df.as_ref(), &grid);
                let want = [
                    margin,
                    f64::from(u8::from(!report.stable)),
                    report.limit_cycle.map_or(0.0, |lc| lc.amplitude),
                ];
                let got: Vec<f64> = rows.iter().map(|(_, v)| *v).collect();
                let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(names, Stability.metrics());
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{label} N={flows}: {got:?}");
                }
            }
        }
    }

    #[test]
    fn only_packet_relays_and_hystereses_are_analysed() {
        for marking in [
            "scheme = dctcp\nk = 60 KB",
            "scheme = schmitt\nlo = 30 pkts\nhi = 50 pkts",
            "scheme = red\nmin = 10 pkts\nmax = 50 pkts",
            "scheme = codel",
            "scheme = pie",
            "scheme = droptail",
        ] {
            let src = SPEC.replace("scheme = dctcp\nk = 40 pkts", marking);
            match ScenarioSpec::parse(&src) {
                Err(ScenarioError::BadValue { msg, .. }) => {
                    assert_eq!(msg, UNSUPPORTED_MARKING, "{marking}")
                }
                other => panic!("{marking}: {other:?}"),
            }
        }
    }

    #[test]
    fn time_seed_fault_xval_workload_and_cc_inputs_are_rejected() {
        for (from, to, why) in [
            ("flows = 20, 60", "flows = 20, 60\nseeds = 1, 2", "`seeds`"),
            (
                "flows = 20, 60",
                "flows = 20, 60\nwarmup = 20 ms",
                "`warmup`",
            ),
            (
                "flows = 20, 60",
                "flows = 20, 60\nduration = 50 ms",
                "`duration`",
            ),
            (
                "[run]",
                "[faults]\ndown = 1 ms .. 2 ms\n\n[run]",
                "fault plans",
            ),
            ("[run]", "[xval \"x\"]\n\n[run]", "[xval]"),
            ("[run]", "[workload fct]\nload = 0.5\n\n[run]", "[workload]"),
            (
                "[run]",
                "[transport]\ncc = d2tcp\n\n[run]",
                "dctcp loop only",
            ),
            (
                "[run]",
                "[transport]\nrto_min = 10 ms\n\n[run]",
                "`rto_min`",
            ),
        ] {
            let err = ScenarioSpec::parse(&SPEC.replace(from, to))
                .expect_err(to)
                .to_string();
            assert!(err.contains(why), "{to}: {err}");
        }
        // The accepted transport spellings.
        let src = SPEC.replace("[run]", "[transport]\ncc = dctcp\ng = 0.25\n\n[run]");
        assert!(ScenarioSpec::parse(&src).is_ok());
    }

    #[test]
    fn every_plant_input_moves_the_cell_key() {
        let base = ScenarioSpec::parse(SPEC).unwrap();
        let key = |spec: &ScenarioSpec, flows: u32| cell_key(spec, &cell(spec, "dc", flows), "fp");
        assert_ne!(key(&base, 20), key(&base, 60), "flows");
        for (from, to) in [
            ("[run]", "[transport]\ng = 0.25\n\n[run]"),
            ("rtt = 100 us", "rtt = 300 us"),
            ("bottleneck = 10 Gbps", "bottleneck = 1 Gbps"),
        ] {
            let moved = ScenarioSpec::parse(&SPEC.replace(from, to)).unwrap();
            assert_ne!(key(&base, 20), key(&moved, 20), "{to}");
        }
    }

    #[test]
    fn deadline_takes_the_floor() {
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        assert_eq!(spec.cell_deadline(), SimDuration::from_secs(30));
    }

    #[test]
    fn a_missing_margin_fails_the_cell() {
        // A 100 ns loop puts every phase crossing above the grid's top
        // frequency: no multiplier up to 10^6 makes the loci touch, which
        // must be an error rather than a rendered 0.
        let spec = ScenarioSpec::parse(&SPEC.replace("rtt = 100 us", "rtt = 100 ns")).unwrap();
        let err = Stability
            .run_cell(&spec, &cell(&spec, "dc", 20), None)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
    }
}
