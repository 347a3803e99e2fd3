//! Pins the cache key of every committed scenario's cells.
//!
//! A warm cache survives a change only if every cell keeps its content
//! address. This test expands each `scenarios/*.scn` matrix exactly as
//! the runner does and folds the keys of its cells, under a fixed code
//! fingerprint (so code edits alone cannot move them), into one digest
//! per scenario. A refactor that moves any key, or adds or drops a cell,
//! fails here with the fresh table to compare against.

use dctcp_cache::KeyBuilder;

use super::{cell_key, Cell};
use crate::{list_scenarios, ScenarioSpec};

/// (scenario name, cell count, digest over the cell keys in matrix order).
const PINNED: &[(&str, usize, &str)] = &[
    ("aqm_baselines", 6, "edcf15c753a91c7a87e73d696905ee11"),
    ("fattree_ecmp_skew", 6, "dad8342fbd3153fcc78ac40d8119b7bd"),
    ("fattree_incast", 4, "a00658e653452f2f577c5e825136bd51"),
    ("fault_recovery", 2, "f98dae8aac48240ce3f5734828124154"),
    ("fct_churn", 2, "19180a389d84b0829ab00fee53ab1307"),
    ("fig01_queue_traces", 4, "b66e93962a06bd2ae8748fd11e3b7102"),
    ("fig05_oscillation", 4, "dfdc6949487cff1725394b5ad7f83d0a"),
    ("fig09_nyquist", 58, "c1ee7de364cd9187ca13058d719319b2"),
    ("fig10_12_flow_sweep", 8, "7906b213a85ba3bd9c50a5fe8801a6ba"),
    ("fig13_incast", 12, "012a70d7d4cd2f6ac087bdc81df38892"),
    ("fig13_query", 8, "f0c288c6c9263f81a9f21bdb68161a2c"),
    ("fluid_scaleout", 6, "1b3f6ccc712caff353295c1c6fa3a618"),
    ("fluid_xval", 16, "60543c780e93ac927c5601e72e10645e"),
    ("hysteresis_ablation", 7, "c429a8e31c82e3e85e0d39a7a5282604"),
    ("linux_dctcp_flaws", 6, "c606a7796dc5ef5a3db8102ebd68dfa4"),
    ("threshold_settings", 3, "0a4c65a1804ed2f9cc9fd7a644016238"),
];

#[test]
fn committed_scenarios_keep_their_cell_keys() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut table = Vec::new();
    for path in list_scenarios(&dir).expect("scenarios directory") {
        let spec = ScenarioSpec::load(&path).expect("committed scenario parses");
        let seeds: &[u64] = if spec.kind.sweeps_seeds() {
            &spec.run.seeds
        } else {
            &[1]
        };
        let mut fold = KeyBuilder::new();
        let mut count = 0;
        for (label, scheme) in &spec.markings {
            for &flows in &spec.run.flows {
                for &seed in seeds {
                    let cell = Cell {
                        label: label.clone(),
                        scheme: *scheme,
                        flows,
                        seed,
                    };
                    fold.field("cell", &cell_key(&spec, &cell, "fp").hex());
                    count += 1;
                }
            }
        }
        table.push((spec.name, count, fold.finish().hex()));
    }
    let rendered: String = table
        .iter()
        .map(|(name, count, digest)| format!("    (\"{name}\", {count}, \"{digest}\"),\n"))
        .collect();
    let pinned: Vec<(String, usize, String)> = PINNED
        .iter()
        .map(|&(n, c, d)| (n.to_string(), c, d.to_string()))
        .collect();
    assert_eq!(table, pinned, "cell keys moved; fresh table:\n{rendered}");
}
