//! Checks on the committed `figures/atlas.md` and `figures/macro.md`.
//!
//! CI regenerates both tables with `--seed 2016` and `cmp`s them against
//! these files, so checking the committed copies checks what the generator
//! writes. Every cell of the macro table is also recomputed here from
//! fresh `macro_propagation(2016, n)` runs.

use std::path::Path;

use stick_a_fork::sim::macroscale::{macro_propagation, MacroNet};

fn committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("figures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The trimmed cells of a markdown table row (`| a | b |` → `["a", "b"]`).
fn cells(row: &str) -> Vec<&str> {
    let inner = row.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(str::trim).collect()
}

#[test]
fn committed_atlas_and_macro_tables_are_populated() {
    // Atlas: every preset has one row per seed (3), each with a minority
    // lifetime, and the negative control's verdict is present.
    let atlas = committed("atlas.md");
    for preset in [
        "flash_two_way",
        "three_way",
        "geo_continents",
        "client_split",
    ] {
        let rows: Vec<Vec<&str>> = atlas
            .lines()
            .filter(|l| l.starts_with(&format!("| {preset} |")))
            .map(cells)
            .collect();
        assert_eq!(rows.len(), 3, "expected 3 {preset} rows");
        for row in rows {
            assert!(!row[3].is_empty(), "empty lifetime cell in {row:?}");
        }
    }
    assert!(
        atlas.contains("Negative control"),
        "negative-control line missing"
    );

    // Macro: the 1,000-node rows exist pre- and post-fork with samples > 0.
    let macro_md = committed("macro.md");
    for phase in ["pre-fork", "post-fork"] {
        let row = macro_md
            .lines()
            .find(|l| l.starts_with(&format!("| 1000 | {phase} |")))
            .unwrap_or_else(|| panic!("missing 1000-node {phase} row"));
        let samples: u64 = cells(row)[3]
            .parse()
            .unwrap_or_else(|e| panic!("{phase} samples in {row:?}: {e}"));
        assert!(samples > 0, "empty {phase} samples: {row}");
    }
}

#[test]
fn committed_macro_table_matches_fresh_runs() {
    let macro_md = committed("macro.md");
    let rows: Vec<Vec<&str>> = macro_md
        .lines()
        .filter(|l| l.starts_with("| ") && l.as_bytes()[2].is_ascii_digit())
        .map(cells)
        .collect();
    let mut want: Vec<Vec<String>> = Vec::new();
    for n in [100usize, 500, 1_000] {
        let config = macro_propagation(2016, n).config;
        let report = MacroNet::new(config).expect("preset is valid").run();
        let post_blocks = report.mined_majority + report.mined_minority;
        for (phase, blocks, stats) in [
            ("pre-fork", report.mined_prefork, report.pre_fork),
            ("post-fork", post_blocks, report.post_fork),
        ] {
            want.push(vec![
                n.to_string(),
                phase.to_string(),
                blocks.to_string(),
                stats.samples.to_string(),
                stats.p50_ms.to_string(),
                stats.p90_ms.to_string(),
                stats.max_ms.to_string(),
            ]);
        }
    }
    assert_eq!(rows, want, "figures/macro.md differs from a fresh run");
}
