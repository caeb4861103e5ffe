//! Paper-artifact golden test: the `repro_*` binaries print the paper's
//! figures and tables in modelled S-810 cycles, which are deterministic.
//! Any change to what a FOL kernel charges shows up here as a byte diff
//! against the committed goldens in `tests/golden/`.
//!
//! `repro_all` covers the Fig 9, Fig 10, Table 1, Fig 14 and ablation-probe
//! output; `repro_ablation_model` and `repro_extensions` cover the rest.
//! To accept a deliberate change, rerun the binary and overwrite its golden:
//! `cargo run --release -p fol-bench --bin repro_all > crates/bench/tests/golden/repro_all.txt`.

use std::process::Command;

fn assert_matches_golden(bin: &str, golden: &str) {
    let out = Command::new(bin).output().expect("spawn repro binary");
    assert!(out.status.success(), "{bin} exited with {}", out.status);
    let got = String::from_utf8(out.stdout).expect("repro output is UTF-8");
    if got == golden {
        return;
    }
    let first_diff = got
        .lines()
        .zip(golden.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
    panic!(
        "{bin} output drifted from its golden at line {}:\n  got:  {:?}\n  want: {:?}",
        first_diff + 1,
        got.lines().nth(first_diff),
        golden.lines().nth(first_diff),
    );
}

#[test]
fn repro_all_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_repro_all"),
        include_str!("golden/repro_all.txt"),
    );
}

#[test]
fn repro_ablation_model_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_repro_ablation_model"),
        include_str!("golden/repro_ablation_model.txt"),
    );
}

#[test]
fn repro_extensions_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_repro_extensions"),
        include_str!("golden/repro_extensions.txt"),
    );
}
