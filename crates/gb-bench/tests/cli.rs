//! The `figures` command line: a target or flag it does not know is a usage
//! error (exit 2, nothing generated), and a known target prints its table.

use std::process::{Command, Output};

/// Runs `figures` in the integration tests' scratch directory, so the CSV it
/// writes under `results/` stays out of the source tree.
fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("figures starts")
}

fn assert_usage_error(args: &[&str]) {
    let out = figures(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} generated something");
}

#[test]
fn unknown_targets_are_usage_errors() {
    assert_usage_error(&["wrokdiv"]);
    assert_usage_error(&["fig12", "--tiny"]);
    assert_usage_error(&["table1", "table2"]);
}

#[test]
fn unknown_flags_are_usage_errors() {
    // a misspelt scale must not silently run at the default scale
    assert_usage_error(&["--tny", "workdiv"]);
    assert_usage_error(&["workdiv", "--tny"]);
}

#[test]
fn a_known_target_prints_its_table() {
    let out = figures(&["table1", "--tiny"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("== Table I"), "unexpected output {stdout:?}");
    assert!(stdout.contains("Cores/node"), "unexpected output {stdout:?}");
    assert!(!stdout.contains("Table II"), "table1 ran another target: {stdout:?}");
}
