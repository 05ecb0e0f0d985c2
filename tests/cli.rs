//! The `gbpol` command line: options it cannot honour are usage errors
//! (exit 2, nothing computed), and a well-formed run prints `E_pol`.

use std::process::{Command, Output};

fn gbpol(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gbpol"))
        .args(args)
        .output()
        .expect("gbpol starts")
}

fn assert_usage_error(args: &[&str]) {
    let out = gbpol(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: gbpol"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} computed something");
}

#[test]
fn unknown_options_are_usage_errors() {
    assert_usage_error(&["--synthetic", "300", "--fats-math"]);
    assert_usage_error(&["--synthetic", "300", "--eps", "abc", "0.9", "--fats-math"]);
    // the approximate-math switch is gone; it must not silently run exact
    assert_usage_error(&["--synthetic", "300", "--fast-math"]);
}

#[test]
fn bad_epsilons_are_usage_errors() {
    for eps in ["abc", "-1", "0", "nan", "inf"] {
        assert_usage_error(&["--synthetic", "300", "--eps", eps, "0.9"]);
        assert_usage_error(&["--synthetic", "300", "--eps", "0.9", eps]);
    }
    assert_usage_error(&["--synthetic", "300", "--eps", "0.9"]);
}

#[test]
fn a_good_run_prints_the_energy() {
    let out = gbpol(&["--synthetic", "300", "--serial"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let energy: f64 = stdout
        .trim()
        .strip_prefix("E_pol = ")
        .and_then(|s| s.strip_suffix(" kcal/mol"))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unexpected output {stdout:?}"));
    assert!(energy.is_finite() && energy < 0.0, "{energy}");
}
