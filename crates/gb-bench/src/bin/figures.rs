//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p gb-bench --bin figures -- <target> [--tiny|--quick|--full]
//! ```
//!
//! Targets: `table1 table2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 memory
//! workdiv loadbalance radii datadist all`. Output is printed and written
//! as CSV under `results/`.

use gb_bench::{figures, Scale, Table};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    let target = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    let out_dir = PathBuf::from("results");
    let emit = |slug: &str, table: Table| {
        println!("{}", table.to_text());
        if let Err(e) = table.write_csv(&out_dir, slug) {
            eprintln!("warning: could not write results/{slug}.csv: {e}");
        }
    };

    let t0 = std::time::Instant::now();
    let all = target == "all";
    if all || target == "table1" {
        emit("table1", figures::table1());
    }
    if all || target == "table2" {
        emit("table2", figures::table2());
    }
    if all || target == "fig5" {
        emit("fig5", figures::fig5(scale));
    }
    if all || target == "fig6" {
        emit("fig6", figures::fig6(scale));
    }
    if all || target == "fig7" {
        emit("fig7", figures::fig7(scale));
    }
    if all || target == "fig8" || target == "fig8a" || target == "fig8b" {
        let (a, b) = figures::fig8(scale);
        emit("fig8a", a);
        emit("fig8b", b);
    }
    if all || target == "fig9" {
        emit("fig9", figures::fig9(scale));
    }
    if all || target == "fig10" {
        let (err, time) = figures::fig10(scale);
        emit("fig10_error", err);
        emit("fig10_runtime", time);
    }
    if all || target == "fig11" {
        emit("fig11", figures::fig11(scale));
    }
    if all || target == "memory" {
        emit("memory", figures::memory_study(scale));
    }
    if all || target == "workdiv" {
        emit("workdiv", figures::workdiv_study(scale));
    }
    if all || target == "loadbalance" {
        emit("loadbalance", figures::loadbalance_study(scale));
    }
    if all || target == "radii" {
        emit("radii_kinds", figures::radii_kind_study());
    }
    if all || target == "datadist" {
        emit("datadist", figures::datadist_study(scale));
    }
    eprintln!(
        "done: {target} at {scale:?} scale in {:.1} s (CSV under results/)",
        t0.elapsed().as_secs_f64()
    );
}
