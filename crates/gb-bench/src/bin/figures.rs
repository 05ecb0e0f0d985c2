//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p gb-bench --bin figures -- <target> [--tiny|--quick|--full]
//! ```
//!
//! Targets: `table1 table2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 memory
//! workdiv loadbalance radii datadist all` (`fig8a` and `fig8b` name
//! `fig8`). Output is printed and written as CSV under `results/`. An
//! unknown target or flag prints the usage and exits 2.

use gb_bench::{figures, Scale, Table};
use std::path::PathBuf;

/// The tables one target emits, each with its CSV slug.
type Generator = fn(Scale) -> Vec<(&'static str, Table)>;

/// Every target: the names that select it and what it emits. `all` runs
/// them in this order.
const TARGETS: &[(&[&str], Generator)] = &[
    (&["table1"], |_| vec![("table1", figures::table1())]),
    (&["table2"], |_| vec![("table2", figures::table2())]),
    (&["fig5"], |s| vec![("fig5", figures::fig5(s))]),
    (&["fig6"], |s| vec![("fig6", figures::fig6(s))]),
    (&["fig7"], |s| vec![("fig7", figures::fig7(s))]),
    (&["fig8", "fig8a", "fig8b"], |s| {
        let (a, b) = figures::fig8(s);
        vec![("fig8a", a), ("fig8b", b)]
    }),
    (&["fig9"], |s| vec![("fig9", figures::fig9(s))]),
    (&["fig10"], |s| {
        let (err, time) = figures::fig10(s);
        vec![("fig10_error", err), ("fig10_runtime", time)]
    }),
    (&["fig11"], |s| vec![("fig11", figures::fig11(s))]),
    (&["memory"], |s| vec![("memory", figures::memory_study(s))]),
    (&["workdiv"], |s| vec![("workdiv", figures::workdiv_study(s))]),
    (&["loadbalance"], |s| vec![("loadbalance", figures::loadbalance_study(s))]),
    (&["radii"], |_| vec![("radii_kinds", figures::radii_kind_study())]),
    (&["datadist"], |s| vec![("datadist", figures::datadist_study(s))]),
];

fn usage() -> String {
    let names: Vec<&str> = TARGETS.iter().flat_map(|(names, _)| names.iter().copied()).collect();
    format!(
        "usage: figures [<target>] [--tiny|--quick|--full]\n  targets: {} all (default)",
        names.join(" ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (target, scale) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", usage());
        std::process::exit(2);
    });

    let out_dir = PathBuf::from("results");
    let t0 = std::time::Instant::now();
    for (names, generate) in TARGETS {
        if target != "all" && !names.contains(&target.as_str()) {
            continue;
        }
        for (slug, table) in generate(scale) {
            println!("{}", table.to_text());
            if let Err(e) = table.write_csv(&out_dir, slug) {
                eprintln!("warning: could not write results/{slug}.csv: {e}");
            }
        }
    }
    eprintln!(
        "done: {target} at {scale:?} scale in {:.1} s (CSV under results/)",
        t0.elapsed().as_secs_f64()
    );
}

/// One optional target (default `all`) and scale flags (default quick; the
/// last one given wins).
fn parse_args(args: &[String]) -> Result<(String, Scale), String> {
    let mut target = None;
    let mut scale = Scale::Quick;
    for arg in args {
        if arg.starts_with('-') {
            scale = Scale::from_flag(arg).ok_or_else(|| format!("unknown option {arg}"))?;
        } else if target.is_some() {
            return Err(format!("more than one target given ({arg})"));
        } else if arg == "all" || TARGETS.iter().any(|(names, _)| names.contains(&arg.as_str())) {
            target = Some(arg.clone());
        } else {
            return Err(format!("unknown target {arg}"));
        }
    }
    Ok((target.unwrap_or_else(|| "all".to_string()), scale))
}
