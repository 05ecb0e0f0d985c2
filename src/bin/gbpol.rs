//! `gbpol` — command-line GB polarization energy.
//!
//! ```text
//! gbpol <input.pqr|input.xyz>         compute E_pol of a molecule file
//! gbpol --synthetic <n> [seed]        ... of a synthetic n-atom protein
//! options:
//!   --eps <r> <e>    approximation parameters, finite and > 0 (default 0.9 0.9)
//!   --r4             use the Eq. 3 (r4) Born-radius approximation
//!   --fine           fine surface tessellation
//!   --radii          also print per-atom Born radii
//!   --serial         serial runner (default: shared-memory)
//! ```
//!
//! An unknown option or a malformed value is a usage error (exit 2); an
//! unreadable or empty input is exit 1.

use gb_polarize::molecule::io::{parse_pqr, parse_xyz};
use gb_polarize::prelude::*;

const USAGE: &str = "usage: gbpol <input.pqr|input.xyz> | --synthetic <n> [seed]
  [--eps <radii> <energy>] [--r4] [--fine] [--radii] [--serial]";

/// Where the molecule comes from.
enum Input {
    File(String),
    Synthetic { atoms: usize, seed: u64 },
}

/// The parsed command line.
struct Options {
    input: Input,
    params: GbParams,
    radii: bool,
    serial: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return;
    }
    let opts = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });

    let molecule = match load_molecule(&opts.input) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if molecule.is_empty() {
        eprintln!("error: molecule has no atoms");
        std::process::exit(1);
    }

    eprintln!(
        "molecule: {} ({} atoms, net charge {:+.2})",
        molecule.name,
        molecule.len(),
        molecule.net_charge()
    );
    let t0 = std::time::Instant::now();
    let system = GbSystem::prepare(molecule, opts.params);
    eprintln!(
        "surface: {} quadrature points ({:.1} ms)",
        system.num_qpoints(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    let t0 = std::time::Instant::now();
    let out = if opts.serial {
        run_serial(&system)
    } else {
        run_shared(&system)
    };
    eprintln!("computed in {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);

    println!("E_pol = {:.4} kcal/mol", out.result.energy_kcal);
    if opts.radii {
        for (i, r) in out.result.born_radii.iter().enumerate() {
            println!("R[{i}] = {r:.4}");
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut input = None;
    let mut params = GbParams::default();
    let (mut radii, mut serial) = (false, false);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--synthetic" => {
                let atoms = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--synthetic needs an atom count")?;
                let seed = match it.peek().and_then(|s| s.parse().ok()) {
                    Some(seed) => {
                        it.next();
                        seed
                    }
                    None => 2013,
                };
                set_input(&mut input, Input::Synthetic { atoms, seed })?;
            }
            "--eps" => {
                let r = epsilon(it.next())?;
                let e = epsilon(it.next())?;
                params = params.with_epsilons(r, e);
            }
            "--r4" => params = params.with_radii_kind(RadiiKind::R4),
            "--fine" => params = params.with_surface(SurfaceParams::fine()),
            "--radii" => radii = true,
            "--serial" => serial = true,
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
            path => set_input(&mut input, Input::File(path.to_string()))?,
        }
    }
    let input = input.ok_or("no input file given")?;
    Ok(Options {
        input,
        params,
        radii,
        serial,
    })
}

fn set_input(slot: &mut Option<Input>, input: Input) -> Result<(), String> {
    match slot.replace(input) {
        None => Ok(()),
        Some(_) => Err("more than one input given".to_string()),
    }
}

/// One `--eps` value: a finite number above zero.
fn epsilon(value: Option<&String>) -> Result<f64, String> {
    let value = value.ok_or("--eps needs two values")?;
    match value.parse::<f64>() {
        Ok(eps) if eps.is_finite() && eps > 0.0 => Ok(eps),
        _ => Err(format!(
            "--eps value {value:?} is not a finite number above 0"
        )),
    }
}

fn load_molecule(input: &Input) -> Result<Molecule, String> {
    let path = match input {
        Input::Synthetic { atoms, seed } => {
            return Ok(synthesize_protein(&SyntheticParams::with_atoms(
                *atoms, *seed,
            )));
        }
        Input::File(path) => path,
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "input".into());
    if path.ends_with(".xyz") {
        parse_xyz(&name, &text).map_err(|e| format!("{path}: {e}"))
    } else {
        parse_pqr(&name, &text).map_err(|e| format!("{path}: {e}"))
    }
}
