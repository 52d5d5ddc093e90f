//! Regenerates Figure 5b: whole-program runtime overhead per program
//! and hardening strategy.
//!
//! `--smoke` is the CI gate on the table's two invariants: every
//! cleartext row stays under the paper's 4% headline, and no
//! encrypted row costs less than its program's cleartext row (a
//! generator that does less than regenerate the chain would).

use std::process::ExitCode;

/// The paper's headline bound on cleartext whole-program overhead.
const CLEARTEXT_BOUND_PCT: f64 = 4.0;

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rows = parallax_bench::fig5_all();
    let table = parallax_bench::table(
        &[
            "program",
            "mode",
            "base cycles",
            "protected cycles",
            "overhead %",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.program.clone(),
                    r.mode.to_owned(),
                    r.base_cycles.to_string(),
                    r.prot_cycles.to_string(),
                    format!("{:.2}", r.overhead_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Figure 5b — whole-program overhead");
    println!("(paper: 0.1%(gcc)-2.7%(wget) cleartext; 0.2%-3.7% RC4; all <4%)\n");
    print!("{table}");
    let max = rows.iter().map(|r| r.overhead_pct).fold(0.0, f64::max);
    println!("\nmax overhead across programs and modes: {max:.2}%");
    if !smoke {
        return ExitCode::SUCCESS;
    }

    let mut ok = true;
    for r in &rows {
        let Some(clear) = rows
            .iter()
            .find(|c| c.program == r.program && c.mode == "cleartext")
        else {
            eprintln!("FAIL {}: no cleartext row", r.program);
            ok = false;
            continue;
        };
        if r.mode == "cleartext" && r.overhead_pct >= CLEARTEXT_BOUND_PCT {
            eprintln!(
                "FAIL {} cleartext: {:.2}% overhead reaches the paper's {CLEARTEXT_BOUND_PCT}%",
                r.program, r.overhead_pct
            );
            ok = false;
        }
        if r.mode != "cleartext" && r.prot_cycles < clear.prot_cycles {
            eprintln!(
                "FAIL {} {}: {} cycles, below cleartext's {}",
                r.program, r.mode, r.prot_cycles, clear.prot_cycles
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "smoke OK: cleartext under {CLEARTEXT_BOUND_PCT}%, no encrypted row below cleartext"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
