//! Regenerates Figure 5a: function-chain slowdown factors per program
//! and hardening strategy.
//!
//! `--smoke` is the CI gate on the paper's ordering of the modes: for
//! every program the cleartext row is the cheapest and the RC4 row,
//! whose generator runs the full KSA per call, the costliest.

use std::process::ExitCode;

use parallax_bench::Fig5Row;

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rows = parallax_bench::fig5_all();
    let table = parallax_bench::table(
        &[
            "program",
            "mode",
            "native cyc/call",
            "chain cyc/call",
            "slowdown",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.program.clone(),
                    r.mode.to_owned(),
                    format!("{:.0}", r.native_per_call),
                    format!("{:.0}", r.chain_per_call),
                    format!("{:.1}x", r.slowdown),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Figure 5a — function chain slowdown");
    println!("(paper: cleartext 3.7x(gcc)-46.7x(wget); RC4 7.6x-64.3x,");
    println!(" worst blowup on lame's very short chain)\n");
    print!("{table}");
    if !smoke {
        return ExitCode::SUCCESS;
    }

    let mut ok = true;
    let mut programs: Vec<&str> = rows.iter().map(|r| r.program.as_str()).collect();
    programs.sort_unstable();
    programs.dedup();
    for program in programs {
        let own = || rows.iter().filter(|r| r.program == program);
        let by_slowdown = |a: &&Fig5Row, b: &&Fig5Row| a.slowdown.total_cmp(&b.slowdown);
        let cheapest = own().min_by(by_slowdown).map_or("none", |r| r.mode);
        let costliest = own().max_by(by_slowdown).map_or("none", |r| r.mode);
        if cheapest != "cleartext" || costliest != "rc4" {
            eprintln!(
                "FAIL {program}: cheapest {cheapest}, costliest {costliest}; \
                 the paper has cleartext and rc4"
            );
            ok = false;
        }
    }
    if ok {
        println!("smoke OK: every program's cheapest row is cleartext, its costliest rc4");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
