//! `sweep` — stability of the headline results across world seeds.
//!
//! The paper measured one Internet at one moment; this reproduction can
//! resample its synthetic Internet. The sweep rebuilds the scenario for a
//! range of seeds and reports, per seed and aggregated, the numbers the
//! conclusions rest on — showing which shapes are robust properties of the
//! methodology and which are luck of the draw.
//!
//! ```text
//! sweep [--seeds N] [--scale tiny|paper]
//! ```

use ir_core::classify::Category;
use ir_core::refine::Variant;
use ir_experiments::scenario::{Scenario, ScenarioConfig};
use rayon::prelude::*;

struct Row {
    seed: u64,
    simple: f64,
    all1: f64,
    all2: f64,
    cont: f64,
    non_cont: f64,
    domestic: f64,
    dest_skew: f64,
    src_skew: f64,
}

fn usage() -> ! {
    eprintln!("usage: sweep [--seeds N] [--scale tiny|paper]");
    std::process::exit(2);
}

fn main() {
    let mut seeds = 5u64;
    let mut build: fn(u64) -> ScenarioConfig = ScenarioConfig::tiny;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                seeds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--scale" => {
                build = match args.next().as_deref() {
                    Some("tiny") => ScenarioConfig::tiny,
                    Some("paper") => ScenarioConfig::paper_scale,
                    Some(other) => {
                        eprintln!("unknown scale: {other}");
                        usage();
                    }
                    None => usage(),
                }
            }
            _ => usage(),
        }
    }

    println!(
        "{:>4} {:>8} {:>7} {:>7} {:>7} {:>9} {:>9} {:>10} {:>9}",
        "seed",
        "Simple%",
        "All-1%",
        "All-2%",
        "Cont%",
        "NonCont%",
        "Domestic%",
        "DestSkew",
        "SrcSkew"
    );
    // Each seed builds and analyses an independent world, so the whole
    // sweep fans out across cores; rows are collected in seed order and
    // printed afterwards so output stays deterministic.
    let seed_list: Vec<u64> = (1..=seeds).collect();
    let rows: Vec<Row> = seed_list
        .par_iter()
        .map(|&seed| {
            let s = Scenario::build(build(seed));
            let fig1 = ir_experiments::exp_fig1::run(&s);
            let fig3 = ir_experiments::exp_fig3::run(&s);
            let t3 = ir_experiments::exp_table3::run(&s);
            let fig2 = ir_experiments::exp_fig2::run(&s);
            Row {
                seed,
                simple: fig1
                    .bar(Variant::Simple)
                    .map(|b| b.best_short)
                    .unwrap_or(0.0),
                all1: fig1.bar(Variant::All1).map(|b| b.best_short).unwrap_or(0.0),
                all2: fig1.bar(Variant::All2).map(|b| b.best_short).unwrap_or(0.0),
                cont: fig3.bar("Cont").map(|b| b.best_short).unwrap_or(0.0),
                non_cont: fig3.bar("Non Cont").map(|b| b.best_short).unwrap_or(0.0),
                domestic: 100.0 * t3.overall_fraction,
                dest_skew: fig2.dest_skew,
                src_skew: fig2.src_skew,
            }
        })
        .collect();
    for row in &rows {
        println!(
            "{:>4} {:>8.1} {:>7.1} {:>7.1} {:>7.1} {:>9.1} {:>9.1} {:>10.3} {:>9.3}",
            row.seed,
            row.simple,
            row.all1,
            row.all2,
            row.cont,
            row.non_cont,
            row.domestic,
            row.dest_skew,
            row.src_skew
        );
        // Per-seed shape checks (printed, not fatal): the claims the paper
        // rests on.
        let mut notes = Vec::new();
        if row.all1 < row.simple {
            notes.push("All-1 < Simple");
        }
        if row.all1 + 1e-9 < row.all2 {
            notes.push("All-2 > All-1");
        }
        if row.cont <= row.non_cont {
            notes.push("NonCont ≥ Cont");
        }
        if row.dest_skew <= row.src_skew {
            notes.push("src skew ≥ dest skew");
        }
        if !notes.is_empty() {
            println!("      ⚠ seed {}: {}", row.seed, notes.join(", "));
        }

        // One category sanity line per seed.
        let _ = Category::ALL;
    }

    let mean = |f: fn(&Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    println!("---");
    println!(
        "mean {:>8.1} {:>7.1} {:>7.1} {:>7.1} {:>9.1} {:>9.1} {:>10.3} {:>9.3}",
        mean(|r| r.simple),
        mean(|r| r.all1),
        mean(|r| r.all2),
        mean(|r| r.cont),
        mean(|r| r.non_cont),
        mean(|r| r.domestic),
        mean(|r| r.dest_skew),
        mean(|r| r.src_skew)
    );
    let robust = rows
        .iter()
        .filter(|r| r.all1 >= r.simple && r.cont > r.non_cont && r.dest_skew > r.src_skew)
        .count();
    println!(
        "seeds with all headline shapes intact: {robust}/{}",
        rows.len()
    );
}
