//! Internal diagnostic dump for scenario tuning (not part of the paper's
//! deliverables; `repro` is the user-facing binary).
//!
//! Usage: `diag [tiny|paper] [seed] [fault-intensity]` — builds the
//! measurement scenario and prints its build time, the unconverged
//! prefixes of the routing universe (the only tool that lists them), the
//! campaign and engine counters, and the paper's tables. A nonzero third
//! argument builds the scenario under `FaultConfig::chaos(intensity)`
//! and prints the resilience counters alongside the usual dumps. Any
//! other first argument exits 2 with usage before building anything.
//!
//! Timings live elsewhere: the `ir-bench` benches (`scripts/bench.sh`)
//! and the end-to-end / per-layer harness (`python3 perfbench/run.py`).

use ir_experiments::{scenario::ScenarioConfig, Scenario};
use ir_fault::FaultConfig;

fn usage() -> ! {
    eprintln!("usage: diag [tiny|paper] [seed] [fault-intensity]");
    std::process::exit(2);
}

/// Parses an optional positional argument, exiting with usage on garbage.
fn arg<T: std::str::FromStr>(v: Option<String>, default: T) -> T {
    v.map_or(default, |s| s.parse().unwrap_or_else(|_| usage()))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let scale = args.next().unwrap_or_else(|| "tiny".into());
    let seed: u64 = arg(args.next(), 7);
    let intensity: f64 = arg(args.next(), 0.0);
    if args.next().is_some() {
        usage();
    }
    let mut cfg = match scale.as_str() {
        "tiny" => ScenarioConfig::tiny(seed),
        "paper" => ScenarioConfig::paper_scale(seed),
        other => {
            eprintln!("unknown scale: {other}");
            usage();
        }
    };
    if intensity > 0.0 {
        cfg.faults = FaultConfig::chaos(intensity);
    }
    let t0 = std::time::Instant::now();
    let s = Scenario::build(cfg);
    println!("build: {:.1?}", t0.elapsed());
    println!(
        "world: {} ASes {} links | inferred {} links | unconverged prefixes: {}",
        s.world.graph.len(),
        s.world.graph.link_count(),
        s.inferred.len(),
        s.universe.unconverged().len()
    );
    for p in s.universe.unconverged() {
        let origin = s.universe.origin(*p);
        println!("  unconverged: {p} origin {origin:?}");
    }
    println!(
        "campaign: {} traceroutes, {} measured, {} decisions, {} observed ASes, {} dest ASes",
        s.campaign.traceroutes.len(),
        s.measured.len(),
        s.decisions.len(),
        s.observed_ases(),
        s.campaign.destination_ases()
    );

    // Resilience counters: what the fault plane injected and how the stack
    // absorbed it. All zeros under a quiet plane.
    let res = s.universe.resilience();
    println!(
        "resilience: faults fired: {} | engine: {} recovery events, {} recovery rounds, \
         {} sessions torn, {} links down at end | campaign: {}",
        s.plane.stats(),
        res.fault_events,
        res.recovery_rounds,
        res.sessions_torn,
        res.links_down_at_end,
        s.campaign.report
    );
    // Cross-prefix batching: how many propagations the announcement-shape
    // grouping actually saved while converging the universe.
    let ustats = s.universe.engine_stats();
    println!(
        "universe: {} prefixes from {} shape propagations ({} shared by fan-out) | \
         {} activations, {} imports",
        ustats.shapes_computed + ustats.prefixes_shared,
        ustats.shapes_computed,
        ustats.prefixes_shared,
        ustats.activations,
        ustats.imports
    );
    println!(
        "memory: {:.1} MiB resident route tables ({:.2} B per (prefix, AS) slot) | \
         shape sims (transient, summed): {} routes at {:.1} B/route, \
         arena intern hit rate {:.0}%",
        s.universe.resident_bytes() as f64 / (1024.0 * 1024.0),
        s.universe.resident_bytes() as f64
            / (s.world.graph.len() * (ustats.shapes_computed + ustats.prefixes_shared).max(1))
                as f64,
        ustats.memory.routes,
        ustats.memory.bytes_per_route(),
        ustats.memory.intern_hit_rate() * 100.0
    );
    println!(
        "audit: {} error(s), {} warning(s) | {}",
        s.audit.errors(),
        s.audit.warnings(),
        s.audit.certificate
    );
    {
        // Classifier route-cache telemetry over the full decision set.
        let classifier = ir_core::classify::Classifier::new(&s.inferred, Default::default());
        classifier.classify_batch(&s.decisions);
        println!("classifier cache: {}", classifier.cache_stats());
    }

    // Event-engine counters on a testbed prefix: how much work announce,
    // an incremental poisoned re-announce, and withdraw actually do.
    if let Some(peering) = ir_measure::peering::Peering::new(&s.world) {
        use ir_types::Timestamp;
        let prefix = peering.prefixes()[0];
        let round = 90 * 60;
        let mut sim = peering.sim(prefix);
        let fmt = |label: &str, c: ir_bgp::Convergence| {
            println!(
                "  {label:<22} rounds {:>3}  activations {:>7}  imports {:>7}{}",
                c.rounds,
                c.activations,
                c.imports,
                if c.converged { "" } else { "  (NOT CONVERGED)" }
            );
        };
        println!("engine counters ({prefix}):");
        fmt(
            "announce",
            sim.announce(peering.anycast(prefix, &[]), Timestamp::ZERO),
        );
        // Poison the first transit hop of some converged route — the same
        // incremental shape a poisoning campaign produces.
        let poison: Vec<ir_types::Asn> = (0..s.world.graph.len())
            .find_map(|i| {
                let hops = sim.best(i)?.path.sequence_asns();
                if hops.len() >= 2 {
                    Some(vec![hops[0]])
                } else {
                    None
                }
            })
            .unwrap_or_default();
        let poisoned = peering.anycast(prefix, &poison);
        fmt(
            "re-announce (poison)",
            sim.announce(poisoned, Timestamp(round)),
        );
        fmt("withdraw", sim.withdraw(Timestamp(2 * round)));
        let total = sim.stats();
        println!(
            "  {:<22} events {:>3}  activations {:>7}  imports {:>7}",
            "cumulative", total.events, total.activations, total.imports
        );
    }
    println!("{}", ir_experiments::exp_table1::run(&s).render());
    println!("{}", ir_experiments::exp_fig1::run(&s).render());
    println!("{}", ir_experiments::exp_fig3::run(&s).render());
    println!("{}", ir_experiments::exp_table2::run(&s).render());
    println!("{}", ir_experiments::exp_table3::run(&s).render());
    println!("{}", ir_experiments::exp_table4::run(&s).render());
    println!("{}", ir_experiments::exp_alternates::run(&s, 60).render());
    println!("{}", ir_experiments::exp_validation::run(&s, 10).render());
    println!("{}", ir_experiments::exp_fig2::run(&s).render());
}
