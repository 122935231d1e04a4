//! `hijack_sweep`: the security adoption sweep — three defenses × the
//! three-attack ladder × five adoption fractions × trials, every cell a
//! cold wave-exact convergence on a 5k-AS internet-scale world. One round
//! (the timed operation) is three `run_sweep` calls, one per defense, of
//! 75 cells each.

use crate::stats::{SetupTimer, Summary};
use crate::trace::Spans;
use crate::{Outcome, RunConfig};
use ir_bgp::{ActivationOrder, DefensePlan, SimContext};
use ir_scenarios::{
    plan_cells, run_sweep, sweep_to_csv, AttackKind, DefenseKind, HijackScenario, SweepConfig,
    SweepRow,
};
use ir_topology::{GeneratorConfig, World};
use rayon::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Target size of the swept world.
pub const WORLD_ASES: usize = 5000;

const DEFENSES: [DefenseKind; 3] = [
    DefenseKind::Rov,
    DefenseKind::EnforceFirstAs,
    DefenseKind::PeerlockLite,
];

const TRIALS: usize = 5;
const MIN_ROUNDS: usize = 2;
/// Setup repetitions per timing block (~26 ms each).
const SETUP_REPS: usize = 8;

/// One sweep configuration per defense, all drawn from the workload seed.
pub fn configs(seed: u64) -> Vec<SweepConfig> {
    DEFENSES
        .iter()
        .map(|&defense| SweepConfig {
            seed,
            fractions: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            trials: TRIALS,
            attacks: vec![
                AttackKind::OriginForgery,
                AttackKind::SubprefixHijack,
                AttackKind::ForgedOrigin {
                    stealth: false,
                    poison: Vec::new(),
                },
            ],
            defense,
            order: ActivationOrder::WaveExact,
        })
        .collect()
}

fn world(seed: u64) -> World {
    GeneratorConfig::internet_scale_sized(WORLD_ASES).build(seed)
}

/// The rows of every defense's sweep, as CSV, after checking that each
/// row classifies every AS exactly once.
fn checked_csv(world: &World, rows: &[SweepRow]) -> Result<String, String> {
    for r in rows {
        if r.n != world.graph.len() || r.legitimate + r.hijacked + r.disconnected != r.n {
            return Err(format!(
                "{} {} at {}: {} legit + {} hijacked + {} disconnected != {} ASes",
                r.defense,
                r.attack,
                r.adoption,
                r.legitimate,
                r.hijacked,
                r.disconnected,
                world.graph.len()
            ));
        }
    }
    Ok(sweep_to_csv(rows))
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    // Setup: what precedes the rounds — generating the swept world.
    let mut setup = || {
        black_box(world(cfg.seed));
    };

    let world = world(cfg.seed);
    let configs = configs(cfg.seed);
    let cells: usize = configs.iter().map(SweepConfig::cells).sum();

    // Each round must render the first round's CSV.
    let mut rounds = Vec::new();
    let mut reference: Option<String> = None;
    let mut setup_timer = SetupTimer::new(SETUP_REPS, cfg.window);
    let start = Instant::now();
    let min_rounds = if cfg.trace { 1 } else { MIN_ROUNDS };
    while rounds.len() < min_rounds || (!cfg.trace && start.elapsed() < cfg.window) {
        setup_timer.run_due(&mut setup);
        let t = Instant::now();
        let rows: Vec<SweepRow> = configs.iter().flat_map(|c| run_sweep(&world, c)).collect();
        rounds.push(t.elapsed().as_secs_f64() * 1e3);
        let csv = checked_csv(&world, &rows)?;
        match &reference {
            None => reference = Some(csv),
            Some(r) if *r != csv => {
                return Err(format!("round {} rendered different CSV", rounds.len()))
            }
            Some(_) => {}
        }
    }
    o.set("setup_s", setup_timer.finish(&mut setup));
    let reference = reference.expect("at least one round ran");
    let round = Summary::of(&rounds);
    let cells_per_s = cells as f64 / (round.p50 / 1e3);
    o.attempted = (cells * rounds.len()) as u64;
    o.note(format!(
        "{} ASes, {cells} cells per round ({} defenses x 3 attacks x 5 fractions x {TRIALS} trials)",
        world.graph.len(),
        DEFENSES.len()
    ));
    o.note(format!("round: {}", round.describe("ms")));
    o.note(format!("rounds: {rounds:.1?} ms"));
    o.note(format!("cells_per_s {cells_per_s:.4}"));

    if cfg.trace {
        let t = Instant::now();
        let csv = traced_sweep(spans, &world, &configs)?;
        let traced_ms = t.elapsed().as_secs_f64() * 1e3;
        if csv != reference {
            return Err("traced per-cell sweep differs from run_sweep".into());
        }
        let round_ms = round.p50;
        let cell = Summary::of(&spans.ms("scenarios.cell"));
        let busy: f64 = spans.ms("scenarios.cell").iter().sum();
        let wall: f64 = spans.ms("scenarios.cells_wall").iter().sum();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        o.set("scenarios.plan_ms", spans.ms("scenarios.plan").iter().sum());
        o.set("scenarios.cell_p50_ms", cell.p50);
        o.set("scenarios.cell_tail_ms", cell.tail);
        o.set(
            "scenarios.parallel_efficiency",
            busy / (wall * cores as f64),
        );
        o.set("trace.overhead_ms", traced_ms - round_ms);
        o.set("trace.overhead_share", (traced_ms - round_ms) / round_ms);
        o.note(format!("per cell: {}", cell.describe("ms")));
    } else {
        o.set("ops_per_s", cells_per_s);
        o.set("op_p50_ms", round.p50);
        o.set("op_tail_ms", round.tail);
        o.set(
            "peak_rss_mb",
            crate::host::peak_rss_mb("self").unwrap_or(0.0),
        );
    }
    Ok(o)
}

/// `plan_cells`, then every cell timed alone (rayon across cells) through
/// the same public calls `run_sweep` makes. Returns the rows' CSV.
fn traced_sweep(
    spans: &mut Spans,
    world: &World,
    configs: &[SweepConfig],
) -> Result<String, String> {
    let mut rows = Vec::new();
    for config in configs {
        let cells = spans.time("scenarios.plan", 0, || plan_cells(world, config));
        let base = SimContext::shared(world);
        let ext = config.defense.build(world);
        let wall_start = Instant::now();
        let timed: Vec<(SweepRow, Instant, Duration)> = cells
            .par_iter()
            .map(|cell| {
                let t = Instant::now();
                let ctx = base.fork();
                let mut plan = DefensePlan::for_world(world);
                if let Some(id) = plan.register(Arc::clone(&ext)) {
                    for &node in &cell.adopters {
                        plan.adopt(node, id);
                    }
                }
                let scenario = HijackScenario {
                    victim: cell.victim,
                    prefix: cell.prefix,
                    attacker: cell.attacker,
                    kind: cell.attack.clone(),
                };
                let run = scenario.run(&ctx, config.order, Some(Arc::new(plan)));
                let row = SweepRow {
                    adoption: cell.adoption,
                    trial: cell.trial,
                    attack: cell.attack.name(),
                    attacker: cell.attacker,
                    victim: cell.victim,
                    defense: config.defense.name(),
                    n: run.outcome.len(),
                    legitimate: run.outcome.legitimate,
                    hijacked: run.outcome.hijacked,
                    disconnected: run.outcome.disconnected,
                };
                (row, t, t.elapsed())
            })
            .collect();
        spans.record("scenarios.cells_wall", 0, wall_start, wall_start.elapsed());
        for (i, (row, start, dur)) in timed.into_iter().enumerate() {
            spans.record("scenarios.cell", i as u64, start, dur);
            rows.push(row);
        }
    }
    checked_csv(world, &rows)
}
