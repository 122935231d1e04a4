//! `repro_tiny`: the whole paper pipeline at tiny scale, closed loop on one
//! thread — `Scenario::build` + `assemble_report` over consecutive seeds.

use crate::stats::{median, SetupTimer, Summary};
use crate::trace::Spans;
use crate::{Outcome, RunConfig};
use ir_bgp::RoutingUniverse;
use ir_core::dataset::{Decision, MeasuredPath};
use ir_dataplane::{AddressPlan, GeoDb, OriginTable};
use ir_experiments::report::{assemble_report, ALL_EXPERIMENTS};
use ir_experiments::{Scenario, ScenarioConfig};
use ir_fault::FaultPlane;
use ir_inference::feeds;
use ir_inference::relinfer::{infer_relationships, InferConfig};
use ir_inference::{aggregate_snapshots, ComplexRelDb, SiblingGroups};
use ir_measure::atlas::ProbePool;
use ir_measure::campaign::{Campaign, CampaignConfig};
use ir_measure::LookingGlassNet;
use ir_topology::{GeneratorConfig, RelationshipDb};
use ir_types::Asn;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Scenario seeds in the batch.
pub const BATCH: usize = 40;

/// The batch: tiny scenario seeds `1..=BATCH`, rotated to start at a point
/// drawn from the workload seed. Scenario seeds differ several-fold in
/// cost (one whose prefixes oscillate to the wave cap costs far more than
/// one that converges), so a batch drawn per workload seed moved
/// `ops_per_s` by a quarter with the seeds it happened to hold; a fixed
/// batch leaves the host and the code.
pub fn batch(workload_seed: u64) -> Vec<u64> {
    let n = BATCH as u64;
    (0..n).map(|i| 1 + (workload_seed + i) % n).collect()
}

/// Passes over the batch per untraced run, at least; more while the
/// window lasts. Every pass after the first must render the first's
/// reports.
const MIN_PASSES: usize = 2;

/// Setup repetitions per timing block (~0.6 ms each): every batch seed's
/// world seven times.
const SETUP_REPS: usize = 7 * BATCH;

/// Layers of `Scenario::build`, in call order, as span names.
const BUILD_LAYERS: [&str; 9] = [
    "topology.gen",
    "audit.world",
    "bgp.universe",
    "dataplane.build",
    "inference.feed",
    "bgp.months",
    "inference.relinfer",
    "measure.campaign",
    "core.convert",
];

/// One seed end to end, as `repro --scale tiny` runs it: the report's
/// text and JSON bytes.
fn repro(seed: u64) -> (Scenario, String) {
    let s = Scenario::build(ScenarioConfig::tiny(seed));
    let (text, json) = assemble_report(&s, seed, "tiny", ALL_EXPERIMENTS);
    let bytes = format!(
        "{text}\n{}",
        serde_json::to_string(&json).unwrap_or_default()
    );
    (s, bytes)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn digest(bytes: &str) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let batch = batch(cfg.seed);

    // Setup: what precedes a repro — world generation and audit — cycling
    // through the batch's worlds.
    let mut rep = 0;
    let mut setup = || {
        let world = GeneratorConfig::tiny().build(batch[rep % BATCH]);
        rep += 1;
        black_box(ir_audit::audit_world(&world));
    };

    // Warm-up: the first seed once, untimed; its report is the reference
    // the timed repro of the same seed must reproduce byte for byte.
    let (_, reference) = repro(batch[0]);

    let mut latencies = Vec::new();
    let mut traced_totals = Vec::new();
    let mut passes: Vec<f64> = Vec::new();
    // Digests of the first pass's reports, which later passes must repeat.
    let mut digests: Vec<u64> = Vec::with_capacity(BATCH);
    let (mut unconverged, mut prefixes) = (0usize, 0usize);
    let mut setup_timer = SetupTimer::new(SETUP_REPS, cfg.window);
    let start = Instant::now();
    let min_passes = if cfg.trace { 1 } else { MIN_PASSES };
    // Whole passes only, so every run weighs every seed alike; past the
    // minimum, a pass starts only if it should end in the window.
    let fits =
        |passes: &[f64]| start.elapsed() + Duration::from_secs_f64(median(passes)) <= cfg.window;
    while passes.len() < min_passes || (!cfg.trace && fits(&passes)) {
        let mut pass_s = 0.0;
        for (i, &seed) in batch.iter().enumerate() {
            setup_timer.run_due(&mut setup);
            let t = Instant::now();
            let (s, bytes) = repro(seed);
            let took = ms(t.elapsed());
            latencies.push(took);
            pass_s += took / 1e3;
            let digest = digest(&bytes);
            match digests.get(i) {
                None if i == 0 && bytes != reference => {
                    return Err(format!(
                        "seed {seed}: second repro rendered different bytes"
                    ))
                }
                None => {
                    digests.push(digest);
                    unconverged += s.universe.unconverged().len();
                    prefixes += s.universe.prefixes().count();
                }
                Some(&d) if d != digest => {
                    return Err(format!(
                        "seed {seed}: pass {} rendered different bytes",
                        passes.len() + 1
                    ))
                }
                Some(_) => {}
            }
            if cfg.trace {
                let t = Instant::now();
                let traced = traced_repro(seed, spans)?;
                traced_totals.push(ms(t.elapsed()));
                if traced != bytes {
                    return Err(format!(
                        "seed {seed}: traced decomposition's report differs from Scenario::build's"
                    ));
                }
            }
        }
        passes.push(pass_s);
    }
    o.set("setup_s", setup_timer.finish(&mut setup));
    let n = latencies.len();
    let repro_s = latencies.iter().sum::<f64>() / 1e3;

    let lat = Summary::of(&latencies);
    // An operation is a prefix converged; one that never converges failed.
    o.attempted = prefixes as u64;
    o.failed = unconverged as u64;
    o.note(format!(
        "scenario seeds 1..={BATCH} from {}, {} passes",
        batch[0],
        passes.len()
    ));
    o.note(format!("per-seed repro: {}", lat.describe("ms")));
    o.note(format!(
        "repro_s {repro_s:.4} s for {n} seeds; fail_frac {:.6} ({unconverged} of {prefixes} prefixes unconverged)",
        unconverged as f64 / prefixes.max(1) as f64
    ));
    if cfg.trace {
        per_layer(&mut o, spans, &latencies, &traced_totals);
        o.set("bgp.unconverged", unconverged as f64 / BATCH as f64);
        o.set(
            "bgp.unconverged_share",
            unconverged as f64 / prefixes.max(1) as f64,
        );
    } else {
        o.set("ops_per_s", n as f64 / repro_s);
        o.set("op_p50_ms", lat.p50);
        o.set("op_tail_ms", lat.tail);
        o.set(
            "peak_rss_mb",
            crate::host::peak_rss_mb("self").unwrap_or(0.0),
        );
    }
    Ok(o)
}

/// Per-layer medians over seeds, and the tracing overhead: traced replay
/// minus the untraced repro of the same seed.
fn per_layer(o: &mut Outcome, spans: &Spans, untraced: &[f64], traced: &[f64]) {
    for layer in BUILD_LAYERS {
        let per_seed: Vec<f64> = spans.per_op_ms(&[layer]).into_values().collect();
        o.set(&format!("{layer}_ms"), median(&per_seed));
    }
    for name in ALL_EXPERIMENTS {
        let span = format!("experiments.{name}");
        o.set(&format!("{span}_ms"), median(&spans.ms(&span)));
    }
    for count in ["core.decisions", "bgp.activations", "bgp.imports"] {
        o.set(count, median(&spans.counts(count)));
    }
    let overhead: Vec<f64> = traced.iter().zip(untraced).map(|(t, u)| t - u).collect();
    let overhead_ms = median(&overhead);
    o.set("trace.overhead_ms", overhead_ms);
    o.set("trace.overhead_share", overhead_ms / median(untraced));
}

/// `Scenario::build`'s public calls replayed in order with a span on each
/// layer, then `assemble_report` once per experiment. Returns the report
/// bytes, which must equal the untraced repro's.
fn traced_repro(seed: u64, spans: &mut Spans) -> Result<String, String> {
    let cfg = ScenarioConfig::tiny(seed);
    let world = spans.time("topology.gen", seed, || {
        let w = cfg.gen.build(seed);
        w.validate().map(|()| w)
    });
    let world = world.map_err(|e| format!("seed {seed}: generated world is inconsistent: {e}"))?;
    let plane = FaultPlane::new(cfg.faults, seed);
    if !plane.config().is_quiet() {
        return Err("the traced replay covers quiet fault planes only".into());
    }
    let audit = spans.time("audit.world", seed, || ir_audit::audit_world(&world));
    let universe = spans.time("bgp.universe", seed, || {
        RoutingUniverse::compute_all_with_faults_ordered(
            &world,
            &plane,
            audit.certificate.activation_order(),
        )
    });
    let engine = universe.engine_stats();
    spans.count("bgp.activations", engine.activations as f64);
    spans.count("bgp.imports", engine.imports as f64);
    let (plan, geodb, origin_table) = spans.time("dataplane.build", seed, || {
        let plan = AddressPlan::build(&world);
        let geodb = GeoDb::build(&world, &plan, cfg.geo, seed);
        let origin_table = OriginTable::from_universe(&universe);
        (plan, geodb, origin_table)
    });
    let (vantages, feed, months) = spans.time("inference.feed", seed, || {
        let vantages = feeds::pick_vantages(&world, &cfg.feed, seed);
        let feed = feeds::extract_feed_lossy(&world, &universe, &vantages, cfg.feed.loss, seed);
        let months = feeds::monthly_worlds(&world, cfg.months, seed);
        (vantages, feed, months)
    });
    let infer_cfg = InferConfig::default();
    let mut snapshots: Vec<RelationshipDb> = Vec::with_capacity(months.len());
    for (i, month) in months.iter().enumerate() {
        let month_feed = if i + 1 == months.len() {
            feed.clone()
        } else {
            let prefixes: Vec<_> = month.graph.nodes().iter().map(|n| n.prefixes[0]).collect();
            let u = spans.time("bgp.months", seed, || {
                RoutingUniverse::compute(month, &prefixes)
            });
            spans.time("inference.feed", seed, || {
                feeds::extract_feed(month, &u, &vantages)
            })
        };
        let snapshot = spans.time("inference.relinfer", seed, || {
            let paths: Vec<&[Asn]> = month_feed.paths().collect();
            infer_relationships(paths, &infer_cfg)
        });
        snapshots.push(snapshot);
    }
    let (inferred, complex, siblings) = spans.time("inference.relinfer", seed, || {
        (
            aggregate_snapshots(&snapshots),
            ComplexRelDb::derive(&world, cfg.complex_coverage, seed),
            SiblingGroups::infer(&world.orgs),
        )
    });
    let (lg, pool, probes, campaign) = spans.time("measure.campaign", seed, || {
        let lg = LookingGlassNet::deploy(&world, cfg.lg_fraction, seed);
        let pool = ProbePool::install(&world, seed);
        let probes = pool.select_balanced(cfg.probes);
        let campaign = Campaign::run_with_faults(
            &world,
            &universe,
            &plan,
            &probes,
            &CampaignConfig {
                trace: cfg.trace,
                seed,
                budget: None,
                retry: Default::default(),
            },
            &plane,
        );
        (lg, pool, probes, campaign)
    });
    let (measured, decisions) = spans.time("core.convert", seed, || {
        let measured: Vec<MeasuredPath> = campaign
            .traceroutes
            .iter()
            .filter_map(|tr| MeasuredPath::build(tr, &origin_table, &geodb))
            .collect();
        let decisions: Vec<Decision> = measured.iter().flat_map(|m| m.decisions()).collect();
        (measured, decisions)
    });
    spans.count("core.decisions", decisions.len() as f64);
    let s = Scenario {
        cfg,
        world,
        universe,
        plan,
        geodb,
        origin_table,
        pool,
        probes,
        vantages,
        feed,
        inferred,
        complex,
        siblings,
        lg,
        campaign,
        measured,
        decisions,
        plane,
        audit,
    };

    let (mut text, mut json) = assemble_report(&s, seed, "tiny", &[]);
    for name in ALL_EXPERIMENTS {
        let (t, j) = spans.time(&format!("experiments.{name}"), seed, || {
            assemble_report(&s, seed, "tiny", &[name])
        });
        text.push_str(&t);
        if let Some(v) = j.get(name) {
            json[name] = v.clone();
        }
    }
    Ok(format!(
        "{text}\n{}",
        serde_json::to_string(&json).unwrap_or_default()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_batch_is_a_seeded_rotation_of_a_fixed_batch() {
        assert_eq!(batch(7), batch(7));
        assert_ne!(batch(7), batch(8));
        let mut sorted = batch(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=BATCH as u64).collect::<Vec<_>>());
        let seed = batch(3)[0];
        assert_eq!(repro(seed).1, repro(seed).1);
    }

    #[test]
    fn traced_replay_renders_the_shipping_report() {
        let seed = batch(2)[0];
        let mut spans = Spans::new();
        let traced = traced_repro(seed, &mut spans).expect("replay succeeds");
        assert_eq!(traced, repro(seed).1);
        for layer in BUILD_LAYERS {
            assert!(!spans.ms(layer).is_empty(), "no span for {layer}");
        }
    }
}
