//! The `serve_mixed` request mix, drawn from the workload seed: what the
//! load generator sends, and what the traced run replays in-process.

use ir_bgp::{Delta, WhatIfQuery};
use ir_serve::{hijack_line, whatif_line};
use ir_topology::World;
use ir_types::{Asn, Prefix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shares of the open-loop mix, per mille.
const POLICY_PER_MILLE: u32 = 100;
const HIJACK_PER_MILLE: u32 = 40;

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A localized what-if: link down, down-then-up, or export prepend on
    /// an edge AS's uplink.
    Local,
    /// A `NeighborPref` edit, which revokes the safety certificate.
    Policy,
    /// A `hijack` op.
    Hijack,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Local, Kind::Policy, Kind::Hijack];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Local => "local",
            Kind::Policy => "policy",
            Kind::Hijack => "hijack",
        }
    }
}

/// One open-loop request: its wire line and the query the daemon runs.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: u64,
    pub kind: Kind,
    pub query: WhatIfQuery,
    pub line: String,
}

/// The prefixes `ir-serve --prefixes want` makes resident: the first
/// prefix of each of the first `want` originating ASes.
pub fn resident_prefixes(world: &World, want: usize) -> Vec<Prefix> {
    world
        .graph
        .nodes()
        .iter()
        .filter_map(|n| n.prefixes.first().copied())
        .take(want.max(1))
        .collect()
}

/// Edge ASes (no customers) and one of their neighbors, as edit targets.
fn edge_links(world: &World) -> Vec<(Asn, Asn)> {
    let g = &world.graph;
    (0..g.len())
        .filter(|&x| g.customers(x).next().is_none())
        .flat_map(|x| g.links(x).iter().map(move |l| (g.asn(x), g.asn(l.peer))))
        .collect()
}

/// `n` open-loop requests with ids `first_id..`, drawn from `seed`;
/// without `hijacks`, only what-ifs (local and policy in proportion).
pub fn open_loop(
    world: &World,
    prefixes: &[Prefix],
    seed: u64,
    first_id: u64,
    n: usize,
    hijacks: bool,
) -> Vec<Request> {
    let links = edge_links(world);
    assert!(!links.is_empty(), "world has no edge links");
    let mut rng = StdRng::seed_from_u64(seed);
    let lowest_roll = if hijacks { 0 } else { HIJACK_PER_MILLE };
    (0..n as u64)
        .map(|i| {
            let id = first_id + i;
            let prefix = prefixes[rng.random_range(0..prefixes.len())];
            let (of, neighbor) = links[rng.random_range(0..links.len())];
            let roll = rng.random_range(lowest_roll..1000u32);
            if roll < HIJACK_PER_MILLE {
                let attacker = world.graph.asn(rng.random_range(0..world.graph.len()));
                let delta = Delta::Hijack {
                    attacker,
                    forged_origin: None,
                    poison: Vec::new(),
                    stealth: false,
                };
                Request {
                    id,
                    kind: Kind::Hijack,
                    query: WhatIfQuery::single(prefix, delta),
                    line: hijack_line(Some(id), prefix, attacker, None, false, None),
                }
            } else {
                let (kind, deltas) = if roll < HIJACK_PER_MILLE + POLICY_PER_MILLE {
                    let delta = Some(rng.random_range(-200i16..=200));
                    (
                        Kind::Policy,
                        vec![Delta::NeighborPref {
                            of,
                            neighbor,
                            delta,
                        }],
                    )
                } else {
                    let deltas = match rng.random_range(0..3u32) {
                        0 => vec![Delta::LinkDown { a: of, b: neighbor }],
                        1 => vec![
                            Delta::LinkDown { a: of, b: neighbor },
                            Delta::LinkUp { a: of, b: neighbor },
                        ],
                        _ => vec![Delta::ExportPrepend {
                            of,
                            neighbor,
                            count: Some(2),
                        }],
                    };
                    (Kind::Local, deltas)
                };
                Request {
                    id,
                    kind,
                    line: whatif_line(Some(id), prefix, &deltas, None),
                    query: WhatIfQuery { prefix, deltas },
                }
            }
        })
        .collect()
}

/// `n` route lookups (resident prefix, any AS), drawn from `seed`.
pub fn route_lookups(
    world: &World,
    prefixes: &[Prefix],
    seed: u64,
    n: usize,
) -> Vec<(Prefix, Asn)> {
    // A stream apart from the open-loop mix drawn from the same seed.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0072_6f75_7465);
    (0..n)
        .map(|_| {
            let prefix = prefixes[rng.random_range(0..prefixes.len())];
            let asn = world.graph.asn(rng.random_range(0..world.graph.len()));
            (prefix, asn)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_topology::GeneratorConfig;

    #[test]
    fn mix_is_a_function_of_the_seed() {
        let world = GeneratorConfig::internet_scale_sized(1000).build(3);
        let prefixes = resident_prefixes(&world, 16);
        let lines = |seed| -> Vec<String> {
            open_loop(&world, &prefixes, seed, 1, 400, true)
                .into_iter()
                .map(|r| r.line)
                .collect()
        };
        assert_eq!(lines(5), lines(5));
        assert_ne!(lines(5), lines(6));
        assert_eq!(
            route_lookups(&world, &prefixes, 5, 50),
            route_lookups(&world, &prefixes, 5, 50)
        );
    }

    #[test]
    fn mix_has_every_kind_in_proportion() {
        let world = GeneratorConfig::internet_scale_sized(1000).build(3);
        let prefixes = resident_prefixes(&world, 16);
        let reqs = open_loop(&world, &prefixes, 9, 100, 4000, true);
        let count = |k| reqs.iter().filter(|r| r.kind == k).count();
        assert!(count(Kind::Local) > 3000);
        assert!((250..550).contains(&count(Kind::Policy)));
        assert!((80..250).contains(&count(Kind::Hijack)));
        let whatifs = open_loop(&world, &prefixes, 9, 1, 1000, false);
        assert!(whatifs.iter().all(|r| r.kind != Kind::Hijack));
        // Ids are consecutive from the first, and every line parses back
        // to the query it was drawn for.
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, 100 + i as u64);
            let parsed = ir_serve::parse_request(&r.line).expect("mix line parses");
            assert_eq!(parsed.id(), Some(r.id));
        }
    }
}
