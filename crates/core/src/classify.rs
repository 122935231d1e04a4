//! The Best/Short classification of routing decisions (§3.3).
//!
//! A decision is **Best** when the measured next hop's relationship class
//! equals the best class for which the GR model finds any valley-free
//! route at the deciding AS, and **Short** when the measured path length
//! from the AS to the destination is no longer than the shortest
//! valley-free path the model predicts. (Measured paths can be *shorter*
//! than the model's shortest when they use links the inferred topology
//! does not know; we count those as Short — the AS is certainly not taking
//! a longer-than-necessary path.)
//!
//! The classifier layers the paper's refinements (§4.1–4.3) over the plain
//! model:
//!
//! * **complex relationships** — when the decision's boundary city is
//!   known (geolocated hop IPs) and the Giotsas-style dataset has an entry
//!   for (pair, city), that relationship replaces the plain one;
//! * **siblings** — a decision via an inferred sibling satisfies Best;
//! * **prefix-specific policies** — under criterion 1, edges incident to
//!   the destination origin exist for the measured prefix only if the BGP
//!   feed shows the origin announcing that prefix over them; criterion 2
//!   additionally requires the feed to show *some* prefix on the edge
//!   before trusting its absence (visibility guard).

use crate::dataset::Decision;
use crate::grmodel::{GrModel, GrRoutes, RouteClass};
use ir_inference::feeds::BgpFeed;
use ir_inference::{ComplexRelDb, SiblingGroups};
use ir_topology::RelationshipDb;
use ir_types::{Asn, Prefix, Relationship};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// The four Figure 1 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Best relationship and shortest length — fully model-consistent.
    BestShort,
    /// Shortest length via a worse-than-necessary relationship.
    NonBestShort,
    /// Best relationship but longer than the model's shortest.
    BestLong,
    /// Neither — fully inconsistent with the model.
    NonBestLong,
}

impl Category {
    /// All categories in Figure 1 order.
    pub const ALL: [Category; 4] = [
        Category::BestShort,
        Category::NonBestShort,
        Category::BestLong,
        Category::NonBestLong,
    ];

    fn of(best: bool, short: bool) -> Category {
        match (best, short) {
            (true, true) => Category::BestShort,
            (false, true) => Category::NonBestShort,
            (true, false) => Category::BestLong,
            (false, false) => Category::NonBestLong,
        }
    }

    /// Index into [`Category::ALL`].
    pub fn index(self) -> usize {
        match self {
            Category::BestShort => 0,
            Category::NonBestShort => 1,
            Category::BestLong => 2,
            Category::NonBestLong => 3,
        }
    }

    /// Figure 1 label.
    pub fn label(self) -> &'static str {
        match self {
            Category::BestShort => "Best/Short",
            Category::NonBestShort => "NonBest/Short",
            Category::BestLong => "Best/Long",
            Category::NonBestLong => "NonBest/Long",
        }
    }

    /// Whether the decision satisfied the Best condition.
    pub fn is_best(self) -> bool {
        matches!(self, Category::BestShort | Category::BestLong)
    }

    /// Whether the decision satisfied the Short condition.
    pub fn is_short(self) -> bool {
        matches!(self, Category::BestShort | Category::NonBestShort)
    }

    /// A violation, in the Figure 2 sense: Best or Short not satisfied.
    pub fn is_violation(self) -> bool {
        self != Category::BestShort
    }
}

/// Which prefix-specific-policy criterion to apply (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PspCriterion {
    /// Trust the feed absolutely: no feed evidence ⇒ no edge for the prefix.
    One,
    /// Only trust absence when the edge carried some prefix in the feed.
    Two,
}

/// Refinement inputs for a classification pass.
#[derive(Default, Clone, Copy)]
pub struct ClassifyConfig<'a> {
    /// Giotsas-style complex relationships (hybrid per-city + partial
    /// transit).
    pub complex: Option<&'a ComplexRelDb>,
    /// Cai-style sibling groups.
    pub siblings: Option<&'a SiblingGroups>,
    /// PSP criterion plus the feed providing the evidence.
    pub psp: Option<(PspCriterion, &'a BgpFeed)>,
}

/// Full classification result for one decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub category: Category,
    /// Relationship class the measured next hop was taken to have (after
    /// refinements); `None` when the link is unknown to the model.
    pub used_class: Option<RouteClass>,
    /// Best class available at the observer under the (possibly filtered)
    /// model.
    pub best_class: Option<RouteClass>,
    /// Shortest valley-free length predicted by the model.
    pub model_shortest: Option<usize>,
}

/// Number of cache shards; destinations hash across them so concurrent
/// `classify_batch` workers rarely contend on the same lock.
const CACHE_SHARDS: usize = 16;

/// Decision classifier with per-destination model caching.
///
/// Classification is `&self`: the per-destination route cache is sharded
/// behind `RwLock`s and holds `Arc<GrRoutes>`, so [`Classifier::classify`]
/// can run concurrently from many threads ([`Classifier::classify_batch`]
/// does exactly that via rayon).
///
/// ```
/// use ir_core::classify::{Category, ClassifyConfig, Classifier};
/// use ir_core::dataset::Decision;
/// use ir_topology::RelationshipDb;
/// use ir_types::{Asn, Relationship};
///
/// let mut db = RelationshipDb::default();
/// db.insert(Asn(1), Asn(2), Relationship::Peer);
/// db.insert(Asn(5), Asn(1), Relationship::Provider); // 5 customer of 1
///
/// let classifier = Classifier::new(&db, ClassifyConfig::default());
/// let d = Decision {
///     observer: Asn(1), next_hop: Asn(5), dest: Asn(5), prefix: None,
///     src: Asn(1), suffix_len: 1, link_city: None, path_index: 0,
/// };
/// assert_eq!(classifier.classify(&d).category, Category::BestShort);
/// ```
pub struct Classifier<'a> {
    model: GrModel,
    db: &'a RelationshipDb,
    cfg: ClassifyConfig<'a>,
    /// Cache key: (destination, prefix under PSP filtering or None),
    /// sharded by destination ASN.
    cache: [CacheShard; CACHE_SHARDS],
    /// Hit/miss/duplicate-compute telemetry, kept outside the shard locks.
    hits: AtomicU64,
    misses: AtomicU64,
    duplicates: AtomicU64,
}

/// One lock-guarded slice of the route cache.
type CacheShard = RwLock<BTreeMap<(Asn, Option<Prefix>), Arc<GrRoutes>>>;

/// Snapshot of the classifier's route-cache telemetry.
///
/// `duplicates` counts computations that raced: a second worker computed
/// the same (destination, prefix) model while the first held no lock, and
/// found the entry already present at insert time. Duplicated work is
/// wasted cycles, not wrong answers — both sides compute the same
/// deterministic result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub duplicates: u64,
}

impl std::fmt::Display for CacheCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} duplicated computes",
            self.hits, self.misses, self.duplicates
        )
    }
}

impl<'a> Classifier<'a> {
    /// Builds a classifier over an inferred topology with the given
    /// refinement configuration.
    pub fn new(db: &'a RelationshipDb, cfg: ClassifyConfig<'a>) -> Classifier<'a> {
        Classifier {
            model: GrModel::new(db),
            db,
            cfg,
            cache: std::array::from_fn(|_| RwLock::new(BTreeMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
        }
    }

    /// Route-cache telemetry accumulated so far.
    pub fn cache_stats(&self) -> CacheCounts {
        CacheCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
        }
    }

    /// The underlying indexed model.
    pub fn model(&self) -> &GrModel {
        &self.model
    }

    /// The effective relationship of `next_hop` from `observer` for this
    /// decision, after sibling and complex-relationship refinements.
    pub fn effective_rel(&self, d: &Decision) -> Option<Relationship> {
        if let Some(sibs) = self.cfg.siblings {
            if sibs.are_siblings(d.observer, d.next_hop) {
                return Some(Relationship::Sibling);
            }
        }
        if let Some(complex) = self.cfg.complex {
            if let Some(city) = d.link_city {
                if let Some(rel) = complex.rel_at(d.observer, d.next_hop, city) {
                    return Some(rel);
                }
            }
        }
        self.db.rel(d.observer, d.next_hop)
    }

    /// Per-destination GR routes, honoring PSP filtering when configured
    /// and a prefix is known.
    fn routes(&self, dest: Asn, prefix: Option<Prefix>) -> Arc<GrRoutes> {
        let psp = self.cfg.psp;
        let key_prefix = psp.and(prefix);
        let key = (dest, key_prefix);
        let shard = &self.cache[dest.0 as usize % CACHE_SHARDS];
        // Poison recovery: cache contents are deterministic, so a shard
        // written by a panicking thread is still coherent to read.
        if let Some(routes) = shard
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(routes);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Compute outside the lock; a racing thread may duplicate the work,
        // but both arrive at the same deterministic result and the first
        // insert wins.
        let routes = Arc::new(match (psp, key_prefix) {
            (Some((criterion, feed)), Some(pfx)) => {
                self.model.routes_to_filtered(dest, |a, b| {
                    // Only edges incident to the origin are scrutinized.
                    let neighbor = if a == dest {
                        b
                    } else if b == dest {
                        a
                    } else {
                        return true;
                    };
                    match criterion {
                        PspCriterion::One => feed.announces_to(dest, neighbor, pfx),
                        PspCriterion::Two => {
                            if feed.announces_any_to(dest, neighbor) {
                                feed.announces_to(dest, neighbor, pfx)
                            } else {
                                true // no visibility: keep the edge
                            }
                        }
                    }
                })
            }
            _ => self.model.routes_to(dest),
        });
        let mut shard = shard.write().unwrap_or_else(PoisonError::into_inner);
        match shard.entry(key) {
            std::collections::btree_map::Entry::Occupied(e) => {
                // A racing worker computed and inserted the same model
                // between our read miss and this write lock.
                self.duplicates.fetch_add(1, Ordering::Relaxed);
                Arc::clone(e.get())
            }
            std::collections::btree_map::Entry::Vacant(v) => Arc::clone(v.insert(routes)),
        }
    }

    /// Classifies one decision.
    pub fn classify(&self, d: &Decision) -> Verdict {
        let used_rel = self.effective_rel(d);
        let used_class = used_rel.map(RouteClass::of_rel);
        let routes = self.routes(d.dest, d.prefix);
        let best_class = routes.best_class(d.observer);
        let model_shortest = routes.shortest_any(d.observer);
        let best = match (used_class, best_class) {
            // The decision is Best when the measured next hop's class is at
            // least as good as the best class the model offers. (Strictly
            // better happens when the measured link is cheaper than
            // anything the inferred topology knows — e.g. a sibling or
            // peering link invisible to the collectors; the AS is certainly
            // not violating local preference then.)
            (Some(u), Some(b)) => u <= b,
            // An unknown link can't be ranked; an unreachable destination
            // means the model predicts nothing this path could match.
            _ => false,
        };
        let short = model_shortest.is_some_and(|m| d.suffix_len <= m);
        Verdict {
            category: Category::of(best, short),
            used_class,
            best_class,
            model_shortest,
        }
    }

    /// Classifies every decision in parallel, returning verdicts in input
    /// order — element `i` is exactly what `classify(&decisions[i])` would
    /// produce sequentially.
    pub fn classify_batch(&self, decisions: &[Decision]) -> Vec<Verdict> {
        decisions.par_iter().map(|d| self.classify(d)).collect()
    }

    /// Classifies a batch (in parallel) and tallies a Figure 1-style
    /// breakdown.
    pub fn breakdown(&self, decisions: &[Decision]) -> Breakdown {
        let mut b = Breakdown::default();
        for v in self.classify_batch(decisions) {
            b.add(v.category);
        }
        b
    }
}

/// Category tallies (one Figure 1 bar).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    counts: [usize; 4],
}

impl Breakdown {
    /// Records one categorized decision.
    pub fn add(&mut self, c: Category) {
        self.counts[c.index()] += 1;
    }

    /// Count in a category.
    pub fn count(&self, c: Category) -> usize {
        self.counts[c.index()]
    }

    /// Total decisions.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Percentage in a category (0 when empty).
    pub fn pct(&self, c: Category) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.count(c) as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::CityId;

    #[test]
    fn category_index_matches_all_order() {
        for (i, c) in Category::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    /// Inferred topology: 1==2 peers at the top; 3,4 customers of 1;
    /// 5 customer of 2 and of 4.
    fn db() -> RelationshipDb {
        use Relationship::*;
        let mut db = RelationshipDb::default();
        db.insert(Asn(1), Asn(2), Peer);
        db.insert(Asn(3), Asn(1), Provider);
        db.insert(Asn(4), Asn(1), Provider);
        db.insert(Asn(5), Asn(2), Provider);
        db.insert(Asn(5), Asn(4), Provider);
        db
    }

    fn decision(observer: u32, next: u32, dest: u32, suffix_len: usize) -> Decision {
        Decision {
            observer: Asn(observer),
            next_hop: Asn(next),
            dest: Asn(dest),
            prefix: None,
            src: Asn(observer),
            suffix_len,
            link_city: None,
            path_index: 0,
        }
    }

    #[test]
    fn best_short_when_model_agrees() {
        let db = db();
        let c = Classifier::new(&db, ClassifyConfig::default());
        // 1 routes to 5 via customer 4 (len 2): customer class, shortest.
        let v = c.classify(&decision(1, 4, 5, 2));
        assert_eq!(v.category, Category::BestShort);
        assert_eq!(v.used_class, Some(RouteClass::Customer));
        assert_eq!(v.best_class, Some(RouteClass::Customer));
        assert_eq!(v.model_shortest, Some(2));
    }

    #[test]
    fn cache_counters_track_hits_and_misses() {
        let db = db();
        let c = Classifier::new(&db, ClassifyConfig::default());
        assert_eq!(c.cache_stats(), CacheCounts::default());
        c.classify(&decision(1, 4, 5, 2)); // dest 5: miss
        c.classify(&decision(1, 2, 5, 2)); // dest 5 again: hit
        c.classify(&decision(3, 1, 5, 4)); // dest 5 again: hit
        let s = c.cache_stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        // Duplicated computes only happen under concurrency; a sequential
        // run never observes one.
        assert_eq!(s.duplicates, 0);
        // A batch over the same destinations is all hits.
        c.classify_batch(&[decision(1, 4, 5, 2), decision(1, 2, 5, 2)]);
        let s2 = c.cache_stats();
        assert_eq!(s2.misses + s2.duplicates, 1);
        assert_eq!(s2.hits + s2.duplicates, 4);
    }

    #[test]
    fn nonbest_when_cheaper_class_exists() {
        let db = db();
        let c = Classifier::new(&db, ClassifyConfig::default());
        // 1 routes to 5 via peer 2 (len 2): shortest but peer ≺ customer.
        let v = c.classify(&decision(1, 2, 5, 2));
        assert_eq!(v.category, Category::NonBestShort);
    }

    #[test]
    fn long_when_measured_exceeds_model() {
        let db = db();
        let c = Classifier::new(&db, ClassifyConfig::default());
        // 3 to 5: model shortest = 3 (3→1→4→5 provider class). A measured
        // suffix of 4 is Long; and via provider 1 it is still Best.
        let v = c.classify(&decision(3, 1, 5, 4));
        assert_eq!(v.model_shortest, Some(3));
        assert_eq!(v.category, Category::BestLong);
    }

    #[test]
    fn unknown_link_is_nonbest() {
        let db = db();
        let c = Classifier::new(&db, ClassifyConfig::default());
        // 3—4 link unknown to the topology.
        let v = c.classify(&decision(3, 4, 5, 2));
        assert!(v.used_class.is_none());
        assert!(!v.category.is_best());
        // Measured length 2 beats the model's 3 → Short.
        assert_eq!(v.category, Category::NonBestShort);
    }

    #[test]
    fn sibling_refinement_flips_best() {
        let db = db();
        // Make 1 and 2 siblings via a fabricated registry.
        use ir_topology::orgs::{OrgRegistry, Organization, WhoisRecord};
        use ir_types::{CountryId, OrgId};
        let mut reg = OrgRegistry::default();
        reg.add_org(Organization {
            id: OrgId(0),
            name: "o".into(),
            domains: vec!["o.example".into()],
            soa_domain: "o.example".into(),
            country: CountryId(0),
        });
        for asn in [1u32, 2] {
            reg.add_whois(WhoisRecord {
                asn: Asn(asn),
                email: "noc@o.example".into(),
                org_field: "O".into(),
                country: CountryId(0),
            });
        }
        let sibs = SiblingGroups::infer(&reg);
        assert!(sibs.are_siblings(Asn(1), Asn(2)));
        let cfg = ClassifyConfig {
            siblings: Some(&sibs),
            ..ClassifyConfig::default()
        };
        let c = Classifier::new(&db, cfg);
        // The same decision that was NonBest/Short becomes Best/Short.
        let v = c.classify(&decision(1, 2, 5, 2));
        assert_eq!(v.category, Category::BestShort);
    }

    #[test]
    fn complex_refinement_uses_city_override() {
        let db = db();
        // Hand-build a complex dataset claiming that at city 7, AS 1 is a
        // *customer* of AS 2 (they peer elsewhere).
        let mut complex = ComplexRelDb::default();
        complex_test_insert(
            &mut complex,
            Asn(2),
            Asn(1),
            CityId(7),
            Relationship::Customer,
        );
        let cfg = ClassifyConfig {
            complex: Some(&complex),
            ..ClassifyConfig::default()
        };
        let c = Classifier::new(&db, cfg);
        let mut d = decision(2, 1, 5, 2);
        d.link_city = Some(CityId(7));
        // At city 7, 1 is 2's customer → class Customer. But wait: dest 5
        // is 2's own customer at distance 1... the decision is 2 routing to
        // 5 via 1 with suffix 2 — customer class matches best class.
        let v = c.classify(&d);
        assert_eq!(v.used_class, Some(RouteClass::Customer));
        assert!(v.category.is_best());
        // Without the city, the plain peer relationship applies.
        d.link_city = None;
        let v2 = c.classify(&d);
        assert_eq!(v2.used_class, Some(RouteClass::Peer));
        assert!(!v2.category.is_best());
    }

    /// `ComplexRelDb` is normally built by `derive`; give tests a way to
    /// inject entries through its public API surface.
    fn complex_test_insert(
        db: &mut ComplexRelDb,
        a: Asn,
        b: Asn,
        city: CityId,
        rel_of_b_from_a: Relationship,
    ) {
        db.insert_hybrid_for_tests(a, b, city, rel_of_b_from_a);
    }

    #[test]
    fn breakdown_percentages() {
        let mut b = Breakdown::default();
        b.add(Category::BestShort);
        b.add(Category::BestShort);
        b.add(Category::NonBestLong);
        b.add(Category::BestLong);
        assert_eq!(b.total(), 4);
        assert_eq!(b.count(Category::BestShort), 2);
        assert!((b.pct(Category::BestShort) - 50.0).abs() < 1e-9);
        assert!((b.pct(Category::NonBestShort)).abs() < 1e-9);
    }
}
