//! Per-unit cost model: a grid-position seed refined by an EWMA ledger of
//! measured solve times.
//!
//! Per-energy-point cost varies wildly in practice — Sancho-Rubio iteration
//! counts blow up near subband edges, adaptive refinement clusters points
//! at resonances — so a static block distribution leaves whole groups idle
//! behind one slow point. The scheduler instead ranks units by *predicted*
//! cost: a relative seed derived from grid position, replaced by an
//! exponentially weighted moving average of measured seconds once the unit
//! (or its recurrence in a later SCF/I–V iteration) has actually been
//! solved. Seeds are unitless; the model keeps a running calibration
//! (mean measured seconds per unit of seed) so that once real measurements
//! exist, measured and unmeasured units are compared on one axis.

use omen_num::{OmenError, OmenResult};
use std::collections::BTreeMap;

/// EWMA smoothing factor in `(0, 1]`: weight of the newest measurement.
const EWMA_ALPHA: f64 = 0.4;

/// Per-unit cost predictions, indexed by canonical unit id.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Relative (unitless) prior cost per unit.
    seed: Vec<f64>,
    /// Measured EWMA seconds per unit, `NaN` until first observed.
    ewma: Vec<f64>,
    /// Sum of first-observation seconds and of the matching seeds, for the
    /// seed→seconds calibration.
    cal_secs: f64,
    cal_seed: f64,
    /// Number of observations folded in (all units, all repeats).
    observations: usize,
}

impl CostModel {
    /// A flat prior: every unit predicted equally expensive.
    pub fn uniform(n: usize) -> CostModel {
        CostModel::from_seed(vec![1.0; n])
    }

    /// A prior from explicit per-unit relative weights (e.g. heavier near
    /// a band edge where lead decimation iterates longer). Weights must be
    /// positive and finite.
    pub fn from_seed(seed: Vec<f64>) -> CostModel {
        assert!(
            seed.iter().all(|&s| s.is_finite() && s > 0.0),
            "cost seeds must be positive and finite"
        );
        let n = seed.len();
        CostModel {
            seed,
            ewma: vec![f64::NAN; n],
            cal_secs: 0.0,
            cal_seed: 0.0,
            observations: 0,
        }
    }

    /// A band-edge-weighted prior over an energy sweep: units near the low
    /// edge of the window (where subband onsets cluster and the Sancho-Rubio
    /// decimation converges slowest) seeded up to `1 + skew` times the cost
    /// of the high edge, linearly interpolated.
    pub fn band_edge(n_energy: usize, skew: f64) -> CostModel {
        assert!(skew >= 0.0 && skew.is_finite());
        let denom = (n_energy.max(2) - 1) as f64;
        CostModel::from_seed(
            (0..n_energy)
                .map(|i| 1.0 + skew * (1.0 - i as f64 / denom))
                .collect(),
        )
    }

    /// The cold prior of a brokered `k × E` grid whose unit id is
    /// `ik · n_energy + ie`: the [`CostModel::band_edge`] weights repeated
    /// for each of the `n_k` momentum points.
    pub fn band_edge_grid(n_k: usize, n_energy: usize, skew: f64) -> CostModel {
        let per_k = CostModel::band_edge(n_energy, skew).seed;
        CostModel::from_seed(per_k.repeat(n_k))
    }

    /// Number of units the model covers.
    pub fn len(&self) -> usize {
        self.seed.len()
    }

    /// Whether the model covers no units.
    pub fn is_empty(&self) -> bool {
        self.seed.is_empty()
    }

    /// Folds a measured solve time (seconds) for unit `id` into the ledger.
    ///
    /// Non-finite or negative durations are rejected with a typed error and
    /// leave the ledger untouched: one NaN folded into an EWMA would
    /// otherwise propagate through `predict` into every later LPT hand-out
    /// comparison. Callers fed by wall clocks can discard the error (an
    /// `Instant`-derived duration is always finite); callers fed by
    /// wire-decoded timings must treat it as a corrupt message.
    ///
    /// # Errors
    ///
    /// Returns [`OmenError::NonFiniteCost`] when `secs` is NaN, infinite,
    /// or negative.
    pub fn observe(&mut self, id: usize, secs: f64) -> OmenResult<()> {
        if !secs.is_finite() || secs < 0.0 {
            return Err(OmenError::NonFiniteCost {
                unit: id,
                value: secs,
            });
        }
        let prev = self.ewma[id];
        if prev.is_nan() {
            self.ewma[id] = secs;
            self.cal_secs += secs;
            self.cal_seed += self.seed[id];
        } else {
            self.ewma[id] = EWMA_ALPHA * secs + (1.0 - EWMA_ALPHA) * prev;
        }
        self.observations += 1;
        Ok(())
    }

    /// Relative predicted cost of unit `id`: the measured EWMA when one
    /// exists, the seed otherwise. Only comparable *within* one model.
    pub fn predict(&self, id: usize) -> f64 {
        let e = self.ewma[id];
        if e.is_nan() {
            // Scale the seed onto the measured axis once calibrated so
            // mixed (measured + unmeasured) comparisons stay meaningful.
            match self.calibration() {
                Some(c) => self.seed[id] * c,
                None => self.seed[id],
            }
        } else {
            e
        }
    }

    /// Mean measured seconds per unit of seed (first observations only).
    fn calibration(&self) -> Option<f64> {
        if self.cal_seed > 0.0 && self.cal_secs > 0.0 {
            Some(self.cal_secs / self.cal_seed)
        } else {
            None
        }
    }

    /// Total observations folded in so far.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Unit ids sorted most-expensive-first (ties by ascending id): the
    /// LPT-style hand-out order that keeps the longest tasks from landing
    /// last on an otherwise-drained queue.
    ///
    /// Uses `f64::total_cmp`, which is a total order: the comparator stays
    /// transitive for every input, so the sort is deterministic even if a
    /// prediction were somehow non-finite. (The old
    /// `partial_cmp(..).unwrap_or(Equal)` comparator was intransitive in
    /// the presence of NaN — `sort_by` with it could scramble the whole
    /// hand-out order, not just the NaN's position.)
    pub fn descending_order(&self, ids: impl Iterator<Item = usize>) -> Vec<usize> {
        let mut order: Vec<usize> = ids.collect();
        order.sort_by(|&a, &b| self.predict(b).total_cmp(&self.predict(a)).then(a.cmp(&b)));
        order
    }

    /// Test-only backdoor: plants a raw EWMA value (even a non-finite one)
    /// to let regression tests prove ordering stays total without going
    /// through the `observe` validation that now makes this impossible in
    /// production.
    #[cfg(test)]
    fn inject_ewma(&mut self, id: usize, value: f64) {
        self.ewma[id] = value;
    }
}

/// Counters of how [`ModelBank::checkout`] satisfied its requests over the
/// bank's lifetime: the observable witness that cost models persist across
/// SCF calls and warm-start across bias points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankCounts {
    /// Checkouts served by the same bias step's model from an earlier call.
    pub hits: usize,
    /// Checkouts warm-started from the nearest earlier bias step.
    pub warmed: usize,
    /// Checkouts that had to fall back to a fresh seed.
    pub seeded: usize,
}

/// Sweep-lifetime bank of cost models, one per bias step.
///
/// The scheduler's EWMA ledgers are only useful if they outlive one
/// schedule: SCF outer iterations re-solve the same grid many times, and
/// neighbouring bias points of an I–V sweep have nearly the same cost
/// structure. The bank keys one flat model — over whatever unit grid the
/// sweep brokers — by bias step, so a later SCF call at the same bias
/// resumes its own measured ledger (a *hit*), and the first call at a new
/// bias clones the nearest earlier one (a *warm* start — the cost analogue
/// of the potential warm start in `gate_sweep`). Only when neither exists
/// does a checkout fall back to the caller's seed.
#[derive(Debug, Default)]
pub struct ModelBank {
    models: BTreeMap<usize, CostModel>,
    lifetime: BankCounts,
}

impl ModelBank {
    /// An empty bank.
    pub fn new() -> ModelBank {
        ModelBank::default()
    }

    /// Checks out the model of bias step `bias` over `n_units` units: the
    /// stored model when one exists with a matching unit count (*hit*),
    /// else a clone of the nearest earlier bias step's (*warm*), else
    /// `seed()` (*seeded*). A stored model whose unit count no longer
    /// matches — the grid changed — is passed over and the checkout
    /// reseeded.
    pub fn checkout(
        &mut self,
        bias: usize,
        n_units: usize,
        seed: impl FnOnce() -> CostModel,
    ) -> CostModel {
        let fits = |m: &&CostModel| m.len() == n_units;
        if let Some(m) = self.models.get(&bias).filter(fits) {
            self.lifetime.hits += 1;
            return m.clone();
        }
        // If the nearest earlier step ran a different grid, anything older
        // is staler still — reseed.
        let earlier = self.models.range(..bias).next_back().map(|(_, m)| m);
        if let Some(m) = earlier.filter(fits) {
            self.lifetime.warmed += 1;
            return m.clone();
        }
        self.lifetime.seeded += 1;
        let m = seed();
        assert!(
            m.len() == n_units,
            "seeded cost model must cover {n_units} units"
        );
        m
    }

    /// Stores the (measured) model back under `bias`.
    pub fn commit(&mut self, bias: usize, model: CostModel) {
        self.models.insert(bias, model);
    }

    /// Counters over the bank's whole lifetime (never reset).
    pub fn lifetime_counts(&self) -> BankCounts {
        self.lifetime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_then_ewma() {
        let mut m = CostModel::uniform(3);
        assert_eq!(m.predict(0), 1.0, "uncalibrated model predicts the seed");
        m.observe(1, 2.0).unwrap();
        assert_eq!(m.predict(1), 2.0);
        // Calibration: 2.0 s per 1.0 seed → unmeasured units predict 2 s.
        assert!((m.predict(0) - 2.0).abs() < 1e-12);
        m.observe(1, 4.0).unwrap();
        // EWMA with alpha 0.4: 0.4·4 + 0.6·2 = 2.8.
        assert!((m.predict(1) - 2.8).abs() < 1e-12);
        assert_eq!(m.observations(), 2);
    }

    #[test]
    fn band_edge_seed_is_monotone() {
        let m = CostModel::band_edge(5, 1.0);
        let p: Vec<f64> = (0..5).map(|i| m.predict(i)).collect();
        assert!((p[0] - 2.0).abs() < 1e-12);
        assert!((p[4] - 1.0).abs() < 1e-12);
        assert!(p.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn descending_order_breaks_ties_by_id() {
        let mut m = CostModel::uniform(4);
        m.observe(2, 5.0).unwrap();
        m.observe(0, 1.0).unwrap();
        // Calibration is (5+1)/2 = 3 s/seed: unmeasured units 1 and 3
        // predict 3 s (tie broken by id), between the two measured units.
        let order = m.descending_order(0..4);
        assert_eq!(order, vec![2, 1, 3, 0]);
    }

    #[test]
    fn bad_observations_are_rejected_with_typed_error() {
        let mut m = CostModel::uniform(2);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            match m.observe(0, bad) {
                Err(OmenError::NonFiniteCost { unit, value }) => {
                    assert_eq!(unit, 0);
                    assert_eq!(value.to_bits(), bad.to_bits());
                }
                other => panic!("observe({bad}) returned {other:?}"),
            }
        }
        // The ledger is untouched: no observations, prediction still the
        // bare seed (rejects must not calibrate).
        assert_eq!(m.observations(), 0);
        assert_eq!(m.predict(0), 1.0);
    }

    #[test]
    fn descending_order_is_total_even_with_poisoned_predictions() {
        // Regression for the partial_cmp(..).unwrap_or(Equal) comparator:
        // that comparator is intransitive when any prediction is NaN, and
        // an intransitive comparator lets sort_by scramble the *finite*
        // entries too. total_cmp keeps the order deterministic no matter
        // what lands in the ledger.
        let mut m = CostModel::uniform(6);
        m.observe(0, 3.0).unwrap();
        m.observe(5, 1.0).unwrap();
        m.inject_ewma(2, f64::INFINITY);
        m.inject_ewma(4, f64::NEG_INFINITY);
        let order = m.descending_order(0..6);
        // inf first, then measured 3.0, then the calibrated seeds
        // (ties by id), then 1.0, then -inf.
        assert_eq!(order, vec![2, 0, 1, 3, 5, 4]);
        // Determinism: repeated sorts of any rotation agree.
        let again = m.descending_order([3, 5, 0, 4, 1, 2].into_iter());
        assert_eq!(again, order);
        // A NaN planted in the raw ledger is treated as "unobserved" by
        // predict (seed fallback), never reaching the comparator — and the
        // sort stays well-defined regardless.
        m.inject_ewma(1, f64::NAN);
        let with_nan = m.descending_order(0..6);
        assert_eq!(with_nan, order);
    }

    #[test]
    fn grid_seed_repeats_the_band_edge_per_k() {
        // n_k = 2, n_e = 3: seeds [3, 2, 1, 3, 2, 1], ties by ascending id —
        // the first sweep's hand-out order of a cold k × E grid.
        let m = CostModel::band_edge_grid(2, 3, 2.0);
        assert_eq!(m.len(), 6);
        assert_eq!(m.descending_order(0..6), vec![0, 3, 1, 4, 2, 5]);
    }

    #[test]
    fn bank_hits_then_warms_then_seeds() {
        let mut bank = ModelBank::new();
        let seed = || CostModel::band_edge_grid(2, 2, 2.0);
        // First checkout at bias 0: nothing stored, must seed.
        let mut m = bank.checkout(0, 4, seed);
        m.observe(3, 0.75).unwrap();
        bank.commit(0, m);
        assert_eq!(
            bank.lifetime_counts(),
            BankCounts {
                hits: 0,
                warmed: 0,
                seeded: 1
            }
        );
        // Same bias again — the SCF re-solve path — is a hit carrying the
        // measured ledger.
        let m = bank.checkout(0, 4, seed);
        assert!((m.predict(3) - 0.75).abs() < 1e-12, "ledger persisted");
        bank.commit(0, m);
        // Bias 2 warm-starts from the nearest earlier step, bias 0.
        let m = bank.checkout(2, 4, seed);
        assert!((m.predict(3) - 0.75).abs() < 1e-12, "warm start");
        bank.commit(2, m);
        assert_eq!(
            bank.lifetime_counts(),
            BankCounts {
                hits: 1,
                warmed: 1,
                seeded: 1
            }
        );
        // The grid grew: bias 2's stored 4-unit model must not leak into a
        // 6-unit schedule, neither as a hit nor warm-started from bias 0.
        let m = bank.checkout(2, 6, || CostModel::band_edge_grid(2, 3, 2.0));
        assert_eq!(m.len(), 6);
        assert_eq!(m.observations(), 0, "reseeded, not resized");
        assert_eq!(bank.lifetime_counts().seeded, 2);
    }

    #[test]
    fn bank_reseeds_on_grid_change() {
        let mut bank = ModelBank::new();
        let m = bank.checkout(0, 4, || CostModel::uniform(4));
        bank.commit(0, m);
        // The energy grid grew: the stored 4-unit model must not leak into
        // a 6-unit schedule, at the same bias or warm-started from it.
        let m = bank.checkout(0, 6, || CostModel::uniform(6));
        assert_eq!(m.len(), 6);
        let m2 = bank.checkout(1, 6, || CostModel::uniform(6));
        assert_eq!(m2.len(), 6);
        assert_eq!(
            bank.lifetime_counts(),
            BankCounts {
                hits: 0,
                warmed: 0,
                seeded: 3
            }
        );
    }

    #[test]
    fn warm_started_lpt_order_matches_recorded_costs() {
        // Property: for any measured cost ledger committed at bias b, the
        // warm-started checkout at bias b+1 hands out units in exactly the
        // LPT order of the recorded costs. Deterministic xorshift stream
        // over many trials stands in for a property-test generator.
        let mut x = 0x9e37_79b9_u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f64 / 1000.0 + 1e-3
        };
        for trial in 0..50 {
            let n = 3 + (trial % 13);
            let mut bank = ModelBank::new();
            let mut m = bank.checkout(0, n, || CostModel::band_edge(n, 2.0));
            let mut costs = Vec::with_capacity(n);
            for id in 0..n {
                let c = rand();
                m.observe(id, c).unwrap();
                costs.push(c);
            }
            bank.commit(0, m);
            let warm = bank.checkout(1, n, || CostModel::band_edge(n, 2.0));
            let mut want: Vec<usize> = (0..n).collect();
            want.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
            assert_eq!(
                warm.descending_order(0..n),
                want,
                "trial {trial}: warm LPT order must equal the recorded-cost order"
            );
        }
    }

    #[test]
    fn warm_checkout_still_rejects_non_finite_costs_typed() {
        let mut bank = ModelBank::new();
        let mut m = bank.checkout(0, 2, || CostModel::uniform(2));
        m.observe(0, 0.5).unwrap();
        bank.commit(0, m);
        let mut warm = bank.checkout(1, 2, || CostModel::uniform(2));
        match warm.observe(1, f64::NAN) {
            Err(OmenError::NonFiniteCost { unit: 1, .. }) => {}
            other => panic!("warm model must keep typed rejection, got {other:?}"),
        }
        assert!((warm.predict(0) - 0.5).abs() < 1e-12, "ledger untouched");
    }
}
