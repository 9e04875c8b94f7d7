/// Configuration of the hybrid direction predictor.
///
/// The default is the paper's "16Kb hybrid": a 2K-entry bimodal table (4Kb of
/// 2-bit counters), a 4K-entry gshare table (8Kb) with 12 bits of global
/// history, and a 2K-entry chooser (4Kb) — 16Kb of state total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BpredConfig {
    /// Bimodal table entries (power of two).
    pub bimodal_entries: usize,
    /// Gshare table entries (power of two).
    pub gshare_entries: usize,
    /// Global history length in bits.
    pub history_bits: u32,
    /// Chooser table entries (power of two).
    pub chooser_entries: usize,
}

impl Default for BpredConfig {
    fn default() -> BpredConfig {
        BpredConfig {
            bimodal_entries: 2048,
            gshare_entries: 4096,
            history_bits: 12,
            chooser_entries: 2048,
        }
    }
}

#[inline]
fn counter_update(c: &mut u8, taken: bool) {
    if taken {
        *c = (*c + 1).min(3);
    } else {
        *c = c.saturating_sub(1);
    }
}

/// A bimodal + gshare hybrid with a per-pc chooser (McFarling style).
///
/// Trace-driven usage: the simulator calls [`HybridPredictor::predict_and_update`]
/// once per fetched conditional branch with the oracle outcome. Tables and
/// history are updated in fetch order along the correct path; wrong-path
/// pollution is not modelled, because the functional oracle that feeds the
/// simulator executes only the correct path, so no wrong-path branch ever
/// reaches the predictor.
///
/// ```
/// use reno_uarch::HybridPredictor;
/// let mut p = HybridPredictor::default();
/// // A strongly biased branch becomes predictable after warmup.
/// for _ in 0..8 { p.predict_and_update(0x40, true); }
/// assert!(p.predict_and_update(0x40, true));
/// ```
#[derive(Clone, Debug)]
pub struct HybridPredictor {
    cfg: BpredConfig,
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>,
    history: u64,
}

impl Default for HybridPredictor {
    fn default() -> HybridPredictor {
        HybridPredictor::new(BpredConfig::default())
    }
}

impl HybridPredictor {
    /// Builds a predictor; counters start weakly not-taken / no preference.
    ///
    /// # Panics
    ///
    /// Panics if any table size is not a power of two.
    pub fn new(cfg: BpredConfig) -> HybridPredictor {
        assert!(cfg.bimodal_entries.is_power_of_two());
        assert!(cfg.gshare_entries.is_power_of_two());
        assert!(cfg.chooser_entries.is_power_of_two());
        HybridPredictor {
            cfg,
            bimodal: vec![1; cfg.bimodal_entries],
            gshare: vec![1; cfg.gshare_entries],
            chooser: vec![2; cfg.chooser_entries], // slight gshare preference
            history: 0,
        }
    }

    /// Total predictor state in bits (each table entry is 2 bits).
    pub fn state_bits(&self) -> usize {
        2 * (self.cfg.bimodal_entries + self.cfg.gshare_entries + self.cfg.chooser_entries)
    }

    #[inline]
    fn gshare_index(&self, pc: u64) -> usize {
        let h = self.history & ((1 << self.cfg.history_bits) - 1);
        ((pc ^ h) as usize) & (self.cfg.gshare_entries - 1)
    }

    /// Predicts the branch at `pc`, then trains with the actual outcome and
    /// shifts it into the global history. Returns the prediction that the
    /// fetch stage acted on.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let bi = (pc as usize) & (self.cfg.bimodal_entries - 1);
        let gi = self.gshare_index(pc);
        let ci = (pc as usize) & (self.cfg.chooser_entries - 1);

        let bim_pred = self.bimodal[bi] >= 2;
        let gsh_pred = self.gshare[gi] >= 2;
        let use_gshare = self.chooser[ci] >= 2;
        let pred = if use_gshare { gsh_pred } else { bim_pred };

        // Train the chooser toward whichever component was right.
        if bim_pred != gsh_pred {
            counter_update(&mut self.chooser[ci], gsh_pred == taken);
        }
        counter_update(&mut self.bimodal[bi], taken);
        counter_update(&mut self.gshare[gi], taken);
        self.history = (self.history << 1) | taken as u64;

        pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_16kb() {
        let p = HybridPredictor::default();
        assert_eq!(p.state_bits(), 16 * 1024);
    }

    #[test]
    fn learns_biased_branch() {
        let mut p = HybridPredictor::default();
        let mut correct = 0;
        for i in 0..100 {
            if p.predict_and_update(0x1234, true) {
                correct += i64::from(i >= 10); // count after warmup
            }
        }
        assert!(
            correct >= 85,
            "biased branch should be near-perfect, got {correct}"
        );
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut p = HybridPredictor::default();
        let mut correct = 0;
        let mut t = false;
        for i in 0..400 {
            t = !t;
            if p.predict_and_update(0x77, t) == t && i >= 100 {
                correct += 1;
            }
        }
        assert!(
            correct >= 280,
            "gshare should capture alternation, got {correct}/300"
        );
    }

    #[test]
    fn different_pcs_do_not_destructively_interfere_when_aliased_apart() {
        let mut p = HybridPredictor::default();
        for _ in 0..50 {
            p.predict_and_update(0x100, true);
            p.predict_and_update(0x200, false);
        }
        assert!(p.predict_and_update(0x100, true));
        assert!(!p.predict_and_update(0x200, false));
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let _ = HybridPredictor::new(BpredConfig {
            bimodal_entries: 1000,
            ..Default::default()
        });
    }
}
