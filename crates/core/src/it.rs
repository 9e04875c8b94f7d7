use crate::{Mapping, PhysReg, RefCountFreeList};
use reno_isa::Opcode;

/// Integration table geometry. Default: the paper's 512-entry, 2-way
/// set-associative reuse table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub assoc: usize,
}

impl Default for ItConfig {
    fn default() -> ItConfig {
        ItConfig {
            entries: 512,
            assoc: 2,
        }
    }
}

/// One input operand of an IT tuple: a physical register name with its
/// displacement (§2.4's extended tuple format) and the generation the
/// register had when the tuple was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ItOperand {
    /// Input physical register.
    pub preg: PhysReg,
    /// Generation of `preg` at tuple creation (stale generation = dead tuple).
    pub gen: u32,
    /// Input displacement.
    pub disp: i32,
}

impl ItOperand {
    /// Builds an operand for `m` with its current generation.
    pub fn of(m: Mapping, fl: &RefCountFreeList) -> ItOperand {
        ItOperand {
            preg: m.preg,
            gen: fl.generation(m.preg),
            disp: m.disp,
        }
    }
}

/// The dataflow signature of an instruction:
/// `<opcode/imm, [p_in1 : d_in1], [p_in2 : d_in2]>`.
///
/// Two dynamic instructions with equal keys read values created by the same
/// dynamic instructions and perform the same operation, so their outputs are
/// provably equal — the basis of RENO_CSE. Reverse entries (RENO_RA) use the
/// same key format with a load opcode and the *store's* base address mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ItKey {
    /// Operation (for reverse store entries: the matching load opcode).
    pub op: Opcode,
    /// Immediate / displacement field of the instruction.
    pub imm: i16,
    /// First input operand.
    pub in1: ItOperand,
    /// Second input operand, if any.
    pub in2: Option<ItOperand>,
}

/// Access statistics — `table_it` uses these to reproduce the paper's
/// "loads-only IT halves size and cuts bandwidth 56%" numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ItStats {
    /// Lookups performed (read ports consumed).
    pub lookups: u64,
    /// Lookups that hit a live tuple.
    pub hits: u64,
    /// Insertions (write ports consumed).
    pub inserts: u64,
}

impl ItStats {
    /// Total port bandwidth consumed (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.lookups + self.inserts
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    valid: bool,
    key: ItKey,
    out: Mapping,
    out_gen: u32,
    lru: u64,
}

const DEAD_KEY: ItKey = ItKey {
    op: Opcode::Halt,
    imm: 0,
    in1: ItOperand {
        preg: PhysReg(0),
        gen: 0,
        disp: 0,
    },
    in2: None,
};

/// The integration table: a hashed, set-associative cache of IT tuples.
///
/// Entries die implicitly when any referenced physical register is freed
/// (its generation bumps); no eager invalidation walk is required.
#[derive(Clone, Debug)]
pub struct IntegrationTable {
    cfg: ItConfig,
    sets: usize,
    entries: Vec<Entry>,
    stamp: u64,
    stats: ItStats,
}

impl Default for IntegrationTable {
    fn default() -> IntegrationTable {
        IntegrationTable::new(ItConfig::default())
    }
}

impl IntegrationTable {
    /// Builds an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible into power-of-two many
    /// `assoc`-way sets.
    pub fn new(cfg: ItConfig) -> IntegrationTable {
        let sets = cfg.entries / cfg.assoc;
        assert_eq!(sets * cfg.assoc, cfg.entries);
        assert!(sets.is_power_of_two());
        IntegrationTable {
            cfg,
            sets,
            entries: vec![
                Entry {
                    valid: false,
                    key: DEAD_KEY,
                    out: Mapping::direct(PhysReg(0)),
                    out_gen: 0,
                    lru: 0
                };
                cfg.entries
            ],
            stamp: 0,
            stats: ItStats::default(),
        }
    }

    /// Table statistics.
    pub fn stats(&self) -> &ItStats {
        &self.stats
    }

    /// The configured geometry.
    pub fn config(&self) -> &ItConfig {
        &self.cfg
    }

    fn set_of(&self, key: &ItKey) -> usize {
        // FNV-style mix of the signature's name components.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        mix(key.op as u64);
        mix(key.imm as u16 as u64);
        mix(key.in1.preg.0 as u64);
        if let Some(i2) = key.in2 {
            mix(i2.preg.0 as u64 | 0x100);
        }
        (h as usize) & (self.sets - 1)
    }

    fn entry_live(e: &Entry, fl: &RefCountFreeList) -> bool {
        e.valid
            && e.key.in1.gen == fl.generation(e.key.in1.preg)
            && e.key
                .in2
                .map_or(true, |i2| i2.gen == fl.generation(i2.preg))
            && e.out_gen == fl.generation(e.out.preg)
    }

    /// Performs the integration test: searches for a live tuple matching
    /// `key` and returns the output mapping to share.
    pub fn lookup(&mut self, key: &ItKey, fl: &RefCountFreeList) -> Option<Mapping> {
        self.stats.lookups += 1;
        self.stamp += 1;
        let set = self.set_of(key);
        let base = set * self.cfg.assoc;
        let stamp = self.stamp;
        for e in &mut self.entries[base..base + self.cfg.assoc] {
            if Self::entry_live(e, fl) && e.key == *key {
                e.lru = stamp;
                self.stats.hits += 1;
                return Some(e.out);
            }
        }
        None
    }

    /// Installs a tuple describing `out` (with its current generation).
    pub fn insert(&mut self, key: ItKey, out: Mapping, fl: &RefCountFreeList) {
        self.stats.inserts += 1;
        self.stamp += 1;
        let set = self.set_of(&key);
        let base = set * self.cfg.assoc;
        let out_gen = fl.generation(out.preg);
        let stamp = self.stamp;
        let ways = &mut self.entries[base..base + self.cfg.assoc];
        // Reuse an entry with the same key, else a dead way, else LRU.
        let victim = if let Some(i) = ways.iter().position(|e| e.valid && e.key == key) {
            &mut ways[i]
        } else if let Some(i) = ways.iter().position(|e| !Self::entry_live(e, fl)) {
            &mut ways[i]
        } else {
            ways.iter_mut().min_by_key(|e| e.lru).expect("assoc > 0")
        };
        *victim = Entry {
            valid: true,
            key,
            out,
            out_gen,
            lru: stamp,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (IntegrationTable, RefCountFreeList) {
        (IntegrationTable::default(), RefCountFreeList::new(64, 33))
    }

    fn key(op: Opcode, imm: i16, p: PhysReg, fl: &RefCountFreeList) -> ItKey {
        ItKey {
            op,
            imm,
            in1: ItOperand::of(Mapping::direct(p), fl),
            in2: None,
        }
    }

    #[test]
    fn miss_then_hit() {
        let (mut it, fl) = setup();
        let k = key(Opcode::Ld, 8, PhysReg(1), &fl);
        assert_eq!(it.lookup(&k, &fl), None);
        it.insert(k, Mapping::direct(PhysReg(3)), &fl);
        assert_eq!(it.lookup(&k, &fl), Some(Mapping::direct(PhysReg(3))));
        assert_eq!(it.stats().hits, 1);
        assert_eq!(it.stats().accesses(), 3);
    }

    #[test]
    fn different_imm_does_not_match() {
        let (mut it, fl) = setup();
        let k8 = key(Opcode::Ld, 8, PhysReg(1), &fl);
        it.insert(k8, Mapping::direct(PhysReg(3)), &fl);
        let k16 = key(Opcode::Ld, 16, PhysReg(1), &fl);
        assert_eq!(it.lookup(&k16, &fl), None);
    }

    #[test]
    fn displacement_is_part_of_the_signature() {
        let (mut it, fl) = setup();
        let m0 = Mapping {
            preg: PhysReg(1),
            disp: 0,
        };
        let m4 = Mapping {
            preg: PhysReg(1),
            disp: 4,
        };
        let k0 = ItKey {
            op: Opcode::Ld,
            imm: 8,
            in1: ItOperand::of(m0, &fl),
            in2: None,
        };
        let k4 = ItKey {
            op: Opcode::Ld,
            imm: 8,
            in1: ItOperand::of(m4, &fl),
            in2: None,
        };
        it.insert(k0, Mapping::direct(PhysReg(3)), &fl);
        assert_eq!(it.lookup(&k4, &fl), None, "same preg, different disp");
        assert!(it.lookup(&k0, &fl).is_some());
    }

    #[test]
    fn freeing_output_register_kills_tuple() {
        let (mut it, mut fl) = setup();
        let out = fl.alloc().unwrap();
        let k = key(Opcode::Ld, 0, PhysReg(2), &fl);
        it.insert(k, Mapping::direct(out), &fl);
        assert!(it.lookup(&k, &fl).is_some());
        fl.decref(out); // freed: generation bumps
        assert_eq!(it.lookup(&k, &fl), None);
    }

    #[test]
    fn freeing_input_register_kills_tuple() {
        let (mut it, mut fl) = setup();
        let input = fl.alloc().unwrap();
        let k = key(Opcode::Add, 0, input, &fl);
        it.insert(k, Mapping::direct(PhysReg(3)), &fl);
        fl.decref(input);
        // Reconstruct the same textual key with the *new* generation: the
        // stored tuple must not match even though preg numbers coincide.
        let k2 = key(Opcode::Add, 0, input, &fl);
        assert_ne!(k.in1.gen, k2.in1.gen);
        assert_eq!(it.lookup(&k2, &fl), None);
    }

    #[test]
    fn lru_replacement_within_set() {
        // A 1-set, 2-way table forces conflict.
        let mut it = IntegrationTable::new(ItConfig {
            entries: 2,
            assoc: 2,
        });
        let fl = RefCountFreeList::new(64, 33);
        let k1 = key(Opcode::Ld, 1, PhysReg(1), &fl);
        let k2 = key(Opcode::Ld, 2, PhysReg(1), &fl);
        let k3 = key(Opcode::Ld, 3, PhysReg(1), &fl);
        it.insert(k1, Mapping::direct(PhysReg(10)), &fl);
        it.insert(k2, Mapping::direct(PhysReg(11)), &fl);
        it.lookup(&k1, &fl); // refresh k1
        it.insert(k3, Mapping::direct(PhysReg(12)), &fl); // evicts k2
        assert!(it.lookup(&k1, &fl).is_some());
        assert_eq!(it.lookup(&k2, &fl), None);
        assert!(it.lookup(&k3, &fl).is_some());
    }

    #[test]
    fn reinsert_same_key_updates_in_place() {
        let (mut it, fl) = setup();
        let k = key(Opcode::Ld, 8, PhysReg(1), &fl);
        it.insert(k, Mapping::direct(PhysReg(3)), &fl);
        it.insert(k, Mapping::direct(PhysReg(4)), &fl);
        assert_eq!(it.lookup(&k, &fl), Some(Mapping::direct(PhysReg(4))));
    }

    #[test]
    fn two_input_keys_distinguish_second_operand() {
        let (mut it, fl) = setup();
        let a = ItOperand::of(Mapping::direct(PhysReg(1)), &fl);
        let b = ItOperand::of(Mapping::direct(PhysReg(2)), &fl);
        let c = ItOperand::of(Mapping::direct(PhysReg(3)), &fl);
        let kab = ItKey {
            op: Opcode::Add,
            imm: 0,
            in1: a,
            in2: Some(b),
        };
        let kac = ItKey {
            op: Opcode::Add,
            imm: 0,
            in1: a,
            in2: Some(c),
        };
        it.insert(kab, Mapping::direct(PhysReg(9)), &fl);
        assert_eq!(it.lookup(&kac, &fl), None);
        assert!(it.lookup(&kab, &fl).is_some());
    }
}
