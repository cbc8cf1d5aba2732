//! Edge-coverage instrumentation for the SCVM interpreter.
//!
//! The fuzzer (crate `smartcrowd-fuzz`) steers its mutation loop by the
//! coverage an input reaches, in the libafl/SmartReco idiom: three
//! fixed-size byte maps record control-flow edges (**JMP**), storage
//! reads (**READ**) and storage writes (**WRITE**). Each event hashes
//! into a map slot whose counter saturates at 255; an accumulator
//! bucketizes counters AFL-style so "the loop ran 20 times instead of 2"
//! counts as new coverage while "21 instead of 20" does not.
//!
//! Instrumentation is **zero-cost when off**: [`exec`](crate::exec)
//! threads a [`CovSink`] type parameter through its dispatch loop, and
//! the default [`NoCov`] sink is a zero-sized type whose methods are
//! empty. Monomorphization erases every hook from the uninstrumented
//! path, so `Vm::call` compiles to the same loop it was before the hook
//! existed (the `cov_hook_overhead` bench in `crates/bench` guards
//! this).

use smartcrowd_crypto::U256;

/// Number of slots in each coverage map. Power of two so hashing can
/// mask instead of mod; 4096 slots comfortably over-provisions the
/// largest in-repo contract (tens of edges) while keeping a map copy
/// cheap enough to take per fuzz execution.
pub(crate) const MAP_SIZE: usize = 1 << 12;

const MASK: usize = MAP_SIZE - 1;

/// SplitMix64 finalizer — cheap, well-mixed slot hashing.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Map slot for a control-flow edge `from -> to`.
#[inline]
fn edge_slot(from: usize, to: usize) -> usize {
    (mix(from as u64).rotate_left(1) ^ mix(to as u64)) as usize & MASK
}

/// Map slot for a 256-bit storage key.
#[inline]
fn key_slot(key: &U256) -> usize {
    let mut acc = 0xa076_1d64_78bd_642f_u64;
    for limb in key.limbs() {
        acc = mix(acc ^ limb);
    }
    acc as usize & MASK
}

/// Sink for coverage events emitted by the interpreter loop.
///
/// Implementations are monomorphized into [`crate::exec::Vm::call`]'s hot
/// loop, so every method must be trivially inlinable. [`NoCov`] is the
/// no-op sink used by the public non-coverage entry points.
pub trait CovSink {
    /// A taken control-flow edge: `from` is the pc of the jump (or the
    /// pc of a fall-through `JUMPI`), `to` the next pc. Faulting
    /// executions report a synthetic edge from the faulting pc to a
    /// sentinel target encoding the fault class.
    fn edge(&mut self, from: usize, to: usize);
    /// An `SLOAD` of `key`.
    fn read(&mut self, key: &U256);
    /// An `SSTORE` to `key`.
    fn write(&mut self, key: &U256);
}

/// The zero-sized, do-nothing sink: coverage off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCov;

impl CovSink for NoCov {
    #[inline(always)]
    fn edge(&mut self, _from: usize, _to: usize) {}
    #[inline(always)]
    fn read(&mut self, _key: &U256) {}
    #[inline(always)]
    fn write(&mut self, _key: &U256) {}
}

/// Per-execution hit-count maps (JMP / READ / WRITE).
#[derive(Debug, Clone)]
pub struct CoverageMap {
    jmp: Box<[u8; MAP_SIZE]>,
    read: Box<[u8; MAP_SIZE]>,
    write: Box<[u8; MAP_SIZE]>,
}

impl Default for CoverageMap {
    fn default() -> Self {
        Self::new()
    }
}

impl CoverageMap {
    /// Fresh, all-zero maps.
    pub fn new() -> Self {
        CoverageMap {
            jmp: Box::new([0; MAP_SIZE]),
            read: Box::new([0; MAP_SIZE]),
            write: Box::new([0; MAP_SIZE]),
        }
    }

    /// Zeroes all three maps in place (reuse between executions).
    pub fn clear(&mut self) {
        self.jmp.fill(0);
        self.read.fill(0);
        self.write.fill(0);
    }

    /// Slots with a nonzero hit count, per map: `(jmp, read, write)`.
    pub fn hit_slots(&self) -> (usize, usize, usize) {
        (
            self.jmp.iter().filter(|&&c| c != 0).count(),
            self.read.iter().filter(|&&c| c != 0).count(),
            self.write.iter().filter(|&&c| c != 0).count(),
        )
    }
}

impl CovSink for CoverageMap {
    #[inline]
    fn edge(&mut self, from: usize, to: usize) {
        let slot = &mut self.jmp[edge_slot(from, to)];
        *slot = slot.saturating_add(1);
    }
    #[inline]
    fn read(&mut self, key: &U256) {
        let slot = &mut self.read[key_slot(key)];
        *slot = slot.saturating_add(1);
    }
    #[inline]
    fn write(&mut self, key: &U256) {
        let slot = &mut self.write[key_slot(key)];
        *slot = slot.saturating_add(1);
    }
}

/// AFL's hit-count bucketization: collapse a u8 counter to one bit of
/// an 8-bit "seen buckets" mask, so only order-of-magnitude changes in
/// hit count register as novelty.
#[inline]
fn bucket(count: u8) -> u8 {
    match count {
        0 => 0,
        1 => 1 << 0,
        2 => 1 << 1,
        3 => 1 << 2,
        4..=7 => 1 << 3,
        8..=15 => 1 << 4,
        16..=31 => 1 << 5,
        32..=127 => 1 << 6,
        _ => 1 << 7,
    }
}

/// Accumulated global coverage: per slot, the set of hit-count buckets
/// any corpus input has reached.
#[derive(Debug, Clone)]
pub struct CoverageAccumulator {
    jmp: Box<[u8; MAP_SIZE]>,
    read: Box<[u8; MAP_SIZE]>,
    write: Box<[u8; MAP_SIZE]>,
}

impl Default for CoverageAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl CoverageAccumulator {
    /// Fresh accumulator with nothing covered.
    pub fn new() -> Self {
        CoverageAccumulator {
            jmp: Box::new([0; MAP_SIZE]),
            read: Box::new([0; MAP_SIZE]),
            write: Box::new([0; MAP_SIZE]),
        }
    }

    /// Folds one execution's maps in; returns `true` if the execution
    /// reached any (slot, bucket) pair never seen before.
    pub fn add(&mut self, map: &CoverageMap) -> bool {
        let mut novel = false;
        for (acc, cur) in [
            (&mut self.jmp, &map.jmp),
            (&mut self.read, &map.read),
            (&mut self.write, &map.write),
        ] {
            for (a, &c) in acc.iter_mut().zip(cur.iter()) {
                let b = bucket(c);
                if b & !*a != 0 {
                    novel = true;
                    *a |= b;
                }
            }
        }
        novel
    }

    /// Slots with any bucket seen, per map: `(jmp, read, write)`.
    pub fn covered(&self) -> (usize, usize, usize) {
        (
            self.jmp.iter().filter(|&&b| b != 0).count(),
            self.read.iter().filter(|&&b| b != 0).count(),
            self.write.iter().filter(|&&b| b != 0).count(),
        )
    }
}

/// Small integer class for a [`VmError`](crate::error::VmError) so
/// fault edges distinguish trap kinds without hashing strings.
pub(crate) fn fault_class(e: &crate::error::VmError) -> u8 {
    use crate::error::VmError as E;
    match e {
        E::InvalidOpcode { .. } => 1,
        E::TruncatedImmediate { .. } => 2,
        E::StackUnderflow { .. } => 3,
        E::StackOverflow { .. } => 4,
        E::BadJump { .. } => 5,
        E::OutOfGas { .. } => 6,
        E::InsufficientBalance => 7,
        E::StepLimit => 8,
        E::MemoryLimit { .. } => 9,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cov_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoCov>(), 0);
    }

    #[test]
    fn edges_register_and_accumulate() {
        let mut map = CoverageMap::new();
        map.edge(3, 17);
        map.read(&U256::from_u64(5));
        map.write(&U256::from_u64(5));
        assert_eq!(map.hit_slots(), (1, 1, 1));

        let mut acc = CoverageAccumulator::new();
        assert!(acc.add(&map), "first sighting is novel");
        assert!(!acc.add(&map), "same map again is not novel");
        assert_eq!(acc.covered(), (1, 1, 1));
    }

    #[test]
    fn hit_count_buckets_gate_novelty() {
        let mut acc = CoverageAccumulator::new();
        let mut map = CoverageMap::new();
        map.edge(1, 2);
        assert!(acc.add(&map));

        // Second hit of the same edge lands in a new bucket (2 != 1)...
        map.edge(1, 2);
        assert!(acc.add(&map));

        // ...but within the 4..=7 bucket, extra hits are not novel.
        map.edge(1, 2);
        map.edge(1, 2);
        assert!(acc.add(&map), "count 4 opens the 4..=7 bucket");
        map.edge(1, 2);
        assert!(!acc.add(&map), "count 5 stays inside 4..=7");
    }

    #[test]
    fn clear_resets_all_maps() {
        let mut map = CoverageMap::new();
        map.edge(0, 1);
        map.read(&U256::ONE);
        map.write(&U256::ONE);
        map.clear();
        assert_eq!(map.hit_slots(), (0, 0, 0));
    }

    #[test]
    fn distinct_fault_classes_hit_distinct_slots() {
        // The executor's synthetic fault edge runs to `usize::MAX - class`.
        let mut a = CoverageMap::new();
        a.edge(4, usize::MAX - 1);
        let mut b = CoverageMap::new();
        b.edge(4, usize::MAX - 2);
        let mut acc = CoverageAccumulator::new();
        assert!(acc.add(&a));
        assert!(acc.add(&b));
        assert_eq!(acc.covered().0, 2);
    }
}
