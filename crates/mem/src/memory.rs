//! Functional backing store.
//!
//! The simulator separates *timing* (carried by the coherence protocol)
//! from *data* (carried here), the standard timing-simulator split. Stores
//! update this image when they merge from the write buffer into the cache
//! (the point at which TSO makes them globally observable); loads read it
//! at execute, after store-queue and write-buffer forwarding.

use std::collections::HashMap;

use pl_base::Addr;

/// A sparse 64-bit-word-addressed memory image.
///
/// All accesses are 8-byte words; addresses are rounded down to the
/// containing word, which matches the ISA's aligned 64-bit loads/stores.
/// Unwritten locations read as zero.
///
/// # Examples
///
/// ```
/// use pl_base::Addr;
/// use pl_mem::Memory;
///
/// let mut m = Memory::new();
/// assert_eq!(m.read(Addr::new(0x100)), 0);
/// m.write(Addr::new(0x100), 42);
/// assert_eq!(m.read(Addr::new(0x100)), 42);
/// assert_eq!(m.read(Addr::new(0x107)), 42); // same word
/// ```
#[derive(Debug, Default)]
pub struct Memory {
    words: HashMap<u64, u64>,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    fn word_index(addr: Addr) -> u64 {
        addr.raw() >> 3
    }

    /// Reads the 64-bit word containing `addr`.
    pub fn read(&self, addr: Addr) -> u64 {
        self.words
            .get(&Self::word_index(addr))
            .copied()
            .unwrap_or(0)
    }

    /// Writes the 64-bit word containing `addr`.
    pub fn write(&mut self, addr: Addr, value: u64) {
        if value == 0 {
            // Keep the map sparse: zero is the default.
            self.words.remove(&Self::word_index(addr));
        } else {
            self.words.insert(Self::word_index(addr), value);
        }
    }

    /// Number of nonzero words, useful for sanity checks in tests.
    pub fn nonzero_words(&self) -> usize {
        self.words.len()
    }

    /// Every nonzero word as `(word_index, value)`, sorted by index.
    ///
    /// This is the canonical final-memory image used by the `pl-verify`
    /// differential oracle: two runs are architecturally equivalent only
    /// if these dumps are identical.
    pub fn words_sorted(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self.words.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_unstable();
        out
    }

    /// Encodes the nonzero words (sorted, for determinism) for a
    /// checkpoint spill.
    pub fn encode_into(&self, e: &mut pl_base::Enc) {
        let words = self.words_sorted();
        e.usize(words.len());
        for (k, v) in words {
            e.u64(k);
            e.u64(v);
        }
    }

    /// Replaces the memory image with one encoded by
    /// [`Memory::encode_into`].
    pub fn decode_overlay(&mut self, d: &mut pl_base::Dec<'_>) -> Result<(), String> {
        let n = d.usize()?;
        let mut words = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = d.u64()?;
            let v = d.u64()?;
            if v == 0 {
                return Err(format!("memory: explicit zero word at index {k}"));
            }
            words.insert(k, v);
        }
        self.words = words;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let m = Memory::new();
        assert_eq!(m.read(Addr::new(0)), 0);
        assert_eq!(m.read(Addr::new(!7u64)), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = Memory::new();
        m.write(Addr::new(64), 7);
        m.write(Addr::new(72), 9);
        assert_eq!(m.read(Addr::new(64)), 7);
        assert_eq!(m.read(Addr::new(72)), 9);
        assert_eq!(m.nonzero_words(), 2);
    }

    #[test]
    fn sub_word_addresses_alias_the_word() {
        let mut m = Memory::new();
        m.write(Addr::new(0x103), 5);
        assert_eq!(m.read(Addr::new(0x100)), 5);
        assert_eq!(m.read(Addr::new(0x107)), 5);
        assert_eq!(m.read(Addr::new(0x108)), 0);
    }

    #[test]
    fn words_sorted_is_a_canonical_dump() {
        let mut m = Memory::new();
        m.write(Addr::new(0x200), 3);
        m.write(Addr::new(0x100), 1);
        m.write(Addr::new(0x108), 2);
        assert_eq!(
            m.words_sorted(),
            vec![(0x100 >> 3, 1), (0x108 >> 3, 2), (0x200 >> 3, 3)]
        );
    }

    #[test]
    fn dump_is_independent_of_insertion_order() {
        // The backing store is a HashMap, whose iteration order depends
        // on insertion history. `words_sorted` is the only way contents
        // escape to observable places (the differential oracle, final-
        // state dumps), so it must be a function of the contents alone:
        // permuting the write order — including overwrites and
        // delete/re-insert cycles, which perturb bucket layout — must
        // yield the identical dump.
        let writes: [(u64, u64); 6] = [
            (0x100, 1),
            (0x208, 2),
            (0x310, 3),
            (0x418, 4),
            (0x520, 5),
            (0x628, 6),
        ];
        let build = |order: &[usize]| {
            let mut m = Memory::new();
            for &i in order {
                let (a, v) = writes[i];
                m.write(Addr::new(a), v * 100); // interim value, overwritten
                m.write(Addr::new(a), 0); // delete, perturbing buckets
                m.write(Addr::new(a), v);
            }
            m.words_sorted()
        };
        let forward = build(&[0, 1, 2, 3, 4, 5]);
        let reverse = build(&[5, 4, 3, 2, 1, 0]);
        let shuffled = build(&[3, 0, 5, 1, 4, 2]);
        assert_eq!(forward, reverse);
        assert_eq!(forward, shuffled);
        assert_eq!(
            forward,
            writes.iter().map(|&(a, v)| (a >> 3, v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn writing_zero_keeps_map_sparse() {
        let mut m = Memory::new();
        m.write(Addr::new(8), 1);
        m.write(Addr::new(8), 0);
        assert_eq!(m.read(Addr::new(8)), 0);
        assert_eq!(m.nonzero_words(), 0);
    }
}
