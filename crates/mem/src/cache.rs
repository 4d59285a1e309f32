//! A set-associative cache with LRU replacement and MSI line states.
//!
//! Used as the private L1 (and optionally a shared L2 slice) of each simulated
//! core. The cache stores one 64-bit word of "data" per line — the functional
//! contents of memory travel out-of-band (the DMA model), so a single word is
//! enough to verify coherence end-to-end while keeping the model light.

use hornet_net::codec::{Dec, Enc};

/// MSI coherence state of a cache line.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Invalid: not present.
    Invalid,
    /// Shared: read-only copy.
    Shared,
    /// Modified: exclusive, dirty copy.
    Modified,
}

/// Geometry of a cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            sets: 64,
            ways: 4,
            line_bytes: 64,
        }
    }
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.line_bytes
    }

    /// The cache-line address (address with the offset bits stripped).
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes as u64
    }

    /// The set index for a line address.
    pub fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }
}

/// One cache way.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Way {
    line: u64,
    state: LineState,
    value: u64,
    lru: u64,
}

/// Hit/miss/eviction counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Evictions of modified (dirty) lines.
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative cache.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Way>>,
    tick: u64,
    stats: CacheStats,
}

/// The result of inserting a line: the evicted victim, if any.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Line address of the victim.
    pub line: u64,
    /// Its state at eviction time.
    pub state: LineState,
    /// Its data value.
    pub value: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(config.ways > 0, "associativity must be non-zero");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            sets: vec![Vec::with_capacity(config.ways); config.sets],
            config,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Looks up a line, updating LRU and hit/miss counters. Returns the state
    /// and value if present with at least the required state
    /// (`Shared` suffices for reads; writes require the caller to check for
    /// `Modified` and upgrade via the coherence protocol).
    pub fn lookup(&mut self, line: u64) -> Option<(LineState, u64)> {
        self.tick += 1;
        let set = self.config.set_of(line);
        let tick = self.tick;
        if let Some(w) = self.sets[set].iter_mut().find(|w| w.line == line) {
            w.lru = tick;
            self.stats.hits += 1;
            Some((w.state, w.value))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Peeks at a line without touching LRU or statistics.
    pub fn peek(&self, line: u64) -> Option<(LineState, u64)> {
        let set = self.config.set_of(line);
        self.sets[set]
            .iter()
            .find(|w| w.line == line)
            .map(|w| (w.state, w.value))
    }

    /// Inserts (or updates) a line with the given state and value, returning
    /// the evicted victim if the set was full.
    pub fn insert(&mut self, line: u64, state: LineState, value: u64) -> Option<Evicted> {
        self.tick += 1;
        let set = self.config.set_of(line);
        let tick = self.tick;
        if let Some(w) = self.sets[set].iter_mut().find(|w| w.line == line) {
            w.state = state;
            w.value = value;
            w.lru = tick;
            return None;
        }
        let mut evicted = None;
        if self.sets[set].len() >= self.config.ways {
            let victim_idx = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("set is non-empty");
            let victim = self.sets[set].swap_remove(victim_idx);
            self.stats.evictions += 1;
            if victim.state == LineState::Modified {
                self.stats.dirty_evictions += 1;
            }
            evicted = Some(Evicted {
                line: victim.line,
                state: victim.state,
                value: victim.value,
            });
        }
        self.sets[set].push(Way {
            line,
            state,
            value,
            lru: tick,
        });
        evicted
    }

    /// Changes the state of a resident line (e.g. S→I on invalidation, M→S on
    /// downgrade). Returns the previous state and value, or `None` if the line
    /// is not resident. Transitioning to `Invalid` removes the line.
    pub fn set_state(&mut self, line: u64, state: LineState) -> Option<(LineState, u64)> {
        let set = self.config.set_of(line);
        let idx = self.sets[set].iter().position(|w| w.line == line)?;
        let prev = (self.sets[set][idx].state, self.sets[set][idx].value);
        if state == LineState::Invalid {
            self.sets[set].swap_remove(idx);
        } else {
            self.sets[set][idx].state = state;
        }
        Some(prev)
    }

    /// Updates the value of a resident line (used by stores that hit in M).
    pub fn write_value(&mut self, line: u64, value: u64) -> bool {
        let set = self.config.set_of(line);
        if let Some(w) = self.sets[set].iter_mut().find(|w| w.line == line) {
            w.value = value;
            true
        } else {
            false
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// True if the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all resident lines as (line, state, value).
    pub fn iter(&self) -> impl Iterator<Item = (u64, LineState, u64)> + '_ {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|w| (w.line, w.state, w.value)))
    }

    /// Serializes the cache's full state for a checkpoint. The LRU tick and
    /// per-way ages are included — replacement decisions (and therefore the
    /// miss traffic a restored run generates) must match the uninterrupted
    /// run exactly. Ways are stored in their in-set order, which
    /// `swap_remove` permutes over time, so the encoding is reproducible for
    /// a given history.
    pub fn snapshot(&self, e: &mut Enc) {
        e.u64(self.tick);
        e.u64(self.stats.hits)
            .u64(self.stats.misses)
            .u64(self.stats.evictions)
            .u64(self.stats.dirty_evictions);
        e.u32(self.sets.len() as u32);
        for set in &self.sets {
            e.u32(set.len() as u32);
            for w in set {
                e.u64(w.line)
                    .u8(match w.state {
                        LineState::Invalid => 0,
                        LineState::Shared => 1,
                        LineState::Modified => 2,
                    })
                    .u64(w.value)
                    .u64(w.lru);
            }
        }
    }

    /// Restores the state captured by [`snapshot`](Self::snapshot) into this
    /// cache (which must have the same geometry).
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` on a geometry mismatch or corrupt record.
    pub fn restore(&mut self, d: &mut Dec) -> std::io::Result<()> {
        let corrupt =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.tick = d.u64()?;
        self.stats = CacheStats {
            hits: d.u64()?,
            misses: d.u64()?,
            evictions: d.u64()?,
            dirty_evictions: d.u64()?,
        };
        if d.u32()? as usize != self.sets.len() {
            return Err(corrupt("cache checkpoint: set count mismatch"));
        }
        let config = self.config;
        for (index, set) in self.sets.iter_mut().enumerate() {
            let ways = d.u32()? as usize;
            if ways > config.ways {
                return Err(corrupt("cache checkpoint: way count exceeds associativity"));
            }
            set.clear();
            for _ in 0..ways {
                let line = d.u64()?;
                if config.set_of(line) != index {
                    return Err(corrupt("cache checkpoint: line filed in the wrong set"));
                }
                if set.iter().any(|w| w.line == line) {
                    return Err(corrupt("cache checkpoint: line filed twice in one set"));
                }
                set.push(Way {
                    line,
                    state: match d.u8()? {
                        0 => LineState::Invalid,
                        1 => LineState::Shared,
                        2 => LineState::Modified,
                        _ => return Err(corrupt("cache checkpoint: bad line state")),
                    },
                    value: d.u64()?,
                    lru: d.u64()?,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn hit_after_insert() {
        let mut c = small();
        assert!(c.lookup(10).is_none());
        c.insert(10, LineState::Shared, 77);
        assert_eq!(c.lookup(10), Some((LineState::Shared, 77)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Lines 0, 2, 4 all map to set 0 (even line addresses with 2 sets).
        c.insert(0, LineState::Shared, 1);
        c.insert(2, LineState::Shared, 2);
        assert!(c.lookup(0).is_some()); // touch 0 so 2 becomes LRU
        let evicted = c.insert(4, LineState::Shared, 3).expect("eviction");
        assert_eq!(evicted.line, 2);
        assert!(c.peek(0).is_some());
        assert!(c.peek(2).is_none());
        assert!(c.peek(4).is_some());
    }

    #[test]
    fn dirty_evictions_are_counted() {
        let mut c = small();
        c.insert(0, LineState::Modified, 1);
        c.insert(2, LineState::Shared, 2);
        c.insert(4, LineState::Shared, 3); // evicts line 0 (LRU, dirty)
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn set_state_invalid_removes_line() {
        let mut c = small();
        c.insert(0, LineState::Shared, 5);
        assert_eq!(
            c.set_state(0, LineState::Invalid),
            Some((LineState::Shared, 5))
        );
        assert!(c.peek(0).is_none());
        assert_eq!(c.set_state(0, LineState::Shared), None);
        assert!(c.is_empty());
    }

    #[test]
    fn write_value_requires_residency() {
        let mut c = small();
        assert!(!c.write_value(3, 9));
        c.insert(3, LineState::Modified, 0);
        assert!(c.write_value(3, 9));
        assert_eq!(c.peek(3), Some((LineState::Modified, 9)));
    }

    #[test]
    fn a_line_filed_in_the_wrong_set_or_twice_is_refused() {
        let mut c = small();
        c.insert(0, LineState::Shared, 10);
        c.insert(1, LineState::Modified, 11);
        c.insert(3, LineState::Shared, 13);
        let mut e = Enc::new();
        c.snapshot(&mut e);
        let good = e.bytes().to_vec();
        // Tick, four counters and the set count; set 0's way count and its
        // one way (line, state, value, lru); then set 1's way count.
        const WAY: usize = 8 + 1 + 8 + 8;
        let set1 = 8 + 4 * 8 + 4 + 4 + WAY + 4;
        let line_at = |way: usize| set1 + way * WAY;
        let with_line = |way: usize, line: u64| {
            let mut b = good.clone();
            b[line_at(way)..line_at(way) + 8].copy_from_slice(&line.to_le_bytes());
            b
        };
        let restore = |bytes: &[u8]| small().restore(&mut Dec::new(bytes));
        assert_eq!(good[line_at(0)..line_at(0) + 8], 1u64.to_le_bytes());
        assert!(restore(&good).is_ok());
        assert!(restore(&with_line(1, 5)).is_ok(), "line 5 belongs in set 1");
        // Line 1's address changed to 2, still filed in set 1: a lookup of
        // line 2 searches set 0 and would never find its modified value.
        let misfiled = restore(&with_line(0, 2)).unwrap_err();
        assert_eq!(misfiled.kind(), std::io::ErrorKind::InvalidData);
        // Line 3 renamed to 1: set 1 holds line 1 twice.
        let twice = restore(&with_line(1, 1)).unwrap_err();
        assert_eq!(twice.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn config_address_helpers() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.capacity_bytes(), 64 * 4 * 64);
        assert_eq!(cfg.line_of(0x1000), 0x40);
        assert_eq!(cfg.line_of(0x103f), 0x40);
        assert_eq!(cfg.set_of(0x40), 0);
        assert_eq!(cfg.set_of(0x41), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_bytes: 64,
        });
    }
}
