//! Shared content hashes: FNV-1a (64-bit) and CRC-32 (IEEE 802.3).
//!
//! One implementation each, used workspace-wide: the fleet router's
//! consistent-hash ring, the abstract-interpretation certificate
//! fingerprint, snapshot CRC
//! trailers, and the wire protocol's frame checksum all call through
//! here. Both functions are tiny, branch-free-auditable, and
//! deliberately *not* optimised — inputs are small (keys, configs,
//! frames, snapshots) and auditability beats throughput.

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

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
///
/// Bitwise implementation — speed is irrelevant at snapshot and frame
/// sizes, auditability is not. Matches the classic zlib/`cksum -o 3`
/// CRC: `crc32(b"123456789") == 0xCBF4_3926`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
