//! The store formats' checksum: streaming XXH64 with seed 0.
//!
//! Four independent multiply–rotate lanes each absorb one little-endian
//! `u64` of every 32-byte stripe, so a verified walk runs at memory
//! bandwidth instead of one dependent multiply per byte. Safe code over
//! `from_le_bytes`: the digest is a function of the byte stream alone —
//! the same on any host, however [`Xxh64::update`] calls split it.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

const STRIPE: usize = 32;

/// Streaming XXH64, seed 0 (the checksum of store headers, v2 images and
/// shard manifests: dependency-free, byte-order independent, and strong
/// enough to catch the bit flips and truncations a store can pick up at
/// rest — not a cryptographic integrity guarantee).
///
/// Public so that tooling and tests can (re)compute the checksums
/// recorded in store headers and shard manifests.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// The bytes past the last whole stripe (`..carry_len` is live).
    carry: [u8; STRIPE],
    carry_len: usize,
    total: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte word"))
}

#[inline]
fn round(lane: u64, w: u64) -> u64 {
    lane.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

impl Xxh64 {
    /// Fresh hasher (seed 0).
    pub fn new() -> Self {
        Self {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            carry: [0; STRIPE],
            carry_len: 0,
            total: 0,
        }
    }

    #[inline]
    fn stripe(lanes: &mut [u64; 4], s: &[u8]) {
        for (lane, w) in lanes.iter_mut().zip(s.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    }

    /// Absorbs `bytes` into the running digest.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.carry_len > 0 {
            let take = bytes.len().min(STRIPE - self.carry_len);
            self.carry[self.carry_len..self.carry_len + take].copy_from_slice(&bytes[..take]);
            self.carry_len += take;
            bytes = &bytes[take..];
            if self.carry_len < STRIPE {
                return;
            }
            Self::stripe(&mut self.lanes, &self.carry);
            self.carry_len = 0;
        }
        // Lanes in locals so the hot loop keeps them in registers.
        let mut lanes = self.lanes;
        let mut stripes = bytes.chunks_exact(STRIPE);
        for s in &mut stripes {
            Self::stripe(&mut lanes, s);
        }
        self.lanes = lanes;
        let rest = stripes.remainder();
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carry_len = rest.len();
    }

    /// The digest of everything absorbed so far.
    pub fn digest(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = if self.total >= STRIPE as u64 {
            let merged = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            [a, b, c, d].iter().fold(merged, |h, &lane| {
                (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
            })
        } else {
            P5 // seed + P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.carry[..self.carry_len];
        while tail.len() >= 8 {
            h = (h ^ round(0, word(tail)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let w = u32::from_le_bytes(tail[..4].try_into().expect("4-byte word")) as u64;
            h = (h ^ w.wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h = (h ^ (b as u64).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn one_shot(bytes: &[u8]) -> u64 {
        let mut h = Xxh64::new();
        h.update(bytes);
        h.digest()
    }

    #[test]
    fn reproduces_the_published_xxh64_vectors() {
        assert_eq!(one_shot(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(one_shot(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(one_shot(b"abc"), 0x44BC_2CF5_AD77_0999);
        // Past one stripe, so the four lanes and the merge run too
        // (value from the reference implementation's own test text).
        assert_eq!(
            one_shot(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn every_input_bit_reaches_the_digest() {
        // 100 bytes: three whole stripes plus a 4-byte tail word.
        let base: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37)).collect();
        let clean = one_shot(&base);
        for bit in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let changed = (one_shot(&flipped) ^ clean).count_ones();
            assert!(changed >= 8, "bit {bit} moved only {changed} digest bits");
        }
    }

    #[test]
    fn digest_is_a_pure_read() {
        let mut h = Xxh64::new();
        h.update(&[7u8; 45]);
        assert_eq!(h.digest(), h.digest());
        h.update(&[9u8; 45]);
        let mut whole = vec![7u8; 45];
        whole.extend_from_slice(&[9u8; 45]);
        assert_eq!(h.digest(), one_shot(&whole));
    }

    proptest! {
        /// The writer hashes column chunks and the mapped loader hashes
        /// one slice: any split of a buffer — empty pieces, 1-byte
        /// pieces, pieces straddling the 32-byte stripe — must digest
        /// like the whole.
        #[test]
        fn update_is_invariant_to_chunking(
            bytes in prop::collection::vec(0u16..256, 0..300),
            cuts in prop::collection::vec(0usize..300, 0..12),
        ) {
            let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable(); // duplicates stay: they are the empty pieces
            let mut h = Xxh64::new();
            let mut at = 0;
            for cut in cuts {
                h.update(&bytes[at..cut]);
                at = cut;
            }
            h.update(&bytes[at..]);
            prop_assert_eq!(h.digest(), one_shot(&bytes));
            let mut bytewise = Xxh64::new();
            for b in &bytes {
                bytewise.update(std::slice::from_ref(b));
            }
            prop_assert_eq!(bytewise.digest(), one_shot(&bytes));
        }
    }
}
