//! LEB128 variable-length integers for the compressed (v2) store format.
//!
//! Values are emitted little-endian, 7 bits per byte, the high bit of
//! each byte flagging a continuation — the standard LEB128 scheme. Two
//! properties matter to the store format:
//!
//! * **Canonical encodings only.** [`decode`] rejects *overlong*
//!   encodings (a final byte of `0x00` after a continuation, e.g.
//!   `[0x80, 0x00]` for `0`): every value has exactly one accepted byte
//!   sequence, so a v2 store's byte image is a pure function of its
//!   logical content and byte-level fixtures stay stable.
//! * **Bounded length.** A `u64` needs at most [`MAX_LEN`] bytes; longer
//!   continuations are rejected rather than wrapping.
//!
//! The decoders never panic on malformed input — truncation and
//! non-canonical forms surface as typed [`VarintError`]s, which the v2
//! block decoder maps to [`super::FrozenError::Corrupt`]. [`decode`] is
//! the byte-at-a-time definition; [`read`] is the decoder's fast path
//! and returns exactly what [`decode`] would.

/// Maximum encoded length of a `u64` (⌈64 / 7⌉ bytes).
pub(crate) const MAX_LEN: usize = 10;

/// Why a varint failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarintError {
    /// The input ended in the middle of a continuation chain.
    Truncated,
    /// The encoding is longer than its value requires (non-canonical),
    /// or longer than any `u64` encoding can be.
    Overlong,
}

impl std::fmt::Display for VarintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VarintError::Truncated => write!(f, "truncated varint"),
            VarintError::Overlong => write!(f, "overlong (non-canonical) varint"),
        }
    }
}

/// Appends the canonical LEB128 encoding of `x` to `out`. One- and
/// two-byte values, nearly all of a store's, take one append each.
pub(crate) fn encode(mut x: u64, out: &mut Vec<u8>) {
    if x < 0x80 {
        out.push(x as u8);
        return;
    }
    if x < 0x4000 {
        out.extend_from_slice(&[x as u8 | 0x80, (x >> 7) as u8]);
        return;
    }
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one canonical LEB128 `u64` from the front of `buf`, returning
/// the value and the number of bytes consumed.
pub(crate) fn decode(buf: &[u8]) -> Result<(u64, usize), VarintError> {
    let mut x = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_LEN {
            return Err(VarintError::Overlong);
        }
        let payload = (byte & 0x7f) as u64;
        // The 10th byte may only contribute the single remaining bit.
        if shift == 63 && payload > 1 {
            return Err(VarintError::Overlong);
        }
        x |= payload << shift;
        if byte & 0x80 == 0 {
            // Canonical form: a multi-byte encoding must not end in a
            // zero byte (that value fit in fewer bytes).
            if i > 0 && byte == 0 {
                return Err(VarintError::Overlong);
            }
            return Ok((x, i + 1));
        }
        shift += 7;
    }
    Err(VarintError::Truncated)
}

/// Reads the varint at `buf[*at..]` and advances `*at` past it: the
/// value, length and error [`decode`] gives for the same bytes, and
/// `*at` unmoved on an error. One- and two-byte varints each have a
/// fast path. A longer one that ends within the next 8 bytes is
/// gathered from one little-endian word; only a varint of 9 or more
/// bytes, or one within 8 bytes of the end of `buf`, takes the byte
/// loop.
#[inline(always)]
pub(crate) fn read(buf: &[u8], at: &mut usize) -> Result<u64, VarintError> {
    if let Some(&b0) = buf.get(*at) {
        if b0 < 0x80 {
            *at += 1;
            return Ok(b0 as u64);
        }
    }
    if let Some(&[b0, b1]) = buf.get(*at..).and_then(|r| r.first_chunk::<2>()) {
        if b1 < 0x80 {
            if b1 == 0 {
                return Err(VarintError::Overlong);
            }
            *at += 2;
            return Ok((b0 & 0x7f) as u64 | (b1 as u64) << 7);
        }
    }
    read_long(buf.get(*at..).unwrap_or_default(), at)
}

/// [`read`] past its fast paths: `rest` opens with at least two
/// continuation bytes, or ends within two bytes. Out of line: it is
/// rare in a store's sections, and the fast paths stay small.
#[inline(never)]
fn read_long(rest: &[u8], at: &mut usize) -> Result<u64, VarintError> {
    if let Some(word) = rest.first_chunk::<8>() {
        let word = u64::from_le_bytes(*word);
        let stops = !word & 0x8080_8080_8080_8080;
        if stops != 0 {
            // 3..=8 bytes, the last one not zero.
            let len = stops.trailing_zeros() as usize / 8 + 1;
            if (word >> (8 * (len - 1))) as u8 == 0 {
                return Err(VarintError::Overlong);
            }
            // Drop the bytes past the varint and the continuation bits,
            // then close the gaps: 7-bit groups pair into 14-bit ones,
            // those into 28-bit ones, those into the value.
            let mut x = word & (u64::MAX >> (64 - 8 * len)) & 0x7f7f_7f7f_7f7f_7f7f;
            x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
            x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
            x = (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4);
            *at += len;
            return Ok(x);
        }
    }
    let (x, used) = decode(rest)?;
    *at += used;
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_edge_values() {
        for x in [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            encode(x, &mut buf);
            assert!(buf.len() <= MAX_LEN);
            assert_eq!(decode(&buf), Ok((x, buf.len())), "x = {x:#x}");
            // Trailing bytes are left untouched.
            buf.push(0xab);
            assert_eq!(decode(&buf), Ok((x, buf.len() - 1)));
        }
    }

    #[test]
    fn encoding_lengths_are_minimal() {
        let mut buf = Vec::new();
        encode(0x7f, &mut buf);
        assert_eq!(buf, [0x7f]);
        buf.clear();
        encode(0x80, &mut buf);
        assert_eq!(buf, [0x80, 0x01]);
        buf.clear();
        encode(u64::MAX, &mut buf);
        assert_eq!(buf.len(), MAX_LEN);
    }

    #[test]
    fn rejects_truncation() {
        assert_eq!(decode(&[]), Err(VarintError::Truncated));
        assert_eq!(decode(&[0x80]), Err(VarintError::Truncated));
        assert_eq!(decode(&[0xff, 0xff]), Err(VarintError::Truncated));
    }

    #[test]
    fn rejects_overlong_forms() {
        // 0 and 1 padded with a redundant continuation byte.
        assert_eq!(decode(&[0x80, 0x00]), Err(VarintError::Overlong));
        assert_eq!(decode(&[0x81, 0x00]), Err(VarintError::Overlong));
        // 11-byte chain can never be canonical for a u64.
        assert_eq!(decode(&[0x80; 11]), Err(VarintError::Overlong));
        // A 10th byte carrying more than the final bit overflows u64.
        let mut buf = vec![0xff; 9];
        buf.push(0x02);
        assert_eq!(decode(&buf), Err(VarintError::Overlong));
        // The canonical u64::MAX (9 × 0xff + 0x01) is accepted.
        let mut ok = vec![0xff; 9];
        ok.push(0x01);
        assert_eq!(decode(&ok), Ok((u64::MAX, 10)));
    }

    /// `read` at `at` in `buf` against `decode` on `buf[at..]`.
    fn assert_read_agrees(buf: &[u8], at: usize) {
        let mut pos = at;
        let got = read(buf, &mut pos).map(|x| (x, pos - at));
        assert_eq!(got, decode(&buf[at..]), "{:02x?} at {at}", buf);
        if got.is_err() {
            assert_eq!(pos, at, "a failed read must not advance");
        }
    }

    /// `input` alone (the section ends right after it, so no word read
    /// fits), behind a prefix, and followed by 16 pad bytes with and
    /// without the continuation bit (so the word read fits).
    fn assert_read_agrees_everywhere(input: &[u8]) {
        assert_read_agrees(input, 0);
        for pad in [0x00, 0x80, 0xff] {
            let mut buf = vec![0x05; 3];
            buf.extend_from_slice(input);
            assert_read_agrees(&buf, 3);
            buf.extend_from_slice(&[pad; 16]);
            assert_read_agrees(&buf, 3);
            assert_read_agrees(&buf[3..], 0);
        }
    }

    #[test]
    fn read_agrees_with_decode_on_every_short_input() {
        assert_read_agrees_everywhere(&[]);
        for a in 0..=255u8 {
            assert_read_agrees_everywhere(&[a]);
            for b in 0..=255u8 {
                assert_read_agrees_everywhere(&[a, b]);
            }
        }
    }

    #[test]
    fn read_agrees_with_decode_on_long_and_malformed_forms() {
        let mut forms: Vec<Vec<u8>> = vec![
            vec![0x80, 0x80],       // truncated 3-byte
            vec![0xff, 0xff],       // truncated 3-byte
            vec![0x80, 0x80, 0x00], // overlong 3-byte
            vec![0xff, 0x80, 0x00], // overlong 3-byte
            vec![0x80, 0x80, 0x01], // canonical 3-byte
            vec![0xff; 9],          // truncated 10-byte
            vec![0x80; 10],         // 11+ bytes: overlong
            vec![0x80; 11],
        ];
        for last in [0x00, 0x01, 0x02, 0x7f] {
            // 10-byte forms: overlong (0x00), u64::MAX, overflowing.
            let mut f = vec![0xff; 9];
            f.push(last);
            forms.push(f);
        }
        // Every canonical length, 1..=10 bytes, at both ends of its range.
        for bits in [7, 14, 21, 28, 35, 42, 49, 56, 63, 64] {
            for x in [1u64 << (bits - 7), u64::MAX >> (64 - bits)] {
                let mut f = Vec::new();
                encode(x, &mut f);
                forms.push(f);
            }
        }
        for f in &forms {
            assert_read_agrees_everywhere(f);
            // Cut short: every proper prefix.
            for cut in 0..f.len() {
                assert_read_agrees_everywhere(&f[..cut]);
            }
        }
    }
}
