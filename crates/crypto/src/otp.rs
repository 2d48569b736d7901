//! One-time-pad generation for counter-mode memory encryption.
//!
//! The OTP for a 64-byte cache line is built from four AES-128 blocks:
//!
//! ```text
//! OTP = En(addr ‖ counter ‖ 0, key) ‖ En(addr ‖ counter ‖ 1, key)
//!     ‖ En(addr ‖ counter ‖ 2, key) ‖ En(addr ‖ counter ‖ 3, key)
//! ```
//!
//! which instantiates the paper's Equation 1 at line granularity. The
//! ciphertext is `OTP ⊕ plaintext` (Eq. 2) and decryption is the same XOR
//! (Eq. 3). Uniqueness of `(addr, counter)` pairs — guaranteed by the
//! global counter — makes the pad one-time.

use crate::aes::Aes128;
use crate::counter::{Counter, LINE_BYTES};

/// Number of AES blocks covering one cache line.
const BLOCKS_PER_LINE: usize = LINE_BYTES / 16;

/// A one-time pad covering a full 64-byte cache line.
pub type LinePad = [u8; LINE_BYTES];

/// Generates the OTP for `(line_addr, counter)` under `cipher`.
///
/// `line_addr` is the data line index (cache-line-granular address). The
/// AES input block encodes the address in bytes 0..8, the counter in bytes
/// 8..15 (low 56 bits; the high byte is folded into byte 14), and the
/// block index within the line in byte 15.
///
/// # Examples
///
/// ```
/// use nvmm_crypto::{aes::Aes128, counter::Counter, otp::line_pad};
/// let aes = Aes128::new(&[7; 16]);
/// let p1 = line_pad(&aes, 42, Counter(1));
/// let p2 = line_pad(&aes, 42, Counter(2));
/// assert_ne!(p1, p2, "bumping the counter must change the pad");
/// assert_eq!(p1, line_pad(&aes, 42, Counter(1)), "pads are deterministic");
/// ```
pub fn line_pad(cipher: &Aes128, line_addr: u64, counter: Counter) -> LinePad {
    let mut pad = [0u8; LINE_BYTES];
    for block in 0..BLOCKS_PER_LINE {
        let mut input = [0u8; 16];
        input[0..8].copy_from_slice(&line_addr.to_le_bytes());
        let ctr = counter.0.to_le_bytes();
        input[8..15].copy_from_slice(&ctr[0..7]);
        input[14] ^= ctr[7];
        input[15] = block as u8;
        let out = cipher.encrypt_block(&input);
        pad[block * 16..(block + 1) * 16].copy_from_slice(&out);
    }
    pad
}

/// XORs a pad into a line, returning the result. Used for both encryption
/// and decryption (Eqs. 2 and 3).
pub fn xor_line(a: &[u8; LINE_BYTES], b: &[u8; LINE_BYTES]) -> [u8; LINE_BYTES] {
    let mut out = [0u8; LINE_BYTES];
    for i in 0..LINE_BYTES {
        out[i] = a[i] ^ b[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cipher() -> Aes128 {
        Aes128::new(&[0xa5; 16])
    }

    #[test]
    fn pad_depends_on_address() {
        let c = cipher();
        assert_ne!(line_pad(&c, 1, Counter(1)), line_pad(&c, 2, Counter(1)));
    }

    #[test]
    fn pad_depends_on_counter() {
        let c = cipher();
        assert_ne!(line_pad(&c, 1, Counter(1)), line_pad(&c, 1, Counter(2)));
    }

    #[test]
    fn pad_depends_on_key() {
        let a = Aes128::new(&[1; 16]);
        let b = Aes128::new(&[2; 16]);
        assert_ne!(line_pad(&a, 1, Counter(1)), line_pad(&b, 1, Counter(1)));
    }

    #[test]
    fn pad_blocks_are_distinct() {
        // Each 16-byte block of the pad comes from a distinct AES input.
        let p = line_pad(&cipher(), 9, Counter(3));
        for i in 0..BLOCKS_PER_LINE {
            for j in (i + 1)..BLOCKS_PER_LINE {
                assert_ne!(p[i * 16..(i + 1) * 16], p[j * 16..(j + 1) * 16]);
            }
        }
    }

    #[test]
    fn high_counter_bits_affect_pad() {
        let c = cipher();
        assert_ne!(
            line_pad(&c, 1, Counter(1)),
            line_pad(&c, 1, Counter(1 | (1 << 60))),
        );
    }

    #[test]
    fn pad_encoding_is_pinned() {
        // Pins the AES input encoding (address, folded counter, block
        // index) and the cipher together: any change to either moves
        // every simulated ciphertext.
        let p = line_pad(&cipher(), 0x1234, Counter(0x0102_0304_0506_0708));
        let expect: LinePad = [
            0xcb, 0x1e, 0x33, 0x62, 0xc6, 0x54, 0x3d, 0xbe, 0x8b, 0x04, 0xff, 0xdc, 0xa1, 0x93,
            0x6f, 0x86, 0x41, 0xb3, 0x9d, 0x6f, 0x12, 0xab, 0xa6, 0x30, 0xf6, 0xa6, 0xfd, 0x92,
            0x57, 0x6c, 0xc8, 0x2d, 0xe9, 0xf6, 0x2f, 0xf2, 0x55, 0x82, 0xef, 0x3a, 0x6d, 0xc8,
            0xe8, 0x98, 0xb6, 0x83, 0x46, 0xa3, 0x36, 0xbc, 0x4b, 0x2d, 0xcb, 0xde, 0xb9, 0x22,
            0xc4, 0xe8, 0x87, 0xad, 0x4d, 0xf0, 0x7c, 0x66,
        ];
        assert_eq!(p, expect);
    }

    #[test]
    fn xor_is_involution() {
        let c = cipher();
        let pad = line_pad(&c, 5, Counter(7));
        let data = [0x3cu8; LINE_BYTES];
        assert_eq!(xor_line(&xor_line(&data, &pad), &pad), data);
    }

    proptest! {
        #[test]
        fn encrypt_decrypt_roundtrip(
            addr in 0u64..1_000_000,
            ctr in 1u64..u64::MAX,
            data in proptest::array::uniform32(any::<u8>()),
        ) {
            let c = cipher();
            let mut line = [0u8; LINE_BYTES];
            line[..32].copy_from_slice(&data);
            let pad = line_pad(&c, addr, Counter(ctr));
            let ct = xor_line(&line, &pad);
            prop_assert_eq!(xor_line(&ct, &pad), line);
        }

        #[test]
        fn stale_counter_fails_to_decrypt(
            addr in 0u64..1_000_000,
            ctr in 1u64..u64::MAX - 1,
        ) {
            // The core failure mode of the paper (Eq. 4): decrypting with
            // any counter other than the one used to encrypt yields
            // garbage, not the plaintext.
            let c = cipher();
            let line = [0u8; LINE_BYTES];
            let ct = xor_line(&line, &line_pad(&c, addr, Counter(ctr)));
            let wrong = xor_line(&ct, &line_pad(&c, addr, Counter(ctr + 1)));
            prop_assert_ne!(wrong, line);
        }
    }
}
