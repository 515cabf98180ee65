//! AES-256 in CTR mode, implemented from scratch (FIPS-197).
//!
//! The paper's load-imbalance experiment (§5, Figure 16b) interposes
//! seamless AES-256 encryption on the I/O stream at the IOhost. This module
//! provides that cipher as real executable work: an AES-256 block encryptor
//! plus a CTR keystream, verified against the FIPS-197 and SP 800-38A
//! vectors. Only encryption is required — CTR decryption is the same
//! operation.
//!
//! The encryptor is the standard 32-bit T-table form. The state is four
//! big-endian column words, and each of the 13 full rounds is 16 lookups
//! into four 256-entry `u32` tables (`TE0..TE3`). Each table entry folds
//! SubBytes and the MixColumns column multiply for one byte position; the
//! ShiftRows permutation is the choice of which state word feeds which
//! table. The final round (no MixColumns) uses the S-box directly. CTR
//! mode encrypts eight counter blocks together, round by round over all
//! eight, so the blocks' independent lookup chains overlap. The
//! tables are computed from the S-box at compile time, so there is no lazy
//! initialisation and no platform-specific path. The textbook byte-wise
//! rounds are kept in the test module as the reference the T-table cipher
//! is checked against.
//!
//! This is host work only. The *simulated* cost of interposed encryption
//! comes solely from `CostModel::aes_cost`; how fast this code runs on the
//! host never changes simulated time.

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the AES-256 key schedule (7 are used: words 8..60,
/// every eighth).
const RCON: [u8; 7] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40];

const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (if x & 0x80 != 0 { 0x1b } else { 0 })
}

/// Builds one T-table: entry `x` is the MixColumns column
/// `(2·S[x], S[x], S[x], 3·S[x])` as a big-endian word, rotated right by
/// `rot` bits for the table serving state row `rot / 8`.
const fn t_table(rot: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        t[i] = u32::from_be_bytes([s2, s, s, s2 ^ s]).rotate_right(rot);
        i += 1;
    }
    t
}

const TE0: [u32; 256] = t_table(0);
const TE1: [u32; 256] = t_table(8);
const TE2: [u32; 256] = t_table(16);
const TE3: [u32; 256] = t_table(24);

/// Applies the S-box to each byte of a word.
fn sub_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[a as usize],
        SBOX[b as usize],
        SBOX[c as usize],
        SBOX[d as usize],
    ])
}

/// Byte `n` (0 = most significant) of `w`, as a table index.
fn byte(w: u32, n: u32) -> usize {
    ((w >> (24 - 8 * n)) & 0xff) as usize
}

/// An AES-256 key schedule (encryption direction).
///
/// # Examples
///
/// ```
/// use vrio::Aes256;
///
/// // FIPS-197 appendix C.3 vector.
/// let key: Vec<u8> = (0u8..32).collect();
/// let aes = Aes256::new(key[..].try_into().unwrap());
/// let pt: Vec<u8> = (0u8..16).map(|i| i * 0x11).collect();
/// let ct = aes.encrypt_block(pt[..].try_into().unwrap());
/// assert_eq!(ct[..4], [0x8e, 0xa2, 0xb7, 0xca]);
/// ```
#[derive(Debug, Clone)]
pub struct Aes256 {
    /// 15 round keys of four big-endian column words each.
    round_keys: [[u32; 4]; 15],
}

impl Aes256 {
    /// Expands a 256-bit key.
    pub fn new(key: &[u8; 32]) -> Self {
        // 60 words total for AES-256.
        let mut w = [0u32; 60];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 8..60 {
            let mut t = w[i - 1];
            if i % 8 == 0 {
                t = sub_word(t.rotate_left(8)) ^ (u32::from(RCON[i / 8 - 1]) << 24);
            } else if i % 8 == 4 {
                t = sub_word(t);
            }
            w[i] = w[i - 8] ^ t;
        }
        let mut round_keys = [[0u32; 4]; 15];
        for (rk, words) in round_keys.iter_mut().zip(w.chunks_exact(4)) {
            rk.copy_from_slice(words);
        }
        Aes256 { round_keys }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut s = [[0u32; 4]];
        for (w, bytes) in s[0].iter_mut().zip(block.chunks_exact(4)) {
            *w = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        self.encrypt_words(&mut s);
        let mut out = [0u8; 16];
        for (bytes, w) in out.chunks_exact_mut(4).zip(s[0]) {
            bytes.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Encrypts `N` blocks in place, each held as four big-endian column
    /// words. Every round runs over all `N` blocks before the next, so the
    /// blocks' independent table lookups overlap instead of each block
    /// waiting on its own chain of dependent lookups.
    fn encrypt_words<const N: usize>(&self, blocks: &mut [[u32; 4]; N]) {
        let rk = &self.round_keys;
        for s in blocks.iter_mut() {
            for (w, k) in s.iter_mut().zip(rk[0]) {
                *w ^= k;
            }
        }
        for k in &rk[1..14] {
            for s in blocks.iter_mut() {
                let t = *s;
                // Output column c takes row r from column c + r
                // (ShiftRows), through the table for row r.
                let col = |c: usize| {
                    TE0[byte(t[c], 0)]
                        ^ TE1[byte(t[(c + 1) % 4], 1)]
                        ^ TE2[byte(t[(c + 2) % 4], 2)]
                        ^ TE3[byte(t[(c + 3) % 4], 3)]
                        ^ k[c]
                };
                *s = [col(0), col(1), col(2), col(3)];
            }
        }
        // Final round: SubBytes and ShiftRows only.
        for s in blocks.iter_mut() {
            let t = *s;
            let col = |c: usize| {
                u32::from_be_bytes([
                    SBOX[byte(t[c], 0)],
                    SBOX[byte(t[(c + 1) % 4], 1)],
                    SBOX[byte(t[(c + 2) % 4], 2)],
                    SBOX[byte(t[(c + 3) % 4], 3)],
                ]) ^ rk[14][c]
            };
            *s = [col(0), col(1), col(2), col(3)];
        }
    }
}

/// Counter blocks [`AesCtr::process`] encrypts together.
const CTR_LANES: usize = 8;

/// AES-256-CTR: a stream cipher over the block cipher. Encryption and
/// decryption are the same operation.
///
/// # Examples
///
/// ```
/// use vrio::AesCtr;
///
/// let key = [7u8; 32];
/// let nonce = 0xDEAD_BEEF;
/// let plain = b"interposable I/O at rack scale".to_vec();
/// let cipher = AesCtr::new(&key, nonce).process(&plain);
/// assert_ne!(cipher, plain);
/// let back = AesCtr::new(&key, nonce).process(&cipher);
/// assert_eq!(back, plain);
/// ```
#[derive(Debug, Clone)]
pub struct AesCtr {
    aes: Aes256,
    nonce: u64,
    counter: u64,
}

impl AesCtr {
    /// Creates a CTR stream for `key` and `nonce` starting at counter 0.
    pub fn new(key: &[u8; 32], nonce: u64) -> Self {
        AesCtr {
            aes: Aes256::new(key),
            nonce,
            counter: 0,
        }
    }

    /// Encrypts/decrypts `data`, advancing the counter.
    pub fn process(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        let mut chunks = out.chunks_exact_mut(16 * CTR_LANES);
        for chunk in &mut chunks {
            self.xor_keystream::<CTR_LANES>(chunk);
        }
        for tail in chunks.into_remainder().chunks_mut(16) {
            self.xor_keystream::<1>(tail);
        }
        out
    }

    /// XORs the next `N` keystream blocks into `data` (at most `16 * N`
    /// bytes), advancing the counter by one per block used.
    fn xor_keystream<const N: usize>(&mut self, data: &mut [u8]) {
        let mut ks = [[0u32; 4]; N];
        for (i, block) in ks.iter_mut().enumerate() {
            let ctr = self.counter.wrapping_add(i as u64);
            *block = [
                (self.nonce >> 32) as u32,
                self.nonce as u32,
                (ctr >> 32) as u32,
                ctr as u32,
            ];
        }
        self.aes.encrypt_words(&mut ks);
        for (bytes, block) in data.chunks_mut(16).zip(&ks) {
            let mut k = [0u8; 16];
            for (kb, w) in k.chunks_exact_mut(4).zip(block) {
                kb.copy_from_slice(&w.to_be_bytes());
            }
            for (d, k) in bytes.iter_mut().zip(&k) {
                *d ^= k;
            }
            self.counter = self.counter.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook byte-at-a-time FIPS-197 cipher: the reference the
    /// T-table encryptor is checked against.
    mod reference {
        use super::super::{xtime, RCON, SBOX};

        fn expand(key: &[u8; 32]) -> [[u8; 16]; 15] {
            let mut w = [[0u8; 4]; 60];
            for (i, chunk) in key.chunks_exact(4).enumerate() {
                w[i].copy_from_slice(chunk);
            }
            for i in 8..60 {
                let mut t = w[i - 1];
                if i % 8 == 0 {
                    t.rotate_left(1);
                    for b in &mut t {
                        *b = SBOX[*b as usize];
                    }
                    t[0] ^= RCON[i / 8 - 1];
                } else if i % 8 == 4 {
                    for b in &mut t {
                        *b = SBOX[*b as usize];
                    }
                }
                for j in 0..4 {
                    w[i][j] = w[i - 8][j] ^ t[j];
                }
            }
            let mut round_keys = [[0u8; 16]; 15];
            for (r, rk) in round_keys.iter_mut().enumerate() {
                for c in 0..4 {
                    rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
                }
            }
            round_keys
        }

        fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
            for i in 0..16 {
                state[i] ^= rk[i];
            }
        }

        fn sub_bytes(state: &mut [u8; 16]) {
            for b in state.iter_mut() {
                *b = SBOX[*b as usize];
            }
        }

        fn shift_rows(state: &mut [u8; 16]) {
            // State is column-major: byte (row r, col c) at index c*4 + r.
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[c * 4 + r] = s[((c + r) % 4) * 4 + r];
                }
            }
        }

        fn mix_columns(state: &mut [u8; 16]) {
            for c in 0..4 {
                let col = [
                    state[c * 4],
                    state[c * 4 + 1],
                    state[c * 4 + 2],
                    state[c * 4 + 3],
                ];
                let t = col[0] ^ col[1] ^ col[2] ^ col[3];
                for r in 0..4 {
                    state[c * 4 + r] = col[r] ^ t ^ xtime(col[r] ^ col[(r + 1) % 4]);
                }
            }
        }

        pub fn encrypt_block(key: &[u8; 32], block: &[u8; 16]) -> [u8; 16] {
            let round_keys = expand(key);
            let mut state = *block;
            add_round_key(&mut state, &round_keys[0]);
            for rk in &round_keys[1..14] {
                sub_bytes(&mut state);
                shift_rows(&mut state);
                mix_columns(&mut state);
                add_round_key(&mut state, rk);
            }
            sub_bytes(&mut state);
            shift_rows(&mut state);
            add_round_key(&mut state, &round_keys[14]);
            state
        }
    }

    fn hex<const N: usize>(s: &str) -> [u8; N] {
        assert_eq!(s.len(), 2 * N);
        let mut out = [0u8; N];
        for (i, b) in out.iter_mut().enumerate() {
            *b = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    /// FIPS-197 Appendix C.3: AES-256 with key 00..1f, plaintext
    /// 00112233445566778899aabbccddeeff.
    #[test]
    fn fips197_appendix_c3_vector() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let pt: [u8; 16] = hex("00112233445566778899aabbccddeeff");
        let expected: [u8; 16] = hex("8ea2b7ca516745bfeafc49904b496089");
        assert_eq!(Aes256::new(&key).encrypt_block(&pt), expected);
        assert_eq!(reference::encrypt_block(&key, &pt), expected);
    }

    /// NIST SP 800-38A F.1.5, ECB-AES256.Encrypt: all four blocks.
    #[test]
    fn sp800_38a_f15_ecb_aes256_vectors() {
        let key: [u8; 32] = hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
        let aes = Aes256::new(&key);
        for (pt, ct) in [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "f3eed1bdb5d2a03c064b5a7e3db181f8",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "591ccb10d410ed26dc5ba74a31362870",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "b6ed21b99ca6f4f9f153e7b1beafed1d",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "23304b7a39f9f3ff067d8d8f9e24ecc7",
            ),
        ] {
            let (pt, ct): ([u8; 16], [u8; 16]) = (hex(pt), hex(ct));
            assert_eq!(aes.encrypt_block(&pt), ct, "pt={pt:02x?}");
            assert_eq!(reference::encrypt_block(&key, &pt), ct, "pt={pt:02x?}");
        }
    }

    /// The T-table encryptor agrees with the byte-wise reference on 2,000
    /// seeded random key/plaintext pairs.
    #[test]
    fn t_table_matches_bytewise_reference() {
        // SplitMix64: a fixed, dependency-free input stream.
        let mut state = 0xAE52_5EEDu64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..2_000 {
            let mut key = [0u8; 32];
            let mut pt = [0u8; 16];
            for chunk in key.chunks_exact_mut(8).chain(pt.chunks_exact_mut(8)) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            assert_eq!(
                Aes256::new(&key).encrypt_block(&pt),
                reference::encrypt_block(&key, &pt),
                "case {case}: key={key:02x?} pt={pt:02x?}"
            );
        }
    }

    /// CTR keystream block `i` is the block cipher applied to
    /// `nonce || i`, both big-endian, in a full eight-block group and in
    /// the blocks after it.
    #[test]
    fn ctr_keystream_is_encrypted_counter_block() {
        let key = [0x42u8; 32];
        let nonce = 0x0102_0304_0506_0708u64;
        let ks = AesCtr::new(&key, nonce).process(&[0u8; 176]);
        for (i, block) in ks.chunks_exact(16).enumerate() {
            let mut ctr = [0u8; 16];
            ctr[..8].copy_from_slice(&nonce.to_be_bytes());
            ctr[8..].copy_from_slice(&(i as u64).to_be_bytes());
            assert_eq!(block, reference::encrypt_block(&key, &ctr), "block {i}");
        }
    }

    #[test]
    fn ctr_roundtrip_various_lengths() {
        let key = [0x42u8; 32];
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 100, 4096] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = AesCtr::new(&key, 9).process(&data);
            assert_eq!(ct.len(), len);
            let pt = AesCtr::new(&key, 9).process(&ct);
            assert_eq!(pt, data, "len={len}");
        }
    }

    /// A stream processed in block-aligned pieces, some shorter and some
    /// longer than the eight blocks encrypted together, equals the stream
    /// processed at once.
    #[test]
    fn ctr_counter_continues_across_calls() {
        let key = [0x42u8; 32];
        let data: Vec<u8> = (0..400u32).map(|i| (i * 7) as u8).collect();
        let whole = AesCtr::new(&key, 3).process(&data);
        let mut ctr = AesCtr::new(&key, 3);
        let mut pieces = Vec::new();
        for range in [0..16, 16..96, 96..144, 144..400] {
            pieces.extend(ctr.process(&data[range]));
        }
        assert_eq!(pieces, whole);
    }

    #[test]
    fn different_nonces_differ() {
        let key = [1u8; 32];
        let data = vec![0u8; 64];
        let a = AesCtr::new(&key, 1).process(&data);
        let b = AesCtr::new(&key, 2).process(&data);
        assert_ne!(a, b);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let key = [9u8; 32];
        let data: Vec<u8> = (0..128u32).map(|i| i as u8).collect();
        let one_shot = AesCtr::new(&key, 5).process(&data);
        let mut streaming = AesCtr::new(&key, 5);
        let mut out = streaming.process(&data[..64]);
        out.extend(streaming.process(&data[64..]));
        assert_eq!(one_shot, out);
    }
}
