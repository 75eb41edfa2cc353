//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! Two compression cores sit behind one run-time dispatcher:
//!
//! * `compress_ni` — the x86-64 SHA extensions (`sha256rnds2`,
//!   `sha256msg1`, `sha256msg2`). [`compress`] takes it whenever the CPU
//!   advertises `sha`, `sse4.1` and `ssse3`; no build flag is involved.
//! * `compress_scalar` — the portable core: 64 fully unrolled rounds over
//!   a rolling 16-word schedule. It is what runs on every other host, and
//!   it is the NI core's tested twin.
//!
//! Both cores compress a run of whole 64-byte blocks per call, so the NI
//! core keeps the state in vector registers across a message. On top of
//! the dispatcher sit two entry points:
//!
//! * [`Sha256`] — the streaming API (`update`/`finalize`), with a partial
//!   block buffer for callers that feed arbitrary slices.
//! * [`sha256`] — a one-shot path that compresses whole blocks straight
//!   out of the input slice (no partial-block copy) and builds the
//!   padding in at most two stack blocks. This is what fingerprinting a
//!   certificate blob costs.
//!
//! The cores are bit-identical: the NIST vectors and the RFC 4231 HMAC
//! vectors run through each core directly, and a property test compares
//! them over random states and blocks.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A compression core: folds `blocks` (a whole number of 64-byte blocks)
/// into `state`.
pub(crate) type Core = fn(&mut [u32; 8], &[u8]);

/// Whether this CPU has the SHA extensions plus the SSE4.1/SSSE3 shuffles
/// the NI core's state layout needs. `std` caches the CPUID probe, so
/// each call is a few loads.
#[cfg(target_arch = "x86_64")]
pub fn sha_ni_available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3")
}

/// No SHA extensions off x86-64: the scalar core always runs.
#[cfg(not(target_arch = "x86_64"))]
pub fn sha_ni_available() -> bool {
    false
}

/// The dispatcher every hash goes through: the SHA-NI core where the CPU
/// has it, the scalar core everywhere else.
pub(crate) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_available() {
        // SAFETY: the CPU supports every feature `compress_ni` enables.
        unsafe { compress_ni(state, blocks) };
        return;
    }
    compress_scalar(state, blocks);
}

#[inline(always)]
fn small_s0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}

#[inline(always)]
fn small_s1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

/// The portable core. The message schedule lives in a rolling 16-word
/// window and the 64 rounds are fully unrolled with rotating register
/// names, so the working variables never shuffle through memory.
// The rolling-schedule writes in rounds 49–64 are dead stores by design
// (no later round reads them); the unrolled macro keeps them for symmetry.
#[allow(unused_assignments)]
pub(crate) fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(64));
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 16];
        for (i, word) in w.iter_mut().enumerate() {
            *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        // One round with explicit registers: only d and h are written, so
        // invoking the macro with rotated argument orders unrolls the whole
        // a..h shuffle away.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $t:expr) => {{
                // `$t & 15` == `$t` for the first 16 rounds; masking keeps the
                // dead >=16 arm in-bounds for the const-index lint.
                let wt = if $t < 16 {
                    w[$t & 15]
                } else {
                    let wt = w[$t & 15]
                        .wrapping_add(small_s0(w[($t + 1) & 15]))
                        .wrapping_add(w[($t + 9) & 15])
                        .wrapping_add(small_s1(w[($t + 14) & 15]));
                    w[$t & 15] = wt;
                    wt
                };
                let t1 = $h
                    .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                    .wrapping_add(($e & $f) ^ (!$e & $g))
                    .wrapping_add(K[$t])
                    .wrapping_add(wt);
                let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                    .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(t2);
            }};
        }
        macro_rules! eight_rounds {
            ($base:expr) => {{
                round!(a, b, c, d, e, f, g, h, $base);
                round!(h, a, b, c, d, e, f, g, $base + 1);
                round!(g, h, a, b, c, d, e, f, $base + 2);
                round!(f, g, h, a, b, c, d, e, $base + 3);
                round!(e, f, g, h, a, b, c, d, $base + 4);
                round!(d, e, f, g, h, a, b, c, $base + 5);
                round!(c, d, e, f, g, h, a, b, $base + 6);
                round!(b, c, d, e, f, g, h, a, $base + 7);
            }};
        }
        eight_rounds!(0);
        eight_rounds!(8);
        eight_rounds!(16);
        eight_rounds!(24);
        eight_rounds!(32);
        eight_rounds!(40);
        eight_rounds!(48);
        eight_rounds!(56);

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// The SHA-NI core. `sha256rnds2` wants the state split as ABEF/CDGH
/// (lane 3 first), so the state is permuted once on entry and once on
/// exit; in between, each group of four rounds adds four schedule words
/// to four round constants and runs two `sha256rnds2`, while
/// `sha256msg1`/`sha256msg2` extend the schedule four words at a time.
///
/// # Safety
///
/// The CPU must support `sha`, `sse4.1` and `ssse3`
/// ([`sha_ni_available`]).
// The `$j < 12` guard is a constant per unrolled group; the lint still
// sees the schedule store in groups 12–15, where no later group reads it.
#[allow(unused_assignments)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(crate) unsafe fn compress_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;
    debug_assert!(blocks.len().is_multiple_of(64));
    // Every unaligned load and store below stays in bounds: the state is
    // two 16-byte halves of `[u32; 8]`, each block is a 64-byte
    // `chunks_exact` item read as four 16-byte words, and the round
    // constant loads read `K[4j..4j + 4]` for j < 16.

    // Byte swap within each 32-bit word: the message is big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let dcba = _mm_loadu_si128(state.as_ptr().cast());
    let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr();
        let mut w = [
            _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), bswap),
        ];
        // Rounds 4j..4j+4 over schedule words w[j % 4]; then, while the
        // schedule still has words to make, w[j % 4] becomes words
        // 4(j+4)..4(j+4)+4: W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
        macro_rules! four_rounds {
            ($j:expr) => {{
                let wk = _mm_add_epi32(w[$j % 4], _mm_loadu_si128(K.as_ptr().add(4 * $j).cast()));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                if $j < 12 {
                    let partial = _mm_add_epi32(
                        _mm_sha256msg1_epu32(w[$j % 4], w[($j + 1) % 4]),
                        _mm_alignr_epi8(w[($j + 3) % 4], w[($j + 2) % 4], 4),
                    );
                    w[$j % 4] = _mm_sha256msg2_epu32(partial, w[($j + 3) % 4]);
                }
            }};
        }
        four_rounds!(0);
        four_rounds!(1);
        four_rounds!(2);
        four_rounds!(3);
        four_rounds!(4);
        four_rounds!(5);
        four_rounds!(6);
        four_rounds!(7);
        four_rounds!(8);
        four_rounds!(9);
        four_rounds!(10);
        four_rounds!(11);
        four_rounds!(12);
        four_rounds!(13);
        four_rounds!(14);
        four_rounds!(15);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(
        state.as_mut_ptr().add(4).cast(),
        _mm_alignr_epi8(dchg, feba, 8),
    );
}

fn digest_of(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The 1–2 padding blocks for a message of `len` bytes whose last
/// incomplete block is `tail` (`tail.len() < 64`). Returns the buffer and
/// how many of its bytes (64 or 128) are live.
fn padding_blocks(tail: &[u8], len: u64) -> ([u8; 128], usize) {
    debug_assert!(tail.len() < 64);
    let mut pad = [0u8; 128];
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    // The 8-byte bit length needs tail + 1 + 8 <= n.
    let n = if tail.len() < 56 { 64 } else { 128 };
    pad[n - 8..n].copy_from_slice(&len.wrapping_mul(8).to_be_bytes());
    (pad, n)
}

/// One-shot SHA-256: whole blocks compress straight out of `data` — no
/// partial-block buffering, no copies except the final padding block(s).
pub fn sha256(data: &[u8]) -> [u8; 32] {
    oneshot(compress, data)
}

/// [`sha256`] on the portable core whatever the CPU — the reference twin
/// the dispatched path is benchmarked and tested against.
pub fn sha256_scalar(data: &[u8]) -> [u8; 32] {
    oneshot(compress_scalar, data)
}

/// [`sha256`] on a given core.
#[inline(always)]
fn oneshot(core: Core, data: &[u8]) -> [u8; 32] {
    let mut state = H0;
    let whole = data.len() - data.len() % 64;
    core(&mut state, &data[..whole]);
    let (pad, n) = padding_blocks(&data[whole..], data.len() as u64);
    core(&mut state, &pad[..n]);
    digest_of(&state)
}

/// Streaming SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    core: Core,
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    total_len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hash state.
    pub fn new() -> Sha256 {
        Sha256::with_core(compress)
    }

    /// Fresh hash state on a given core.
    pub(crate) fn with_core(core: Core) -> Sha256 {
        Sha256 {
            core,
            state: H0,
            total_len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                (self.core)(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            (self.core)(&mut self.state, &data[..whole]);
        }
        let rest = &data[whole..];
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        let mut state = self.state;
        let (pad, n) = padding_blocks(&self.buf[..self.buf_len], self.total_len);
        (self.core)(&mut state, &pad[..n]);
        digest_of(&state)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    /// Every core this host can run, by name: always the scalar core,
    /// plus the SHA-NI core where the CPU has it. A host without SHA-NI
    /// says so on stderr, so the NI half of a test never passes silently.
    pub(crate) fn cores() -> Vec<(&'static str, Core)> {
        let mut cores: Vec<(&'static str, Core)> = vec![("scalar", compress_scalar)];
        match ni_core() {
            Some(ni) => cores.push(("sha-ni", ni)),
            None => eprintln!("SKIPPED sha-ni core: this CPU lacks sha/sse4.1/ssse3"),
        }
        cores
    }

    /// The SHA-NI core behind a safe signature, handed out only when the
    /// CPU supports it.
    fn ni_core() -> Option<Core> {
        #[cfg(target_arch = "x86_64")]
        if sha_ni_available() {
            fn ni(state: &mut [u32; 8], blocks: &[u8]) {
                // SAFETY: only reachable after `sha_ni_available()`.
                unsafe { compress_ni(state, blocks) }
            }
            return Some(ni);
        }
        None
    }

    fn hex_digest(data: &[u8]) -> String {
        hex::encode(&sha256(data))
    }

    /// Each NIST vector through the dispatcher, the streaming API and
    /// each core called directly.
    fn assert_vector(data: &[u8], want: &str) {
        assert_eq!(hex_digest(data), want, "dispatched");
        let mut h = Sha256::new();
        h.update(data);
        assert_eq!(hex::encode(&h.finalize()), want, "streaming");
        for (name, core) in cores() {
            assert_eq!(hex::encode(&oneshot(core, data)), want, "{name} one-shot");
            let mut h = Sha256::with_core(core);
            h.update(data);
            assert_eq!(hex::encode(&h.finalize()), want, "{name} streaming");
        }
    }

    #[test]
    fn nist_empty() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_896_bits() {
        assert_vector(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn nist_million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn streaming_equals_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = sha256(&data);
        for split in [1usize, 7, 55, 56, 63, 64, 65, 128, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_equals_oneshot() {
        let data = b"mutual TLS in practice";
        let mut h = Sha256::new();
        for &b in data.iter() {
            h.update(&[b]);
        }
        assert_eq!(h.finalize(), sha256(data));
    }

    #[test]
    fn oneshot_covers_every_padding_boundary() {
        // 55/56/57 and 63/64/65 bytes straddle the one-vs-two padding
        // block decision; each must match the streaming reference.
        let data: Vec<u8> = (0..=255u8).cycle().take(200).collect();
        for len in (0..=130).chain([191, 192, 193]) {
            let mut h = Sha256::new();
            h.update(&data[..len]);
            assert_eq!(h.finalize(), sha256(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn dispatcher_matches_scalar_core() {
        let block: Vec<u8> = (0..128u8).collect();
        let mut dispatched = H0;
        compress(&mut dispatched, &block);
        let mut scalar = H0;
        compress_scalar(&mut scalar, &block);
        assert_eq!(dispatched, scalar);
        assert_eq!(sha256_scalar(&block), sha256(&block));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ni_core_matches_scalar_core(
            state in proptest::collection::vec(any::<u32>(), 8),
            n_blocks in 0usize..5,
            bytes in proptest::collection::vec(any::<u8>(), 4 * 64),
        ) {
            let Some(ni) = ni_core() else {
                eprintln!("SKIPPED ni_core_matches_scalar_core: this CPU lacks sha/sse4.1/ssse3");
                return;
            };
            let blocks = &bytes[..n_blocks * 64];
            let start: [u32; 8] = state.try_into().expect("8 words");
            let (mut want, mut got) = (start, start);
            compress_scalar(&mut want, blocks);
            ni(&mut got, blocks);
            prop_assert_eq!(got, want);
        }
    }
}
