//! Seeded byte mutants shared by the decoder batteries.

/// Mutants per document: seeded and bounded. Each must decode or fail with
/// the decoder's typed error; a panic anywhere in a reader fails the test
/// by itself.
const BUDGET: usize = 500;

/// `BUDGET` mutants of `bytes`: prefix truncations at an even stride (every
/// prefix when the document is short enough) and single-byte substitutions
/// drawn from a fixed-seed LCG.
pub fn mutants(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let stride = (2 * bytes.len()).div_ceil(BUDGET);
    let cuts = (0..bytes.len())
        .step_by(stride)
        .map(|n| bytes[..n].to_vec());
    let mut seed = 0x9E37_79B9_7F4A_7C15_u64;
    let subs = (0..BUDGET / 2).map(move |_| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut mutant = bytes.to_vec();
        mutant[(seed >> 33) as usize % bytes.len()] = (seed >> 24) as u8;
        mutant
    });
    cuts.chain(subs)
}
