//! Bit interleaving, equal- and unequal-width.
//!
//! The appendix describes interleaving "by choosing bits (right to left)
//! of each of the dimensions one by one, starting from dimension 3. When
//! the bits of a particular dimension are no longer available, that
//! dimension is not considered." Both worked examples from the appendix
//! are unit tests below.

/// One dimension's contribution: `(value, bit_width)`. Bits above
/// `bit_width` must be zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim {
    /// The index value along this dimension.
    pub value: u64,
    /// Number of significant bits.
    pub bits: u32,
}

impl Dim {
    /// Creates a dimension, checking that `value` fits in `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `value >= 2^bits` or if `bits > 63`.
    pub fn new(value: u64, bits: u32) -> Self {
        assert!(bits <= 63, "at most 63 bits per dimension");
        assert!(
            bits == 64 || value < (1u64 << bits),
            "value {value} does not fit in {bits} bits"
        );
        Dim { value, bits }
    }
}

/// Interleaves the bits of `dims` exactly as the paper's appendix
/// specifies: bit position `k` of each dimension is consumed in round `k`,
/// visiting dimensions **last-first** within a round, and exhausted
/// dimensions drop out. The first bit consumed becomes the least
/// significant bit of the result.
///
/// For two equal-width dimensions `[row, col]` this is the Morton /
/// Z-order ("shuffled row-major") index with the column in the even bit
/// positions — matching the paper's Figure 1(b).
///
/// # Panics
///
/// Panics if the total bit count exceeds 64.
pub fn interleave(dims: &[Dim]) -> u64 {
    let total: u32 = dims.iter().map(|d| d.bits).sum();
    assert!(total <= 64, "interleaved index would exceed 64 bits");
    let mut out = 0u64;
    let mut out_pos = 0u32;
    let max_bits = dims.iter().map(|d| d.bits).max().unwrap_or(0);
    for k in 0..max_bits {
        // "starting from dimension 3": last dimension first.
        for d in dims.iter().rev() {
            if k < d.bits {
                let bit = (d.value >> k) & 1;
                out |= bit << out_pos;
                out_pos += 1;
            }
        }
    }
    out
}

/// Equal-width 2-D convenience: interleaves `(row, col)` with `bits` bits
/// each, column occupying the even (lower) positions — the paper's
/// shuffled row-major order.
pub fn interleave2(row: u32, col: u32, bits: u32) -> u64 {
    interleave(&[Dim::new(row as u64, bits), Dim::new(col as u64, bits)])
}

/// Number of bits needed to represent every value in `0..n` (at least 1).
pub fn bits_for(n: u32) -> u32 {
    if n <= 1 {
        1
    } else {
        32 - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appendix_equal_width_example() {
        // index1 = 001, index2 = 010, index3 = 110 → 001011100.
        let r = interleave(&[Dim::new(0b001, 3), Dim::new(0b010, 3), Dim::new(0b110, 3)]);
        assert_eq!(r, 0b001011100, "got {r:b}");
    }

    #[test]
    fn appendix_unequal_width_example() {
        // index1 = 101, index2 = 01, index3 = 0 → 100110.
        let r = interleave(&[Dim::new(0b101, 3), Dim::new(0b01, 2), Dim::new(0b0, 1)]);
        assert_eq!(r, 0b100110, "got {r:b}");
    }

    #[test]
    fn single_dimension_is_identity() {
        assert_eq!(interleave(&[Dim::new(0b1011, 4)]), 0b1011);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(interleave(&[]), 0);
    }

    #[test]
    fn morton_2d_matches_figure1_corner_cases() {
        // Figure 1(b): (r=0,c=1) → 1, (r=1,c=0) → 2, (r=1,c=1) → 3,
        // (r=0,c=2) → 4, (r=2,c=0) → 8, (r=0,c=4) → 16, (r=4,c=0) → 32.
        assert_eq!(interleave2(0, 1, 3), 1);
        assert_eq!(interleave2(1, 0, 3), 2);
        assert_eq!(interleave2(1, 1, 3), 3);
        assert_eq!(interleave2(0, 2, 3), 4);
        assert_eq!(interleave2(2, 0, 3), 8);
        assert_eq!(interleave2(0, 4, 3), 16);
        assert_eq!(interleave2(4, 0, 3), 32);
        assert_eq!(interleave2(7, 7, 3), 63);
    }

    #[test]
    fn morton_round_trip() {
        for row in 0..16u32 {
            for col in 0..16u32 {
                // Bit k of the column lands at 2k, bit k of the row at 2k+1.
                let idx = interleave2(row, col, 4);
                for k in 0..4 {
                    assert_eq!((idx >> (2 * k)) & 1, u64::from((col >> k) & 1));
                    assert_eq!((idx >> (2 * k + 1)) & 1, u64::from((row >> k) & 1));
                }
            }
        }
    }

    #[test]
    fn morton_is_a_bijection_on_the_grid() {
        let mut seen = [false; 64];
        for r in 0..8 {
            for c in 0..8 {
                let i = interleave2(r, c, 3) as usize;
                assert!(!seen[i], "index {i} repeated");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bits_for_covers_range() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(8), 3);
        assert_eq!(bits_for(9), 4);
        assert_eq!(bits_for(1024), 10);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn dim_rejects_overflow() {
        Dim::new(8, 3);
    }

    #[test]
    fn unequal_widths_remain_bijective() {
        // 8 x 4 grid: 3 + 2 bits.
        let mut seen = std::collections::HashSet::new();
        for r in 0..8u64 {
            for c in 0..4u64 {
                let idx = interleave(&[Dim::new(r, 3), Dim::new(c, 2)]);
                assert!(seen.insert(idx), "collision at ({r},{c})");
            }
        }
        assert_eq!(seen.len(), 32);
    }
}
