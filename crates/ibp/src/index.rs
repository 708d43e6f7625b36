//! Spatial indexing schemes for grid coordinates.

use crate::interleave::{bits_for, interleave2};

/// The two indexing schemes the paper illustrates (Figure 1). The
/// partitioner indexes by shuffled row-major, the better seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexScheme {
    /// `index = row * cols + col` — Figure 1(a).
    RowMajor,
    /// Bit-interleaved Morton / Z-order — Figure 1(b).
    ShuffledRowMajor,
}

impl IndexScheme {
    /// Index of cell `(row, col)` on a `side × side` grid (`side` need not
    /// be a power of two; it is rounded up internally for the bitwise
    /// scheme).
    pub fn index(&self, row: u32, col: u32, side: u32) -> u64 {
        assert!(row < side && col < side, "cell out of range");
        match self {
            IndexScheme::RowMajor => row as u64 * side as u64 + col as u64,
            IndexScheme::ShuffledRowMajor => {
                let bits = bits_for(side);
                interleave2(row, col, bits)
            }
        }
    }
}

impl std::fmt::Display for IndexScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexScheme::RowMajor => write!(f, "row-major"),
            IndexScheme::ShuffledRowMajor => write!(f, "shuffled row-major"),
        }
    }
}

/// The paper's Figure 1(a): row-major indices of an 8×8 grid, row by row.
pub fn figure1_row_major() -> [[u64; 8]; 8] {
    let mut m = [[0u64; 8]; 8];
    for (r, rowv) in m.iter_mut().enumerate() {
        for (c, cell) in rowv.iter_mut().enumerate() {
            *cell = IndexScheme::RowMajor.index(r as u32, c as u32, 8);
        }
    }
    m
}

/// The paper's Figure 1(b): shuffled row-major indices of an 8×8 grid.
pub fn figure1_shuffled() -> [[u64; 8]; 8] {
    let mut m = [[0u64; 8]; 8];
    for (r, rowv) in m.iter_mut().enumerate() {
        for (c, cell) in rowv.iter_mut().enumerate() {
            *cell = IndexScheme::ShuffledRowMajor.index(r as u32, c as u32, 8);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1a_matches_paper_exactly() {
        let expect: [[u64; 8]; 8] = [
            [0, 1, 2, 3, 4, 5, 6, 7],
            [8, 9, 10, 11, 12, 13, 14, 15],
            [16, 17, 18, 19, 20, 21, 22, 23],
            [24, 25, 26, 27, 28, 29, 30, 31],
            [32, 33, 34, 35, 36, 37, 38, 39],
            [40, 41, 42, 43, 44, 45, 46, 47],
            [48, 49, 50, 51, 52, 53, 54, 55],
            [56, 57, 58, 59, 60, 61, 62, 63],
        ];
        assert_eq!(figure1_row_major(), expect);
    }

    #[test]
    fn figure1b_matches_paper_exactly() {
        // Transcribed from the paper's Figure 1(b).
        let expect: [[u64; 8]; 8] = [
            [0, 1, 4, 5, 16, 17, 20, 21],
            [2, 3, 6, 7, 18, 19, 22, 23],
            [8, 9, 12, 13, 24, 25, 28, 29],
            [10, 11, 14, 15, 26, 27, 30, 31],
            [32, 33, 36, 37, 48, 49, 52, 53],
            [34, 35, 38, 39, 50, 51, 54, 55],
            [40, 41, 44, 45, 56, 57, 60, 61],
            [42, 43, 46, 47, 58, 59, 62, 63],
        ];
        assert_eq!(figure1_shuffled(), expect);
    }

    #[test]
    fn non_power_of_two_sides_still_injective() {
        for scheme in [IndexScheme::RowMajor, IndexScheme::ShuffledRowMajor] {
            let mut seen = std::collections::HashSet::new();
            for r in 0..6u32 {
                for c in 0..6u32 {
                    assert!(
                        seen.insert(scheme.index(r, c, 6)),
                        "{scheme} collided at ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cell out of range")]
    fn rejects_out_of_range_cell() {
        IndexScheme::RowMajor.index(8, 0, 8);
    }

    #[test]
    fn display_names() {
        assert_eq!(IndexScheme::RowMajor.to_string(), "row-major");
        assert_eq!(
            IndexScheme::ShuffledRowMajor.to_string(),
            "shuffled row-major"
        );
    }
}
