//! The numbers reported in the paper's Tables 1–6, transcribed verbatim.
//!
//! `None` marks cells the paper leaves blank (Table 6 omits the RSB
//! column for the 78+20 case).

/// One row of a paper table with `N` part columns.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow<const N: usize> {
    /// Graph label (node count, or base+added for incremental rows).
    pub label: &'static str,
    /// DKNUX values, one per part column.
    pub dknux: [u64; N],
    /// RSB values, one per part column (`None` where the paper is blank).
    pub rsb: [Option<u64>; N],
}

/// One row of a Fitness-1 table (parts 2, 4, 8): cut values `Σ C(q)/2`.
pub type F1Row = PaperRow<3>;

/// One row of a Fitness-2 table (parts 4, 8): worst cuts `max_q C(q)`.
pub type F2Row = PaperRow<2>;

/// Table 1: DKNUX (IBP-seeded) vs RSB, Fitness 1.
pub const TABLE1: [F1Row; 2] = [
    F1Row {
        label: "167",
        dknux: [20, 63, 109],
        rsb: [Some(20), Some(59), Some(120)],
    },
    F1Row {
        label: "144",
        dknux: [33, 65, 120],
        rsb: [Some(36), Some(78), Some(119)],
    },
];

/// Table 2: GA refining RSB solutions, Fitness 1.
pub const TABLE2: [F1Row; 4] = [
    F1Row {
        label: "139",
        dknux: [28, 65, 100],
        rsb: [Some(30), Some(69), Some(113)],
    },
    F1Row {
        label: "213",
        dknux: [41, 77, 138],
        rsb: [Some(41), Some(82), Some(151)],
    },
    F1Row {
        label: "243",
        dknux: [43, 88, 141],
        rsb: [Some(47), Some(95), Some(154)],
    },
    F1Row {
        label: "279",
        dknux: [36, 78, 139],
        rsb: [Some(37), Some(88), Some(155)],
    },
];

/// Table 3: incremental partitioning vs RSB-from-scratch, Fitness 1.
pub const TABLE3: [F1Row; 4] = [
    F1Row {
        label: "118+21",
        dknux: [31, 61, 103],
        rsb: [Some(30), Some(69), Some(113)],
    },
    F1Row {
        label: "118+41",
        dknux: [31, 66, 120],
        rsb: [Some(33), Some(75), Some(128)],
    },
    F1Row {
        label: "183+30",
        dknux: [37, 72, 133],
        rsb: [Some(41), Some(82), Some(151)],
    },
    F1Row {
        label: "183+60",
        dknux: [44, 83, 160],
        rsb: [Some(47), Some(95), Some(154)],
    },
];

/// Table 4: randomly initialized GA vs RSB, Fitness 2.
pub const TABLE4: [F2Row; 5] = [
    F2Row {
        label: "78",
        dknux: [23, 23],
        rsb: [Some(26), Some(25)],
    },
    F2Row {
        label: "88",
        dknux: [28, 21],
        rsb: [Some(33), Some(27)],
    },
    F2Row {
        label: "98",
        dknux: [26, 23],
        rsb: [Some(30), Some(30)],
    },
    F2Row {
        label: "144",
        dknux: [53, 42],
        rsb: [Some(44), Some(35)],
    },
    F2Row {
        label: "167",
        dknux: [44, 39],
        rsb: [Some(40), Some(41)],
    },
];

/// Table 5: GA refining RSB solutions, Fitness 2.
pub const TABLE5: [F2Row; 7] = [
    F2Row {
        label: "78",
        dknux: [23, 20],
        rsb: [Some(26), Some(25)],
    },
    F2Row {
        label: "88",
        dknux: [24, 22],
        rsb: [Some(33), Some(27)],
    },
    F2Row {
        label: "98",
        dknux: [24, 22],
        rsb: [Some(30), Some(30)],
    },
    F2Row {
        label: "213",
        dknux: [40, 41],
        rsb: [Some(46), Some(45)],
    },
    F2Row {
        label: "243",
        dknux: [45, 41],
        rsb: [Some(51), Some(47)],
    },
    F2Row {
        label: "279",
        dknux: [42, 42],
        rsb: [Some(46), Some(47)],
    },
    F2Row {
        label: "309",
        dknux: [44, 47],
        rsb: [Some(46), Some(52)],
    },
];

/// Table 6: incremental partitioning, Fitness 2.
pub const TABLE6: [F2Row; 8] = [
    F2Row {
        label: "78+10",
        dknux: [27, 25],
        rsb: [Some(33), Some(27)],
    },
    F2Row {
        label: "78+20",
        dknux: [29, 27],
        rsb: [None, None],
    },
    F2Row {
        label: "118+21",
        dknux: [33, 29],
        rsb: [Some(38), Some(34)],
    },
    F2Row {
        label: "118+41",
        dknux: [34, 35],
        rsb: [Some(40), Some(39)],
    },
    F2Row {
        label: "183+30",
        dknux: [41, 40],
        rsb: [Some(46), Some(45)],
    },
    F2Row {
        label: "183+60",
        dknux: [46, 45],
        rsb: [Some(51), Some(47)],
    },
    F2Row {
        label: "249+30",
        dknux: [42, 44],
        rsb: [Some(51), Some(47)],
    },
    F2Row {
        label: "249+60",
        dknux: [46, 56],
        rsb: [Some(46), Some(52)],
    },
];

/// Parses an incremental label like `"118+21"` into `(base, added)`.
pub fn parse_incremental_label(label: &str) -> Option<(usize, usize)> {
    let (base, added) = label.split_once('+')?;
    Some((base.parse().ok()?, added.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_expected_shapes() {
        assert_eq!(TABLE1.len(), 2);
        assert_eq!(TABLE2.len(), 4);
        assert_eq!(TABLE3.len(), 4);
        assert_eq!(TABLE4.len(), 5);
        assert_eq!(TABLE5.len(), 7);
        assert_eq!(TABLE6.len(), 8);
    }

    #[test]
    fn incremental_labels_parse() {
        assert_eq!(parse_incremental_label("118+21"), Some((118, 21)));
        assert_eq!(parse_incremental_label("249+60"), Some((249, 60)));
        assert_eq!(parse_incremental_label("144"), None);
    }

    #[test]
    fn paper_claim_dknux_beats_rsb_in_most_f1_cells() {
        // Sanity on the transcription: in Tables 2 & 3 DKNUX should win
        // or tie most cells (that's the paper's point).
        let mut wins = 0;
        let mut total = 0;
        for row in TABLE2.iter().chain(&TABLE3) {
            for i in 0..3 {
                total += 1;
                if Some(row.dknux[i]) <= row.rsb[i] {
                    wins += 1;
                }
            }
        }
        assert!(wins * 10 >= total * 8, "{wins}/{total}");
    }
}
