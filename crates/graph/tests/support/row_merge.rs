//! The row-merge contraction: one heap row per coarse vertex, merged by
//! sorting its neighbours' coarse ids and summing repeats, then copied
//! into CSR arrays. This is how coarsening used to build every coarse
//! graph, and the flat, chunked contraction in `coarsen.rs` must
//! reproduce it byte for byte.
//!
//! It works on raw arrays, so both `tests/proptest_coarsen.rs` and the
//! coarsen module's unit tests (which can build zero-weight nodes, as
//! the streaming layers may) include this one file.

/// A contracted graph as raw arrays; coordinates as bit patterns, so a
/// comparison is exact.
#[derive(Debug, PartialEq)]
pub struct Contracted {
    pub xadj: Vec<u32>,
    pub adjncy: Vec<u32>,
    pub eweights: Vec<u32>,
    pub vweights: Vec<u32>,
    pub coords: Option<Vec<(u64, u64)>>,
}

/// Contracts the fine CSR graph along `map` (fine vertex → coarse id).
/// A coarse vertex's members are taken in ascending fine id; its weight
/// is their saturating sum, its position their weight-weighted mean (the
/// plain mean when they weigh nothing), and its row the sorted, merged
/// union of their edges to other coarse vertices, each weight summed in
/// u64 and clamped to `u32::MAX`.
pub fn contract_rows(
    xadj: &[u32],
    adjncy: &[u32],
    eweights: &[u32],
    vweights: &[u32],
    coords: Option<&[(f64, f64)]>,
    map: &[u32],
) -> Contracted {
    let n_coarse = map.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_coarse];
    for (v, &cv) in map.iter().enumerate() {
        groups[cv as usize].push(v);
    }

    let vw: Vec<u32> = groups
        .iter()
        .map(|g| {
            g.iter()
                .fold(0u32, |acc, &v| acc.saturating_add(vweights[v]))
        })
        .collect();

    let centroids = coords.map(|fine| {
        groups
            .iter()
            .map(|g| {
                let (mut sx, mut sy, mut sw, mut count) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                for &v in g {
                    let wv = vweights[v] as f64;
                    sx += fine[v].0 * wv;
                    sy += fine[v].1 * wv;
                    sw += wv;
                    count += 1.0;
                }
                let (x, y) = if sw > 0.0 {
                    (sx / sw, sy / sw)
                } else {
                    let (mut ux, mut uy) = (0.0f64, 0.0f64);
                    for &v in g {
                        ux += fine[v].0;
                        uy += fine[v].1;
                    }
                    (ux / count, uy / count)
                };
                (x.to_bits(), y.to_bits())
            })
            .collect()
    });

    let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_coarse];
    for (cv, (g, row)) in groups.iter().zip(rows.iter_mut()).enumerate() {
        let mut scratch: Vec<(u32, u64)> = Vec::new();
        for &v in g {
            let (lo, hi) = (xadj[v] as usize, xadj[v + 1] as usize);
            for (&u, &w) in adjncy[lo..hi].iter().zip(&eweights[lo..hi]) {
                let cu = map[u as usize];
                if cu as usize != cv {
                    scratch.push((cu, w as u64));
                }
            }
        }
        scratch.sort_unstable_by_key(|&(cu, _)| cu);
        for &(cu, w) in &scratch {
            match row.last_mut() {
                Some((last, lw)) if *last == cu => {
                    *lw = (*lw as u64 + w).min(u32::MAX as u64) as u32
                }
                _ => row.push((cu, w.min(u32::MAX as u64) as u32)),
            }
        }
    }

    let mut out_xadj = vec![0u32];
    let (mut out_adjncy, mut out_eweights) = (Vec::new(), Vec::new());
    for row in &rows {
        out_xadj.push(out_xadj[out_xadj.len() - 1] + row.len() as u32);
        for &(cu, w) in row {
            out_adjncy.push(cu);
            out_eweights.push(w);
        }
    }
    Contracted {
        xadj: out_xadj,
        adjncy: out_adjncy,
        eweights: out_eweights,
        vweights: vw,
        coords: centroids,
    }
}
