//! Crossover operators, including the paper's KNUX and DKNUX (§3.2–3.3).
//!
//! KNUX (Knowledge-based Non-Uniform Crossover) generalizes uniform
//! crossover with a per-gene bias probability derived from a reference
//! solution `I` and the graph's adjacency: where parents `a` and `b`
//! disagree on gene `i`, the offspring takes `a_i` with probability
//!
//! ```text
//! p_i = #(i,a,I) / (#(i,a,I) + #(i,b,I))     (0.5 when both counts are 0)
//! ```
//!
//! where `#(i,X,I)` counts the neighbours of node `i` that `I` assigns to
//! the part `X` puts `i` in. DKNUX is the same operator with `I`
//! continuously updated to the best solution found so far.

use gapart_graph::CsrGraph;
use rand::Rng;

/// The crossover operator families compared in the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossoverOp {
    /// Classic 1-point crossover (Holland).
    OnePoint,
    /// 2-point crossover — the "traditional operator" baseline in the
    /// paper's tables.
    TwoPoint,
    /// Generalized k-point crossover.
    KPoint(u32),
    /// Uniform crossover (Syswerda) — unbiased per-gene inheritance.
    Uniform,
    /// Knowledge-based non-uniform crossover with a **fixed** reference
    /// solution (the initial heuristic estimate).
    Knux,
    /// Dynamic KNUX: the reference is the best individual found so far,
    /// updated continuously during the search.
    Dknux,
    /// DKNUX with the bias additionally tilted by the parents' relative
    /// fitness (§3.2 says `p_i` depends on "the relative fitness of the
    /// parent strings"; plain KNUX/DKNUX use only the adjacency term).
    /// The payload is the blend weight `w ∈ [0, 1]` (scaled by 100 and
    /// stored as an integer percent so the enum stays `Eq`): the final
    /// bias is `(1−w)·adjacency + w·fitness`, where the fitness term is
    /// 0.75 toward the fitter parent (0.5 on ties or when fitness is
    /// unavailable).
    DknuxFitness(u8),
}

impl CrossoverOp {
    /// Whether the operator re-targets its reference to the best-so-far
    /// (the "dynamic" family).
    pub fn is_dynamic(&self) -> bool {
        matches!(self, CrossoverOp::Dknux | CrossoverOp::DknuxFitness(_))
    }

    /// All operators, for sweeps.
    pub const ALL: [CrossoverOp; 7] = [
        CrossoverOp::OnePoint,
        CrossoverOp::TwoPoint,
        CrossoverOp::KPoint(4),
        CrossoverOp::Uniform,
        CrossoverOp::Knux,
        CrossoverOp::Dknux,
        CrossoverOp::DknuxFitness(25),
    ];
}

impl std::fmt::Display for CrossoverOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrossoverOp::OnePoint => write!(f, "1-point"),
            CrossoverOp::TwoPoint => write!(f, "2-point"),
            CrossoverOp::KPoint(k) => write!(f, "{k}-point"),
            CrossoverOp::Uniform => write!(f, "UX"),
            CrossoverOp::Knux => write!(f, "KNUX"),
            CrossoverOp::Dknux => write!(f, "DKNUX"),
            CrossoverOp::DknuxFitness(w) => write!(f, "DKNUX-f{w}"),
        }
    }
}

/// Context a crossover may need: the graph (for KNUX's neighbour counts),
/// the reference solution `I`, and (for the fitness-weighted variant) the
/// parents' fitness values.
#[derive(Debug, Clone, Copy)]
pub struct CrossoverCtx<'a> {
    /// The graph being partitioned.
    pub graph: &'a CsrGraph,
    /// Reference solution for KNUX/DKNUX (`None` for the classic ops).
    pub reference: Option<&'a [u32]>,
    /// Fitness of parents `(a, b)`, used only by
    /// [`CrossoverOp::DknuxFitness`]. `None` defaults its fitness term
    /// to 0.5 (no tilt).
    pub parent_fitness: Option<(f64, f64)>,
}

impl<'a> CrossoverCtx<'a> {
    /// Context for the classic operators (no reference, no fitness).
    pub fn plain(graph: &'a CsrGraph) -> Self {
        CrossoverCtx {
            graph,
            reference: None,
            parent_fitness: None,
        }
    }

    /// Context with a KNUX reference.
    pub fn with_reference(graph: &'a CsrGraph, reference: &'a [u32]) -> Self {
        CrossoverCtx {
            graph,
            reference: Some(reference),
            parent_fitness: None,
        }
    }
}

impl CrossoverOp {
    /// Produces two offspring from parents `a` and `b`. Offspring are
    /// complementary: wherever one child inherits from `a`, the other
    /// inherits from `b`.
    ///
    /// # Panics
    ///
    /// Panics if parent lengths differ, or if a KNUX-family operator is
    /// invoked without `ctx.reference`.
    pub fn apply<R: Rng + ?Sized>(
        &self,
        a: &[u32],
        b: &[u32],
        ctx: &CrossoverCtx<'_>,
        rng: &mut R,
    ) -> (Vec<u32>, Vec<u32>) {
        assert_eq!(a.len(), b.len(), "parent length mismatch");
        match self {
            CrossoverOp::OnePoint => point_crossover(a, b, 1, rng),
            CrossoverOp::TwoPoint => point_crossover(a, b, 2, rng),
            CrossoverOp::KPoint(k) => point_crossover(a, b, *k as usize, rng),
            CrossoverOp::Uniform => uniform_crossover(a, b, rng),
            CrossoverOp::Knux | CrossoverOp::Dknux => {
                let reference = ctx
                    .reference
                    // gapart-lint: allow(lib-panic) -- API misuse contract pinned by the should_panic test; engine always threads a reference for KNUX ops
                    .expect("KNUX/DKNUX requires a reference solution");
                knux_crossover(a, b, ctx.graph, reference, 0.0, 0.5, rng)
            }
            CrossoverOp::DknuxFitness(percent) => {
                let reference = ctx
                    .reference
                    // gapart-lint: allow(lib-panic) -- API misuse contract pinned by the should_panic test; engine always threads a reference for KNUX ops
                    .expect("KNUX/DKNUX requires a reference solution");
                let w = f64::from(*percent).clamp(0.0, 100.0) / 100.0;
                let fitness_term = match ctx.parent_fitness {
                    Some((fa, fb)) if fa > fb => 0.75,
                    Some((fa, fb)) if fa < fb => 0.25,
                    _ => 0.5,
                };
                knux_crossover(a, b, ctx.graph, reference, w, fitness_term, rng)
            }
        }
    }
}

/// k-point crossover: choose `k` distinct cut sites; alternate the source
/// parent between segments.
fn point_crossover<R: Rng + ?Sized>(
    a: &[u32],
    b: &[u32],
    k: usize,
    rng: &mut R,
) -> (Vec<u32>, Vec<u32>) {
    let n = a.len();
    if n < 2 {
        return (a.to_vec(), b.to_vec());
    }
    // Cut sites are gene boundaries in 1..n (a site at i splits [0,i) from
    // [i,n)). Sample k distinct sites.
    let k = k.min(n - 1);
    let mut sites: Vec<usize> = Vec::with_capacity(k);
    while sites.len() < k {
        let s = rng.gen_range(1..n);
        if !sites.contains(&s) {
            sites.push(s);
        }
    }
    sites.sort_unstable();
    let mut c1 = Vec::with_capacity(n);
    let mut c2 = Vec::with_capacity(n);
    let mut from_a = true;
    let mut next_site = 0usize;
    for i in 0..n {
        if next_site < sites.len() && sites[next_site] == i {
            from_a = !from_a;
            next_site += 1;
        }
        if from_a {
            c1.push(a[i]);
            c2.push(b[i]);
        } else {
            c1.push(b[i]);
            c2.push(a[i]);
        }
    }
    (c1, c2)
}

/// Uniform crossover: each gene independently from either parent with
/// probability 0.5 (children complementary).
fn uniform_crossover<R: Rng + ?Sized>(a: &[u32], b: &[u32], rng: &mut R) -> (Vec<u32>, Vec<u32>) {
    let n = a.len();
    let mut c1 = Vec::with_capacity(n);
    let mut c2 = Vec::with_capacity(n);
    for i in 0..n {
        if rng.gen::<bool>() {
            c1.push(a[i]);
            c2.push(b[i]);
        } else {
            c1.push(b[i]);
            c2.push(a[i]);
        }
    }
    (c1, c2)
}

/// The paper's bias probability for gene `i`: `p_i = #a / (#a + #b)`
/// where `#x` counts neighbours of `i` that the reference assigns to the
/// part parent `x` gives node `i`; `0.5` when both counts are zero.
#[inline]
pub fn knux_bias(graph: &CsrGraph, reference: &[u32], i: u32, a_i: u32, b_i: u32) -> f64 {
    let mut count_a = 0u32;
    let mut count_b = 0u32;
    for &j in graph.neighbors(i) {
        let r = reference[j as usize];
        if r == a_i {
            count_a += 1;
        }
        if r == b_i {
            count_b += 1;
        }
    }
    if count_a == 0 && count_b == 0 {
        0.5
    } else {
        count_a as f64 / (count_a + count_b) as f64
    }
}

fn knux_crossover<R: Rng + ?Sized>(
    a: &[u32],
    b: &[u32],
    graph: &CsrGraph,
    reference: &[u32],
    fitness_weight: f64,
    fitness_term: f64,
    rng: &mut R,
) -> (Vec<u32>, Vec<u32>) {
    assert_eq!(
        reference.len(),
        a.len(),
        "reference length must match chromosome length"
    );
    let n = a.len();
    let mut c1 = Vec::with_capacity(n);
    let mut c2 = Vec::with_capacity(n);
    for i in 0..n {
        if a[i] == b[i] {
            // "if a_i = b_i, then c_i = a_i"
            c1.push(a[i]);
            c2.push(a[i]);
        } else {
            let adjacency = knux_bias(graph, reference, i as u32, a[i], b[i]);
            let p = (1.0 - fitness_weight) * adjacency + fitness_weight * fitness_term;
            if rng.gen::<f64>() < p {
                c1.push(a[i]);
                c2.push(b[i]);
            } else {
                c1.push(b[i]);
                c2.push(a[i]);
            }
        }
    }
    (c1, c2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapart_graph::builder::from_edges;
    use gapart_graph::generators::paper_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx(graph: &CsrGraph) -> CrossoverCtx<'_> {
        CrossoverCtx::plain(graph)
    }

    use gapart_graph::CsrGraph;

    #[test]
    fn offspring_are_complementary_and_gene_preserving() {
        let g = paper_graph(78);
        let reference: Vec<u32> = (0..78).map(|v| v % 4).collect();
        let a: Vec<u32> = (0..78).map(|v| v % 4).collect();
        let b: Vec<u32> = (0..78).map(|v| (v + 1) % 4).collect();
        let mut rng = StdRng::seed_from_u64(1);
        for op in CrossoverOp::ALL {
            let c = CrossoverCtx::with_reference(&g, &reference);
            let (c1, c2) = op.apply(&a, &b, &c, &mut rng);
            for i in 0..78 {
                let pair = (c1[i], c2[i]);
                let ok = pair == (a[i], b[i]) || pair == (b[i], a[i]);
                assert!(ok, "{op}: gene {i} not from parents");
            }
        }
    }

    #[test]
    fn one_point_has_single_switch() {
        let a = vec![0u32; 20];
        let b = vec![1u32; 20];
        let g = from_edges(20, &[(0, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let (c1, _) = CrossoverOp::OnePoint.apply(&a, &b, &ctx(&g), &mut rng);
        let switches = c1.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(switches, 1, "{c1:?}");
    }

    #[test]
    fn two_point_has_at_most_two_switches() {
        let a = vec![0u32; 30];
        let b = vec![1u32; 30];
        let g = from_edges(30, &[(0, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let (c1, _) = CrossoverOp::TwoPoint.apply(&a, &b, &ctx(&g), &mut rng);
            let switches = c1.windows(2).filter(|w| w[0] != w[1]).count();
            assert!(switches <= 2, "{c1:?}");
        }
    }

    #[test]
    fn k_point_respects_k() {
        let a = vec![0u32; 40];
        let b = vec![1u32; 40];
        let g = from_edges(40, &[(0, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let (c1, _) = CrossoverOp::KPoint(5).apply(&a, &b, &ctx(&g), &mut rng);
            let switches = c1.windows(2).filter(|w| w[0] != w[1]).count();
            assert!(switches <= 5);
        }
    }

    #[test]
    fn uniform_mixes_roughly_half() {
        let a = vec![0u32; 1000];
        let b = vec![1u32; 1000];
        let g = from_edges(1000, &[(0, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let (c1, _) = CrossoverOp::Uniform.apply(&a, &b, &ctx(&g), &mut rng);
        let from_a = c1.iter().filter(|&&x| x == 0).count();
        assert!((350..=650).contains(&from_a), "from_a = {from_a}");
    }

    #[test]
    fn knux_agreement_genes_pass_through() {
        let g = paper_graph(78);
        let reference: Vec<u32> = vec![0; 78];
        let a: Vec<u32> = vec![1; 78];
        let b: Vec<u32> = vec![1; 78];
        let mut rng = StdRng::seed_from_u64(13);
        let c = CrossoverCtx::with_reference(&g, &reference);
        let (c1, c2) = CrossoverOp::Knux.apply(&a, &b, &c, &mut rng);
        assert_eq!(c1, a);
        assert_eq!(c2, a);
    }

    #[test]
    fn knux_bias_formula() {
        // Path 0-1-2. For node 1: neighbours {0, 2}.
        let g = from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        // Reference puts 0 → part 0, 2 → part 1.
        let reference = vec![0u32, 9, 1];
        // a gives node 1 part 0 (1 supporting neighbour), b gives part 1
        // (1 supporting neighbour) → p = 1/2.
        assert_eq!(knux_bias(&g, &reference, 1, 0, 1), 0.5);
        // Reference puts both neighbours in part 0 → p = 1 for a.
        let reference = vec![0u32, 9, 0];
        assert_eq!(knux_bias(&g, &reference, 1, 0, 1), 1.0);
        assert_eq!(knux_bias(&g, &reference, 1, 1, 0), 0.0);
        // No neighbour in either part → 0.5.
        let reference = vec![7u32, 9, 7];
        assert_eq!(knux_bias(&g, &reference, 1, 0, 1), 0.5);
    }

    #[test]
    fn knux_follows_strong_bias() {
        // When the reference fully supports parent a everywhere, offspring
        // 1 must equal parent a.
        let g = paper_graph(144);
        let a: Vec<u32> = g
            .coords()
            .unwrap()
            .iter()
            .map(|p| u32::from(p.x > 0.5))
            .collect();
        let reference = a.clone(); // reference agrees with a
        let b: Vec<u32> = a.iter().map(|&x| 1 - x).collect(); // opposite
        let mut rng = StdRng::seed_from_u64(17);
        let c = CrossoverCtx::with_reference(&g, &reference);
        let (c1, _) = CrossoverOp::Knux.apply(&a, &b, &c, &mut rng);
        // A node whose neighbours are all on its own side of the split has
        // bias exactly 1.0 for parent a, so its offspring gene must equal
        // a's. Only boundary nodes (with cross-split neighbours) may flip.
        for v in 0..144u32 {
            if c1[v as usize] != a[v as usize] {
                let crosses = g
                    .neighbors(v)
                    .iter()
                    .any(|&u| a[u as usize] != a[v as usize]);
                assert!(crosses, "interior node {v} flipped against a bias of 1.0");
            }
        }
        // And interior nodes dominate, so most genes follow parent a.
        let diffs = c1.iter().zip(&a).filter(|(x, y)| x != y).count();
        assert!(
            diffs < 40,
            "KNUX ignored a strongly-supporting reference: {diffs} diffs"
        );
    }

    #[test]
    #[should_panic(expected = "requires a reference")]
    fn knux_without_reference_panics() {
        let g = from_edges(2, &[(0, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        CrossoverOp::Knux.apply(&[0, 1], &[1, 0], &ctx(&g), &mut rng);
    }

    #[test]
    fn tiny_chromosomes_survive() {
        let g = from_edges(1, &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (c1, c2) = CrossoverOp::TwoPoint.apply(&[0], &[1], &ctx(&g), &mut rng);
        assert_eq!((c1, c2), (vec![0], vec![1]));
    }

    #[test]
    fn display_names() {
        assert_eq!(CrossoverOp::Dknux.to_string(), "DKNUX");
        assert_eq!(CrossoverOp::KPoint(4).to_string(), "4-point");
        assert_eq!(CrossoverOp::DknuxFitness(25).to_string(), "DKNUX-f25");
    }

    #[test]
    fn dynamic_family_is_classified() {
        assert!(CrossoverOp::Dknux.is_dynamic());
        assert!(CrossoverOp::DknuxFitness(10).is_dynamic());
        assert!(!CrossoverOp::Knux.is_dynamic());
        assert!(!CrossoverOp::TwoPoint.is_dynamic());
    }

    #[test]
    fn fitness_weighted_knux_tilts_toward_fitter_parent() {
        // With weight 100, the bias is purely the fitness term: 0.75
        // toward the fitter parent. Over many disagreeing genes, the
        // offspring should inherit from the fitter parent ~75% of the
        // time (vs ~50% for plain DKNUX with a neutral reference).
        let g = paper_graph(309);
        let n = 309;
        let a: Vec<u32> = vec![0; n];
        let b: Vec<u32> = vec![1; n];
        let reference: Vec<u32> = vec![9; n]; // supports neither side
        let ctx = CrossoverCtx {
            graph: &g,
            reference: Some(&reference),
            parent_fitness: Some((-1.0, -100.0)), // a much fitter
        };
        let mut rng = StdRng::seed_from_u64(31);
        let mut from_a = 0usize;
        let trials = 20;
        for _ in 0..trials {
            let (c1, _) = CrossoverOp::DknuxFitness(100).apply(&a, &b, &ctx, &mut rng);
            from_a += c1.iter().filter(|&&x| x == 0).count();
        }
        let share = from_a as f64 / (n * trials) as f64;
        assert!(
            (0.70..=0.80).contains(&share),
            "share from fitter parent: {share}"
        );

        // Weight 0 degrades to plain KNUX: neutral reference → ~50%.
        let mut from_a = 0usize;
        for _ in 0..trials {
            let (c1, _) = CrossoverOp::DknuxFitness(0).apply(&a, &b, &ctx, &mut rng);
            from_a += c1.iter().filter(|&&x| x == 0).count();
        }
        let share = from_a as f64 / (n * trials) as f64;
        assert!((0.45..=0.55).contains(&share), "neutral share: {share}");
    }

    #[test]
    fn fitness_weighted_without_fitness_is_neutral() {
        let g = paper_graph(78);
        let a: Vec<u32> = vec![0; 78];
        let b: Vec<u32> = vec![1; 78];
        let reference: Vec<u32> = vec![0; 78]; // fully supports a
        let ctx = CrossoverCtx::with_reference(&g, &reference);
        let mut rng = StdRng::seed_from_u64(33);
        // Weight 50 with no fitness info: p = 0.5·adjacency + 0.5·0.5;
        // adjacency is 1.0 everywhere (reference = a), so p = 0.75.
        let mut from_a = 0usize;
        for _ in 0..50 {
            let (c1, _) = CrossoverOp::DknuxFitness(50).apply(&a, &b, &ctx, &mut rng);
            from_a += c1.iter().filter(|&&x| x == 0).count();
        }
        let share = from_a as f64 / (78.0 * 50.0);
        assert!((0.70..=0.80).contains(&share), "share: {share}");
    }
}
