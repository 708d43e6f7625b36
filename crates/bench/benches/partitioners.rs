//! Whole-partitioner benchmarks: the RSB and IBP baselines the paper
//! compares against, plus the multilevel variant and FM refinement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gapart_graph::fm::FmRefiner;
use gapart_graph::generators::{jittered_mesh, paper_graph};
use gapart_graph::refine::RefineOptions;
use gapart_graph::Partition;
use gapart_ibp::index::IndexScheme;
use gapart_ibp::{ibp_partition, IbpOptions};
use gapart_rsb::{rsb_partition, RsbOptions};

fn rsb(c: &mut Criterion) {
    let mut group = c.benchmark_group("rsb_8parts");
    group.sample_size(10);
    for n in [167usize, 309, 1000] {
        let graph = jittered_mesh(n, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| rsb_partition(&graph, 8, &RsbOptions::default()).unwrap())
        });
    }
    group.finish();
}

fn multilevel(c: &mut Criterion) {
    let mlrsb = gapart::partitioners::by_name("mlrsb").expect("registered");
    let mut group = c.benchmark_group("multilevel_rsb_8parts");
    group.sample_size(10);
    for n in [1000usize, 3000] {
        let graph = jittered_mesh(n, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| mlrsb.partition(&graph, 8, 0x4d4c_5253).unwrap())
        });
    }
    group.finish();
}

fn ibp(c: &mut Criterion) {
    let graph = paper_graph(309);
    let mut group = c.benchmark_group("ibp_309n_8parts");
    group.sample_size(30);
    for scheme in IndexScheme::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(scheme), &scheme, |bench, &s| {
            let opts = IbpOptions {
                scheme: s,
                resolution: 1024,
            };
            bench.iter(|| ibp_partition(&graph, 8, &opts).unwrap())
        });
    }
    group.finish();
}

/// All five algorithms through the unified `Partitioner` trait — the same
/// dispatch path the CLI and the table binaries use. GA/DPGA run with a
/// small budget so the group finishes in seconds.
fn unified_trait_dispatch(c: &mut Criterion) {
    use gapart_core::GaConfig;
    use gapart_graph::partitioner::Partitioner;

    let graph = paper_graph(167);
    let mut group = c.benchmark_group("trait_dispatch_167n_4parts");
    group.sample_size(10);
    for name in gapart::partitioners::NAMES {
        let p: Box<dyn Partitioner> = match name {
            "ga" => gapart::partitioners::tuned_ga(
                GaConfig::paper_defaults(4)
                    .with_population_size(32)
                    .with_generations(10),
            ),
            "dpga" => {
                let mut cfg = gapart_core::DpgaConfig::paper(4);
                cfg.topology = gapart_core::Topology::Hypercube(2);
                cfg.base = GaConfig::paper_defaults(4)
                    .with_population_size(32)
                    .with_generations(10);
                gapart::partitioners::tuned_dpga(cfg)
            }
            other => gapart::partitioners::by_name(other).expect("registered"),
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &p, |bench, p| {
            bench.iter(|| p.partition(&graph, 4, 42).unwrap())
        });
    }
    group.finish();
}

fn refinement(c: &mut Criterion) {
    let graph = paper_graph(309);
    let opts = RefineOptions {
        balance_slack: 0.05,
        max_passes: 8,
    };
    let mut fm = FmRefiner::new();
    let mut group = c.benchmark_group("fm_refine_309n");
    group.sample_size(20);
    group.bench_function("from_round_robin_8p", |bench| {
        bench.iter_batched(
            || Partition::round_robin(309, 8),
            |mut p| fm.refine(&graph, &mut p, &opts, 42),
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(400));
    targets = rsb, multilevel, ibp, unified_trait_dispatch, refinement
}
criterion_main!(benches);
