//! Parameter sweeps — the supporting data behind the paper's §3.4/§5
//! claims (distributed populations work, migration matters, GA cost
//! scales with population) rendered as printable series.
//!
//! Sweeps: total population, migration interval, seeded-init perturbation,
//! and DPGA pool-size speedup — §5's "DPGA is an inherently parallel
//! algorithm from which we can expect near-linear speedups". The last
//! runs the protocol's DPGA (16 islands at §4 sizes) on the 309-node
//! graph under rayon pools of 1, 2, 4, … threads and the host's
//! `available_parallelism`, reporting wall time and speedup versus the
//! 1-thread pool. Results are bit-identical by construction, so only
//! time differs; on a single-core host every row honestly shows ~1×.
//!
//! Run: `cargo run -p gapart-bench --release --bin sweep`

use gapart_bench::table::TextTable;
use gapart_bench::ExperimentProtocol;
use gapart_core::population::InitStrategy;
use gapart_core::{DpgaEngine, FitnessKind};
use gapart_graph::generators::paper_graph;
use std::time::Instant;

fn main() {
    let protocol = ExperimentProtocol::from_env();
    let graph = paper_graph(167);
    let parts = 4u32;
    println!("Sweeps on the 167-node graph, {parts} parts, Fitness 1\n");

    // --- population size -------------------------------------------------
    {
        let mut t = TextTable::new(["total population", "best cut", "mean cut"]);
        for pop in [64usize, 128, 256, 320, 512] {
            let mut p = protocol.clone();
            p.population = pop;
            p.runs = 3;
            let s = p.run(
                &graph,
                parts,
                FitnessKind::TotalCut,
                InitStrategy::BalancedRandom,
            );
            t.row([
                pop.to_string(),
                s.best_cut.to_string(),
                format!("{:.1}", s.mean_cut()),
            ]);
        }
        println!(
            "population size ({} islands)\n{}",
            protocol.topology.size(),
            t.render()
        );
    }

    // --- migration interval ----------------------------------------------
    {
        let mut t = TextTable::new(["migration interval", "best cut"]);
        for interval in [1usize, 3, 5, 10, 25, usize::MAX / 2] {
            let mut cut = u64::MAX;
            for r in 0..3usize {
                let mut config = protocol.dpga_config(
                    parts,
                    FitnessKind::TotalCut,
                    InitStrategy::BalancedRandom,
                    None,
                    r,
                );
                config.migration_interval = interval;
                let res = DpgaEngine::new(&graph, config).expect("valid config").run();
                cut = cut.min(res.best_cut);
            }
            let label = if interval > 1000 {
                "never".to_string()
            } else {
                interval.to_string()
            };
            t.row([label, cut.to_string()]);
        }
        println!("migration interval (isolation → panmixia)\n{}", t.render());
    }

    // --- seeded-init perturbation ------------------------------------------
    {
        let seed_partition = protocol.baseline("rsb", &graph, parts).partition;
        let mut t = TextTable::new(["perturbation", "best cut"]);
        for perturbation in [0.0f64, 0.05, 0.1, 0.25, 0.5] {
            let init = InitStrategy::Seeded {
                partition: seed_partition.labels().to_vec(),
                perturbation,
            };
            let mut p = protocol.clone();
            p.runs = 3;
            let s = p.run(&graph, parts, FitnessKind::TotalCut, init);
            t.row([format!("{perturbation:.2}"), s.best_cut.to_string()]);
        }
        println!("seeded-init perturbation (RSB seed)\n{}", t.render());
    }

    // --- pool-size speedup (§5) ---------------------------------------------
    {
        let graph = paper_graph(309);
        let parts = 8u32;
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut threads: Vec<usize> = (0..)
            .map(|k| 1usize << k)
            .take_while(|&t| t <= available)
            .collect();
        if !threads.contains(&available) {
            threads.push(available);
        }
        let mut t = TextTable::new(["threads", "wall time", "speedup", "best cut"]);
        let mut baseline: Option<f64> = None;
        for &nthreads in &threads {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(nthreads)
                .build()
                .expect("thread pool");
            let config = protocol.dpga_config(
                parts,
                FitnessKind::TotalCut,
                InitStrategy::BalancedRandom,
                None,
                0,
            );
            let start = Instant::now();
            let res = pool.install(|| DpgaEngine::new(&graph, config).expect("valid config").run());
            let secs = start.elapsed().as_secs_f64();
            let base = *baseline.get_or_insert(secs);
            t.row([
                nthreads.to_string(),
                format!("{secs:.2}s"),
                format!("{:.2}x", base / secs),
                res.best_cut.to_string(),
            ]);
        }
        println!(
            "DPGA pool-size speedup on the 309-node graph, {parts} parts, {} islands, {} generations \
             ({available} threads available; identical cuts, only time changes)\n{}",
            protocol.topology.size(),
            protocol.generations,
            t.render()
        );
    }
}
