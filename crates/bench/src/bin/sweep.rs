//! Parameter sweeps — the supporting data behind the paper's §3.4/§5
//! claims (distributed populations work, migration matters, GA cost
//! scales with population) rendered as printable series.
//!
//! Sweeps: total population, migration interval, seeded-init perturbation,
//! and DPGA pool-size speedup — §5's "DPGA is an inherently parallel
//! algorithm from which we can expect near-linear speedups". The last
//! runs the protocol's DPGA (16 islands at §4 sizes) on the 309-node
//! graph under rayon pools of 1, 2, 4, … threads and the host's
//! `available_parallelism`. After one untimed warm-up run it times 5
//! rounds, each running every pool size once in turn, and prints per
//! pool the median wall time in ms, the min-max range over the rounds,
//! and the speedup of the medians versus the 1-thread pool. Results are
//! bit-identical by construction (every run's cut is asserted equal),
//! so only time differs; on a single-core host every row honestly shows
//! ~1×.
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
        const ROUNDS: usize = 5;
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
        let pools: Vec<rayon::ThreadPool> = threads
            .iter()
            .map(|&n| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .expect("thread pool")
            })
            .collect();
        let config = protocol.dpga_config(
            parts,
            FitnessKind::TotalCut,
            InitStrategy::BalancedRandom,
            None,
            0,
        );
        let run = |pool: &rayon::ThreadPool| {
            let config = config.clone();
            let start = Instant::now();
            let cut = pool.install(|| {
                DpgaEngine::new(&graph, config)
                    .expect("valid config")
                    .run()
                    .best_cut
            });
            (start.elapsed().as_secs_f64() * 1e3, cut)
        };
        // The warm-up keeps the first timed pool from also being the
        // cold run; the rounds interleave pools so drift hits them alike.
        let (_, cut) = run(&pools[0]);
        let mut ms = vec![Vec::with_capacity(ROUNDS); pools.len()];
        for _ in 0..ROUNDS {
            for ((pool, times), nthreads) in pools.iter().zip(&mut ms).zip(&threads) {
                let (elapsed, c) = run(pool);
                assert_eq!(c, cut, "a pool of {nthreads} threads changed the cut");
                times.push(elapsed);
            }
        }
        for times in &mut ms {
            times.sort_by(f64::total_cmp);
        }
        let base = ms[0][ROUNDS / 2];
        let mut t = TextTable::new(["threads", "median ms", "range ms", "speedup", "best cut"]);
        for (nthreads, times) in threads.iter().zip(&ms) {
            let median = times[ROUNDS / 2];
            t.row([
                nthreads.to_string(),
                format!("{median:.1}"),
                format!("{:.1}-{:.1}", times[0], times[ROUNDS - 1]),
                format!("{:.2}x", base / median),
                cut.to_string(),
            ]);
        }
        println!(
            "DPGA pool-size speedup on the 309-node graph, {parts} parts, {} islands, {} generations \
             ({available} threads available; median of {ROUNDS} rounds; identical cuts, only time \
             changes)\n{}",
            protocol.topology.size(),
            protocol.generations,
            t.render()
        );
    }
}
