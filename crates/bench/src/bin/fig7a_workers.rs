//! Regenerates **Figure 7(a)**: training time vs number of workers on the
//! A/B-test-scale corpus, expected to track `y = 1/x`.
//!
//! All workers share one host, so measured wall time cannot show cluster
//! scaling (the last column reports it: w threads on the host's cores);
//! instead the run *measures* per-worker work and communication
//! exactly, then reports cluster time under the calibrated cost model of
//! [`sisg_distributed::ClusterCostModel`] (see DESIGN.md §2 — hardware
//! substitution). The single-worker run calibrates seconds-per-pair from
//! real measured wall time, so worker-count 1 is a true measurement and
//! the curve's *shape* is driven by the measured load balance and comm.

use sisg_bench::{env_u64, env_usize};
use sisg_corpus::{CorpusConfig, EnrichOptions, GeneratedCorpus};
use sisg_distributed::runtime::PartitionStrategy;
use sisg_distributed::{ClusterCostModel, DistConfig, TrainingPipeline};
use sisg_eval::ExperimentTable;

fn main() {
    let items = env_usize("SISG_FIG7_ITEMS", 4_000) as u32;
    let corpus = GeneratedCorpus::generate(CorpusConfig::scaled(items, env_u64("SISG_SEED", 42)));
    eprintln!(
        "corpus: {} items, {} clicks",
        items,
        corpus.sessions.total_clicks()
    );

    let base = DistConfig {
        dim: 32,
        window: 4,
        negatives: 5,
        epochs: 1,
        hot_set_size: 1024,
        // Four ATNS synchronizations per epoch. At simulation scale, sync
        // cadence must track the (small) corpus or barrier latency floors
        // the modeled curve — at paper scale the same four-per-epoch
        // cadence is hours apart.
        sync_interval: (corpus.sessions.len() / 4).max(1),
        strategy: PartitionStrategy::Hbgp { beta: 1.2 },
        ..Default::default()
    };

    let worker_counts = [1usize, 2, 4, 8, 16, 32];
    let mut table = ExperimentTable::new(
        "Figure 7(a) — training time vs workers (modeled cluster time)",
        &[
            "workers",
            "pairs (max/worker)",
            "remote pairs",
            "modeled time (s)",
            "speedup",
            "ideal 1/x",
            "host wall (s)",
        ],
    );

    let mut model = ClusterCostModel {
        // 10 Gbps Ethernet with a 20 ms all-reduce round (32 nodes, small
        // payloads) — see ClusterCostModel docs.
        sync_latency_seconds: 0.02,
        ..Default::default()
    };
    let mut t1 = 0.0f64;
    for &w in &worker_counts {
        let cfg = DistConfig {
            workers: w,
            ..base.clone()
        };
        let (_, report) = TrainingPipeline::prepare(&corpus, EnrichOptions::FULL, cfg).train();
        if w == 1 {
            // Calibrate compute cost from the genuinely-measured run.
            model.seconds_per_pair = report.seconds / report.total_pairs().max(1) as f64;
            eprintln!(
                "calibrated {:.2} us/pair from the single-worker run ({:.1}s wall)",
                model.seconds_per_pair * 1e6,
                report.seconds
            );
        }
        let t = report.modeled_seconds(&model);
        if w == 1 {
            t1 = t;
        }
        table.push_row(vec![
            w.to_string(),
            report
                .pairs_per_worker
                .iter()
                .max()
                .copied()
                .unwrap_or(0)
                .to_string(),
            report.remote_pairs.to_string(),
            format!("{t:.2}"),
            format!("{:.2}x", t1 / t),
            format!("{:.2}x", w as f64),
            format!("{:.2}", report.seconds),
        ]);
        eprintln!(
            "w={w}: modeled {t:.2}s, host wall {:.2}s, remote fraction {:.3}",
            report.seconds,
            report.remote_fraction()
        );
    }
    print!("{}", table.render());
    println!(
        "\npaper reference: near-1/x decay from 4.5h at 4 workers to ~40min at 32 \
         (Taobao100M, 9.5e12 samples)"
    );

    sisg_bench::finish("fig7a_workers", &table);
}
