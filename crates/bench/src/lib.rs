//! Shared scaffolding for the experiment binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md §4 for the index). Scale knobs are environment variables so
//! the same binaries serve quick smoke runs and the full reproduction:
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `SISG_ITEMS` | catalog size for offline experiments | 2000 |
//! | `SISG_DIM` | embedding dimensionality | 32 |
//! | `SISG_WINDOW` | item-level window half-width | 3 |
//! | `SISG_NEG` | negatives per positive | 5 |
//! | `SISG_EPOCHS` | training epochs | 2 |
//! | `SISG_THREADS` | Hogwild threads | 1 |
//! | `SISG_SEED` | master seed | 42 |

#![warn(missing_docs)]

use sisg_corpus::{Corpus, CorpusConfig, GeneratedCorpus};
use sisg_eval::ExperimentTable;
use sisg_sgns::SgnsConfig;
use std::path::PathBuf;

/// Reads a `usize` environment knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `u64` environment knob.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The corpus used by the offline experiments (Table III, Figures 3–6):
/// Taobao25M scaled down to `SISG_ITEMS` items with Table II-like ratios.
pub fn offline_corpus() -> GeneratedCorpus {
    let items = env_usize("SISG_ITEMS", 2_000) as u32;
    let seed = env_u64("SISG_SEED", 42);
    GeneratedCorpus::generate(CorpusConfig::scaled(items, seed))
}

/// The SGNS configuration for offline experiments, honoring the env knobs.
pub fn offline_sgns_config() -> SgnsConfig {
    SgnsConfig {
        dim: env_usize("SISG_DIM", 32),
        window: env_usize("SISG_WINDOW", 3),
        negatives: env_usize("SISG_NEG", 5),
        epochs: env_usize("SISG_EPOCHS", 2),
        threads: env_usize("SISG_THREADS", 1),
        seed: env_u64("SISG_SEED", 42),
        ..Default::default()
    }
}

/// Clones a corpus bundle with its sessions replaced — used to hand the
/// training half of a split to models whose constructor takes the bundle.
pub fn with_sessions(corpus: &GeneratedCorpus, sessions: Corpus) -> GeneratedCorpus {
    GeneratedCorpus {
        config: corpus.config.clone(),
        catalog: corpus.catalog.clone(),
        users: corpus.users.clone(),
        sessions,
    }
}

/// Directory where experiment binaries drop their JSON results.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("SISG_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// The last step of an experiment binary: writes `table` to
/// `results_dir()/<name>.json` and the metrics snapshot ([`emit_metrics`]),
/// and prints where both went.
pub fn finish(name: &str, table: &ExperimentTable) {
    let path = results_dir().join(format!("{name}.json"));
    table.write_json(&path).expect("write results");
    let metrics = emit_metrics(name);
    println!("wrote {} and {}", path.display(), metrics.display());
}

/// Writes the obs registry snapshot accumulated by this run.
///
/// The destination is `--metrics-out <path>` when present on the command
/// line, else `results_dir()/metrics/<name>.json`. Every experiment binary
/// ends with this (through [`finish`]), so each run leaves a
/// machine-readable record of its counters, gauges, and latency quantiles
/// next to its table JSON (see docs/OBSERVABILITY.md).
pub fn emit_metrics(name: &str) -> PathBuf {
    let mut argv = std::env::args();
    let path = loop {
        match argv.next() {
            Some(flag) if flag == "--metrics-out" => match argv.next() {
                Some(p) => break PathBuf::from(p),
                None => {
                    eprintln!("--metrics-out requires a path; using the default");
                    break default_metrics_path(name);
                }
            },
            Some(_) => continue,
            None => break default_metrics_path(name),
        }
    };
    sisg_obs::write_snapshot(&path, name).expect("write metrics snapshot");
    path
}

fn default_metrics_path(name: &str) -> PathBuf {
    results_dir().join("metrics").join(format!("{name}.json"))
}

/// Human-readable description of an item for the case-study printouts:
/// `item 42 [leaf_category_7, brand_3, shop_19, F/26-30/p2]`.
pub fn describe_item(corpus: &GeneratedCorpus, item: sisg_corpus::ItemId) -> String {
    use sisg_corpus::schema::{Gender, ItemFeature, AGE_BUCKETS};
    use sisg_corpus::ItemCatalog;
    let si = corpus.catalog.si_values(item);
    let (g, a, p) =
        ItemCatalog::decode_demographics(si[ItemFeature::AgeGenderPurchaseLevel.slot()]);
    format!(
        "item {} [leaf_category_{}, brand_{}, shop_{}, buyers {}/{}/p{}]",
        item.0,
        si[ItemFeature::LeafCategory.slot()],
        si[ItemFeature::Brand.slot()],
        si[ItemFeature::Shop.slot()],
        Gender::ALL[g].code(),
        AGE_BUCKETS[a],
        p
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_fallbacks() {
        assert_eq!(env_usize("SISG_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_u64("SISG_DOES_NOT_EXIST", 9), 9);
    }

    #[test]
    fn with_sessions_swaps_only_sessions() {
        let c = GeneratedCorpus::generate(CorpusConfig::tiny());
        let swapped = with_sessions(&c, Corpus::new());
        assert_eq!(swapped.sessions.len(), 0);
        assert_eq!(swapped.config.n_items, c.config.n_items);
    }

    #[test]
    fn describe_item_mentions_category() {
        let c = GeneratedCorpus::generate(CorpusConfig::tiny());
        let s = describe_item(&c, sisg_corpus::ItemId(0));
        assert!(s.contains("leaf_category_"));
        assert!(s.contains("brand_"));
    }
}
