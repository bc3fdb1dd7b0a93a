//! Regenerates **Figure 4**: cold-start recommendations for different
//! demographic user groups, via averaged user-type vectors.
//!
//! The figure's claims: female and male users get visibly different lists;
//! higher purchasing power shifts recommendations toward expensive-brand
//! items; age groups differ, most strongly among male users.

use sisg_bench::{describe_item, offline_corpus, offline_sgns_config};
use sisg_core::{MatchingService, ServingConfig, SisgModel, Variant};
use sisg_eval::ExperimentTable;
use std::collections::HashSet;

const TOP_K: usize = 8;

fn main() {
    let corpus = offline_corpus();
    let sgns = offline_sgns_config();
    eprintln!("training SISG-F-U...");
    let (model, _) = SisgModel::train(&corpus, Variant::SisgFU, &sgns).expect("train");
    let svc = MatchingService::build(
        model,
        corpus.users.clone(),
        &corpus.sessions.item_clicks(corpus.config.n_items),
        ServingConfig::default(),
    )
    .expect("clicks cover the catalog");

    // The groups Figure 4 displays: gender × age × purchase power.
    type Group = (String, Option<u8>, Option<u8>, Option<u8>);
    let groups: Vec<Group> = vec![
        ("female 19-25 low-pp".into(), Some(0), Some(1), Some(0)),
        ("female 19-25 high-pp".into(), Some(0), Some(1), Some(2)),
        ("female 26-30 high-pp".into(), Some(0), Some(2), Some(2)),
        ("male 19-25 low-pp".into(), Some(1), Some(1), Some(0)),
        ("male 26-30 high-pp".into(), Some(1), Some(2), Some(2)),
        ("male 61+ any-pp".into(), Some(1), Some(6), None),
    ];

    let mut table = ExperimentTable::new(
        "Figure 4 — cold-start recommendations per user group",
        &["group", "rank", "recommendation"],
    );
    let mut lists: Vec<(String, Vec<u32>)> = Vec::new();
    for (name, gender, age, pp) in &groups {
        match svc.cold_user_candidates(*gender, *age, *pp, TOP_K) {
            Ok(recs) => {
                lists.push((name.clone(), recs.iter().map(|r| r.item.0).collect()));
                for (rank, r) in recs.iter().enumerate() {
                    table.push_row(vec![
                        name.clone(),
                        (rank + 1).to_string(),
                        describe_item(&corpus, r.item),
                    ]);
                }
            }
            Err(e) => {
                eprintln!("group '{name}' skipped: {e}");
            }
        }
    }
    print!("{}", table.render());

    // Quantify the figure's claim: groups differ.
    let mut overlap_table = ExperimentTable::new(
        "pairwise overlap of top-8 lists (low = distinct tastes)",
        &["group A", "group B", "overlap"],
    );
    for i in 0..lists.len() {
        for j in (i + 1)..lists.len() {
            let a: HashSet<u32> = lists[i].1.iter().copied().collect();
            let b: HashSet<u32> = lists[j].1.iter().copied().collect();
            overlap_table.push_row(vec![
                lists[i].0.clone(),
                lists[j].0.clone(),
                format!("{}/{TOP_K}", a.intersection(&b).count()),
            ]);
        }
    }
    print!("\n{}", overlap_table.render());

    // Gender split specifically (the figure's most visible contrast).
    let female: HashSet<u32> = lists
        .iter()
        .filter(|(n, _)| n.starts_with("female"))
        .flat_map(|(_, l)| l.iter().copied())
        .collect();
    let male: HashSet<u32> = lists
        .iter()
        .filter(|(n, _)| n.starts_with("male"))
        .flat_map(|(_, l)| l.iter().copied())
        .collect();
    let cross = female.intersection(&male).count();
    println!(
        "\nfemale-pool {} items, male-pool {} items, shared {cross} \
         (paper: 'differences between female and male users are obvious')",
        female.len(),
        male.len()
    );

    sisg_bench::finish("fig4_cold_users", &table);
}
