//! Regenerates **Table I**: the item and user features used by SISG, with
//! the value-space cardinalities of the synthetic catalog at the current
//! experiment scale.

use sisg_bench::{env_u64, env_usize};
use sisg_corpus::schema::{ItemFeature, SchemaCardinalities, AGE_BUCKETS};
use sisg_corpus::UserRegistry;
use sisg_eval::ExperimentTable;

fn main() {
    let items = env_usize("SISG_ITEMS", 2_000) as u32;
    let cards = SchemaCardinalities::for_items(items);

    let mut table = ExperimentTable::new(
        "Table I — item & user features (encoded as [FeatureName]_[FeatureValue])",
        &["side", "feature", "cardinality", "example token"],
    );
    for f in ItemFeature::ALL {
        table.push_row(vec![
            "item".into(),
            f.name().into(),
            cards.cardinality(f).to_string(),
            f.encode(cards.cardinality(f) / 2),
        ]);
    }
    // User features: the age_gender cross and behavioral tags, realized as
    // interned user types.
    let users = UserRegistry::generate((items / 2).max(100), 12, env_u64("SISG_SEED", 42));
    table.push_row(vec![
        "user".into(),
        "age_gender (cross)".into(),
        format!("{} genders x {} ages", 3, AGE_BUCKETS.len()),
        "F_19-25".into(),
    ]);
    table.push_row(vec![
        "user".into(),
        "user_tags".into(),
        format!("{} realized user types", users.n_user_types()),
        users.type_string(sisg_corpus::UserTypeId(0)),
    ]);

    print!("{}", table.render());
    println!();
    sisg_bench::finish("table1_schema", &table);
}
