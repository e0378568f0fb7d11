//! Sharded-enumeration equivalence properties.
//!
//! The walk campaign on `Sharded(n)` must return **exactly** the
//! sequential walk's result — same docs in the same order, same probed
//! count — for any shard count from 1 through 16, any dead-run limit
//! and any generated population. Dead gaps spanning `run_items` calls
//! are checked in `tests/backend_matrix.rs`.

use minedig::primitives::supervise::{run_to_end, Backend};
use minedig::shortlink::campaign::EnumCampaign;
use minedig::shortlink::enumerate::enumerate_links;
use minedig::shortlink::model::{LinkPopulation, ModelConfig};
use minedig::shortlink::probe::ProbePolicy;
use minedig::shortlink::service::ShortlinkService;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_equals_sequential_on_generated_populations(
        links in 0u64..3_000,
        seed in 0u64..1_000_000,
        limit in 1u64..128,
        shards in 1usize..=16,
    ) {
        let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: links,
            users: 60,
            seed,
        }));
        let sequential = enumerate_links(&service, limit);
        let policy = ProbePolicy::default();
        let backend = Backend::Sharded(shards);
        let run = run_to_end(EnumCampaign::new(&service, &policy, limit, backend)).enumeration;
        prop_assert_eq!(run.probed, sequential.probed, "shards={}", shards);
        prop_assert_eq!(run.docs, sequential.docs, "shards={}", shards);
    }
}
