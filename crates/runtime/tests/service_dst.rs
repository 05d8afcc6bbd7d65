//! The single-node service simulator's outputs, pinned: every run of
//! seeds 0–99, as shipped and under the known-bad cooldown mutation,
//! renders to the same bytes a refactor must keep.

use runtime::{render_trace, run_sim, Mutation, RunReport, SimConfig};

/// FNV-1a over every service seed 0–99's JSON report and rendered
/// trace under `mutation`, folded in seed order.
fn digest(mutation: Mutation) -> u64 {
    let mut bytes = Vec::new();
    for seed in 0..100 {
        let report = run_sim(&SimConfig {
            seed,
            mutation,
            ..SimConfig::default()
        });
        bytes.extend_from_slice(report.render_json().as_bytes());
        bytes.extend_from_slice(render_trace(&report, None).as_bytes());
    }
    dst::fnv1a64(&bytes)
}

#[test]
fn service_outputs_are_pinned_by_their_digest() {
    // A refactor of the service core or of the simulator must leave
    // every simulated run byte-identical. A change that alters a trace
    // on purpose updates these constants and says why.
    let digests = [digest(Mutation::None), digest(Mutation::NoCooldownRebase)];
    assert_eq!(
        digests,
        [0xcc35_c01c_20bd_7d77, 0x2b6d_a484_203d_ea83],
        "{digests:#018x?}"
    );
}
