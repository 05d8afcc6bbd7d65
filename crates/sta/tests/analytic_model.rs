//! The STA engine reads the analytical ring model exactly. Both price
//! each stage's alpha-power delay pair under the next stage's
//! tied-input load, so a ring's STA period equals
//! `RingOscillator::period` to floating-point noise, and ranking the
//! Fig. 3 cell mixes by their STA transfer functions picks the same
//! winner, with the same nonlinearity, as the analytical
//! `tsense_core::optimize::config_search`.

use sta::{period_at, transfer, AnalyticalModel, TransferSettings};
use tsense_core::optimize::{config_search, SweepSettings};
use tsense_core::ring::{CellConfig, RingOscillator};
use tsense_core::tech::Technology;
use tsense_core::units::Celsius;

#[test]
fn sta_period_equals_the_analytic_ring_model() {
    let model = AnalyticalModel::um350(2.0);
    let tech = Technology::um350();
    for config in CellConfig::paper_fig3_set() {
        let ring = RingOscillator::from_config(&config, 1.0e-6, 2.0).unwrap();
        for temp_c in [-50.0, 27.0, 150.0] {
            let analytic = ring.period(&tech, Celsius::new(temp_c)).unwrap().get();
            let via_sta = period_at(config.kinds(), &model, temp_c).unwrap();
            let rel = ((via_sta - analytic) / analytic).abs();
            assert!(rel < 1e-9, "{config}: {via_sta} vs {analytic} (rel {rel})");
        }
    }
}

#[test]
fn sta_transfer_picks_the_analytic_search_winner() {
    let model = AnalyticalModel::um350(2.0);
    let settings = TransferSettings {
        samples: 21,
        ..TransferSettings::default()
    };
    let configs = CellConfig::paper_fig3_set();
    // The lowest worst-case nonlinearity; on a tie, the first mix.
    let (sta_nl, sta_best) = configs
        .iter()
        .map(|config| {
            let nl = transfer(config.kinds(), &model, &settings)
                .unwrap()
                .max_nl_percent();
            (nl, config)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap();
    let via_core = config_search(
        &Technology::um350(),
        &configs,
        1.0e-6,
        2.0,
        &SweepSettings {
            samples: 21,
            ..SweepSettings::default()
        },
    )
    .unwrap();
    assert_eq!(*sta_best, via_core[0].config);
    let rel = ((sta_nl - via_core[0].max_nl_percent) / via_core[0].max_nl_percent).abs();
    assert!(rel < 1e-6, "{rel}");
}
