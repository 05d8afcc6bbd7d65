//! The compiled ring model against the per-stage alpha-power reference.
//!
//! `RingModel` shares each (polarity, stack depth) overdrive across
//! stages and precomputes every temperature-independent term, but must
//! return bit for bit what the textbook per-stage sum
//! `Σ 0.5·(C_load + C_par)·V_DD / I_sat(T)` returns when every `I_sat`
//! comes from `AlphaPowerFet::sat_current`.

use proptest::prelude::*;

use tsense_core::gate::{Gate, GateKind};
use tsense_core::ring::RingOscillator;
use tsense_core::tech::{Technology, TechnologyBuilder};
use tsense_core::units::{Celsius, Farads, Seconds, Volts, Watts};
use tsense_core::ModelError;

/// The four node presets plus a 0.8 V process, whose deep stacks run
/// out of overdrive at cold junctions.
fn technologies() -> Vec<Technology> {
    let mut techs = Technology::presets();
    techs.push(
        TechnologyBuilder::from(Technology::um350())
            .vdd(Volts::new(0.8))
            .name("cmos-0.35um-0v8")
            .build()
            .expect("low-VDD process validates"),
    );
    techs
}

/// One stage's `0.5·(C_load + C_par)·V_DD` charge and its two delays,
/// each `charge / I_sat(T)`.
fn reference_delays(
    ring: &RingOscillator,
    tech: &Technology,
    i: usize,
    t: Celsius,
) -> Result<(Seconds, Seconds), ModelError> {
    let gate = &ring.stages()[i];
    let c_total = ring.stage_load(tech, i) + gate.output_parasitic(tech);
    let charge = 0.5 * c_total.get() * tech.vdd.get();
    let i_dn = gate.pull_down_fet(tech)?.sat_current(t, tech.vdd)?;
    let i_up = gate.pull_up_fet(tech)?.sat_current(t, tech.vdd)?;
    Ok((
        Seconds::new(charge / i_dn.get()),
        Seconds::new(charge / i_up.get()),
    ))
}

fn reference_period(
    ring: &RingOscillator,
    tech: &Technology,
    t: Celsius,
) -> Result<Seconds, ModelError> {
    let mut total = Seconds::new(0.0);
    for i in 0..ring.stage_count() {
        let (tphl, tplh) = reference_delays(ring, tech, i, t)?;
        total = total + (tphl + tplh);
    }
    Ok(total)
}

/// `P = C_sw · V_DD² · f(T)`, every node charging once per period.
fn reference_power(
    ring: &RingOscillator,
    tech: &Technology,
    t: Celsius,
) -> Result<Watts, ModelError> {
    let f = reference_period(ring, tech, t)?.to_frequency();
    let mut c = Farads::new(0.0);
    for (i, gate) in ring.stages().iter().enumerate() {
        c = c + ring.stage_load(tech, i) + gate.output_parasitic(tech);
    }
    Ok(Watts::new(
        c.get() * tech.vdd.get() * tech.vdd.get() * f.get(),
    ))
}

/// Equal values by bit pattern, or equal errors.
fn same<T: Copy, K: PartialEq>(
    got: &Result<T, ModelError>,
    want: &Result<T, ModelError>,
    bits: impl Fn(T) -> K,
) -> bool {
    match (got, want) {
        (Ok(a), Ok(b)) => bits(*a) == bits(*b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// One stage draw: cell kind, NMOS width in µm, `Wp/Wn` ratio.
fn arb_stage() -> impl Strategy<Value = (GateKind, f64, f64)> {
    (
        prop::sample::select(GateKind::ALL.to_vec()),
        0.3f64..4.0,
        0.5f64..4.0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compiled_model_is_bit_identical_to_the_per_stage_sum(
        half in 1usize..=5,
        draws in prop::collection::vec(arb_stage(), 11),
        wire_ff in 0.0f64..20.0,
        temps in prop::collection::vec(-60.0f64..160.0, 8),
    ) {
        let stages = draws[..2 * half + 1]
            .iter()
            .map(|&(kind, wn_um, ratio)| Gate::with_ratio(kind, wn_um * 1e-6, ratio).expect("gate"))
            .collect();
        let ring = RingOscillator::from_stages(stages)
            .expect("odd ring")
            .with_wire_cap(Farads::from_femtos(wire_ff));
        for tech in technologies() {
            let model = ring.compile(&tech).expect("valid technology compiles");
            for &tc in &temps {
                let t = Celsius::new(tc);
                let want = reference_period(&ring, &tech, t);
                let got = model.period(t);
                prop_assert!(
                    same(&got, &want, |p: Seconds| p.get().to_bits()),
                    "{ring} in {} at {tc} °C: period {got:?} vs reference {want:?}",
                    tech.name
                );
                let through_ring = ring.period(&tech, t);
                prop_assert!(same(&through_ring, &want, |p: Seconds| p.get().to_bits()));
                let want_power = reference_power(&ring, &tech, t);
                let got_power = model.dynamic_power(t);
                prop_assert!(
                    same(&got_power, &want_power, |p: Watts| p.get().to_bits()),
                    "{ring} in {} at {tc} °C: power {got_power:?} vs reference {want_power:?}",
                    tech.name
                );
                for (i, gate) in ring.stages().iter().enumerate() {
                    let want = reference_delays(&ring, &tech, i, t);
                    let got = gate
                        .delays(&tech, t, ring.stage_load(&tech, i))
                        .map(|d| (d.tphl, d.tplh));
                    let pair_bits =
                        |(a, b): (Seconds, Seconds)| (a.get().to_bits(), b.get().to_bits());
                    prop_assert!(
                        same(&got, &want, pair_bits),
                        "{gate} in {} at {tc} °C: delays {got:?} vs reference {want:?}",
                        tech.name
                    );
                }
            }
        }
    }
}

#[test]
fn the_low_vdd_process_exercises_the_no_overdrive_path() {
    // Guards the property above against silently testing only the happy
    // path: a NOR4 ring at 0.8 V stalls at −60 °C and runs at 120 °C.
    let tech = technologies().pop().expect("low-VDD process");
    let gate = Gate::with_ratio(GateKind::Nor4, 1e-6, 2.0).expect("gate");
    let ring = RingOscillator::uniform(gate, 5).expect("ring");
    let model = ring.compile(&tech).expect("compiles");
    let cold = Celsius::new(-60.0);
    assert_eq!(
        model.period(cold),
        Err(ModelError::NoOverdrive { at_celsius: -60.0 })
    );
    assert_eq!(model.period(cold), reference_period(&ring, &tech, cold));
    assert!(model.period(Celsius::new(120.0)).is_ok());
}
