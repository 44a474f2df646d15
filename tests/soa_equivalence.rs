//! Cross-crate equivalence tests of the structure-of-arrays lockstep
//! kernel (`ja_hysteresis::soa`): every lane must be **bit-identical** to
//! a scalar [`JilesAtherton`] run of the same parameters, configuration
//! and samples.

use ja_repro::ja_hysteresis::backend::HysteresisBackend;
use ja_repro::ja_hysteresis::config::JaConfig;
use ja_repro::ja_hysteresis::model::JilesAtherton;
use ja_repro::ja_hysteresis::params::AnhystereticChoice;
use ja_repro::ja_hysteresis::soa::SoaBatch;
use ja_repro::magnetics::bh::BhCurve;
use ja_repro::magnetics::material::JaParameters;
use ja_repro::magnetics::units::Magnetisation;
use ja_repro::waveform::schedule::FieldSchedule;
use proptest::prelude::*;

/// The scalar reference: one model object walking the same samples.
fn scalar_curve(params: JaParameters, config: JaConfig, samples: &[f64]) -> BhCurve {
    let mut model = JilesAtherton::with_config(params, config).expect("valid material");
    model.run_samples(samples).expect("scalar sweep")
}

fn assert_curves_bit_identical(soa: &BhCurve, scalar: &BhCurve, label: &str) {
    assert_eq!(soa.len(), scalar.len(), "{label}: sample count");
    for (i, (p, q)) in soa.points().iter().zip(scalar.points()).enumerate() {
        assert_eq!(
            p.h.value().to_bits(),
            q.h.value().to_bits(),
            "{label}: H at sample {i}"
        );
        assert_eq!(
            p.b.as_tesla().to_bits(),
            q.b.as_tesla().to_bits(),
            "{label}: B at sample {i}"
        );
        assert_eq!(
            p.m.value().to_bits(),
            q.m.value().to_bits(),
            "{label}: M at sample {i}"
        );
    }
}

fn arbitrary_material() -> impl Strategy<Value = JaParameters> {
    (
        5.0e5_f64..2.0e6,    // m_sat
        200.0_f64..5_000.0,  // a
        500.0_f64..20_000.0, // k
        1.0e-4_f64..5.0e-3,  // alpha
        0.01_f64..0.8,       // c
    )
        .prop_map(|(m_sat, a, k, alpha, c)| {
            JaParameters::builder()
                .m_sat(Magnetisation::new(m_sat))
                .a(a)
                .a2(a * 1.75)
                .k(k)
                .alpha(alpha)
                .c(c)
                .build()
                .expect("generated parameters are in range")
        })
}

/// Every anhysteretic law: the two arctangent laws run the lockstep
/// kernel, the classic Langevin runs the per-lane fallback.
const LAWS: [AnhystereticChoice; 3] = [
    AnhystereticChoice::ModifiedLangevin,
    AnhystereticChoice::DoubleArctan,
    AnhystereticChoice::Langevin,
];

/// The excitation shapes the workspace exercises everywhere: the paper's
/// Fig. 1 double cycle, a plain major loop, and a biased minor loop.
fn schedule(kind: usize, peak: f64, step: f64) -> FieldSchedule {
    match kind {
        0 => FieldSchedule::major_loop(peak, step, 2).expect("schedule"),
        1 => FieldSchedule::nested_minor_loops(peak, &[peak / 2.0, peak / 5.0], step)
            .expect("schedule"),
        _ => FieldSchedule::biased_minor_loop(peak / 4.0, peak / 8.0, 2, step).expect("schedule"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// f64 lanes are bitwise equal to the scalar model, for random
    /// materials, every anhysteretic law and every schedule shape.
    #[test]
    fn f64_lanes_are_bit_identical_to_scalar(
        materials in proptest::collection::vec(arbitrary_material(), 2..6),
        law in 0usize..3,
        kind in 0usize..3,
        peak in 2_000.0_f64..30_000.0,
        step in 25.0_f64..250.0,
    ) {
        let config = JaConfig::default().with_anhysteretic(LAWS[law]);
        let samples = schedule(kind, peak, step).to_samples();

        let mut batch = SoaBatch::new(config).expect("config");
        batch.assign(&materials);
        let mut curves = vec![BhCurve::new(); materials.len()];
        batch.run_samples_into_curves(&samples, &mut curves);

        for (lane, (params, curve)) in materials.iter().zip(&curves).enumerate() {
            prop_assert!(batch.lane_error(lane).is_none());
            let scalar = scalar_curve(*params, config, &samples);
            assert_curves_bit_identical(curve, &scalar, &format!("lane {lane} law {law} kind {kind}"));
        }
    }
}

#[test]
fn thermally_derived_parameters_stay_bit_identical_in_lockstep() {
    // The operating-point pipeline derives per-temperature parameters with
    // `JaParameters::at_temperature` and hands them to the SoA kernel like
    // any other material: the lanes must stay bitwise equal to a scalar
    // model constructed from the same derived parameters.
    use ja_repro::magnetics::thermal::ThermalCoefficients;

    let thermal = ThermalCoefficients::date2006();
    let materials: Vec<JaParameters> = [-40.0, 25.0, 125.0]
        .iter()
        .map(|&t_c| {
            JaParameters::date2006()
                .at_temperature(t_c, &thermal)
                .expect("temperature is below the Curie point")
        })
        .collect();
    let samples = FieldSchedule::major_loop(10_000.0, 100.0, 2)
        .expect("schedule")
        .to_samples();
    let config = JaConfig::default();

    let mut batch = SoaBatch::new(config).expect("config");
    batch.assign(&materials);
    let mut curves = vec![BhCurve::new(); materials.len()];
    batch.run_samples_into_curves(&samples, &mut curves);

    for (lane, (params, curve)) in materials.iter().zip(&curves).enumerate() {
        assert!(batch.lane_error(lane).is_none());
        let scalar = scalar_curve(*params, config, &samples);
        assert_curves_bit_identical(curve, &scalar, &format!("thermal lane {lane}"));
    }
    // And the derivation is not a no-op: the hot lane's loop differs from
    // the cold lane's.
    assert_ne!(
        curves[0]
            .points()
            .iter()
            .map(|p| p.b.as_tesla().to_bits())
            .collect::<Vec<_>>(),
        curves[2]
            .points()
            .iter()
            .map(|p| p.b.as_tesla().to_bits())
            .collect::<Vec<_>>(),
    );
}

#[test]
fn a_failing_lane_does_not_disturb_its_neighbours() {
    let mut bad = JaParameters::date2006();
    bad.k = -1.0;
    let materials = [JaParameters::date2006(), bad, JaParameters::hard_steel()];
    let samples = FieldSchedule::major_loop(10_000.0, 100.0, 2)
        .expect("schedule")
        .to_samples();
    let config = JaConfig::default();

    let mut batch = SoaBatch::new(config).expect("config");
    batch.assign(&materials);
    let mut curves = vec![BhCurve::new(); materials.len()];
    batch.run_samples_into_curves(&samples, &mut curves);

    assert!(batch.lane_error(0).is_none());
    assert!(batch.lane_error(1).is_some());
    assert!(batch.lane_error(2).is_none());
    for lane in [0, 2] {
        let scalar = scalar_curve(materials[lane], config, &samples);
        assert_curves_bit_identical(&curves[lane], &scalar, &format!("lane {lane}"));
    }
}
