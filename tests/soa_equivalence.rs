//! Cross-crate equivalence tests of the structure-of-arrays lockstep
//! batch (`ja_hysteresis::soa`): every lane must be **bit-identical** to a
//! scalar [`JilesAtherton`] run of the same parameters, configuration and
//! samples — its curve, its error and its statistics — whether the batch
//! takes the lockstep kernel or the per-lane path.

use ja_repro::ja_hysteresis::backend::HysteresisBackend;
use ja_repro::ja_hysteresis::config::{Formulation, JaConfig, SlopeIntegration};
use ja_repro::ja_hysteresis::error::JaError;
use ja_repro::ja_hysteresis::model::{JaStatistics, JilesAtherton};
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

/// One scalar run as the batch reports a lane: the curve up to the first
/// error, that error, and the model's statistics.
struct ScalarLane {
    curve: BhCurve,
    error: Option<JaError>,
    stats: JaStatistics,
}

fn scalar_lane(model: &mut JilesAtherton, samples: &[f64]) -> ScalarLane {
    let mut curve = BhCurve::new();
    let error = model.run_samples_into(samples, &mut curve).err();
    ScalarLane {
        curve,
        error,
        stats: model.statistics(),
    }
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

/// A lane with a vanishing pinning coefficient and no mean-field coupling:
/// its irreversible slope is ~10¹² larger than a physical one.  With the
/// guards off every reversal multiplies `m_irr` by ~10¹⁴ until it
/// overflows and the lane diverges mid-run; with the guards on it stays
/// finite but far from physical.  Either way it must match the scalar
/// model bit for bit without disturbing its neighbours.
fn runaway_material() -> JaParameters {
    JaParameters::builder()
        .k(1.0e-12)
        .alpha(0.0)
        .build()
        .expect("positive k and zero alpha are valid")
}

/// Every anhysteretic law: the two arctangent laws run the lockstep
/// kernel, the classic Langevin runs the per-lane path.
const LAWS: [AnhystereticChoice; 3] = [
    AnhystereticChoice::ModifiedLangevin,
    AnhystereticChoice::DoubleArctan,
    AnhystereticChoice::Langevin,
];

/// Forward Euler twice, so half the cases stay on the lockstep kernel;
/// Heun and RK4 run the per-lane path.
const METHODS: [SlopeIntegration; 4] = [
    SlopeIntegration::ForwardEuler,
    SlopeIntegration::ForwardEuler,
    SlopeIntegration::Heun,
    SlopeIntegration::RungeKutta4,
];

/// The excitation shapes the workspace exercises everywhere — the paper's
/// Fig. 1 double cycle, a plain major loop, a biased minor loop — plus two
/// cycles of a sampled sinusoid.  The sinusoid's samples are irregular
/// floats whose zero crossings jump from a tiny to a large field, where
/// `h_last + (h − h_last)` rounds away from `h`: the slope must be
/// evaluated at the former, as the scalar sub-step does.
fn samples(kind: usize, peak: f64, step: f64) -> Vec<f64> {
    let schedule = match kind {
        0 => FieldSchedule::major_loop(peak, step, 2),
        1 => FieldSchedule::nested_minor_loops(peak, &[peak / 2.0, peak / 5.0], step),
        2 => FieldSchedule::biased_minor_loop(peak / 4.0, peak / 8.0, 2, step),
        _ => {
            let per_cycle = (4.0 * peak / step).ceil();
            return (0..2 * per_cycle as usize)
                .map(|i| peak * (std::f64::consts::TAU * i as f64 / per_cycle).sin())
                .collect();
        }
    };
    schedule.expect("schedule").to_samples()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lanes are bitwise equal to the scalar model — curves, errors and
    /// statistics, over two consecutive runs — for random materials plus
    /// an uncoupled and a runaway lane, every anhysteretic law, both formulations, each
    /// guard on and off, every integration method with and without
    /// subdivision, and `ΔH_max` above and below the sample step (so some
    /// samples are gated off).
    #[test]
    fn f64_lanes_are_bit_identical_to_scalar(
        materials in proptest::collection::vec(arbitrary_material(), 2..6),
        law in 0usize..3,
        kind in 0usize..4,
        peak in 2_000.0_f64..30_000.0,
        step in 25.0_f64..250.0,
        dh_ratio in 0.3_f64..2.5,
        formulation in 0usize..2,
        guards in 0usize..4,
        method in 0usize..4,
        subdivide in 0usize..2,
    ) {
        let mut config = JaConfig::default()
            .with_anhysteretic(LAWS[law])
            .with_dh_max(step * dh_ratio)
            .with_integration(METHODS[method])
            .with_formulation([Formulation::Date2006, Formulation::Classic][formulation]);
        config.clamp_negative_slope = guards & 1 == 0;
        config.reject_opposing_update = guards & 2 == 0;
        config.subdivide_increment = subdivide == 1;
        let samples = samples(kind, peak, step);
        let mut materials = materials;
        // Without mean-field coupling `H_e` is the evaluation field itself,
        // so its last bit reaches the anhysteretic.
        let mut uncoupled = materials[0];
        uncoupled.alpha = 0.0;
        materials.push(uncoupled);
        materials.insert(1, runaway_material());

        let mut batch = SoaBatch::new(config).expect("config");
        batch.assign(&materials);
        let mut models: Vec<JilesAtherton> = materials
            .iter()
            .map(|&params| JilesAtherton::with_config(params, config).expect("valid material"))
            .collect();
        let mut curves = vec![BhCurve::new(); materials.len()];
        // The second run continues from the first run's state and
        // statistics, exactly like a scalar model fed more samples.
        for run in 0..2 {
            batch.run_samples_into_curves(&samples, &mut curves);
            for (lane, (model, curve)) in models.iter_mut().zip(&curves).enumerate() {
                if run == 1 && batch.lane_error(lane).is_some() {
                    continue;
                }
                let label = format!("run {run} lane {lane} {config:?} kind {kind}");
                let scalar = scalar_lane(model, &samples);
                prop_assert_eq!(batch.lane_error(lane), scalar.error.as_ref(), "{}", label);
                assert_curves_bit_identical(curve, &scalar.curve, &label);
                prop_assert_eq!(batch.lane_statistics(lane), scalar.stats, "{}", label);
            }
        }
    }
}

#[test]
fn a_lane_that_diverges_mid_run_leaves_its_neighbours_bit_identical() {
    // Without the guards the runaway lane overflows part-way through the
    // Fig. 1 double cycle, on the lockstep kernel, beside healthy lanes.
    let config = JaConfig::default().without_guards();
    let materials = [
        JaParameters::date2006(),
        runaway_material(),
        JaParameters::hard_steel(),
    ];
    let samples = FieldSchedule::major_loop(10_000.0, 100.0, 2)
        .expect("schedule")
        .to_samples();

    let mut batch = SoaBatch::new(config).expect("config");
    batch.assign(&materials);
    let mut curves = vec![BhCurve::new(); materials.len()];
    batch.run_samples_into_curves(&samples, &mut curves);

    assert!(matches!(
        batch.lane_error(1),
        Some(JaError::StateDiverged { .. })
    ));
    assert!(!curves[1].is_empty() && curves[1].len() < samples.len());
    for (lane, &params) in materials.iter().enumerate() {
        let mut model = JilesAtherton::with_config(params, config).expect("valid material");
        let scalar = scalar_lane(&mut model, &samples);
        assert_eq!(batch.lane_error(lane), scalar.error.as_ref(), "lane {lane}");
        assert_curves_bit_identical(&curves[lane], &scalar.curve, &format!("lane {lane}"));
        assert_eq!(batch.lane_statistics(lane), scalar.stats, "lane {lane}");
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
