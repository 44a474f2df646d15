//! Scalar vs structure-of-arrays lockstep execution.
//!
//! Steps N parameter sets through the same major-loop field schedule with
//! (a) the scalar per-lane path — one `DirectTimeless` backend per lane,
//! built and driven exactly as a grid entry would be — and (b) the
//! [`SoaBatch`] lockstep kernel, at lane counts 4, 16 and 64.  The SoA
//! output is bit-identical to the scalar path (asserted in `core::soa` and
//! `tests/soa_equivalence.rs`); this bench covers the performance side and
//! prints the scalar-vs-SoA speedup at 16 lanes, the ratio the CI bench
//! gate holds below 1.
//!
//! The `fit_lanes8` row is one multi-start fitting cost call as `ja fit`
//! makes it: [`BatchObjective::costs`] over the 8 seeded starting points of
//! a measured loop, swept as a two-cycle loop at the default 50 A/m fit
//! step.  The starting points spread `a` and `k` over 16× and `α` over
//! 100×, so this row carries the mixed lanes a fit evaluates, unlike the
//! near-identical preset lanes of the other rows.

use std::time::Instant;

use criterion::{black_box, Criterion};
use hdl_models::scenario::BackendKind;
use ja_hysteresis::backend::HysteresisBackend;
use ja_hysteresis::config::JaConfig;
use ja_hysteresis::fitting::{starting_points, BatchObjective, FitOptions};
use ja_hysteresis::model::JilesAtherton;
use ja_hysteresis::soa::SoaBatch;
use magnetics::bh::BhCurve;
use magnetics::loop_analysis::loop_metrics;
use magnetics::material::JaParameters;
use magnetics::units::Magnetisation;
use waveform::schedule::FieldSchedule;

const LANE_COUNTS: [usize; 3] = [4, 16, 64];

fn schedule() -> FieldSchedule {
    FieldSchedule::major_loop(10_000.0, 50.0, 2).expect("schedule")
}

/// Deterministic lane materials: the four presets, each nudged per lane so
/// no two lanes are identical (the grid/fitting workloads this models never
/// repeat a parameter set either).
fn lane_materials(lanes: usize) -> Vec<JaParameters> {
    let presets = [
        JaParameters::date2006(),
        JaParameters::jiles_atherton_1984(),
        JaParameters::soft_ferrite(),
        JaParameters::hard_steel(),
    ];
    (0..lanes)
        .map(|lane| {
            let mut params = presets[lane % presets.len()];
            let scale = 1.0 + 0.01 * (lane / presets.len()) as f64;
            params.m_sat = Magnetisation::new(params.m_sat.value() * scale);
            params.k *= scale;
            params
        })
        .collect()
}

/// The scalar grid path: one boxed backend per lane, one schedule sweep each.
fn run_scalar(materials: &[JaParameters], schedule: &FieldSchedule) -> Vec<BhCurve> {
    materials
        .iter()
        .map(|&params| {
            let mut backend = BackendKind::DirectTimeless
                .build(params, JaConfig::default())
                .expect("backend");
            backend.run_schedule(schedule).expect("sweep")
        })
        .collect()
}

/// The lockstep path: all lanes advanced through the shared sample sequence.
fn run_soa(
    batch: &mut SoaBatch,
    materials: &[JaParameters],
    samples: &[f64],
    curves: &mut Vec<BhCurve>,
) {
    batch.assign(materials);
    curves.resize_with(materials.len(), BhCurve::new);
    batch.run_samples_into_curves(samples, curves);
}

/// The fitting objective of a measured date2006 major loop and the 8
/// starting points (seed 42) a multi-start fit of it evaluates first.
fn fit_objective() -> (BatchObjective, Vec<JaParameters>) {
    let mut model = JilesAtherton::new(JaParameters::date2006()).expect("model");
    let measured = model.run_schedule(&schedule()).expect("sweep");
    let target = loop_metrics(&measured).expect("closed loop");
    let starts = starting_points(&target, 8, 42).expect("starts");
    let objective =
        BatchObjective::from_target(target, 10_000.0, &FitOptions::default()).expect("objective");
    (objective, starts)
}

fn print_speedup_line() {
    let schedule = schedule();
    let samples = schedule.to_samples();
    let materials = lane_materials(16);
    let mut batch = SoaBatch::new(JaConfig::default()).expect("batch");
    let mut curves = Vec::new();

    let time = |mut run: Box<dyn FnMut()>| {
        // One warm-up, then the median of 5 timed repetitions.
        run();
        let mut times: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };

    let scalar = time(Box::new(|| {
        black_box(run_scalar(&materials, &schedule));
    }));
    let soa = time(Box::new(|| {
        run_soa(&mut batch, &materials, &samples, &mut curves);
        black_box(&curves);
    }));
    println!("== soa lockstep: 16 lanes, major loop ±10 kA/m ==");
    println!(
        "scalar {:.2} ms, soa(f64) {:.2} ms -> scalar-vs-SoA speedup {:.2}x at 16 lanes\n",
        scalar * 1e3,
        soa * 1e3,
        scalar / soa
    );
}

fn benches(c: &mut Criterion) {
    let schedule = schedule();
    let samples = schedule.to_samples();
    let mut group = c.benchmark_group("soa_lockstep");
    group.sample_size(10);
    for lanes in LANE_COUNTS {
        let materials = lane_materials(lanes);
        group.bench_function(format!("scalar_lanes{lanes}"), |b| {
            b.iter(|| black_box(run_scalar(&materials, &schedule)))
        });
        let mut batch = SoaBatch::new(JaConfig::default()).expect("batch");
        let mut curves = Vec::new();
        group.bench_function(format!("soa_f64_lanes{lanes}"), |b| {
            b.iter(|| {
                run_soa(&mut batch, &materials, &samples, &mut curves);
                black_box(&curves);
            })
        });
    }
    let (mut objective, starts) = fit_objective();
    group.bench_function("fit_lanes8", |b| {
        b.iter(|| {
            black_box(objective.costs(&starts));
        })
    });
    group.finish();
}

fn main() {
    print_speedup_line();
    let mut criterion = Criterion::default().configure_from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
