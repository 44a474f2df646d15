//! Determinism of the streaming NDJSON path: the byte stream written by
//! `report::write_ndjson_batch` must be identical across 1/2/8 worker
//! counts, and an interrupted run resumed from its checkpoint must
//! reproduce the uninterrupted bytes exactly — including the final
//! manifest line and its entries digest.  A thermal grid whose lockstep
//! groups are strided covers the SoA routing modes on the same path.

use std::io::{self, Write};

use ja_repro::hdl_models::exec::{BatchRunner, SoaRouting};
use ja_repro::hdl_models::report::{grid_digest, write_ndjson_batch, StreamCheckpoint};
use ja_repro::hdl_models::scenario::{
    BackendKind, Excitation, OperatingPoint, Scenario, ScenarioGrid,
};
use ja_repro::ja_hysteresis::config::JaConfig;
use ja_repro::ja_hysteresis::json::{JsonValue, StreamDigest};
use ja_repro::magnetics::geometry::CoreGeometry;
use ja_repro::magnetics::material::JaParameters;
use ja_repro::magnetics::thermal::ThermalCoefficients;

fn grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .backends(BackendKind::ALL)
        .config("dh10", JaConfig::default())
        .config("dh25", JaConfig::default().with_dh_max(25.0))
        .excitation("fig1", Excitation::fig1(500.0).expect("excitation"))
        .excitation(
            "major",
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        )
}

fn stream_with_workers(workers: usize) -> (Vec<u8>, StreamCheckpoint) {
    let scenarios = grid().scenarios().expect("non-empty grid");
    let runner = BatchRunner::new().workers(workers);
    let mut bytes = Vec::new();
    let state = write_ndjson_batch(&runner, &scenarios, None, &mut bytes, |_, _| Ok(()))
        .expect("in-memory stream cannot fail");
    (bytes, state)
}

#[test]
fn ndjson_stream_is_byte_identical_across_worker_counts() {
    let (reference, state) = stream_with_workers(1);
    assert_eq!(state.entries, 16); // 4 backends x 2 configs x 2 excitations
    assert_eq!(state.failed, 0);

    let text = String::from_utf8(reference.clone()).expect("NDJSON is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 17, "16 records + 1 manifest line");
    for (index, line) in lines[..16].iter().enumerate() {
        let record = JsonValue::parse(line).expect("record parses");
        assert_eq!(
            record.get("index").and_then(JsonValue::as_i64),
            Some(index as i64),
            "records are emitted in grid order"
        );
    }
    let manifest = JsonValue::parse(lines[16]).expect("manifest parses");
    assert_eq!(
        manifest.get("kind").and_then(JsonValue::as_str),
        Some("batch_manifest")
    );
    assert_eq!(
        manifest.get("scenarios").and_then(JsonValue::as_i64),
        Some(16)
    );
    assert_eq!(
        manifest
            .get("entries_digest")
            .and_then(JsonValue::as_str)
            .map(str::to_owned),
        Some(format!("{:032x}", state.digest_state))
    );

    for workers in [2, 8] {
        let (bytes, _) = stream_with_workers(workers);
        assert_eq!(
            bytes, reference,
            "{workers}-worker NDJSON stream diverged from the single-worker stream"
        );
    }
}

#[test]
fn interrupted_and_resumed_stream_is_byte_identical_to_uninterrupted() {
    let (reference, _) = stream_with_workers(2);
    let scenarios = grid().scenarios().expect("non-empty grid");

    // Interrupt after the fifth record, with the last durable checkpoint
    // taken at the third — exactly the window a crash leaves behind.
    let mut bytes = Vec::new();
    let mut durable: Option<StreamCheckpoint> = None;
    let runner = BatchRunner::new().workers(2);
    let result = write_ndjson_batch(&runner, &scenarios, None, &mut bytes, |state, _| {
        if state.entries == 3 {
            durable = Some(*state);
        }
        if state.entries == 5 {
            return Err(io::Error::other("simulated crash"));
        }
        Ok(())
    });
    assert!(result.is_err(), "the interrupt must surface");
    let checkpoint = durable.expect("checkpoint was taken");
    assert_eq!(checkpoint.entries, 3);

    // The resume protocol: truncate to the checkpointed offset (the CLI's
    // `set_len`), discarding the two records — and any torn tail — that
    // landed after the checkpoint.
    bytes.truncate(checkpoint.byte_offset as usize);
    write!(bytes, "{{\"index\":99,\"scen").expect("vec write");
    bytes.truncate(checkpoint.byte_offset as usize);

    let resumed_state = write_ndjson_batch(
        &runner,
        &scenarios,
        Some(&checkpoint),
        &mut bytes,
        |_, _| Ok(()),
    )
    .expect("resume succeeds");
    assert_eq!(resumed_state.entries, scenarios.len());
    assert_eq!(
        bytes, reference,
        "resumed stream diverged from the uninterrupted stream"
    );
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_grid() {
    let (_, finished) = stream_with_workers(1);
    let other = ScenarioGrid::new()
        .backend(BackendKind::DirectTimeless)
        .config("dh10", JaConfig::default())
        .excitation("fig1", Excitation::fig1(500.0).expect("excitation"))
        .scenarios()
        .expect("non-empty grid");
    let runner = BatchRunner::new().workers(1);
    let mut bytes = Vec::new();
    let err = write_ndjson_batch(&runner, &other, Some(&finished), &mut bytes, |_, _| Ok(()))
        .expect_err("grid mismatch must be rejected");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(bytes.is_empty(), "nothing may be written on a refusal");
}

/// The thermal loss grid of `tests/batch_determinism.rs` over all four
/// material presets.  The operating point is the innermost grid axis, so
/// each lockstep group — the four materials of one (config, excitation,
/// operating point) cell — is strided: members `i, i+3, i+6, i+9`.
fn thermal_grid() -> ScenarioGrid {
    let mut grid = ScenarioGrid::new()
        .material_with_thermal(
            "date2006",
            JaParameters::date2006(),
            ThermalCoefficients::date2006(),
        )
        .material_with_thermal(
            "ja1984",
            JaParameters::jiles_atherton_1984(),
            ThermalCoefficients::jiles_atherton_1984(),
        )
        .material_with_thermal(
            "soft-ferrite",
            JaParameters::soft_ferrite(),
            ThermalCoefficients::soft_ferrite(),
        )
        .material_with_thermal(
            "hard-steel",
            JaParameters::hard_steel(),
            ThermalCoefficients::hard_steel(),
        )
        .backend(BackendKind::DirectTimeless)
        .config("dh10", JaConfig::default())
        .excitation(
            "major",
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        );
    for t_c in [-40.0, 25.0, 125.0] {
        grid = grid.operating_point(
            format!("t{t_c}"),
            OperatingPoint::at_temperature(t_c)
                .with_frequency(50.0)
                .with_geometry(CoreGeometry::demo()),
        );
    }
    grid
}

/// Streams `scenarios` from `resume` on, returning the bytes and every
/// checkpoint state the writer reported.
fn stream(
    runner: &BatchRunner,
    scenarios: &[Scenario],
    resume: Option<&StreamCheckpoint>,
    mut bytes: Vec<u8>,
) -> (Vec<u8>, Vec<StreamCheckpoint>) {
    let mut states = Vec::new();
    write_ndjson_batch(runner, scenarios, resume, &mut bytes, |state, _| {
        states.push(*state);
        Ok(())
    })
    .expect("in-memory stream cannot fail");
    (bytes, states)
}

#[test]
fn strided_lockstep_stream_is_byte_identical_across_workers_routing_and_resume() {
    let scenarios = thermal_grid().scenarios().expect("non-empty grid");
    assert_eq!(scenarios.len(), 12); // 4 materials x 3 operating points
    let scalar = BatchRunner::new()
        .workers(1)
        .soa_routing(SoaRouting::ForceScalar);
    let (reference, states) = stream(&scalar, &scenarios, None, Vec::new());
    assert_eq!(states.len(), scenarios.len());
    assert_eq!(states[scenarios.len() - 1].failed, 0);
    // Auto routing really runs the grid as strided four-lane groups.
    let auto = BatchRunner::new().workers(2).run(scenarios.clone());
    for entry in &auto.entries {
        let outcome = entry.outcome.as_ref().expect("ok");
        assert_eq!(outcome.lockstep_lanes, Some(4), "{}", entry.scenario.name);
    }

    // Every skip a resume can start from, including the mid-group ones.
    let mut checkpoints = vec![StreamCheckpoint {
        grid_digest: grid_digest(&scenarios),
        entries: 0,
        byte_offset: 0,
        succeeded: 0,
        failed: 0,
        digest_state: StreamDigest::new().state(),
    }];
    checkpoints.extend(states);

    for routing in [
        SoaRouting::Auto,
        SoaRouting::ForceSoa,
        SoaRouting::ForceScalar,
    ] {
        for workers in [1, 2, 8] {
            let runner = BatchRunner::new().workers(workers).soa_routing(routing);
            let (bytes, _) = stream(&runner, &scenarios, None, Vec::new());
            assert_eq!(
                bytes, reference,
                "{routing:?} stream at {workers} workers diverged from the scalar stream"
            );
            for checkpoint in &checkpoints {
                let head = reference[..checkpoint.byte_offset as usize].to_vec();
                let (resumed, _) = stream(&runner, &scenarios, Some(checkpoint), head);
                assert_eq!(
                    resumed, reference,
                    "{routing:?} resume at entry {} with {workers} workers diverged",
                    checkpoint.entries
                );
            }
        }
    }
}
