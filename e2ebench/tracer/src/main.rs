//! Traced replay of the e2ebench workloads.
//!
//! Drives the library crates' public functions the way `ja batch`, `ja fit`
//! and `ja serve` do, with a span around each call, and writes the
//! spans and deterministic counters as JSON for `e2ebench/traced.py`.
//!
//! ```text
//! e2e-tracer JOB.json path    # replay the workload's offline ja job(s)
//! e2e-tracer JOB.json extra   # A/B rows, re-measured helpers, serve replay
//! ```
//!
//! The replay writes the same bytes as the `ja` invocation it stands for;
//! the benchmark compares them, so a replay that drifted from the CLI is
//! caught rather than measured.
//!
//! Span groups: `path` spans are the replayed job itself (their top level
//! is what the coverage figure adds up); `probe` spans re-time a helper the
//! path runs inside its workers (loop metrics, losses, sample flattening);
//! `ab` spans are the routing A/B runs; `serve` spans are one replayed
//! request each, tagged with its request id.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::time::Instant;

use hdl_models::exec::{BatchRunner, SoaRouting};
use hdl_models::fit::{fit_batch, FitJob, MultiStartOptions};
use hdl_models::report::{
    batch_report_value, fit_report_value, grid_digest, ndjson_manifest, ndjson_record,
    outcome_value, report_envelope, StreamCheckpoint,
};
use hdl_models::scenario::{
    BackendKind, CircuitExcitation, Excitation, OperatingPoint, Scenario, ScenarioGrid,
    ScenarioOutcome, SourceWaveform, StepControl,
};
use hdl_models::serve::{HttpResponse, ResultCache};
use ja_hysteresis::config::JaConfig;
use ja_hysteresis::fitting::FitOptions;
use ja_hysteresis::json::{content_hash, JsonValue, StreamDigest};
use magnetics::bh::{BhCurve, BhPoint};
use magnetics::geometry::CoreGeometry;
use magnetics::loop_analysis::loop_metrics;
use magnetics::losses::{core_loss, LaminationSpec};
use magnetics::material::JaParameters;
use magnetics::thermal::ThermalCoefficients;
use waveform::export::read_csv;

type Result<T> = std::result::Result<T, String>;

// ------------------------------------------------------------------ spans

struct Span {
    name: String,
    group: &'static str,
    parent: Option<usize>,
    request: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span recorder; everything is written out once at the end.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> u128 {
        self.epoch.elapsed().as_nanos()
    }

    fn begin(&mut self, name: &str, group: &'static str, request: Option<usize>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            group,
            parent: self.open.last().copied(),
            request,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    fn span<T>(&mut self, name: &str, group: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.begin(name, group, None);
        let out = f(self);
        self.end(id);
        out
    }

    /// Records a span whose interval was measured elsewhere (inside a
    /// callback that cannot borrow the tracer).
    fn record(&mut self, name: &str, group: &'static str, start_ns: u128, end_ns: u128) {
        self.spans.push(Span {
            name: name.to_owned(),
            group,
            parent: self.open.last().copied(),
            request: None,
            start_ns,
            end_ns,
        });
    }

    fn add(&mut self, name: &str, value: f64) {
        add(&mut self.counts, name, value);
    }

    fn to_json(&self) -> JsonValue {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut obj = JsonValue::object()
                    .with("id", id)
                    .with("name", s.name.as_str())
                    .with("group", s.group)
                    .with("parent", s.parent.map_or(JsonValue::Null, JsonValue::from))
                    .with("start", s.start_ns as f64 * 1e-9)
                    .with("end", s.end_ns as f64 * 1e-9);
                if let Some(request) = s.request {
                    obj.push("request", request);
                }
                obj
            })
            .collect::<Vec<_>>();
        let mut counts = JsonValue::object();
        for (name, value) in &self.counts {
            counts.push(name.as_str(), *value);
        }
        JsonValue::object()
            .with("spans", JsonValue::Array(spans))
            .with("counts", counts)
    }
}

/// A `Write` wrapper that records every interval spent inside the inner
/// writer (the `report.write` spans).
struct TimedWrite<W> {
    inner: W,
    epoch: Instant,
    intervals: Vec<(u128, u128)>,
}

impl<W: Write> TimedWrite<W> {
    fn new(inner: W, epoch: Instant) -> Self {
        Self {
            inner,
            epoch,
            intervals: Vec::new(),
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut W) -> io::Result<T>) -> io::Result<T> {
        let start = self.epoch.elapsed().as_nanos();
        let out = f(&mut self.inner);
        self.intervals
            .push((start, self.epoch.elapsed().as_nanos()));
        out
    }
}

impl<W: Write> Write for TimedWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.timed(|w| w.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.timed(Write::flush)
    }
}

// ------------------------------------------------- job document → library

fn field<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a JsonValue> {
    doc.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn num(doc: &JsonValue, key: &str) -> Result<f64> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

fn opt_num(doc: &JsonValue, key: &str) -> Result<Option<f64>> {
    doc.get(key).map(|_| num(doc, key)).transpose()
}

fn text<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a str> {
    field(doc, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn items<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key).and_then(JsonValue::as_array).unwrap_or(&[])
}

fn material(name: &str) -> Result<(JaParameters, ThermalCoefficients)> {
    Ok(match name {
        "date2006" => (JaParameters::date2006(), ThermalCoefficients::date2006()),
        "ja1984" => (
            JaParameters::jiles_atherton_1984(),
            ThermalCoefficients::jiles_atherton_1984(),
        ),
        "soft-ferrite" => (
            JaParameters::soft_ferrite(),
            ThermalCoefficients::soft_ferrite(),
        ),
        "hard-steel" => (
            JaParameters::hard_steel(),
            ThermalCoefficients::hard_steel(),
        ),
        other => return Err(format!("unknown material `{other}`")),
    })
}

fn backend(name: &str) -> Result<BackendKind> {
    Ok(match name {
        "direct" => BackendKind::DirectTimeless,
        "systemc" => BackendKind::SystemC,
        "ams" => BackendKind::AmsTimeless,
        "time-domain" => BackendKind::TimeDomainBaseline,
        other => return Err(format!("unknown backend `{other}`")),
    })
}

fn config_name(dh_max: f64) -> String {
    format!("dh{dh_max}")
}

/// An excitation object → (scenario-key name, excitation), named exactly as
/// the CLI's grid config names it.
fn excitation(doc: &JsonValue) -> Result<(String, Excitation)> {
    let err = |e: ja_hysteresis::error::JaError| e.to_string();
    Ok(match text(doc, "kind")? {
        "major" => {
            let (peak, step) = (num(doc, "peak")?, num(doc, "step")?);
            let cycles = num(doc, "cycles")? as usize;
            (
                format!("major(peak={peak},step={step},cycles={cycles})"),
                Excitation::major_loop(peak, step, cycles).map_err(err)?,
            )
        }
        "biased" => {
            let (bias, amplitude) = (num(doc, "bias")?, num(doc, "amplitude")?);
            let (cycles, step) = (num(doc, "cycles")? as usize, num(doc, "step")?);
            (
                format!("biased(bias={bias},amplitude={amplitude},cycles={cycles},step={step})"),
                Excitation::biased_minor_loop(bias, amplitude, cycles, step).map_err(err)?,
            )
        }
        "degauss" => {
            let (h_start, h_stop) = (num(doc, "h_start")?, num(doc, "h_stop")?);
            let (decay, step) = (num(doc, "decay")?, num(doc, "step")?);
            (
                format!("degauss(h_start={h_start},h_stop={h_stop},decay={decay},step={step})"),
                Excitation::demagnetisation(h_start, h_stop, decay, step).map_err(err)?,
            )
        }
        "circuit" => circuit(doc)?,
        other => return Err(format!("unknown excitation kind `{other}`")),
    })
}

fn circuit(doc: &JsonValue) -> Result<(String, Excitation)> {
    let (amplitude, frequency) = (num(doc, "amplitude")?, num(doc, "frequency")?);
    let source = match text(doc, "source")? {
        "sine" => SourceWaveform::Sine {
            amplitude,
            frequency,
        },
        "pwm" => SourceWaveform::Pwm {
            amplitude,
            frequency,
            duty: num(doc, "duty")?,
        },
        other => return Err(format!("unsupported circuit source `{other}`")),
    };
    let (r, turns) = (num(doc, "r")?, num(doc, "turns")?);
    let (area, path, t_end) = (num(doc, "area")?, num(doc, "path")?, num(doc, "t_end")?);
    let inrush = CircuitExcitation::inrush();
    let dt = opt_num(doc, "dt")?;
    let mut spec =
        CircuitExcitation::new(source, r, turns, area, path, t_end, dt.unwrap_or(inrush.dt))
            .map_err(|e| e.to_string())?;
    let control = match text(doc, "control")? {
        "adaptive" => {
            let mut options = CircuitExcitation::adaptive_defaults();
            if let Some(dt) = dt {
                options.initial_step = dt;
            }
            spec = spec.with_step_control(StepControl::Adaptive(options));
            format!(
                "adaptive(rel={},abs={},max={},init={})",
                options.rel_tol, options.abs_tol, options.max_step, options.initial_step
            )
        }
        _ => format!("fixed(dt={})", dt.unwrap_or(inrush.dt)),
    };
    let source_name = match source.duty() {
        Some(duty) => format!("pwm(amplitude={amplitude},frequency={frequency},duty={duty})"),
        None => format!(
            "{}(amplitude={amplitude},frequency={frequency})",
            source.label()
        ),
    };
    Ok((
        format!(
            "circuit({source_name},r={r},turns={turns},area={area},path={path},t_end={t_end},\
             {control})"
        ),
        Excitation::Circuit(spec),
    ))
}

/// A batch_request `grid` object → its scenario list, in the grid config's
/// axis order.
fn scenarios(grid_doc: &JsonValue) -> Result<Vec<Scenario>> {
    let mut grid = ScenarioGrid::new();
    for name in items(grid_doc, "material") {
        let name = name.as_str().ok_or("material names are strings")?;
        let (params, thermal) = material(name)?;
        grid = grid.material_with_thermal(name, params, thermal);
    }
    for name in items(grid_doc, "backend") {
        grid = grid.backends([backend(name.as_str().ok_or("backend names are strings")?)?]);
    }
    for dh in items(grid_doc, "dh_max") {
        let dh = dh.as_f64().ok_or("dh_max values are numbers")?;
        grid = grid.config(config_name(dh), JaConfig::default().with_dh_max(dh));
    }
    for exc in items(grid_doc, "excitation") {
        let (name, exc) = excitation(exc)?;
        grid = grid.excitation(name, exc);
    }
    let mut base = OperatingPoint::new();
    let geometry = grid_doc.get("geometry");
    if let Some(g) = geometry {
        let core =
            CoreGeometry::new(num(g, "area")?, num(g, "path")?).map_err(|e| e.to_string())?;
        base = base.with_geometry(core);
        if let Some(frequency) = opt_num(g, "frequency")? {
            base = base.with_frequency(frequency);
        }
        if g.get("lamination").is_some() {
            base = base.with_lamination(LaminationSpec::silicon_steel_0p35mm());
        }
    }
    let temperatures = items(grid_doc, "temperature");
    if temperatures.is_empty() && geometry.is_some() {
        grid = grid.operating_point("geom", base);
    }
    for t in temperatures {
        let t_c = t.as_f64().ok_or("temperatures are numbers")?;
        grid = grid.operating_point(format!("t{t_c}"), base.with_temperature(t_c));
    }
    grid.scenarios().map_err(|e| e.to_string())
}

/// A sweep_request-shaped document → its single scenario, named as
/// `ja sweep` names it.
fn sweep_scenario(doc: &JsonValue) -> Result<Scenario> {
    let name = text(doc, "material")?;
    let (params, _) = material(name)?;
    let kind = backend(text(doc, "backend")?)?;
    let dh = num(doc, "dh_max")?;
    let (exc_name, exc) = excitation(field(doc, "excitation")?)?;
    Ok(Scenario::new(
        format!("{exc_name}/{}/{}/{name}", kind.label(), config_name(dh)),
        params,
        JaConfig::default().with_dh_max(dh),
        kind,
        exc,
    ))
}

fn sweep_report(outcome: &ScenarioOutcome) -> String {
    let mut doc = report_envelope("sweep");
    if let JsonValue::Object(fields) = outcome_value(outcome, false) {
        for (key, value) in fields {
            doc.push(key, value);
        }
    }
    doc.to_pretty_string()
}

// ------------------------------------------------------------- counters

fn add(counts: &mut BTreeMap<String, f64>, name: &str, value: f64) {
    *counts.entry(name.to_owned()).or_insert(0.0) += value;
}

/// Folds the deterministic per-entry counters of a finished outcome into the
/// layer counts (the same fields `ja batch --timings` reports).
fn count_outcome(counts: &mut BTreeMap<String, f64>, outcome: &ScenarioOutcome) {
    let layer = match outcome.backend {
        BackendKind::DirectTimeless => "core",
        BackendKind::SystemC => "hdl-kernel",
        BackendKind::AmsTimeless => "ams",
        BackendKind::TimeDomainBaseline => "time-domain",
    };
    let runtime = outcome.runtime.as_secs_f64();
    add(counts, &format!("{layer}.step_s"), runtime);
    add(
        counts,
        &format!("{layer}.samples"),
        outcome.stats.samples as f64,
    );
    add(
        counts,
        &format!("{layer}.slope_evaluations"),
        outcome.stats.slope_evaluations as f64,
    );
    add(
        counts,
        &format!("{layer}.rejected_updates"),
        outcome.stats.rejected_updates as f64,
    );
    add(counts, "exec.entries", 1.0);
    add(counts, "exec.runtime_s", runtime);
    if outcome.lockstep_lanes.is_some() {
        add(counts, "exec.lockstep_entries", 1.0);
    }
    if let Some(kernel) = &outcome.kernel {
        add(
            counts,
            "hdl-kernel.delta_cycles",
            kernel.delta_cycles as f64,
        );
        add(
            counts,
            "hdl-kernel.events_scheduled",
            kernel.events_scheduled as f64,
        );
        add(
            counts,
            "hdl-kernel.process_activations",
            kernel.process_activations as f64,
        );
    }
    if let Some(tr) = &outcome.transient {
        add(counts, "analog.step_s", runtime);
        add(counts, "analog.accepted_steps", tr.accepted_steps as f64);
        add(counts, "analog.rejected_steps", tr.rejected_steps as f64);
        add(
            counts,
            "analog.newton_iterations",
            tr.newton_iterations as f64,
        );
        add(counts, "analog.lu_solves", tr.lu_solves as f64);
        add(
            counts,
            "analog.non_converged_steps",
            tr.non_converged_steps as f64,
        );
    }
    add(counts, "magnetics.curves", 1.0);
    add(
        counts,
        "report.curve_bytes_held",
        (outcome.curve.len() * std::mem::size_of::<BhPoint>()) as f64,
    );
}

// ------------------------------------------------------------ path jobs

/// Server-side knobs of the replayed service.
struct Ctx {
    eval_workers: usize,
}

/// The worker count of a path step (`--workers` of the ja invocation).
fn workers(step: &JsonValue) -> Result<usize> {
    Ok(num(step, "workers")? as usize)
}

fn runner(workers: usize, routing: SoaRouting) -> BatchRunner {
    BatchRunner::new().workers(workers).soa_routing(routing)
}

fn write_file(t: &mut Tracer, path: &str, bytes: &[u8]) -> Result<()> {
    let mut out = TimedWrite::new(
        fs::File::create(path).map_err(|e| format!("{path}: {e}"))?,
        t.epoch,
    );
    out.write_all(bytes).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    for (start, end) in out.intervals {
        t.record("report.write", "path", start, end);
    }
    Ok(())
}

/// `ja batch --format json`: expand, run (all entries held), render, write.
fn batch_json(t: &mut Tracer, job: &JsonValue) -> Result<()> {
    let grid = field(job, "grid")?;
    let workers = workers(job)?;
    let list = t.span("scenario.expand", "path", |_| scenarios(grid))?;
    t.add("scenario.count", list.len() as f64);
    let report = t.span("exec.run", "path", |_| {
        runner(workers, SoaRouting::Auto).run(list)
    });
    for outcome in report.successes() {
        count_outcome(&mut t.counts, outcome);
    }
    let text = t.span("report.render", "path", |_| {
        batch_report_value(&report, false).to_pretty_string()
    });
    t.add("report.bytes", text.len() as f64);
    write_file(t, text_path(job)?, text.as_bytes())
}

fn text_path(job: &JsonValue) -> Result<&str> {
    text(job, "out")
}

/// `ja batch --format ndjson --output F --checkpoint-every N`, composed from
/// the public pieces of `write_ndjson_batch` so each call gets a span.
fn batch_ndjson(t: &mut Tracer, job: &JsonValue) -> Result<()> {
    let grid = field(job, "grid")?;
    let workers = workers(job)?;
    let list = t.span("scenario.expand", "path", |_| scenarios(grid))?;
    t.add("scenario.count", list.len() as f64);
    let out_path = text_path(job)?.to_owned();
    let every = num(job, "checkpoint_every")? as usize;
    let checkpoint_path = format!("{out_path}.checkpoint");
    let file = fs::File::create(&out_path).map_err(|e| e.to_string())?;
    let epoch = t.epoch;
    let mut out = TimedWrite::new(io::BufWriter::new(file), epoch);
    let mut state = StreamCheckpoint {
        grid_digest: grid_digest(&list),
        entries: 0,
        byte_offset: 0,
        succeeded: 0,
        failed: 0,
        digest_state: StreamDigest::new().state(),
    };
    let mut digest = StreamDigest::new();
    let mut inner: Vec<(&'static str, u128, u128)> = Vec::new();
    let now = || epoch.elapsed().as_nanos();
    let run_id = t.begin("exec.run_streamed", "path", None);
    let counts = &mut t.counts;
    let summary = runner(workers, SoaRouting::Auto).run_streamed(
        &list,
        0,
        |index, outcome| -> io::Result<()> {
            let a = now();
            let record = ndjson_record(index, &list[index].name, outcome);
            let b = now();
            digest.update(record.as_bytes());
            let c = now();
            inner.push(("report.record", a, b));
            inner.push(("report.digest", b, c));
            out.write_all(record.as_bytes())?;
            state.entries = index + 1;
            state.byte_offset += record.len() as u64;
            match outcome {
                Ok(o) => {
                    state.succeeded += 1;
                    count_outcome(counts, o);
                }
                Err(_) => state.failed += 1,
            }
            state.digest_state = digest.state();
            if every > 0 && state.entries % every == 0 {
                let d = now();
                out.flush()?;
                let tmp = format!("{checkpoint_path}.tmp");
                fs::write(&tmp, state.to_json().to_pretty_string())?;
                fs::rename(&tmp, &checkpoint_path)?;
                inner.push(("report.checkpoint", d, now()));
            }
            Ok(())
        },
    );
    t.end(run_id);
    summary.map_err(|e| e.to_string())?;
    let manifest = ndjson_manifest(list.len(), state.succeeded, state.failed, &digest);
    out.write_all(manifest.as_bytes())
        .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let _ = fs::remove_file(&checkpoint_path);
    let checkpoints = inner
        .iter()
        .filter(|(name, ..)| *name == "report.checkpoint")
        .count();
    t.add("report.checkpoints", checkpoints as f64);
    // Writes made by the emit callback belong to the executor span; the
    // manifest write and final flush come after it.
    let run_end = t.spans[run_id].end_ns;
    let writes = out.intervals.iter().map(|&(a, b)| ("report.write", a, b));
    for (name, start, end) in inner.into_iter().chain(writes) {
        t.spans.push(Span {
            name: name.to_owned(),
            group: "path",
            parent: (end <= run_end).then_some(run_id),
            request: None,
            start_ns: start,
            end_ns: end,
        });
    }
    t.add(
        "report.bytes",
        (state.byte_offset + manifest.len() as u64) as f64,
    );
    Ok(())
}

fn fit_jobs(t: &mut Tracer, job: &JsonValue) -> Result<Vec<FitJob>> {
    let mut jobs = Vec::new();
    for spec in items(job, "loops") {
        let path = text(spec, "path")?;
        let name = text(spec, "name")?;
        let id = t.begin("waveform.read_csv", "path", None);
        let csv = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let trace = read_csv(&csv).map_err(|e| e.to_string())?;
        let h = trace.column("h").map_err(|e| e.to_string())?;
        let b = trace.column("b").map_err(|e| e.to_string())?;
        let mut curve = BhCurve::with_capacity(h.len());
        for (&h, &b) in h.iter().zip(b) {
            curve.push_raw(h, b, 0.0);
        }
        t.end(id);
        jobs.push(FitJob::with_auto_peak(name, curve));
    }
    Ok(jobs)
}

fn fit_options(job: &JsonValue, workers: usize, routing: SoaRouting) -> Result<MultiStartOptions> {
    Ok(MultiStartOptions {
        starts: num(job, "starts")? as usize,
        seed: num(job, "seed")? as u64,
        workers,
        routing,
        fit: FitOptions::default(),
    })
}

/// `ja fit --config LIB`: read the CSVs, fit, render, write.
fn fit(t: &mut Tracer, job: &JsonValue) -> Result<()> {
    let jobs = fit_jobs(t, job)?;
    let options = fit_options(job, workers(job)?, SoaRouting::Auto)?;
    let report = t
        .span("fit.run", "path", |_| fit_batch(jobs, &options))
        .map_err(|e| e.to_string())?;
    for l in &report.loops {
        t.add("fit.evaluations", l.evaluations() as f64);
    }
    t.add("fit.serial_s", report.serial_runtime().as_secs_f64());
    t.add("fit.workers", report.workers as f64);
    let text = t.span("report.render", "path", |_| {
        fit_report_value(&report, false).to_pretty_string()
    });
    t.add("report.bytes", text.len() as f64);
    write_file(t, text_path(job)?, text.as_bytes())
}

fn run_path(t: &mut Tracer, job: &JsonValue) -> Result<()> {
    for step in items(job, "path") {
        match text(step, "op")? {
            "batch_json" => batch_json(t, step)?,
            "batch_ndjson" => batch_ndjson(t, step)?,
            "fit" => fit(t, step)?,
            other => return Err(format!("unknown path op `{other}`")),
        }
    }
    Ok(())
}

// ----------------------------------------------------------- extra jobs

/// Re-times helpers the path runs inside its worker threads, over the same
/// scenarios: sample flattening and the loop-metric + loss post-processing.
fn probes(t: &mut Tracer, step: &JsonValue) -> Result<()> {
    let Some(grid) = step.get("grid") else {
        return Ok(());
    };
    let list = scenarios(grid)?;
    let mut seen: Vec<&Excitation> = Vec::new();
    t.span("waveform.samples", "probe", |_| {
        for s in &list {
            if !seen.contains(&&s.excitation) {
                seen.push(&s.excitation);
                std::hint::black_box(s.excitation.to_samples());
            }
        }
    });
    let report = runner(1, SoaRouting::Auto).run(list);
    t.span("magnetics.post", "probe", |_| {
        for entry in &report.entries {
            let Ok(outcome) = &entry.outcome else {
                continue;
            };
            std::hint::black_box(loop_metrics(&outcome.curve).ok());
            if let Some(op) = &entry.scenario.operating_point {
                if let (Some(g), Some(f)) = (&op.geometry, op.frequency_hz) {
                    std::hint::black_box(core_loss(&outcome.curve, g, f, op.lamination).ok());
                }
            }
        }
    });
    Ok(())
}

/// Same scenarios (or loops) under lockstep Auto and ForceScalar routing,
/// alternated three times; spans `ab.{exec,fit}.{auto,scalar}`.
fn ab(t: &mut Tracer, step: &JsonValue) -> Result<()> {
    let workers = workers(step)?;
    match text(step, "op")? {
        "batch_json" | "batch_ndjson" => {
            let list = scenarios(field(step, "grid")?)?;
            for _ in 0..3 {
                for (name, routing) in [
                    ("ab.exec.auto", SoaRouting::Auto),
                    ("ab.exec.scalar", SoaRouting::ForceScalar),
                ] {
                    let list = list.clone();
                    t.span(name, "ab", |_| {
                        std::hint::black_box(runner(workers, routing).run(list));
                    });
                }
            }
        }
        "fit" => {
            for _ in 0..3 {
                for (name, routing) in [
                    ("ab.fit.auto", SoaRouting::Auto),
                    ("ab.fit.scalar", SoaRouting::ForceScalar),
                ] {
                    let jobs = fit_jobs(&mut Tracer::new(), step)?;
                    let options = fit_options(step, workers, routing)?;
                    t.span(name, "ab", |_| fit_batch(jobs, &options))
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        _ => {}
    }
    Ok(())
}

fn normalized(doc: &JsonValue) -> JsonValue {
    let JsonValue::Object(fields) = doc else {
        return doc.clone();
    };
    let mut kept = Vec::new();
    for (key, value) in fields {
        if let (true, JsonValue::Object(options)) = (key == "options", value) {
            let rest: Vec<_> = options
                .iter()
                .filter(|(n, _)| n != "routing" && n != "cache_info")
                .cloned()
                .collect();
            if !rest.is_empty() {
                kept.push((key.clone(), JsonValue::Object(rest)));
            }
            continue;
        }
        kept.push((key.clone(), value.clone()));
    }
    JsonValue::Object(kept)
}

/// Replays one request through the serve stages in process.  Returns the
/// response body (what the server sends after the headers).
fn replay(t: &mut Tracer, ctx: &Ctx, cache: &ResultCache, id: usize, body: &str) -> Result<String> {
    let req = Some(id);
    let stage = |t: &mut Tracer, name: &str| t.begin(name, "serve", req);
    let root = t.begin("serve.request", "serve", req);
    let s = stage(t, "serve.parse");
    let doc = JsonValue::parse(body).map_err(|e| e.to_string())?;
    t.end(s);
    let stream = doc
        .get("options")
        .and_then(|o| o.get("stream"))
        .is_some_and(|v| matches!(v, JsonValue::Bool(true)));
    let kind = text(&doc, "kind")?.to_owned();
    let runner = runner(ctx.eval_workers, SoaRouting::Auto);
    let mut response = Vec::new();
    let out = if stream {
        let s = stage(t, "serve.eval");
        let list = scenarios(field(&doc, "grid")?)?;
        let mut bytes = Vec::new();
        hdl_models::report::write_ndjson_batch(&runner, &list, None, &mut bytes, |_, _| Ok(()))
            .map_err(|e| e.to_string())?;
        t.end(s);
        let s = stage(t, "serve.write");
        let shared = std::sync::Arc::new(bytes);
        let producer = shared.clone();
        HttpResponse::ndjson_stream(move |w: &mut dyn Write| w.write_all(&producer))
            .write_to(&mut response)
            .map_err(|e| e.to_string())?;
        t.end(s);
        String::from_utf8_lossy(&shared).into_owned()
    } else {
        let s = stage(t, "serve.hash");
        let key = content_hash(&normalized(&doc));
        t.end(s);
        let s = stage(t, "serve.cache");
        let cached = cache.get(key);
        t.end(s);
        let (text_body, hit) = match cached {
            Some(body) => ((*body).clone(), true),
            None => {
                let s = stage(t, "serve.eval");
                let text_body = if kind == "sweep_request" {
                    sweep_report(&sweep_scenario(&doc)?.run().map_err(|e| e.to_string())?)
                } else {
                    let list = scenarios(field(&doc, "grid")?)?;
                    batch_report_value(&runner.run(list), false).to_pretty_string()
                };
                t.end(s);
                let s = stage(t, "serve.cache");
                cache.insert(key, text_body.clone());
                t.end(s);
                (text_body, false)
            }
        };
        let s = stage(t, "serve.write");
        HttpResponse::json(200, text_body.clone())
            .with_header("X-Ja-Cache", if hit { "hit" } else { "miss" })
            .with_header("X-Ja-Cache-Key", format!("{key:032x}"))
            .write_to(&mut response)
            .map_err(|e| e.to_string())?;
        t.end(s);
        text_body
    };
    t.end(root);
    Ok(out)
}

fn run_extra(t: &mut Tracer, ctx: &Ctx, job: &JsonValue) -> Result<JsonValue> {
    for step in items(job, "path") {
        probes(t, step)?;
        ab(t, step)?;
    }
    let cache = ResultCache::new(64 << 20);
    if let Some(warm) = job.get("warm").and_then(JsonValue::as_str) {
        replay(&mut Tracer::new(), ctx, &cache, 0, warm)?;
    }
    let mut bodies = Vec::new();
    for (id, request) in items(job, "requests").iter().enumerate() {
        let body = request.as_str().ok_or("requests are strings")?;
        bodies.push(JsonValue::from(replay(t, ctx, &cache, id, body)?));
    }
    Ok(JsonValue::Array(bodies))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [job_path, mode] = args.as_slice() else {
        eprintln!("usage: e2e-tracer JOB.json path|extra");
        std::process::exit(2);
    };
    let mut t = Tracer::new();
    let result = (|| -> Result<()> {
        let source = fs::read_to_string(job_path).map_err(|e| format!("{job_path}: {e}"))?;
        let job = JsonValue::parse(&source).map_err(|e| e.to_string())?;
        let ctx = Ctx {
            eval_workers: num(&job, "eval_workers")? as usize,
        };
        let doc = match mode.as_str() {
            "path" => {
                run_path(&mut t, &job)?;
                t.to_json()
            }
            "extra" => {
                let bodies = run_extra(&mut t, &ctx, &job)?;
                t.to_json().with("bodies", bodies)
            }
            other => return Err(format!("unknown mode `{other}`")),
        };
        let out = format!("{}/spans-{mode}.json", text(&job, "out_dir")?);
        fs::write(&out, doc.to_compact_string()).map_err(|e| format!("{out}: {e}"))
    })();
    if let Err(err) = result {
        eprintln!("e2e-tracer: {err}");
        std::process::exit(1);
    }
}
