"""The traced run: per-layer metrics from spans around library calls.

Separate from the timed runs.  It measures the workload untraced once more
(an online session and three offline repetitions), then has
`e2e-tracer` replay the same offline job through the library crates with a
span around each call (`path` mode) and, in a second process, re-time the
helpers the workers run, the routing A/B rows and every stage of a sample
of the served requests (`extra` mode).  Spans stay in the tracer's memory
until it exits; this module derives self times, ratios and coverage.

Every per-layer metric is reported on every workload; a layer the workload
does not exercise reads 0.
"""

import json
import os
import statistics

import measure

TRACE_PER_KIND = 1000     # online requests per kind in the traced session
REPLAY_PER_KIND = 100     # of those, replayed stage by stage in process
PATH_REPLAYS = 3          # traced replays of the offline job (the median is kept)
STAGES = ["parse", "hash", "cache", "eval", "write"]
KINDS = ["hit", "miss", "stream"]

PER_LAYER = [
    ("cli.residual_s", "s"),
    ("scenario.expand_s", "s"), ("scenario.count", "count"),
    ("exec.run_s", "s"), ("exec.wait_s", "s"), ("exec.parallel_efficiency", "ratio"),
    ("exec.lockstep_share", "ratio"), ("exec.soa_vs_scalar", "ratio"),
    ("exec.streamed_wall_ratio", "ratio"), ("exec.streamed_rss_ratio", "ratio"),
    ("core.step_s", "s"), ("core.samples", "count"), ("core.slope_evaluations", "count"),
    ("core.rejected_updates", "count"), ("core.ns_per_sample", "ns"),
    ("core.slope_evals_per_sample", "ratio"),
    ("hdl-kernel.step_s", "s"), ("hdl-kernel.delta_cycles", "count"),
    ("hdl-kernel.events_scheduled", "count"), ("hdl-kernel.process_activations", "count"),
    ("hdl-kernel.ns_per_delta_cycle", "ns"), ("hdl-kernel.activations_per_sample", "ratio"),
    ("analog.step_s", "s"), ("analog.accepted_steps", "count"),
    ("analog.rejected_steps", "count"), ("analog.newton_iterations", "count"),
    ("analog.lu_solves", "count"), ("analog.non_converged_steps", "count"),
    ("analog.accept_ratio", "ratio"), ("analog.newton_per_step", "ratio"),
    ("magnetics.post_s", "s"), ("magnetics.curves", "count"),
    ("report.render_s", "s"), ("report.bytes", "bytes"), ("report.curve_mib_held", "MiB"),
    ("report.write_s", "s"), ("report.checkpoint_s", "s"), ("report.checkpoints", "count"),
    ("report.digest_s", "s"),
    ("waveform.read_csv_s", "s"), ("waveform.samples_s", "s"),
    ("fit.run_s", "s"), ("fit.evaluations", "count"), ("fit.ns_per_evaluation", "ns"),
    ("fit.parallel_efficiency", "ratio"), ("fit.soa_vs_scalar", "ratio"),
    *[(f"serve.{k}.{s}_ms", "ms") for k in KINDS for s in STAGES + ["residual", "p99"]],
    ("serve.connect_ms", "ms"), ("serve.late_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"), ("serve.rejected", "count"),
    ("agreement.max_rel", "ratio"), ("agreement.mean_rel", "ratio"),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
]


def span_sum(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def ratio(num, den):
    return num / den if den else 0.0


def ab_ratio(spans, auto, scalar):
    """Median Auto-routed span over median ForceScalar span."""
    a = [s["end"] - s["start"] for s in spans if s["name"] == auto]
    b = [s["end"] - s["start"] for s in spans if s["name"] == scalar]
    return statistics.median(a) / statistics.median(b) if a and b else 0.0


def stage_p50s(spans, traffic_kinds):
    """{kind: {stage: p50 ms}} over the replayed requests; a request's stage
    time is the sum of its spans of that stage (the cache stage has a get
    and, on a miss, an insert)."""
    per = {}
    for s in spans:
        if s["group"] != "serve" or s["name"] == "serve.request":
            continue
        stage = s["name"].split(".", 1)[1]
        key = (s["request"], stage)
        per[key] = per.get(key, 0.0) + (s["end"] - s["start"])
    out = {}
    for kind in KINDS:
        ids = [i for i, k in enumerate(traffic_kinds) if k == kind]
        out[kind] = {stage: 1000 * statistics.median(per.get((i, stage), 0.0) for i in ids)
                     if ids else 0.0 for stage in STAGES}
    return out


def tracer_job(run, jobs, requests, warm):
    job = {"out_dir": run.work, "eval_workers": 1, "path": jobs,
           "requests": requests, "warm": warm}
    path = run.path("trace-job.json")
    with open(path, "w") as f:
        json.dump(job, f)
    return path


def run_tracer(run, tracer, job_path, mode):
    wall, rss, code = measure.run_timed([tracer, job_path, mode])
    run.op(code == 0, f"e2e-tracer {mode} exited {code}")
    with open(run.path(f"spans-{mode}.json")) as f:
        return wall, json.load(f)


def streamed_ab(run):
    """`ja batch --format ndjson` against `--format json` on the workload's
    own grid (grid workloads only), three alternations each."""
    grids = [job["grid"] for job, _ in run.path_jobs if job["op"].startswith("batch")]
    if run.workload not in ("grid_stored", "grid_streamed") or not grids:
        return 0.0, 0.0
    cfg = run.path("grid.cfg")
    walls = {"json": [], "ndjson": []}
    rss = {"json": [], "ndjson": []}
    for _ in range(3):
        for fmt in ("json", "ndjson"):
            args = [run.ja, "batch", "--config", cfg, "--workers", "2", "--format", fmt,
                    "--out", run.path(f"ab.{fmt}")]
            wall, peak, code = measure.run_timed(args)
            run.op(code == 0, f"ja batch --format {fmt} exited {code}")
            walls[fmt].append(wall)
            rss[fmt].append(peak)
    return (statistics.median(walls["ndjson"]) / statistics.median(walls["json"]),
            statistics.median(rss["ndjson"]) / statistics.median(rss["json"]))


def run(r, tracer):
    """Runs the traced pass for Run `r`; returns the per-layer metrics."""
    # Untraced: an online session, then the offline job three times.
    r.online_phase(per_kind=TRACE_PER_KIND)
    r.offline_phase(budget=0.0)
    jobs = []
    for i, (job, _) in enumerate(r.path_jobs):
        jobs.append(dict(job, out=r.path(f"traced-{i}.out")))
    untraced = statistics.median(r.walls)

    # The path replay runs as often as the untraced job; the median run (by
    # wall time) supplies the spans.
    job_path = tracer_job(r, jobs, [], None)
    replays = []
    for _ in range(PATH_REPLAYS):
        replays.append(run_tracer(r, tracer, job_path, "path"))
        for (job, ja_out), traced in zip(r.path_jobs, jobs):
            with open(ja_out, "rb") as a, open(traced["out"], "rb") as b:
                r.op(a.read() == b.read(), f"traced {job['op']} output differs from ja")
    traced_wall, path_doc = sorted(replays, key=lambda replay: replay[0])[len(replays) // 2]

    # Replay a sample of the served requests stage by stage.
    sample = []
    for kind in KINDS:
        picked = [i for i, (k, _) in enumerate(r.traffic) if k == kind][:REPLAY_PER_KIND]
        sample.extend(picked)
    requests = [json.dumps(r.traffic[i][1], separators=(",", ":")) for i in sample]
    job_path = tracer_job(r, [dict(j, out=r.path("probe.out")) for j in jobs], requests,
                          json.dumps(r.warm, separators=(",", ":")))
    _, extra_doc = run_tracer(r, tracer, job_path, "extra")
    for i, body in zip(sample, extra_doc["bodies"]):
        served = r.online[i]
        if served["status"] == 200:
            r.op(served["body"] == body.encode(), "replayed body differs from served body")

    wall_ratio, rss_ratio = streamed_ab(r)
    return metrics(r, path_doc, extra_doc, [r.traffic[i][0] for i in sample],
                   untraced, traced_wall, wall_ratio, rss_ratio, jobs)


def metrics(r, path_doc, extra_doc, replay_kinds, untraced, traced_wall,
            wall_ratio, rss_ratio, jobs):
    spans, c = path_doc["spans"], path_doc["counts"]
    extra = extra_doc["spans"]
    get = lambda name: c.get(name, 0.0)  # noqa: E731
    workers = max((job["workers"] for job in jobs), default=1)
    covered = sum(s["end"] - s["start"] for s in spans
                  if s["parent"] is None and s["group"] == "path")
    run_s = span_sum(spans, "exec.run") + span_sum(spans, "exec.run_streamed")
    own = measure.self_times(spans)
    wait_s = sum(own[s["id"]] for s in spans if s["name"] in ("exec.run", "exec.run_streamed"))
    fit_s = span_sum(spans, "fit.run")
    core_samples = get("core.samples")
    kernel_samples = get("hdl-kernel.samples")
    steps = get("analog.accepted_steps") + get("analog.rejected_steps")
    lat = {kind: [v * 1000 for v in r.latency[kind]] for kind in KINDS}
    stages = stage_p50s(extra, replay_kinds)
    health = (r.health or {}).get("cache", {})
    values = {
        "cli.residual_s": untraced - covered,
        "scenario.expand_s": span_sum(spans, "scenario.expand"),
        "scenario.count": get("scenario.count"),
        "exec.run_s": run_s,
        # The caller's self time inside the executor span: waiting for
        # workers, as opposed to rendering/writing records in between.
        "exec.wait_s": wait_s,
        "exec.parallel_efficiency": ratio(get("exec.runtime_s"), run_s * workers),
        "exec.lockstep_share": ratio(get("exec.lockstep_entries"), get("exec.entries")),
        "exec.soa_vs_scalar": ab_ratio(extra, "ab.exec.auto", "ab.exec.scalar"),
        "exec.streamed_wall_ratio": wall_ratio,
        "exec.streamed_rss_ratio": rss_ratio,
        "core.step_s": get("core.step_s"),
        "core.samples": core_samples,
        "core.slope_evaluations": get("core.slope_evaluations"),
        "core.rejected_updates": get("core.rejected_updates"),
        "core.ns_per_sample": ratio(get("core.step_s") * 1e9, core_samples),
        "core.slope_evals_per_sample": ratio(get("core.slope_evaluations"), core_samples),
        "hdl-kernel.step_s": get("hdl-kernel.step_s"),
        "hdl-kernel.delta_cycles": get("hdl-kernel.delta_cycles"),
        "hdl-kernel.events_scheduled": get("hdl-kernel.events_scheduled"),
        "hdl-kernel.process_activations": get("hdl-kernel.process_activations"),
        "hdl-kernel.ns_per_delta_cycle": ratio(get("hdl-kernel.step_s") * 1e9,
                                               get("hdl-kernel.delta_cycles")),
        "hdl-kernel.activations_per_sample": ratio(get("hdl-kernel.process_activations"),
                                                   kernel_samples),
        "analog.step_s": get("analog.step_s"),
        "analog.accepted_steps": get("analog.accepted_steps"),
        "analog.rejected_steps": get("analog.rejected_steps"),
        "analog.newton_iterations": get("analog.newton_iterations"),
        "analog.lu_solves": get("analog.lu_solves"),
        "analog.non_converged_steps": get("analog.non_converged_steps"),
        "analog.accept_ratio": ratio(get("analog.accepted_steps"), steps),
        "analog.newton_per_step": ratio(get("analog.newton_iterations"), steps),
        "magnetics.post_s": span_sum(extra, "magnetics.post"),
        "magnetics.curves": get("magnetics.curves"),
        # Stored reports render once at the end; streamed ones per record.
        "report.render_s": span_sum(spans, "report.render") + span_sum(spans, "report.record"),
        "report.bytes": get("report.bytes"),
        # Computed, not measured: samples held x size_of::<BhPoint>().
        "report.curve_mib_held": get("report.curve_bytes_held") / 2**20,
        "report.write_s": span_sum(spans, "report.write"),
        "report.checkpoint_s": span_sum(spans, "report.checkpoint"),
        "report.checkpoints": get("report.checkpoints"),
        "report.digest_s": span_sum(spans, "report.digest"),
        "waveform.read_csv_s": span_sum(spans, "waveform.read_csv"),
        "waveform.samples_s": span_sum(extra, "waveform.samples"),
        "fit.run_s": fit_s,
        "fit.evaluations": get("fit.evaluations"),
        "fit.ns_per_evaluation": ratio(fit_s * 1e9, get("fit.evaluations")),
        "fit.parallel_efficiency": ratio(get("fit.serial_s"), fit_s * get("fit.workers")),
        "fit.soa_vs_scalar": ab_ratio(extra, "ab.fit.auto", "ab.fit.scalar"),
        "serve.connect_ms": 1000 * statistics.median(x["connect_s"] for x in r.online),
        "serve.late_ms": 1000 * statistics.median(x["late_s"] for x in r.online),
        "serve.cache_hit_ratio": ratio(health.get("hits", 0),
                                       health.get("hits", 0) + health.get("misses", 0)),
        "serve.rejected": float(sum(1 for x in r.online if x["status"] == 503)),
        "agreement.max_rel": max(r.agreement, default=0.0),
        "agreement.mean_rel": statistics.fmean(r.agreement) if r.agreement else 0.0,
        "trace.coverage": ratio(covered, traced_wall),
        "trace.overhead": ratio(traced_wall, untraced),
    }
    tails = r.tails()
    for kind in KINDS:
        for stage in STAGES:
            values[f"serve.{kind}.{stage}_ms"] = stages[kind][stage]
        observed = statistics.median(lat[kind])
        values[f"serve.{kind}.residual_ms"] = observed - sum(stages[kind].values())
        values[f"serve.{kind}.p99_ms"] = tails[f"{kind}_p99_ms"]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
