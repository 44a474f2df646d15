"""Seeded input generation for every workload.

Everything the benchmark feeds `ja` is derived here from the workload name
and the seed, so one seed always produces byte-identical inputs.  The seed
moves values (temperatures, peaks, duty cycles, noise), never sizes: sample
counts and entry counts are fixed per workload so that the cost of a run
does not depend on the seed.

A grid is a plain dict with the axes of a `batch_request` `grid` object
(`material`, `backend`, `dh_max`, `temperature`, `excitation`, `geometry`).
The same dict renders to a `ja batch` grid config, to a served request and
to the traced replay's job file, so all three describe the same scenarios.
"""

import json
import random

MATERIALS = ["date2006", "ja1984", "soft-ferrite", "hard-steel"]
GEOMETRY = {"area": 1e-4, "path": 0.1, "frequency": 50, "lamination": "silicon-steel"}
DH_MAX = [5, 10, 25, 50]
# Circuit fields the grid config would otherwise default: spelled out so the
# traced replay builds the same circuit without knowing the CLI defaults.
CIRCUIT = {"amplitude": 30, "frequency": 50, "r": 1, "turns": 200, "area": 1e-4, "path": 0.1}

WORKLOADS = ["grid_stored", "grid_streamed", "fit_library", "serve_mixed"]


def rng_for(workload, seed, purpose):
    """An independent, reproducible stream per (workload, seed, purpose)."""
    return random.Random(f"{workload}/{purpose}/{seed}")


def temperatures(rng, count, low=-40.0, high=125.0):
    """`count` temperatures (0.1 degC resolution), one seeded point in each
    of `count` equal slices of [low, high], so every seed spans the range."""
    width = (high - low) / count
    return [round(low + width * (k + rng.uniform(0.35, 0.65)), 1) for k in range(count)]


def major(peak, samples_per_half_cycle):
    return {"kind": "major", "peak": peak, "step": peak / samples_per_half_cycle, "cycles": 1}


def biased(bias, amplitude, samples_per_half_cycle):
    return {"kind": "biased", "bias": bias, "amplitude": amplitude, "cycles": 2,
            "step": amplitude / samples_per_half_cycle}


def degauss(h_start, samples_per_half_cycle):
    # h_start in PEAKS with h_stop = 100 and decay 0.5 always gives seven
    # cycles, so the sample count is seed-independent.
    return {"kind": "degauss", "h_start": h_start, "h_stop": 100, "decay": 0.5,
            "step": h_start / samples_per_half_cycle}


def circuit(source, control, t_end, duty=None):
    exc = {"kind": "circuit", "source": source, **CIRCUIT}
    if duty is not None:
        exc["duty"] = duty
    exc["t_end"] = t_end
    if control == "fixed":
        exc["dt"] = 5e-5
    exc["control"] = control
    return exc


# Seeded loop levels stay in bands where the field step never crosses a
# divisor of any DH_MAX: a timeless update fires once the accumulated field
# change exceeds dh_max, so a step just below dh_max/k costs one update more
# per k steps than a step just above it, and the work of a grid would jump
# with the seed.  Peaks in [10100, 10900] give steps of 5.05-5.45 A/m at
# 2000 samples per half cycle; the biased loop's amplitude is fixed.
PEAKS = (10100, 10900)


def field_loops(rng, density):
    """One major, one biased minor and one degauss loop with seeded levels."""
    return [
        major(rng.randint(*PEAKS), 2 * density),
        biased(rng.randint(900, 1100), 530, density // 4),
        degauss(rng.randint(*PEAKS), 2 * density),
    ]


def grid_stored(seed):
    rng = rng_for("grid_stored", seed, "grid")
    return {
        "material": list(MATERIALS),
        "backend": ["direct"],
        "dh_max": list(DH_MAX),
        "temperature": temperatures(rng, 6),
        "excitation": field_loops(rng, 1000),
        "geometry": dict(GEOMETRY),
    }


def streamed_excitations(rng, t_end, density):
    duty = rng.randint(45, 55) / 100
    return [
        circuit("sine", "fixed", t_end),
        circuit("sine", "adaptive", t_end),
        circuit("pwm", "fixed", t_end, duty),
        circuit("pwm", "adaptive", t_end, duty),
        major(rng.randint(*PEAKS), density),
    ]


def grid_streamed(seed):
    rng = rng_for("grid_streamed", seed, "grid")
    return {
        "material": ["date2006"],
        "backend": ["direct", "systemc"],
        "dh_max": [10],
        "temperature": temperatures(rng, 8, 0.0, 100.0),
        "excitation": streamed_excitations(rng, 0.04, 1000),
    }


# `ja fit` cannot fit some ja1984 major loops made by `ja sweep` (at peaks
# such as 9000 A/m the measured loop has no B = 0 crossing away from the
# origin, and the whole library fit fails), so the fitted loops leave that
# preset out until it is fixed.
FIT_MATERIALS = ["date2006", "soft-ferrite", "hard-steel"]


def fit_library(seed):
    """The loops to fit: three presets at four seeded peaks each.

    Each loop is a `ja sweep` of a major loop; `perturb` adds the seeded
    measurement noise after the sweep has run.
    """
    rng = rng_for("fit_library", seed, "loops")
    loops = []
    for material in FIT_MATERIALS:
        for k in range(4):
            peak = round((6000 + 2000 * k) * rng.uniform(0.95, 1.05))
            loops.append({"name": f"{material}-{k}", "material": material,
                          "peak": peak, "step": peak / 300})
    return loops


def serve_family(seed):
    """serve_mixed's offline job: its request family (every preset, field
    loops, two `dh_max`) as one batch grid at ten times the served sample
    density, so that it takes long enough to time."""
    rng = rng_for("serve_mixed", seed, "grid")
    return {
        "material": list(MATERIALS),
        "backend": ["direct"],
        "dh_max": [10, 25],
        "temperature": temperatures(rng, 6),
        "excitation": field_loops(rng, 10 * ONLINE_DENSITY),
    }


FIT_STARTS = 8
FIT_SEED = 42
NOISE = 0.01


def perturb(csv_text, rng):
    """Multiplies every B sample by (1 + NOISE * N(0, 1)) so that no fit can
    reach zero cost; returns a two-column `h,b` CSV."""
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    h_col, b_col = header.index("h"), header.index("b")
    out = ["h,b"]
    for line in lines[1:]:
        cells = line.split(",")
        b = float(cells[b_col]) * (1.0 + NOISE * rng.gauss(0.0, 1.0))
        out.append(f"{float(cells[h_col])!r},{b!r}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------- rendering


def num(value):
    """A number as config text: integers without a fraction, floats by repr
    (both parse back to the same f64 on the Rust side)."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def spec_text(fields):
    return " ".join(f"{k}={num(v) if not isinstance(v, str) else v}" for k, v in fields.items())


def grid_config(grid):
    """The `ja batch --config` text for a grid dict."""
    lines = [f"material = {m}" for m in grid.get("material", [])]
    lines += [f"backend = {b}" for b in grid.get("backend", [])]
    lines += [f"dh_max = {num(d)}" for d in grid.get("dh_max", [])]
    for exc in grid["excitation"]:
        fields = {k: v for k, v in exc.items() if k != "kind"}
        lines.append(f"excitation = {exc['kind']} {spec_text(fields)}")
    if grid.get("temperature"):
        lines.append("temperature = " + ":".join(num(t) for t in grid["temperature"]))
    if grid.get("geometry"):
        lines.append(f"geometry = {spec_text(grid['geometry'])}")
    return "\n".join(lines) + "\n"


def batch_request(grid, stream=False):
    # Streams carry no cache markers; everything else asks for them.
    options = {"stream": True} if stream else {"cache_info": True}
    return {"schema_version": 1, "kind": "batch_request", "grid": grid, "options": options}


def sweep_request(material, exc, dh_max=10):
    return {"schema_version": 1, "kind": "sweep_request", "material": material,
            "backend": "direct", "dh_max": dh_max, "excitation": exc,
            "options": {"cache_info": True}}


def sweep_argv(doc):
    """The `ja sweep` arguments that answer a (major-loop) sweep_request."""
    exc = doc["excitation"]
    return ["sweep", "--material", doc["material"], "--backend", doc["backend"],
            "--dh-max", num(doc["dh_max"]), "--peak", num(exc["peak"]),
            "--step", num(exc["step"]), "--cycles", str(exc["cycles"]), "--format", "json"]


def encode(doc):
    return json.dumps(doc, separators=(",", ":")).encode()


# ------------------------------------------------------------ served traffic

# Requests are single scenarios of the workload's own family at a coarser
# sample density than its offline job, so that a run can time a thousand of
# each kind.
ONLINE_DENSITY = 100
ONLINE_T_END = 0.02  # one 50 Hz cycle, so that circuit loops close and have metrics


def _unique_temperatures(rng, count):
    # Distinct thousandths of a degree: every miss is a new cache key.
    return [t / 1000 for t in rng.sample(range(-40000, 125001), count)]


def _online_scenario(workload, rng, temperature, i):
    """Single-scenario grid number `i` of the workload's family.  The kind of
    scenario (material, `dh_max`, loop or circuit) cycles with `i`, so every
    seed serves the same mix; the seed moves its levels."""
    if workload == "grid_streamed":
        exc = streamed_excitations(rng, ONLINE_T_END, 2 * ONLINE_DENSITY)[i % 5]
        return {"material": ["date2006"], "dh_max": [10], "temperature": [temperature],
                "excitation": [exc]}
    if workload == "fit_library":
        peak = rng.randint(6000, 12000)
        return {"material": [MATERIALS[i % 4]], "dh_max": [10],
                "temperature": [temperature], "excitation": [major(peak, 2 * ONLINE_DENSITY)]}
    grid = {"material": [MATERIALS[i % 4]], "dh_max": [DH_MAX[i // 4 % 4]],
            "temperature": [temperature],
            "excitation": [field_loops(rng, ONLINE_DENSITY)[i // 16 % 3]]}
    if workload == "grid_stored":
        grid["geometry"] = dict(GEOMETRY)
    return grid


def online_requests(workload, seed, per_kind):
    """The served traffic: `per_kind` requests of each kind, shuffled.

    * hit    - one repeated batch_request, answered from the result cache
               (sent once untimed first, so every timed one is a hit);
    * miss   - unique batch_requests (half of them sweep_requests on
               fit_library and serve_mixed), evaluated then cached;
    * stream - unique batch_requests with `stream: true` on the direct and
               systemc backends, which bypass the cache; their record pairs
               give the served backend agreement.

    Returns (warm-up document, [(kind, document), ...]).
    """
    rng = rng_for(workload, seed, "online")
    temps = _unique_temperatures(rng, 2 * per_kind + 1)
    hit = batch_request(_online_scenario(workload, rng, temps.pop(), 0))
    sweeps = workload in ("fit_library", "serve_mixed")
    peaks = rng.sample(range(4000, 14001), per_kind)
    traffic = [("hit", hit) for _ in range(per_kind)]
    for i in range(per_kind):
        if sweeps and i % 2:
            doc = sweep_request(MATERIALS[i // 2 % 4], major(peaks[i], 2 * ONLINE_DENSITY))
        else:
            doc = batch_request(_online_scenario(workload, rng, temps.pop(), i // (1 + sweeps)))
        traffic.append(("miss", doc))
    for i in range(per_kind):
        grid = _online_scenario(workload, rng, temps.pop(), i)
        grid["backend"] = ["direct", "systemc"]
        traffic.append(("stream", batch_request(grid, stream=True)))
    rng.shuffle(traffic)
    return hit, traffic
