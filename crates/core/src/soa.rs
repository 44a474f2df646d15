//! Structure-of-arrays lockstep execution of many parameter sets.
//!
//! A [`SoaBatch`] steps N Jiles–Atherton parameter sets ("lanes") through
//! the **same** applied-field sequence, holding every state and parameter
//! field in a flat column (one `Vec` per field) instead of N independent
//! model objects.  Each lane advances through exactly the per-step
//! increment math of the scalar model, so every lane is **bit-identical**
//! to a scalar [`JilesAtherton`](crate::model::JilesAtherton) run of the
//! same parameters, configuration and samples.
//!
//! Two kernels implement that contract:
//!
//! * the **lockstep kernel** (the paper's single forward-Euler step per
//!   increment with an arctangent anhysteretic law, i.e. the modified
//!   Langevin or the two-parameter blend): all lanes walk the sample
//!   sequence together.  Per sample, the `monitorH` gate and the
//!   forward-Euler slope step run as one branch-free lane-inner pass over
//!   the flat columns, and the self-consistency fixed point runs as
//!   another, until every lane has settled.  The heavy arctangents go
//!   through the shared polynomial [`magnetics::fastmath::atan`], a fixed
//!   inlineable operation sequence, so independent lanes pipeline and
//!   auto-vectorise instead of serialising on an opaque libm call — this
//!   is where the SoA speedup comes from.  Per lane the operation order is
//!   exactly the scalar model's (the same operations as
//!   [`integrate_field_increment`](crate::timeless::integrate_field_increment)'s
//!   single sub-step, and the constants [`advance_state`] uses), which
//!   keeps the lanes bitwise equal;
//! * the **per-lane path** (Heun, RK4, subdivided increments and the
//!   classic Langevin law): each lane walks the whole sequence delegating
//!   every step to [`advance_state`] itself — trivially bit-identical,
//!   without the lane-parallel throughput.
//!
//! On top of the kernel win, the batch removes everything around the math:
//! per-sample dynamic dispatch, per-sample `Result`/sample-struct plumbing,
//! per-lane schedule re-iteration and per-lane model construction.
//!
//! Lanes are fully independent: a lane whose parameters fail validation or
//! whose state diverges records its [`JaError`] and goes inactive without
//! disturbing the other lanes — mirroring how each scenario of a scalar
//! batch fails on its own.

use magnetics::anhysteretic::AnhystereticKind;
use magnetics::bh::BhCurve;
use magnetics::constants::MU0;
use magnetics::fastmath;
use magnetics::material::JaParameters;
use magnetics::units::Magnetisation;

use crate::config::{Formulation, JaConfig, SlopeIntegration};
use crate::error::JaError;
use crate::model::JaStatistics;
use crate::params::AnhystereticChoice;
use crate::state::JaState;
use crate::timeless::{
    advance_state, total_magnetisation, FIXED_POINT_ITERATIONS, FIXED_POINT_TOLERANCE,
};

/// The six state fields of [`JaState`] as flat columns, plus the per-lane
/// update counter.
#[derive(Debug, Clone, Default)]
struct StateColumns {
    m_irr: Vec<f64>,
    m_rev: Vec<f64>,
    m_total: Vec<f64>,
    m_an: Vec<f64>,
    h: Vec<f64>,
    h_last_update: Vec<f64>,
    updates: Vec<u64>,
}

impl StateColumns {
    /// Resets every column to `lanes` demagnetised entries, reusing the
    /// existing allocations.
    fn reset(&mut self, lanes: usize) {
        for column in [
            &mut self.m_irr,
            &mut self.m_rev,
            &mut self.m_total,
            &mut self.m_an,
            &mut self.h,
            &mut self.h_last_update,
        ] {
            column.clear();
            column.resize(lanes, 0.0);
        }
        self.updates.clear();
        self.updates.resize(lanes, 0);
    }

    /// Gathers one lane into a scalar [`JaState`].
    #[inline]
    fn load(&self, lane: usize) -> JaState {
        JaState {
            m_irr: self.m_irr[lane],
            m_rev: self.m_rev[lane],
            m_total: self.m_total[lane],
            m_an: self.m_an[lane],
            h: self.h[lane],
            h_last_update: self.h_last_update[lane],
            updates: self.updates[lane],
        }
    }

    /// Scatters a scalar [`JaState`] back into one lane.
    #[inline]
    fn store(&mut self, lane: usize, state: &JaState) {
        self.m_irr[lane] = state.m_irr;
        self.m_rev[lane] = state.m_rev;
        self.m_total[lane] = state.m_total;
        self.m_an[lane] = state.m_an;
        self.h[lane] = state.h;
        self.h_last_update[lane] = state.h_last_update;
        self.updates[lane] = state.updates;
    }
}

/// The lockstep kernel's per-lane masks and statistics counters, kept on
/// the batch so steady-state re-runs allocate nothing.
#[derive(Debug, Clone, Default)]
struct LockstepScratch {
    /// Lanes still stepping (no error recorded).
    live: Vec<bool>,
    /// The fixed point's per-lane convergence mask.
    settled: Vec<bool>,
    samples: Vec<u64>,
    updates: Vec<u64>,
    negative_slope_events: Vec<u64>,
    rejected_updates: Vec<u64>,
}

impl LockstepScratch {
    /// Sizes every column to the lane count of `errors`, marks the lanes
    /// without an error live and zeroes the counters.
    fn reset(&mut self, errors: &[Option<JaError>]) {
        let lanes = errors.len();
        self.live.clear();
        self.live.extend(errors.iter().map(Option::is_none));
        self.settled.clear();
        self.settled.resize(lanes, false);
        for column in [
            &mut self.samples,
            &mut self.updates,
            &mut self.negative_slope_events,
            &mut self.rejected_updates,
        ] {
            column.clear();
            column.resize(lanes, 0);
        }
    }
}

/// A batch of Jiles–Atherton lanes sharing one configuration and one
/// applied-field sequence, laid out as structure-of-arrays columns.
///
/// Lifecycle: construct once per configuration, then
/// repeatedly [`assign`](SoaBatch::assign) parameter sets and
/// [`run_samples_into_curves`](SoaBatch::run_samples_into_curves).  All
/// columns reuse their allocations across assignments, so steady-state
/// re-evaluation (the multi-start fitting inner loop) performs no per-call
/// allocation.
#[derive(Debug, Clone)]
pub struct SoaBatch {
    config: JaConfig,
    m_sat: Vec<f64>,
    a: Vec<f64>,
    a2: Vec<f64>,
    k: Vec<f64>,
    alpha: Vec<f64>,
    c: Vec<f64>,
    anhysteretic: Vec<AnhystereticKind>,
    state: StateColumns,
    stats: Vec<JaStatistics>,
    errors: Vec<Option<JaError>>,
    lockstep: LockstepScratch,
}

impl SoaBatch {
    /// Creates an empty batch for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::InvalidConfig`] for an invalid configuration —
    /// the same check (and error) a scalar
    /// [`JilesAtherton::with_config`](crate::model::JilesAtherton::with_config)
    /// performs.
    pub fn new(config: JaConfig) -> Result<Self, JaError> {
        config.validate()?;
        Ok(Self {
            config,
            m_sat: Vec::new(),
            a: Vec::new(),
            a2: Vec::new(),
            k: Vec::new(),
            alpha: Vec::new(),
            c: Vec::new(),
            anhysteretic: Vec::new(),
            state: StateColumns::default(),
            stats: Vec::new(),
            errors: Vec::new(),
            lockstep: LockstepScratch::default(),
        })
    }

    /// The shared configuration.
    pub fn config(&self) -> &JaConfig {
        &self.config
    }

    /// Number of lanes currently assigned.
    pub fn lanes(&self) -> usize {
        self.m_sat.len()
    }

    /// Assigns one lane per parameter set, resetting every lane to the
    /// demagnetised state and clearing its statistics.  Column capacity is
    /// reused, so re-assigning the same lane count allocates nothing.
    ///
    /// A parameter set that fails validation marks its lane with the same
    /// [`JaError::Material`] a scalar model construction would return; the
    /// lane stays inactive for the following runs.
    pub fn assign(&mut self, params: &[JaParameters]) {
        let lanes = params.len();
        for column in [
            &mut self.m_sat,
            &mut self.a,
            &mut self.a2,
            &mut self.k,
            &mut self.alpha,
            &mut self.c,
        ] {
            column.clear();
            column.reserve(lanes);
        }
        self.anhysteretic.clear();
        self.anhysteretic.reserve(lanes);
        self.stats.clear();
        self.stats.resize(lanes, JaStatistics::default());
        self.errors.clear();
        self.errors.resize(lanes, None);
        for (lane, p) in params.iter().enumerate() {
            self.m_sat.push(p.m_sat.value());
            self.a.push(p.a);
            self.a2.push(p.a2);
            self.k.push(p.k);
            self.alpha.push(p.alpha);
            self.c.push(p.c);
            match p.validate() {
                Ok(()) => self.anhysteretic.push(self.config.anhysteretic.build(p)),
                Err(err) => {
                    // The lane is inactive; park a law built from the
                    // (always valid) paper preset so the column stays
                    // aligned without evaluating the invalid shape.
                    self.errors[lane] = Some(JaError::Material(err));
                    self.anhysteretic
                        .push(self.config.anhysteretic.build(&JaParameters::date2006()));
                }
            }
        }
        self.state.reset(lanes);
    }

    /// Reconstructs one lane's parameter set from the columns.
    #[inline]
    fn lane_params(&self, lane: usize) -> JaParameters {
        JaParameters {
            m_sat: Magnetisation::new(self.m_sat[lane]),
            a: self.a[lane],
            a2: self.a2[lane],
            k: self.k[lane],
            alpha: self.alpha[lane],
            c: self.c[lane],
        }
    }

    /// Steps every active lane through `samples` in lockstep, appending one
    /// `(h, b, m)` point per sample to the lane's curve in `curves` (which
    /// must hold exactly [`lanes`](SoaBatch::lanes) curves; each is cleared
    /// first and its capacity reused).  A lane whose state diverges records
    /// its error and stops; the remaining lanes continue.
    ///
    /// # Panics
    ///
    /// Panics when `curves.len()` differs from the assigned lane count.
    pub fn run_samples_into_curves(&mut self, samples: &[f64], curves: &mut [BhCurve]) {
        assert_eq!(
            curves.len(),
            self.lanes(),
            "one output curve per lane is required"
        );
        let Self {
            config,
            m_sat,
            a,
            a2,
            k,
            alpha,
            c,
            anhysteretic,
            state,
            stats,
            errors,
            lockstep,
        } = self;
        let params: [&Vec<f64>; 6] = [&*m_sat, &*a, &*a2, &*k, &*alpha, &*c];
        match lockstep_law(config, anhysteretic, a, a2, errors) {
            Some(LockstepLaw::Single(man)) => run_lanes_lockstep(
                state, config, &params, &man, lockstep, stats, errors, samples, curves,
            ),
            Some(LockstepLaw::Blend(man)) => run_lanes_lockstep(
                state, config, &params, &man, lockstep, stats, errors, samples, curves,
            ),
            None => run_lanes(
                state,
                config,
                anhysteretic,
                &params,
                stats,
                errors,
                samples,
                curves,
            ),
        }
    }

    /// The cumulative statistics of one lane.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn lane_statistics(&self, lane: usize) -> JaStatistics {
        self.stats[lane]
    }

    /// The error that deactivated a lane, if any.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn lane_error(&self, lane: usize) -> Option<&JaError> {
        self.errors[lane].as_ref()
    }

    /// The reconstructed parameter set of one lane.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn lane_parameters(&self, lane: usize) -> JaParameters {
        self.lane_params(lane)
    }
}

/// The per-lane normalised anhysteretic evaluation of the lockstep kernel.
/// Implementations must reproduce the corresponding
/// [`Anhysteretic::normalised`](magnetics::anhysteretic::Anhysteretic)
/// operation sequence exactly — that equivalence is what keeps the kernel
/// bit-identical to the scalar model, and [`lockstep_law`] verifies the
/// lane shapes against the built laws before selecting a kernel.
trait LockstepMan {
    /// Number of lanes the law's shape columns cover; the kernel asserts
    /// this equals the batch width so lane indexing is provably in bounds.
    fn lanes(&self) -> usize;
    fn m_an(&self, lane: usize, h_effective: f64) -> f64;
}

/// The paper's modified Langevin, `(2/π)·atan(H_e/a)`, over a lane column.
struct SingleAtanLanes<'x> {
    a: &'x [f64],
}

impl LockstepMan for SingleAtanLanes<'_> {
    #[inline(always)]
    fn lanes(&self) -> usize {
        self.a.len()
    }

    #[inline(always)]
    fn m_an(&self, lane: usize, h_effective: f64) -> f64 {
        std::f64::consts::FRAC_2_PI * fastmath::atan(h_effective / self.a[lane])
    }
}

/// The two-parameter arctangent blend over lane columns.
struct BlendAtanLanes<'x> {
    a: &'x [f64],
    a2: &'x [f64],
    weight: f64,
}

impl LockstepMan for BlendAtanLanes<'_> {
    #[inline(always)]
    fn lanes(&self) -> usize {
        self.a.len().min(self.a2.len())
    }

    #[inline(always)]
    fn m_an(&self, lane: usize, h_effective: f64) -> f64 {
        let t1 = fastmath::atan(h_effective / self.a[lane]);
        let t2 = fastmath::atan(h_effective / self.a2[lane]);
        std::f64::consts::FRAC_2_PI * (self.weight * t1 + (1.0 - self.weight) * t2)
    }
}

/// The anhysteretic law the lockstep kernel will use, or `None` when the
/// batch must take the per-lane fallback: a configuration other than
/// forward Euler without subdivision (the kernel implements only the
/// paper's single-step update), the classic Langevin law, or any lane
/// whose built law does not match its parameter columns — impossible for
/// batches built by [`SoaBatch::assign`], but checked rather than assumed
/// because bit-identity rides on it.
enum LockstepLaw<'x> {
    Single(SingleAtanLanes<'x>),
    Blend(BlendAtanLanes<'x>),
}

fn lockstep_law<'x>(
    config: &JaConfig,
    anhysteretic: &[AnhystereticKind],
    a: &'x [f64],
    a2: &'x [f64],
    errors: &[Option<JaError>],
) -> Option<LockstepLaw<'x>> {
    if config.integration != SlopeIntegration::ForwardEuler || config.subdivide_increment {
        return None;
    }
    match config.anhysteretic {
        AnhystereticChoice::ModifiedLangevin => {
            for (lane, kind) in anhysteretic.iter().enumerate() {
                let matches = matches!(kind, AnhystereticKind::ModifiedLangevin(f)
                    if f.a().to_bits() == a[lane].to_bits());
                if !matches && errors[lane].is_none() {
                    return None;
                }
            }
            Some(LockstepLaw::Single(SingleAtanLanes { a }))
        }
        AnhystereticChoice::DoubleArctan => {
            let weight = 0.5_f64;
            for (lane, kind) in anhysteretic.iter().enumerate() {
                let matches = matches!(kind, AnhystereticKind::DoubleArctan(f)
                    if f.a().to_bits() == a[lane].to_bits()
                        && f.a2().to_bits() == a2[lane].to_bits()
                        && f.weight().to_bits() == weight.to_bits());
                if !matches && errors[lane].is_none() {
                    return None;
                }
            }
            Some(LockstepLaw::Blend(BlendAtanLanes { a, a2, weight }))
        }
        AnhystereticChoice::Langevin => None,
    }
}

/// The lockstep kernel: all lanes advance through each sample together,
/// working directly on the state columns.
///
/// Per sample, three lane-inner phases mirror [`advance_state`] exactly:
///
/// 1. **gate + forward-Euler step**: the paper's `monitorH` gate
///    (`live && |h − h_last| ≥ ΔH_max`) becomes a mask, and every lane
///    computes the single forward-Euler slope step that
///    [`integrate_field_increment`](crate::timeless::integrate_field_increment)
///    takes for this configuration — the same operations in the same
///    order: slope evaluated at `h_last + dh` (not `h`), `(α·M_sat)·m`,
///    `dk = ±k`, the degenerate-denominator branch, both guards, and
///    `dm_irr = (m_irr + dm) − m_irr` added back to `m_irr`.  Gated-off and
///    dead lanes keep their values through selects, and the statistics
///    accumulate in the batch's count columns;
/// 2. **self-consistency fixed point**: the
///    [`FIXED_POINT_ITERATIONS`]-capped iteration with a per-lane
///    convergence mask replacing the scalar early `break` — a settled lane
///    keeps its values through selects, so per lane the applied operation
///    sequence is unchanged.  Dead lanes start settled (they may hold NaN,
///    which never converges), and the loop stops once every lane has
///    settled;
/// 3. **finalise** (per lane): rebuild the reversible part, detect
///    divergence and append the lane's curve point.
///
/// Phases 1 and 2 are free of data-dependent branches, so the polynomial
/// arctangents of adjacent lanes pipeline and vectorise.  The count columns
/// are folded into the lanes' [`JaStatistics`] once the run ends.
#[allow(clippy::too_many_arguments)]
fn run_lanes_lockstep<M: LockstepMan>(
    columns: &mut StateColumns,
    config: &JaConfig,
    params: &[&Vec<f64>; 6],
    man: &M,
    scratch: &mut LockstepScratch,
    stats: &mut [JaStatistics],
    errors: &mut [Option<JaError>],
    samples: &[f64],
    curves: &mut [BhCurve],
) {
    let lanes = stats.len();
    assert_eq!(man.lanes(), lanes, "lockstep law must cover every lane");
    // Exactly-sized slices let the optimiser prove every `[lane]` access in
    // the hot loops is in bounds, which is what allows it to vectorise them
    // across lanes.
    let [m_sat, _, _, k, alpha, c] = params;
    let m_sat = &m_sat[..lanes];
    let k = &k[..lanes];
    let alpha = &alpha[..lanes];
    let c = &c[..lanes];

    scratch.reset(errors);
    let LockstepScratch {
        live,
        settled,
        samples: sample_count,
        updates: update_count,
        negative_slope_events: negative_count,
        rejected_updates: rejected_count,
    } = scratch;
    let live = &mut live[..lanes];
    let settled = &mut settled[..lanes];
    let sample_count = &mut sample_count[..lanes];
    let update_count = &mut update_count[..lanes];
    let negative_count = &mut negative_count[..lanes];
    let rejected_count = &mut rejected_count[..lanes];
    let StateColumns {
        m_irr,
        m_rev,
        m_total: m_total_col,
        m_an: m_an_col,
        h: h_col,
        h_last_update,
        updates,
    } = columns;
    let m_irr = &mut m_irr[..lanes];
    let m_rev = &mut m_rev[..lanes];
    let m_total_col = &mut m_total_col[..lanes];
    let m_an_col = &mut m_an_col[..lanes];
    let h_col = &mut h_col[..lanes];
    let h_last_update = &mut h_last_update[..lanes];
    let updates = &mut updates[..lanes];

    for (lane, curve) in curves.iter_mut().enumerate() {
        curve.clear();
        if live[lane] {
            curve.reserve(samples.len());
        }
    }

    let dh_max = config.dh_max;
    let classic = config.formulation == Formulation::Classic;
    let clamp = config.clamp_negative_slope;
    let reject = config.reject_opposing_update;
    for &h in samples {
        if !h.is_finite() {
            // Every live lane fails this sample exactly like the scalar
            // model: no statistics, no state change, curve truncated here.
            for error in errors.iter_mut() {
                if error.is_none() {
                    *error = Some(JaError::NonFiniteField { value: h });
                }
            }
            break;
        }

        // Phase 1 — the paper's monitorH gate and Integral(): one
        // forward-Euler slope step per gated lane.
        for lane in 0..lanes {
            let h_last = h_last_update[lane];
            let dh = h - h_last;
            let gate = live[lane] & (dh.abs() >= dh_max);
            let m_irr_old = m_irr[lane];
            let m_total = m_total_col[lane];
            let alpha_m_sat = alpha[lane] * m_sat[lane];
            let h_effective = (h_last + dh) + alpha_m_sat * m_total;
            let delta_m = man.m_an(lane, h_effective) - if classic { m_irr_old } else { m_total };
            let dk = if dh > 0.0 { k[lane] } else { -k[lane] };
            let denominator = (1.0 + c[lane]) * (dk - alpha_m_sat * delta_m);
            let raw_slope = if denominator.abs() < f64::MIN_POSITIVE {
                delta_m.signum() * f64::MAX.sqrt()
            } else {
                delta_m / denominator
            };
            let slope = if clamp && raw_slope < 0.0 {
                0.0
            } else {
                raw_slope
            };
            let dm = dh * slope;
            let dm_guarded = if reject && dm * dh < 0.0 { 0.0 } else { dm };
            let dm_irr = (m_irr_old + dm_guarded) - m_irr_old;
            m_irr[lane] = if gate { m_irr_old + dm_irr } else { m_irr_old };
            h_last_update[lane] = if gate { h } else { h_last };
            sample_count[lane] += u64::from(live[lane]);
            update_count[lane] += u64::from(gate);
            negative_count[lane] += u64::from(gate & (raw_slope < 0.0));
            rejected_count[lane] += u64::from(gate & (dm_guarded != dm));
        }

        // Phase 2 — the paper's core(): the self-consistency fixed point,
        // in lockstep.  The convergence mask replaces the scalar early
        // break; a settled lane carries its values unchanged, so the
        // per-lane operation sequence matches `advance_state` bit for bit.
        for (done, &alive) in settled.iter_mut().zip(live.iter()) {
            *done = !alive;
        }
        for _ in 0..FIXED_POINT_ITERATIONS {
            let mut pending = false;
            for lane in 0..lanes {
                let m_total = m_total_col[lane];
                let h_effective = h + alpha[lane] * m_sat[lane] * m_total;
                let m_an = man.m_an(lane, h_effective);
                let next = total_magnetisation(config.formulation, c[lane], m_an, m_irr[lane]);
                let converged = (next - m_total).abs() < FIXED_POINT_TOLERANCE;
                let done = settled[lane];
                m_an_col[lane] = if done { m_an_col[lane] } else { m_an };
                m_total_col[lane] = if done { m_total } else { next };
                settled[lane] = done | converged;
                pending |= !(done | converged);
            }
            if !pending {
                break;
            }
        }

        // Phase 3 — finalise and emit.
        for lane in 0..lanes {
            if !live[lane] {
                continue;
            }
            let m_total = m_total_col[lane];
            m_rev[lane] = m_total - m_irr[lane];
            h_col[lane] = h;
            let finite = [
                m_irr[lane],
                m_rev[lane],
                m_total,
                m_an_col[lane],
                h,
                h_last_update[lane],
            ]
            .iter()
            .all(|value| value.is_finite());
            if !finite {
                errors[lane] = Some(JaError::StateDiverged { at_field: h });
                live[lane] = false;
                continue;
            }
            let sat = m_sat[lane];
            curves[lane].push_raw(h, MU0 * (h + m_total * sat), m_total * sat);
        }
    }

    // One forward-Euler step is one slope evaluation per update.
    for lane in 0..lanes {
        let lane_stats = &mut stats[lane];
        lane_stats.samples += sample_count[lane];
        lane_stats.updates += update_count[lane];
        lane_stats.slope_evaluations += update_count[lane];
        lane_stats.negative_slope_events += negative_count[lane];
        lane_stats.rejected_updates += rejected_count[lane];
        updates[lane] += update_count[lane];
    }
}

/// The per-lane fallback sweep: every active lane walks the whole sample
/// sequence with its state held in locals, delegating each step to the
/// shared [`advance_state`].  Lane-major order keeps the per-lane state and
/// the curve append stream hot; the per-lane operation sequence is exactly
/// the scalar model's, which is what makes the lanes bit-identical.
#[allow(clippy::too_many_arguments)]
fn run_lanes(
    columns: &mut StateColumns,
    config: &JaConfig,
    anhysteretic: &[AnhystereticKind],
    params: &[&Vec<f64>; 6],
    stats: &mut [JaStatistics],
    errors: &mut [Option<JaError>],
    samples: &[f64],
    curves: &mut [BhCurve],
) {
    let [m_sat, a, a2, k, alpha, c] = params;
    for lane in 0..stats.len() {
        let curve = &mut curves[lane];
        curve.clear();
        if errors[lane].is_some() {
            continue;
        }
        curve.reserve(samples.len());
        let lane_params = JaParameters {
            m_sat: Magnetisation::new(m_sat[lane]),
            a: a[lane],
            a2: a2[lane],
            k: k[lane],
            alpha: alpha[lane],
            c: c[lane],
        };
        let lane_anhysteretic = &anhysteretic[lane];
        let mut lane_stats = stats[lane];
        let sat = lane_params.m_sat.value();
        let mut state = columns.load(lane);
        for &h in samples {
            let step = advance_state(
                &lane_params,
                lane_anhysteretic,
                config,
                &mut state,
                &mut lane_stats,
                h,
            );
            if let Err(err) = step {
                errors[lane] = Some(err);
                break;
            }
            // The same expressions as the scalar `JilesAtherton::sample`.
            curve.push_raw(
                state.h,
                MU0 * (state.h + state.m_total * sat),
                state.m_total * sat,
            );
        }
        columns.store(lane, &state);
        stats[lane] = lane_stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::HysteresisBackend;
    use crate::model::JilesAtherton;
    use waveform::schedule::FieldSchedule;

    fn materials() -> Vec<JaParameters> {
        vec![
            JaParameters::date2006(),
            JaParameters::jiles_atherton_1984(),
            JaParameters::soft_ferrite(),
            JaParameters::hard_steel(),
        ]
    }

    fn curve_bits(curve: &BhCurve) -> Vec<(u64, u64, u64)> {
        curve
            .points()
            .iter()
            .map(|p| {
                (
                    p.h.value().to_bits(),
                    p.b.as_tesla().to_bits(),
                    p.m.value().to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn f64_lanes_are_bit_identical_to_scalar_models() {
        let schedule = FieldSchedule::major_loop(10_000.0, 100.0, 2).expect("schedule");
        let samples = schedule.to_samples();
        let params = materials();
        let config = JaConfig::default();

        let mut batch = SoaBatch::new(config).expect("valid config");
        batch.assign(&params);
        let mut curves = vec![BhCurve::new(); params.len()];
        batch.run_samples_into_curves(&samples, &mut curves);

        for (lane, p) in params.iter().enumerate() {
            let mut scalar = JilesAtherton::with_config(*p, config).expect("valid");
            let reference = scalar.run_samples(&samples).expect("scalar run");
            assert!(batch.lane_error(lane).is_none());
            assert_eq!(
                curve_bits(&curves[lane]),
                curve_bits(&reference),
                "lane {lane} diverges from scalar bitwise"
            );
            assert_eq!(batch.lane_statistics(lane), scalar.statistics());
        }
    }

    #[test]
    fn reassignment_reuses_lanes_and_resets_state() {
        let schedule = FieldSchedule::major_loop(5_000.0, 100.0, 1).expect("schedule");
        let samples = schedule.to_samples();
        let mut batch = SoaBatch::new(JaConfig::default()).expect("config");
        let mut curves = vec![BhCurve::new(); 2];

        batch.assign(&[JaParameters::date2006(), JaParameters::hard_steel()]);
        batch.run_samples_into_curves(&samples, &mut curves);
        let first = curve_bits(&curves[0]);

        // Re-assigning the same parameters must reproduce the run exactly
        // (the state reset is part of `assign`).
        batch.assign(&[JaParameters::date2006(), JaParameters::hard_steel()]);
        batch.run_samples_into_curves(&samples, &mut curves);
        assert_eq!(curve_bits(&curves[0]), first);
        assert_eq!(batch.lanes(), 2);
    }

    #[test]
    fn invalid_lane_reports_material_error_and_others_run() {
        let mut bad = JaParameters::date2006();
        bad.k = -1.0;
        let mut batch = SoaBatch::new(JaConfig::default()).expect("config");
        batch.assign(&[JaParameters::date2006(), bad]);
        let samples = [0.0, 100.0, 200.0];
        let mut curves = vec![BhCurve::new(); 2];
        batch.run_samples_into_curves(&samples, &mut curves);
        assert!(batch.lane_error(0).is_none());
        assert!(matches!(batch.lane_error(1), Some(JaError::Material(_))));
        assert_eq!(curves[0].len(), 3);
        assert!(curves[1].is_empty());
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let bad = JaConfig::default().with_dh_max(0.0);
        assert!(matches!(
            SoaBatch::new(bad),
            Err(JaError::InvalidConfig { .. })
        ));
    }
}
