//! The assimilation-cycle driver (Fig. 2).
//!
//! One cycle = advance all members in parallel (forecast) → evaluate the
//! observation function per member (parallel) → analysis (standard EnKF on
//! raw fields, or morphing EnKF on extended states with registrations
//! computed in parallel) → write the updated states back. State exchange
//! can run through any [`crate::SnapshotStore`] to reproduce the paper's
//! disk-file architecture, including sharding the ensemble across worker
//! processes ([`EnsembleDriver::forecast_shard_via_store`]); whole-ensemble
//! checkpoints ([`EnsembleDriver::snapshot_into`]) capture every member
//! plus the filter RNG so an interrupted assimilation run resumes bit for
//! bit.

use crate::pool::try_for_each_ws;
use crate::store::SnapshotStore;
use crate::{EnsembleError, Result};
use std::convert::Infallible;
use std::sync::Mutex;
use wildfire_core::{CoupledModel, CoupledState, CoupledWorkspace};
use wildfire_enkf::morphing_enkf::{
    analyze_packed_ws, from_packed_into, packed_len, to_extended_into, ExtendedState,
};
use wildfire_enkf::{
    AnalysisWorkspace, EnkfConfig, EnsembleKalmanFilter, Etkf, MorphingConfig, MorphingWorkspace,
    RegistrationWorkspace,
};
use wildfire_fire::FireState;
use wildfire_grid::Field2;
use wildfire_math::{GaussianSampler, Matrix};
use wildfire_obs::snapshot::{restore_states_from, snapshot_states_into};
use wildfire_obs::{
    CoupledSnapshot, ObsInbox, ObsScratch, ObsSet, ObsSource, ObsWorkspace, ObservationOperator,
    Snapshot, TIME_EPS,
};

/// Cap used to encode the `t_i = ∞` (unburned) sentinel as a finite value
/// inside filter state vectors.
pub const TIG_CAP: f64 = 1.0e4;

/// Scratch for a full forecast–analysis cycle: one scratch lane per worker
/// thread for every member-parallel phase, plus the packed filter matrices
/// and the analysis workspaces. Create once per driver lifetime and thread
/// through [`EnsembleDriver::cycle_obs_ws`]; everything is sized on first
/// use and reused across cycles.
#[derive(Debug, Default)]
pub struct EnsembleWorkspace {
    /// Per-worker scratch (index = worker).
    lanes: Vec<Lane>,
    /// Packed ensemble `X`: the member states (`2·grid × N`) for the
    /// standard and ETKF analyses, their extended states for the morphing
    /// analysis.
    pub(crate) x: Matrix,
    /// Observation-pool packing buffers: `(y, H(X), R)`.
    pub obs: ObsWorkspace,
    /// Inner dense-analysis scratch (standard-EnKF and ETKF paths).
    pub analysis: AnalysisWorkspace,
    /// Morphing-EnKF scratch (morphing path).
    pub morph: MorphingWorkspace,
    /// Reference fields `[ψ, capped t_i]` of the morphing analyses (a copy:
    /// the morph-back overwrites the member they come from).
    pub(crate) reference: Vec<Field2>,
    /// Packed extended state of the data for the morphing analyses.
    pub(crate) data_ext: Vec<f64>,
    /// Gridded-ψ data field scratch for the morphing observation path.
    pub(crate) psi_data: Field2,
}

/// One worker's scratch, shared by every member-parallel phase: the
/// stepping workspace, the snapshot a member travels through the store in,
/// the observation operators' scratch, and the morphing transform's
/// registration pyramid, field slots `[ψ, capped t_i]` and extended state.
#[derive(Debug, Default)]
struct Lane {
    coupled: CoupledWorkspace,
    snap: Snapshot,
    obs: ObsScratch,
    reg: RegistrationWorkspace,
    fields: Vec<Field2>,
    ext: ExtendedState,
}

/// The first `threads` lanes (at least one), grown on first use. Slicing
/// keeps lanes grown by a driver with more threads from raising this
/// driver's worker count (the pool runs one worker per lane handed in).
fn ensure(lanes: &mut Vec<Lane>, threads: usize) -> &mut [Lane] {
    let want = threads.max(1);
    if lanes.len() < want {
        lanes.resize_with(want, Lane::default);
    }
    &mut lanes[..want]
}

/// Writes a fire state's filter fields `[ψ, t_i capped at TIG_CAP]` into
/// two slots.
fn fire_fields_into(fire: &FireState, out: &mut Vec<Field2>) {
    out.resize_with(2, Field2::default);
    out[0].copy_from(&fire.psi);
    out[1].resize_no_zero(fire.tig.grid());
    for (o, &t) in out[1].as_mut_slice().iter_mut().zip(fire.tig.as_slice()) {
        *o = t.min(TIG_CAP);
    }
}

impl EnsembleWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Which analysis algorithm an observation-pool cycle runs.
#[derive(Debug, Clone, Copy)]
pub enum ObsFilter<'a> {
    /// Stochastic EnKF with multiplicative inflation (1 = none).
    Standard {
        /// Forecast inflation factor.
        inflation: f64,
    },
    /// Deterministic square-root filter (no observation perturbations).
    Etkf {
        /// Forecast inflation factor.
        inflation: f64,
    },
    /// Morphing EnKF driven by the pool's gridded-ψ stream.
    Morphing(&'a MorphingConfig),
}

/// Data-side outcome of one observation-pool cycle: RMS innovation of the
/// ensemble mean against the pooled measurements, before and after the
/// analysis. It needs no truth state — it is the metric available with
/// *real* data.
#[derive(Debug, Clone, Copy)]
pub struct ObsCycleReport {
    /// RMS innovation after the forecast, before the analysis.
    pub forecast_innovation_rms: f64,
    /// RMS innovation after the analysis (synthetic observations
    /// re-evaluated on the analyzed members).
    pub analysis_innovation_rms: f64,
}

/// Outcome of one source-driven assimilation pass
/// ([`EnsembleDriver::cycle_source_ws`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SourceCycleReport {
    /// Analyses run (groups of reports within [`TIME_EPS`]).
    pub analyses: usize,
    /// Total reports assimilated across those analyses.
    pub reports_assimilated: usize,
    /// Innovation report of the last analysis, if any ran.
    pub last: Option<ObsCycleReport>,
}

/// The ensemble driver.
pub struct EnsembleDriver {
    /// The (shared, immutable) coupled model configuration.
    pub model: CoupledModel,
    /// Worker threads for member-parallel phases.
    pub threads: usize,
}

impl EnsembleDriver {
    /// Creates a driver.
    pub fn new(model: CoupledModel, threads: usize) -> Self {
        EnsembleDriver { model, threads }
    }

    /// Advances all members to `t_target` in parallel (the forecast phase
    /// of Fig. 2): each worker thread steps its members through its own
    /// [`CoupledWorkspace`] from `ws`, so the results are bit-identical to
    /// sequential.
    /// All *stepping* buffers are reused; with `threads <= 1` the call is
    /// fully allocation-free in steady state, while `threads > 1` still
    /// spawns the scoped worker threads each call.
    ///
    /// # Errors
    /// The failure of the lowest-indexed failing member; every other
    /// member still completes.
    pub fn forecast_ws(
        &self,
        members: &mut [CoupledState],
        t_target: f64,
        dt: f64,
        ws: &mut EnsembleWorkspace,
    ) -> Result<()> {
        let lanes = ensure(&mut ws.lanes, self.threads);
        try_for_each_ws(members, lanes, |_, state, lane| {
            self.model
                .run_ws(state, t_target, dt, &mut lane.coupled, |_, _| {})
        })
        .map_err(EnsembleError::from)
    }

    /// Forecast phase routed through a [`SnapshotStore`] — the disk-file
    /// dataflow of Fig. 2: saves every member's full-state snapshot, then
    /// runs the whole ensemble as shard 0 of 1 through
    /// [`EnsembleDriver::forecast_shard_via_store`]. Each worker
    /// loads, steps, and stores through its own scratch in `ws`, so with
    /// `threads <= 1` the exchange is allocation-free in steady state.
    ///
    /// # Errors
    /// Store or model failures.
    pub fn forecast_via_store_ws(
        &self,
        members: &mut [CoupledState],
        store: &dyn SnapshotStore,
        t_target: f64,
        dt: f64,
        ws: &mut EnsembleWorkspace,
    ) -> Result<()> {
        let snap = &mut ensure(&mut ws.lanes, self.threads)[0].snap;
        for (i, m) in members.iter().enumerate() {
            self.model.snapshot_into(m, None, snap);
            store.save(i, snap)?;
        }
        self.forecast_shard_via_store(members, 0, store, t_target, dt, ws)
    }

    /// Advances one *shard* of the ensemble through a [`SnapshotStore`]:
    /// member `first_member + i` is loaded from the store into `shard[i]`,
    /// stepped to `t_target`, and written back. This is the per-process
    /// worker of the sharded architecture — separate processes, each owning
    /// a contiguous member range and a workspace sized to it, exchange the
    /// whole ensemble through one disk directory; the union of the shard
    /// forecasts is bit-identical to a single-process
    /// [`EnsembleDriver::forecast_ws`] over all members.
    ///
    /// The caller's `shard` states serve as restore targets (their previous
    /// contents are fully overwritten), so a worker process can start from
    /// blank states built with [`CoupledModel::ignite`] on an empty shape
    /// list.
    ///
    /// # Errors
    /// Store failures, snapshots from a mismatching model configuration,
    /// or model failures: the lowest-indexed failing member's, as in
    /// [`EnsembleDriver::forecast_ws`].
    pub fn forecast_shard_via_store(
        &self,
        shard: &mut [CoupledState],
        first_member: usize,
        store: &dyn SnapshotStore,
        t_target: f64,
        dt: f64,
        ws: &mut EnsembleWorkspace,
    ) -> Result<()> {
        let lanes = ensure(&mut ws.lanes, self.threads);
        try_for_each_ws(shard, lanes, |i, state, lane| {
            let member = first_member + i;
            store.load_into(member, &mut lane.snap)?;
            self.model
                .restore_from(state, Some(&mut lane.coupled), &lane.snap)
                .map_err(EnsembleError::Store)?;
            self.model
                .run_ws(state, t_target, dt, &mut lane.coupled, |_, _| {})?;
            self.model
                .snapshot_into(state, Some(&lane.coupled), &mut lane.snap);
            store.save(member, &lane.snap)
        })
    }

    /// Captures the whole ensemble — every member's full coupled state,
    /// ambient wind included, through the member snapshot's records
    /// ([`snapshot_states_into`]: one record per field, member-major) —
    /// plus the analysis RNG's provenance in `ens/rng`, reusing `snap`'s
    /// buffers (allocation-free once warm). The workspaces carry no state
    /// between steps, so resuming from the checkpoint is bitwise exact.
    pub fn snapshot_into(
        &self,
        members: &[CoupledState],
        rng: &GaussianSampler,
        snap: &mut Snapshot,
    ) {
        snapshot_states_into(&self.model, members, snap);
        let (words, spare) = rng.state();
        let r = snap.record_mut("ens/rng");
        r.extend(words.iter().map(|&w| f64::from_bits(w)));
        r.push(if spare.is_some() { 1.0 } else { 0.0 });
        r.push(spare.unwrap_or(0.0));
    }

    /// Restores a whole-ensemble checkpoint written by
    /// [`EnsembleDriver::snapshot_into`] into `members` (which must already
    /// hold the checkpointed member count — states are overwritten in
    /// place) and `rng`. All validation happens before any member is
    /// touched, so a rejected snapshot leaves the ensemble intact.
    ///
    /// # Errors
    /// Missing records, a fingerprint from a different model configuration,
    /// or any member-count/field-size mismatch.
    pub fn restore_from(
        &self,
        members: &mut [CoupledState],
        rng: &mut GaussianSampler,
        snap: &Snapshot,
    ) -> Result<()> {
        let &[w0, w1, w2, w3, has_spare, spare] = snap.get("ens/rng")? else {
            return Err(EnsembleError::Config("checkpoint record size mismatch"));
        };
        restore_states_from(&self.model, members, snap)?;
        let words = [w0.to_bits(), w1.to_bits(), w2.to_bits(), w3.to_bits()];
        *rng = GaussianSampler::from_state(words, (has_spare != 0.0).then_some(spare));
        Ok(())
    }

    /// Generic stochastic-EnKF analysis against a heterogeneous observation
    /// pool (Fig. 2's "real data pool"): the pool packs any mix of
    /// operators + measurements into `(y, H(X), R)`, the filter never sees
    /// the instruments. The packed buffers live in `ws` and are reused, so
    /// repeated analyses through one workspace are allocation-free in
    /// steady state (for allocation-free operators; see
    /// [`wildfire_obs::operator`]).
    ///
    /// # Errors
    /// Observation-operator and filter failures.
    pub fn analyze_obs_ws(
        &self,
        members: &mut [CoupledState],
        pool: &ObsSet<'_>,
        inflation: f64,
        rng: &mut GaussianSampler,
        ws: &mut EnsembleWorkspace,
    ) -> Result<()> {
        self.pack_pool_ws(members, pool, ws)?;
        self.analyze_packed_ws(members, pool, ObsFilter::Standard { inflation }, rng, ws)
    }

    /// Member-parallel [`ObsSet::pack_into`]: the member-independent `y`/`R`
    /// stacking runs once, then the `H(X)` columns are filled over the
    /// worker pool (one member column per item, each worker with its own
    /// [`ObsScratch`]) — the Fig. 2 fan-out of the observation function
    /// over the "subsets of processors". Column contents are independent of
    /// which worker fills them, so
    /// the packed `(y, H(X), R)` is bit-identical to the serial
    /// `pack_into` for every thread count (pinned by test).
    ///
    /// # Errors
    /// Operator failures (the lowest-indexed member's, as in the forecast
    /// fan-out).
    fn pack_pool_ws(
        &self,
        members: &[CoupledState],
        pool: &ObsSet<'_>,
        ws: &mut EnsembleWorkspace,
    ) -> Result<()> {
        pool.pack_fixed_into(members.len(), &mut ws.obs);
        let m = pool.total_dim();
        if m == 0 {
            return Ok(());
        }
        try_for_each_ws(
            ws.obs.hx.as_mut_slice().chunks_mut(m),
            ensure(&mut ws.lanes, self.threads),
            |j, col, lane| pool.pack_member_column(&members[j], col, &mut lane.obs),
        )
        .map_err(EnsembleError::Store)
    }

    /// Analyzes `members` against `pool` with `filter`. The standard EnKF
    /// and the ETKF read the pool packed already: `ws.obs` must hold
    /// `(y, H(X), R)` for the *current* member states — the seam
    /// [`EnsembleDriver::cycle_obs_ws`] uses to avoid re-evaluating every
    /// observation operator right after packing them for the innovation
    /// report. The ETKF consumes no RNG. The morphing filter registers
    /// against the pool's gridded ψ stream instead.
    fn analyze_packed_ws(
        &self,
        members: &mut [CoupledState],
        pool: &ObsSet<'_>,
        filter: ObsFilter<'_>,
        rng: &mut GaussianSampler,
        ws: &mut EnsembleWorkspace,
    ) -> Result<()> {
        match filter {
            ObsFilter::Standard { inflation } => {
                self.pack_members(members, ws)?;
                let filter = EnsembleKalmanFilter::new(EnkfConfig {
                    inflation,
                    ..EnkfConfig::default()
                });
                let obs = &ws.obs;
                filter.analyze_ws(
                    &mut ws.x,
                    &obs.hx,
                    &obs.data,
                    &obs.var,
                    rng,
                    &mut ws.analysis,
                )?;
            }
            ObsFilter::Etkf { inflation } => {
                self.pack_members(members, ws)?;
                let obs = &ws.obs;
                Etkf::new(inflation).analyze_ws(
                    &mut ws.x,
                    &obs.hx,
                    &obs.data,
                    &obs.var,
                    &mut ws.analysis,
                )?;
            }
            ObsFilter::Morphing(config) => {
                return self.analyze_obs_morphing_ws(members, pool, config, rng, ws);
            }
        }
        self.unpack_members(members, ws);
        Ok(())
    }

    /// Morphing-EnKF analysis against an observation pool (Fig. 4(d) with
    /// real data streams). The morphing filter needs a *field-valued*
    /// observation to register against, so the pool must contain at least
    /// one gridded-ψ stream (an operator whose
    /// [`wildfire_obs::ObservationOperator::scatter_psi`] succeeds — e.g.
    /// [`wildfire_obs::StridedPsi`]); its measurements are scattered back
    /// onto the fire mesh and drive registration + amplitude analysis.
    /// Pointwise streams (stations) cannot be registered and are ignored by
    /// this variant — pool them through [`EnsembleDriver::analyze_obs_ws`]
    /// instead or alongside. Requires `config.observed_fields == [0]` (the
    /// ψ block; the ignition-time field has no gridded data stream).
    ///
    /// # Errors
    /// [`EnsembleError::Config`] when no gridded-ψ entry is present or the
    /// observed-field set is unsupported; filter failures.
    pub fn analyze_obs_morphing_ws(
        &self,
        members: &mut [CoupledState],
        pool: &ObsSet<'_>,
        config: &MorphingConfig,
        rng: &mut GaussianSampler,
        ws: &mut EnsembleWorkspace,
    ) -> Result<()> {
        if config.observed_fields != [0] {
            return Err(EnsembleError::Config(
                "the observation-pool morphing path assimilates the gridded ψ stream; \
                 only field 0 can be observed",
            ));
        }
        let found = pool
            .entries()
            .iter()
            .any(|e| e.op.scatter_psi(e.data, &mut ws.psi_data));
        if !found {
            return Err(EnsembleError::Config(
                "morphing analysis needs a gridded-psi observation stream in the pool",
            ));
        }
        self.analyze_morphing_fields_ws(members, config, rng, ws)
    }

    /// Morphing-EnKF analysis (Fig. 4(d)) against the observed ψ field in
    /// `ws.psi_data`: members and the data are registered against a
    /// reference member in parallel and packed as extended states `[r, T]`
    /// into `ws.x`, the inner EnKF updates them in place, and every column
    /// is morphed straight back into its member's ψ and `t_i`, again in
    /// parallel. The reference member's own capped ignition times stand in
    /// for the data's — only valid when field 1 is unobserved, as
    /// [`EnsembleDriver::analyze_obs_morphing_ws`] enforces. No member is
    /// touched unless the whole analysis succeeds, and a warm workspace
    /// makes the analysis allocation-free on one thread.
    ///
    /// # Errors
    /// Registration and filter failures.
    fn analyze_morphing_fields_ws(
        &self,
        members: &mut [CoupledState],
        config: &MorphingConfig,
        rng: &mut GaussianSampler,
        ws: &mut EnsembleWorkspace,
    ) -> Result<()> {
        let n_ens = members.len();
        if n_ens < 2 {
            return Err(EnsembleError::Config("need at least 2 members"));
        }
        let time = members[0].time();
        fire_fields_into(&members[0].fire, &mut ws.reference);
        let grid = ws.reference[0].grid();
        let n_state = packed_len(config, 2, grid);
        ws.x.resize_no_zero(n_state, n_ens);
        ws.data_ext.resize(n_state, 0.0);

        // Parallel transform (the expensive phase): the members and, as the
        // last item, the data are claimed from the pool's queue; each worker
        // registers into its own lane and packs the result into its column
        // (the data into `data_ext`) under a short lock.
        let EnsembleWorkspace {
            x,
            data_ext,
            reference,
            psi_data,
            lanes,
            ..
        } = &mut *ws;
        let lanes = ensure(lanes, self.threads);
        let (reference, psi_data, states) = (&*reference, &*psi_data, &*members);
        let packed = Mutex::new((x, data_ext));
        try_for_each_ws(0..n_ens + 1, lanes, |i, _, lane| {
            match states.get(i) {
                Some(m) => fire_fields_into(&m.fire, &mut lane.fields),
                None => {
                    lane.fields.resize_with(2, Field2::default);
                    lane.fields[0].copy_from(psi_data);
                    lane.fields[1].copy_from(&reference[1]);
                }
            }
            to_extended_into(
                config,
                &lane.fields,
                reference,
                0,
                &mut lane.reg,
                &mut lane.ext,
            )?;
            let mut packed = packed
                .lock()
                .expect("no worker panics while holding the packing lock");
            let (x, data_ext) = &mut *packed;
            if i < x.cols() {
                lane.ext.pack_into(x.col_mut(i));
            } else {
                lane.ext.pack_into(data_ext);
            }
            Ok(())
        })
        .map_err(EnsembleError::Filter)?;

        analyze_packed_ws(
            config,
            &mut ws.x,
            &ws.data_ext,
            &ws.reference,
            rng,
            &mut ws.morph,
        )
        .map_err(EnsembleError::Filter)?;

        // Morph back straight into the members, one column per member, read
        // in place: the workers need no scratch of their own.
        let ctrl = config.registration.output_grid(grid);
        let (x, reference) = (&ws.x, &ws.reference);
        let lanes = ensure(&mut ws.lanes, self.threads);
        let Ok(()) = try_for_each_ws(members, lanes, |j, m, _| {
            let fire = &mut m.fire;
            from_packed_into(
                reference,
                ctrl,
                x.col(j),
                &mut [&mut fire.psi, &mut fire.tig],
            );
            for t in fire.tig.as_mut_slice() {
                if *t >= TIG_CAP * 0.99 {
                    *t = wildfire_fire::UNBURNED;
                }
            }
            fire.time = time;
            fire.sanitize(TIG_CAP * 0.99, time);
            Ok::<(), Infallible>(())
        });
        Ok(())
    }

    /// Packs the member fire states into the filter matrix `ws.x`
    /// (`[ψ, capped t_i]` per column).
    fn pack_members(&self, members: &[CoupledState], ws: &mut EnsembleWorkspace) -> Result<()> {
        let n_ens = members.len();
        if n_ens < 2 {
            return Err(EnsembleError::Config("need at least 2 members"));
        }
        let n_state = 2 * members[0].fire.grid().len();
        ws.x.resize_zeroed(n_state, n_ens);
        for (j, m) in members.iter().enumerate() {
            m.fire.pack_into(TIG_CAP, ws.x.col_mut(j));
        }
        Ok(())
    }

    /// Unpacks `ws.x` back into the member fire states and restores the
    /// `(ψ, t_i)` invariants the analysis may have mixed.
    fn unpack_members(&self, members: &mut [CoupledState], ws: &EnsembleWorkspace) {
        let time = members[0].time();
        for (j, m) in members.iter_mut().enumerate() {
            m.fire.unpack_into(ws.x.col(j), TIG_CAP * 0.99, time);
            m.fire.sanitize(TIG_CAP * 0.99, time);
        }
    }

    /// One full data-driven cycle against an observation pool: forecast all
    /// members to `t_target`, pack the pool, analyze with the chosen
    /// filter, and report the RMS innovation before and after — the Fig. 2
    /// loop with the data source fully abstracted behind the pool. The
    /// caller assembles the [`ObsSet`] for this analysis time (typically by
    /// walking an [`wildfire_obs::ObsTimeline`]).
    ///
    /// # Errors
    /// Model, observation-operator, and filter failures.
    #[allow(clippy::too_many_arguments)]
    pub fn cycle_obs_ws(
        &self,
        members: &mut [CoupledState],
        pool: &ObsSet<'_>,
        filter: ObsFilter<'_>,
        t_target: f64,
        dt: f64,
        rng: &mut GaussianSampler,
        ws: &mut EnsembleWorkspace,
    ) -> Result<ObsCycleReport> {
        self.forecast_ws(members, t_target, dt, ws)?;
        self.pack_pool_ws(members, pool, ws)?;
        let forecast_innovation_rms = ws.obs.innovation_rms();
        // `ws.obs` is already packed for the forecast states; the packed
        // analysis reuses it instead of re-evaluating every operator on
        // unchanged members.
        self.analyze_packed_ws(members, pool, filter, rng, ws)?;
        self.pack_pool_ws(members, pool, ws)?;
        Ok(ObsCycleReport {
            forecast_innovation_rms,
            analysis_innovation_rms: ws.obs.innovation_rms(),
        })
    }

    /// Source-driven assimilation up to `t_target` (ROADMAP's lazy
    /// ingestion): polls `source` for whatever reports have become due,
    /// groups reports within [`TIME_EPS`] into one analysis each (the same
    /// merge rule [`wildfire_obs::ObsTimeline::analysis_times`] applies),
    /// and runs one [`EnsembleDriver::cycle_obs_ws`] per group — forecast
    /// to the group time, analyze the pooled reports, report innovations.
    /// After the source runs dry the members are forecast the rest of the
    /// way to `t_target`. Driving this with a
    /// [`wildfire_obs::TimelineSource`] reproduces the eager
    /// expand-then-walk loop bit for bit (pinned by test); channel- or
    /// file-fed sources assimilate whatever actually arrived instead.
    ///
    /// `operators[s]` realizes stream `s` (index-aligned with the reports'
    /// `stream` fields; see [`wildfire_obs::ObsStreamSpec::build_operator`]).
    /// A report whose nominal time is already behind the members (late
    /// data the drop policy let through) is assimilated at the members'
    /// current time — the forecast simply does not step backwards.
    /// `inbox` is caller scratch, recycled internally; reports appended
    /// after this call's polls are picked up next call.
    ///
    /// # Errors
    /// Source, model, observation-operator, and filter failures. On error,
    /// already-analyzed groups keep their effect (the members are left at
    /// the last successfully analyzed state).
    #[allow(clippy::too_many_arguments)]
    pub fn cycle_source_ws(
        &self,
        members: &mut [CoupledState],
        source: &mut dyn ObsSource,
        inbox: &mut ObsInbox,
        operators: &[Box<dyn ObservationOperator>],
        filter: ObsFilter<'_>,
        t_target: f64,
        dt: f64,
        rng: &mut GaussianSampler,
        ws: &mut EnsembleWorkspace,
    ) -> Result<SourceCycleReport> {
        let mut report = SourceCycleReport::default();
        if members.is_empty() {
            return Ok(report);
        }
        // Drain-and-analyze until the source has nothing more due at
        // t_target: a channel may receive further reports while earlier
        // analyses run, and those must not wait for the next call.
        loop {
            inbox.recycle();
            source.poll(t_target, inbox).map_err(EnsembleError::Store)?;
            if inbox.due.is_empty() {
                break;
            }
            let mut start = 0;
            while start < inbox.due.len() {
                let t_group = inbox.due[start].time;
                let mut end = start + 1;
                while end < inbox.due.len() && inbox.due[end].time <= t_group + TIME_EPS {
                    end += 1;
                }
                let mut pool = ObsSet::new();
                for r in &inbox.due[start..end] {
                    let op = operators.get(r.stream).ok_or(EnsembleError::Config(
                        "observation report references an unknown stream",
                    ))?;
                    pool.push(op.as_ref(), &r.data)
                        .map_err(EnsembleError::Store)?;
                }
                // Late data never steps the members backwards: the group's
                // forecast target is clamped to the current member time.
                let t_analysis = t_group.max(members[0].time());
                let cycle = self.cycle_obs_ws(members, &pool, filter, t_analysis, dt, rng, ws)?;
                report.analyses += 1;
                report.reports_assimilated += end - start;
                report.last = Some(cycle);
                start = end;
            }
        }
        inbox.recycle();
        if members[0].time() < t_target - TIME_EPS {
            self.forecast_ws(members, t_target, dt, ws)?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate_coupled_ensemble;
    use crate::store::MemStore;
    use wildfire_atmos::state::AtmosGrid;
    use wildfire_atmos::{AtmosError, AtmosParams};
    use wildfire_enkf::{EnkfError, RegistrationConfig};
    use wildfire_fire::{FuelCategory, IgnitionShape};
    use wildfire_obs::StridedPsi;

    /// A short-grass model on an `n`×`n`×4 atmosphere, refinement 4.
    fn model(n: usize) -> CoupledModel {
        CoupledModel::new(
            AtmosGrid {
                nx: n,
                ny: n,
                nz: 4,
                dx: 60.0,
                dy: 60.0,
                dz: 50.0,
            },
            AtmosParams::default(),
            FuelCategory::ShortGrass,
            4,
        )
        .unwrap()
    }

    fn driver(threads: usize) -> EnsembleDriver {
        EnsembleDriver::new(model(6), threads)
    }

    /// Identical-twin ψ observations: the truth's ψ at every `stride`-th
    /// fire-mesh node (σ = `sigma`), ready to push into an [`ObsSet`].
    fn strided_psi(truth: &FireState, stride: usize, sigma: f64) -> (StridedPsi, Vec<f64>) {
        let op = StridedPsi::new(truth.grid(), stride, sigma);
        let mut data = Vec::new();
        op.measure_truth_into(truth, &mut data).unwrap();
        (op, data)
    }

    /// `n` members of a 25 m circle ignited around `center`, each moved
    /// by a Gaussian displacement of std `spread` (m) drawn as
    /// `wildfire_sim::perturb` draws it: the identical-twin setup of Fig. 4.
    fn displaced(
        d: &EnsembleDriver,
        n: usize,
        center: (f64, f64),
        spread: f64,
        seed: u64,
    ) -> Vec<CoupledState> {
        let mut rng = GaussianSampler::new(seed);
        let nominal = [IgnitionShape::Circle {
            center,
            radius: 25.0,
        }];
        (0..n)
            .map(|_| {
                let shapes = wildfire_fire::ignition::displaced(&nominal, spread, &mut rng);
                d.model.ignite(&shapes, 0.0)
            })
            .collect()
    }

    /// The tests' ensemble: `n` members around (180, 180), σ = 15 m.
    fn ensemble(d: &EnsembleDriver, n: usize) -> Vec<CoupledState> {
        displaced(d, n, (180.0, 180.0), 15.0, 99)
    }

    #[test]
    fn test_ensemble_is_perturbed() {
        // The analysis tests below rely on members that differ.
        let d = driver(1);
        let members = ensemble(&d, 6);
        assert_eq!(members.len(), 6);
        // Not all members identical.
        let a0 = members[0].fire.burned_area();
        assert!(a0 > 0.0);
        let centroids: Vec<_> = members
            .iter()
            .map(|m| wildfire_fire::perimeter::burned_centroid(&m.fire.psi).unwrap())
            .collect();
        assert!(centroids.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn parallel_forecast_matches_serial() {
        let d1 = driver(1);
        let d4 = driver(4);
        let mut serial = ensemble(&d1, 5);
        let mut parallel = serial.clone();
        d1.forecast_ws(&mut serial, 2.0, 0.5, &mut EnsembleWorkspace::new())
            .unwrap();
        d4.forecast_ws(&mut parallel, 2.0, 0.5, &mut EnsembleWorkspace::new())
            .unwrap();
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(
                a.fire.psi, b.fire.psi,
                "parallel forecast must be deterministic"
            );
            assert_eq!(a.atmos.theta, b.atmos.theta);
        }
    }

    #[test]
    fn shard_forecast_reports_the_lowest_failing_member() {
        // Two members fail with different variants: one is missing from
        // the store, one was saved by another model. Whichever worker
        // reaches its failure first, the lowest index's error comes back.
        let other = model(5);
        for (missing, foreign) in [(1, 3), (3, 1)] {
            for threads in 1..=4 {
                for _ in 0..3 {
                    let d = driver(threads);
                    let mut members = ensemble(&d, 5);
                    let store = MemStore::new();
                    let mut snap = Snapshot::new();
                    for (i, m) in members.iter().enumerate().filter(|(i, _)| *i != missing) {
                        let model = if i == foreign { &other } else { &d.model };
                        model.snapshot_into(m, None, &mut snap);
                        store.save(i, &snap).unwrap();
                    }
                    let err = d
                        .forecast_shard_via_store(
                            &mut members,
                            0,
                            &store,
                            1.0,
                            0.5,
                            &mut EnsembleWorkspace::new(),
                        )
                        .unwrap_err();
                    let lowest_is_missing = missing < foreign;
                    assert!(
                        matches!(
                            (&err, lowest_is_missing),
                            (EnsembleError::Config(_), true) | (EnsembleError::Store(_), false)
                        ),
                        "threads {threads}, missing {missing}, foreign {foreign}: {err:?}"
                    );
                }
            }
        }
    }

    /// A member whose wind is NaN, or so fast that its CFL bound asks for
    /// more than the coupled step's sub-step limit, fails the forecast at
    /// its first step with its atmosphere clock where it was; the other
    /// members still complete.
    #[test]
    fn forecast_refuses_a_blown_up_member_at_its_first_step() {
        use wildfire_core::CoupledError;
        for (what, u) in [("NaN", f64::NAN), ("1e7 m/s", 1e7)] {
            for threads in [1, 2] {
                let d = driver(threads);
                let mut members = ensemble(&d, 3);
                members[1].atmos.u[5] = u;
                let err = d
                    .forecast_ws(&mut members, 1.0, 0.5, &mut EnsembleWorkspace::new())
                    .unwrap_err();
                // NaN fails the atmosphere's CFL check; 1e7 m/s fails the
                // sub-step limit before the first sub-step.
                let expected = match &err {
                    EnsembleError::Model(CoupledError::Atmos(AtmosError::CflViolation {
                        ..
                    })) => u.is_nan(),
                    EnsembleError::Model(CoupledError::Config(_)) => !u.is_nan(),
                    _ => false,
                };
                assert!(expected, "{what}, threads {threads}: {err:?}");
                assert_eq!(members[1].atmos.time, 0.0, "{what}, threads {threads}");
                for m in [&members[0], &members[2]] {
                    assert!((m.time() - 1.0).abs() < 1e-9, "{what}, threads {threads}");
                }
            }
        }
    }

    #[test]
    fn forecast_refuses_a_member_on_another_atmosphere_grid() {
        // The member's fire mesh is the model's; only its atmosphere comes
        // from a 5×5×4 model. That is a configuration error for the
        // ensemble, not a panic in the atmosphere's indexing.
        let other = model(5);
        let nominal = [IgnitionShape::Circle {
            center: (150.0, 150.0),
            radius: 25.0,
        }];
        for threads in [1, 2] {
            let d = driver(threads);
            let mut members = ensemble(&d, 3);
            members[1].atmos = other.ignite(&nominal, 0.0).atmos;
            let err = d
                .forecast_ws(&mut members, 1.0, 0.5, &mut EnsembleWorkspace::new())
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    EnsembleError::Model(wildfire_core::CoupledError::Config(_))
                ),
                "threads {threads}: {err:?}"
            );
        }
    }

    #[test]
    fn store_routed_forecast_matches_direct() {
        let d = driver(2);
        let mut direct = ensemble(&d, 4);
        let mut routed = direct.clone();
        d.forecast_ws(&mut direct, 1.5, 0.5, &mut EnsembleWorkspace::new())
            .unwrap();
        let store = MemStore::new();
        d.forecast_via_store_ws(&mut routed, &store, 1.5, 0.5, &mut EnsembleWorkspace::new())
            .unwrap();
        for (a, b) in direct.iter().zip(routed.iter()) {
            assert_eq!(a.fire.psi, b.fire.psi);
            assert_eq!(a.fire.tig, b.fire.tig);
        }
        assert_eq!(store.members().len(), 4);
    }

    #[test]
    fn member_snapshot_bytes_are_pinned() {
        // The member exchange format: FNV-1a of a member's serialized
        // snapshot, at ignition and after 10 coupled steps. A codec change
        // must leave these bytes as they are.
        let fnv = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let d = driver(1);
        let mut state = ensemble(&d, 1).remove(0);
        let mut snap = Snapshot::new();
        let mut hashes = Vec::new();
        for t in [0.0, 5.0] {
            d.model
                .run_ws(&mut state, t, 0.5, &mut CoupledWorkspace::new(), |_, _| {})
                .unwrap();
            d.model.snapshot_into(&state, None, &mut snap);
            hashes.push(fnv(&snap.to_bytes()));
        }
        assert_eq!(
            hashes,
            [0x16aa_aca4_41d3_3920, 0x4be4_7823_06ee_65d5],
            "{hashes:#018x?}"
        );
    }

    #[test]
    fn standard_analysis_pulls_psi_toward_truth() {
        let d = driver(2);
        let mut members = ensemble(&d, 8);
        let truth = d.model.ignite(
            &[IgnitionShape::Circle {
                center: (200.0, 200.0),
                radius: 25.0,
            }],
            0.0,
        );
        let before: f64 = members
            .iter()
            .map(|m| m.fire.psi.rmse(&truth.fire.psi).unwrap())
            .sum::<f64>()
            / 8.0;
        let (op, data) = strided_psi(&truth.fire, 5, 1.0);
        let mut pool = ObsSet::new();
        pool.push(&op, &data).unwrap();
        let mut rng = GaussianSampler::new(5);
        d.analyze_obs_ws(
            &mut members,
            &pool,
            1.0,
            &mut rng,
            &mut EnsembleWorkspace::new(),
        )
        .unwrap();
        let after: f64 = members
            .iter()
            .map(|m| m.fire.psi.rmse(&truth.fire.psi).unwrap())
            .sum::<f64>()
            / 8.0;
        assert!(after < before, "ψ RMSE must drop: {before} → {after}");
        for m in &members {
            assert!(m.fire.is_consistent());
        }
    }

    #[test]
    fn morphing_analysis_moves_displaced_ensemble() {
        let d = driver(2);
        // Ensemble at the wrong location (Fig. 4 setup).
        let mut members = displaced(&d, 6, (140.0, 140.0), 10.0, 7);
        let truth = d.model.ignite(
            &[IgnitionShape::Circle {
                center: (240.0, 240.0),
                radius: 25.0,
            }],
            0.0,
        );
        let cfg = MorphingConfig {
            registration: RegistrationConfig {
                max_shift: 160.0,
                shift_samples: 9,
                levels: vec![3],
                iterations: 20,
                ..Default::default()
            },
            sigma_amplitude: 2.0,
            sigma_displacement: 4.0,
            observed_fields: vec![0],
            ..Default::default()
        };
        let before = evaluate_coupled_ensemble(&members, &truth);
        // A stride-1 gridded ψ stream: the dense thermal map the morphing
        // filter registers against.
        let (op, data) = strided_psi(&truth.fire, 1, 1.0);
        let mut pool = ObsSet::new();
        pool.push(&op, &data).unwrap();
        let mut rng = GaussianSampler::new(11);
        d.analyze_obs_morphing_ws(
            &mut members,
            &pool,
            &cfg,
            &mut rng,
            &mut EnsembleWorkspace::new(),
        )
        .unwrap();
        let after = evaluate_coupled_ensemble(&members, &truth);
        assert!(
            after.mean_position_error < 0.6 * before.mean_position_error,
            "morphing must close the position gap: {} → {}",
            before.mean_position_error,
            after.mean_position_error
        );
        for m in &members {
            assert!(m.fire.is_consistent());
            assert!(m.fire.burned_area() > 0.0, "fire must survive the morph");
        }
    }

    #[test]
    fn workspace_cycle_matches_allocating_cycle_bitwise() {
        // Two consecutive cycles through ONE workspace must stay
        // bit-identical to cycles that each start from a fresh workspace:
        // the workspace carries capacity, never state.
        let d = driver(3);
        let truth = d.model.ignite(
            &[IgnitionShape::Circle {
                center: (200.0, 200.0),
                radius: 25.0,
            }],
            0.0,
        );
        let (op, data) = strided_psi(&truth.fire, 7, 2.0);
        let mut pool = ObsSet::new();
        pool.push(&op, &data).unwrap();
        let filter = ObsFilter::Standard { inflation: 1.0 };

        let mut fresh = ensemble(&d, 6);
        let mut reused = fresh.clone();
        let mut ws = EnsembleWorkspace::new();
        let mut rng_a = GaussianSampler::new(3);
        let mut rng_b = GaussianSampler::new(3);
        for k in 0..2 {
            let t = 1.0 + k as f64;
            let mut once = EnsembleWorkspace::new();
            d.cycle_obs_ws(&mut fresh, &pool, filter, t, 0.5, &mut rng_a, &mut once)
                .unwrap();
            d.cycle_obs_ws(&mut reused, &pool, filter, t, 0.5, &mut rng_b, &mut ws)
                .unwrap();
            for (a, b) in fresh.iter().zip(reused.iter()) {
                assert_eq!(a.fire.psi, b.fire.psi, "cycle {k}");
                assert_eq!(a.fire.tig, b.fire.tig, "cycle {k}");
                assert_eq!(a.atmos.theta, b.atmos.theta, "cycle {k}");
            }
        }
    }

    #[test]
    fn heterogeneous_pool_pulls_ensemble_toward_truth() {
        // Strided ψ + a 4-station temperature network in ONE analysis.
        let d = driver(2);
        let truth = d.model.ignite(
            &[IgnitionShape::Circle {
                center: (200.0, 200.0),
                radius: 25.0,
            }],
            0.0,
        );
        let mut members = ensemble(&d, 8);

        let psi_op = wildfire_obs::StridedPsi::new(truth.fire.grid(), 5, 1.0);
        let mut psi_data = Vec::new();
        psi_op
            .measure_truth_into(&truth.fire, &mut psi_data)
            .unwrap();
        let st_op = wildfire_obs::StationTemperatures::new(
            vec![
                wildfire_obs::WeatherStation::new("S0", 120.0, 120.0),
                wildfire_obs::WeatherStation::new("S1", 240.0, 120.0),
                wildfire_obs::WeatherStation::new("S2", 120.0, 240.0),
                wildfire_obs::WeatherStation::new("S3", 240.0, 240.0),
            ],
            300.0,
            1.0,
        );
        let mut st_data = Vec::new();
        let mut rng_data = GaussianSampler::new(8);
        wildfire_obs::synthesize_measurements(&st_op, &truth, &mut rng_data, &mut st_data).unwrap();

        let mut pool = wildfire_obs::ObsSet::new();
        pool.push(&psi_op, &psi_data).unwrap();
        pool.push(&st_op, &st_data).unwrap();
        assert_eq!(pool.len(), 2);

        let before: f64 = members
            .iter()
            .map(|m| m.fire.psi.rmse(&truth.fire.psi).unwrap())
            .sum::<f64>()
            / 8.0;
        let mut rng = GaussianSampler::new(5);
        let mut ws = EnsembleWorkspace::new();
        d.analyze_obs_ws(&mut members, &pool, 1.0, &mut rng, &mut ws)
            .unwrap();
        let after: f64 = members
            .iter()
            .map(|m| m.fire.psi.rmse(&truth.fire.psi).unwrap())
            .sum::<f64>()
            / 8.0;
        assert!(after < before, "ψ RMSE must drop: {before} → {after}");
        for m in &members {
            assert!(m.fire.is_consistent());
        }
    }

    #[test]
    fn etkf_pool_variant_is_deterministic_and_improves_fit() {
        let d = driver(2);
        let truth = d.model.ignite(
            &[IgnitionShape::Circle {
                center: (200.0, 200.0),
                radius: 25.0,
            }],
            0.0,
        );
        let (psi_op, data) = strided_psi(&truth.fire, 7, 1.0);
        let mut pool = ObsSet::new();
        pool.push(&psi_op, &data).unwrap();

        let members0 = ensemble(&d, 6);
        let before: f64 = members0
            .iter()
            .map(|m| m.fire.psi.rmse(&truth.fire.psi).unwrap())
            .sum::<f64>()
            / 6.0;
        // A cycle to the members' own time: no forecast step, one ETKF
        // analysis. The filter draws nothing from the RNG.
        let run = |mut members: Vec<CoupledState>| {
            let mut ws = EnsembleWorkspace::new();
            let mut rng = GaussianSampler::new(0);
            let filter = ObsFilter::Etkf { inflation: 1.0 };
            d.cycle_obs_ws(&mut members, &pool, filter, 0.0, 0.5, &mut rng, &mut ws)
                .unwrap();
            members
        };
        let a = run(members0.clone());
        let b = run(members0);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.fire.psi, y.fire.psi, "ETKF must be deterministic");
        }
        let after: f64 = a
            .iter()
            .map(|m| m.fire.psi.rmse(&truth.fire.psi).unwrap())
            .sum::<f64>()
            / 6.0;
        assert!(after < before, "ψ RMSE must drop: {before} → {after}");
    }

    #[test]
    fn morphing_pool_without_gridded_stream_rejected() {
        let d = driver(1);
        let mut members = ensemble(&d, 4);
        let st_op = wildfire_obs::StationTemperatures::new(
            vec![wildfire_obs::WeatherStation::new("S", 200.0, 200.0)],
            300.0,
            1.0,
        );
        let data = vec![300.0];
        let mut pool = wildfire_obs::ObsSet::new();
        pool.push(&st_op, &data).unwrap();
        let mut rng = GaussianSampler::new(1);
        let mut ws = EnsembleWorkspace::new();
        let err = d.analyze_obs_morphing_ws(
            &mut members,
            &pool,
            &MorphingConfig::default(),
            &mut rng,
            &mut ws,
        );
        assert!(matches!(err, Err(EnsembleError::Config(_))));
    }

    #[test]
    fn morphing_rejects_non_finite_member_and_leaves_members_unchanged() {
        // One NaN ψ node in one member: the registration refuses it by name
        // before any analysis runs, and no member is written.
        let d = driver(2);
        let mut members = ensemble(&d, 4);
        let truth = d.model.ignite(
            &[IgnitionShape::Circle {
                center: (200.0, 200.0),
                radius: 25.0,
            }],
            0.0,
        );
        members[2].fire.psi.set(7, 9, f64::NAN);
        let bits = |ms: &[CoupledState]| -> Vec<u64> {
            ms.iter()
                .flat_map(|m| m.fire.psi.as_slice().iter().chain(m.fire.tig.as_slice()))
                .map(|v| v.to_bits())
                .collect()
        };
        let before = bits(&members);
        let (op, data) = strided_psi(&truth.fire, 1, 1.0);
        let mut pool = ObsSet::new();
        pool.push(&op, &data).unwrap();
        let mut rng = GaussianSampler::new(3);
        let err = d.analyze_obs_morphing_ws(
            &mut members,
            &pool,
            &MorphingConfig::default(),
            &mut rng,
            &mut EnsembleWorkspace::new(),
        );
        assert!(
            matches!(
                err,
                Err(EnsembleError::Filter(EnkfError::NonFiniteField {
                    what: "registered field"
                }))
            ),
            "{err:?}"
        );
        assert_eq!(bits(&members), before, "a failed analysis must not write");
    }

    #[test]
    fn parallel_pack_bitwise_matches_serial_across_thread_counts() {
        // The member-parallel H(X) packing must reproduce the serial
        // ObsSet::pack_into bit for bit for every worker count, scratch
        // reuse and chunking invisible in the packed (y, H(X), R).
        let d = driver(1);
        let members = ensemble(&d, 7);
        let truth = d.model.ignite(
            &[IgnitionShape::Circle {
                center: (200.0, 200.0),
                radius: 25.0,
            }],
            0.0,
        );
        let psi_op = wildfire_obs::StridedPsi::new(truth.fire.grid(), 5, 1.0);
        let mut psi_data = Vec::new();
        psi_op
            .measure_truth_into(&truth.fire, &mut psi_data)
            .unwrap();
        let st_op = wildfire_obs::StationTemperatures::new(
            vec![
                wildfire_obs::WeatherStation::new("S0", 120.0, 120.0),
                wildfire_obs::WeatherStation::new("S1", 240.0, 240.0),
            ],
            300.0,
            1.0,
        );
        let st_data = vec![301.0, 299.0];
        let mut pool = wildfire_obs::ObsSet::new();
        pool.push(&psi_op, &psi_data).unwrap();
        pool.push(&st_op, &st_data).unwrap();

        let mut serial = wildfire_obs::ObsWorkspace::new();
        pool.pack_into(&members, &mut serial).unwrap();
        let serial_bits: Vec<u64> = serial.hx.as_slice().iter().map(|v| v.to_bits()).collect();
        for threads in [1usize, 2, 3, 8] {
            let dp = driver(threads);
            let mut ws = EnsembleWorkspace::new();
            dp.pack_pool_ws(&members, &pool, &mut ws).unwrap();
            let bits: Vec<u64> = ws.obs.hx.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                serial_bits, bits,
                "H(X) must match serial at {threads} threads"
            );
            assert_eq!(
                serial.data, ws.obs.data,
                "y must match at {threads} threads"
            );
            assert_eq!(serial.var, ws.obs.var, "R must match at {threads} threads");
        }
    }

    #[test]
    fn source_driven_cycle_matches_eager_walk_bitwise() {
        // The acceptance pin: assimilating through a TimelineSource must
        // reproduce the eager expand-then-walk loop bit for bit — same
        // analyses, same order, same members.
        use wildfire_obs::{ObsInbox, ObsStreamKind, ObsStreamSpec, ObsTimeline, TimelineSource};
        let d = driver(2);
        let streams = vec![
            ObsStreamSpec::new(
                ObsStreamKind::StridedPsi {
                    stride: 5,
                    sigma: 1.0,
                },
                1.0,
                1.0,
            ),
            ObsStreamSpec::new(
                ObsStreamKind::Stations {
                    locations: vec![(150.0, 150.0), (240.0, 240.0)],
                    theta0: 300.0,
                    sigma: 1.0,
                },
                1.5,
                1.5,
            ),
        ];
        let t_end = 3.0;
        let dt = 0.5;
        let timeline = ObsTimeline::from_streams(&streams, t_end);
        assert!(timeline.len() >= 4, "the schedule must mix both streams");
        let operators: Vec<Box<dyn ObservationOperator>> =
            streams.iter().map(|s| s.build_operator(&d.model)).collect();
        let truth0 = d.model.ignite(
            &[IgnitionShape::Circle {
                center: (210.0, 210.0),
                radius: 25.0,
            }],
            0.0,
        );
        let members0 = ensemble(&d, 5);
        let filter = ObsFilter::Standard { inflation: 1.01 };

        // Eager: expand, walk analysis times, synthesize + cycle.
        let mut eager = members0.clone();
        let mut truth = truth0.clone();
        let mut rng = GaussianSampler::new(17);
        let mut rng_data = GaussianSampler::new(71);
        let mut ws = EnsembleWorkspace::new();
        let mut blocks = Vec::new();
        let mut eager_analyses = 0usize;
        for t in timeline.analysis_times() {
            d.model.run(&mut truth, t, dt, |_, _| {}).unwrap();
            let pool = timeline
                .synthesize_due_pool(&operators, t, &truth, &mut rng_data, &mut blocks)
                .unwrap();
            d.cycle_obs_ws(&mut eager, &pool, filter, t, dt, &mut rng, &mut ws)
                .unwrap();
            eager_analyses += 1;
        }

        // Source-driven: the same schedule through a TimelineSource whose
        // provider replays the identical-twin synthesis.
        let mut streamed = members0.clone();
        let mut truth2 = truth0.clone();
        let mut rng2 = GaussianSampler::new(17);
        let mut rng_data2 = GaussianSampler::new(71);
        let mut ws2 = EnsembleWorkspace::new();
        let model = d.model.clone();
        let ops_for_src: Vec<Box<dyn ObservationOperator>> =
            streams.iter().map(|s| s.build_operator(&d.model)).collect();
        let mut source = TimelineSource::new(timeline.clone(), move |t, s, data| {
            model
                .run(&mut truth2, t, dt, |_, _| {})
                .map_err(|_| wildfire_obs::ObsError::Operator("truth advance failed"))?;
            wildfire_obs::synthesize_measurements(
                ops_for_src[s].as_ref(),
                &truth2,
                &mut rng_data2,
                data,
            )
        });
        let mut inbox = ObsInbox::new();
        let report = d
            .cycle_source_ws(
                &mut streamed,
                &mut source,
                &mut inbox,
                &operators,
                filter,
                t_end,
                dt,
                &mut rng2,
                &mut ws2,
            )
            .unwrap();
        assert_eq!(report.analyses, eager_analyses);
        assert_eq!(report.reports_assimilated, timeline.len());
        assert!(report.last.is_some());

        for (a, b) in eager.iter().zip(streamed.iter()) {
            assert_eq!(a.fire.psi, b.fire.psi, "ψ must match bitwise");
            assert_eq!(a.fire.tig, b.fire.tig, "t_i must match bitwise");
            assert_eq!(a.atmos.theta, b.atmos.theta, "θ must match bitwise");
        }
    }

    #[test]
    fn source_cycle_forecasts_to_target_when_source_runs_dry() {
        use wildfire_obs::{ChannelSource, ObsInbox};
        let d = driver(1);
        let mut members = ensemble(&d, 4);
        let (tx, mut source) = ChannelSource::channel();
        drop(tx); // No reports will ever arrive.
        let mut inbox = ObsInbox::new();
        let operators: Vec<Box<dyn ObservationOperator>> = Vec::new();
        let mut rng = GaussianSampler::new(1);
        let mut ws = EnsembleWorkspace::new();
        let report = d
            .cycle_source_ws(
                &mut members,
                &mut source,
                &mut inbox,
                &operators,
                ObsFilter::Standard { inflation: 1.0 },
                1.0,
                0.5,
                &mut rng,
                &mut ws,
            )
            .unwrap();
        assert_eq!(report.analyses, 0);
        for m in &members {
            assert!((m.time() - 1.0).abs() < 1e-9, "members must reach t_target");
        }
    }

    #[test]
    fn sharded_store_forecast_matches_forecast_ws() {
        // Two shard "processes", each with its own workspace and blank
        // restore targets, meeting only at the shared store: the union of
        // their forecasts must reproduce the single-process forecast bit
        // for bit — the in-process half of the sharded-exchange contract.
        let d = driver(2);
        let mut direct = ensemble(&d, 5);
        let mut ws = EnsembleWorkspace::new();
        d.forecast_ws(&mut direct, 2.0, 0.5, &mut ws).unwrap();

        let store = MemStore::new();
        let members0 = ensemble(&d, 5);
        let mut snap = Snapshot::new();
        for (i, m) in members0.iter().enumerate() {
            d.model.snapshot_into(m, None, &mut snap);
            store.save(i, &snap).unwrap();
        }
        let blank = || d.model.ignite(&[], 0.0);
        let mut shard_a: Vec<CoupledState> = (0..2).map(|_| blank()).collect();
        let mut shard_b: Vec<CoupledState> = (0..3).map(|_| blank()).collect();
        let mut ws_a = EnsembleWorkspace::new();
        let mut ws_b = EnsembleWorkspace::new();
        d.forecast_shard_via_store(&mut shard_a, 0, &store, 2.0, 0.5, &mut ws_a)
            .unwrap();
        d.forecast_shard_via_store(&mut shard_b, 2, &store, 2.0, 0.5, &mut ws_b)
            .unwrap();

        for (i, m) in shard_a.iter().chain(shard_b.iter()).enumerate() {
            assert_eq!(m.fire.psi, direct[i].fire.psi, "member {i}");
            assert_eq!(m.fire.tig, direct[i].fire.tig, "member {i}");
            assert_eq!(m.atmos, direct[i].atmos, "member {i}");
        }
        // The store now holds the advanced states for the analysis side.
        let mut got = blank();
        for (i, m) in direct.iter().enumerate() {
            store.load_into(i, &mut snap).unwrap();
            d.model.restore_from(&mut got, None, &snap).unwrap();
            assert_eq!(got.fire.psi, m.fire.psi, "stored member {i}");
        }
    }

    #[test]
    fn ensemble_checkpoint_resume_is_bitwise() {
        // Cycle → checkpoint (members + RNG, through the byte round-trip)
        // → continue, against restore-into-cold-everything → continue.
        let d = driver(2);
        let truth = d.model.ignite(
            &[IgnitionShape::Circle {
                center: (200.0, 200.0),
                radius: 25.0,
            }],
            0.0,
        );
        let op = wildfire_obs::StridedPsi::new(truth.fire.grid(), 5, 1.0);
        let mut data = Vec::new();
        op.measure_truth_into(&truth.fire, &mut data).unwrap();
        let mut pool = wildfire_obs::ObsSet::new();
        pool.push(&op, &data).unwrap();
        let filter = ObsFilter::Standard { inflation: 1.01 };

        let mut members = ensemble(&d, 5);
        let mut rng = GaussianSampler::new(21);
        let mut ws = EnsembleWorkspace::new();
        d.cycle_obs_ws(&mut members, &pool, filter, 1.0, 0.5, &mut rng, &mut ws)
            .unwrap();

        let mut snap = Snapshot::new();
        d.snapshot_into(&members, &rng, &mut snap);
        let snap = Snapshot::from_bytes(&snap.to_bytes()).unwrap();

        d.cycle_obs_ws(&mut members, &pool, filter, 2.0, 0.5, &mut rng, &mut ws)
            .unwrap();

        let mut resumed: Vec<CoupledState> = (0..5).map(|_| d.model.ignite(&[], 0.0)).collect();
        let mut rng2 = GaussianSampler::new(0);
        d.restore_from(&mut resumed, &mut rng2, &snap).unwrap();
        let mut ws2 = EnsembleWorkspace::new();
        d.cycle_obs_ws(&mut resumed, &pool, filter, 2.0, 0.5, &mut rng2, &mut ws2)
            .unwrap();

        for (i, (a, b)) in members.iter().zip(resumed.iter()).enumerate() {
            assert_eq!(a.fire.psi, b.fire.psi, "member {i}");
            assert_eq!(a.fire.tig, b.fire.tig, "member {i}");
            assert_eq!(a.atmos, b.atmos, "member {i}");
        }
    }

    #[test]
    fn ensemble_restore_rejects_mismatches() {
        let d = driver(1);
        let members = ensemble(&d, 3);
        let rng = GaussianSampler::new(1);
        let mut snap = Snapshot::new();
        d.snapshot_into(&members, &rng, &mut snap);

        // Wrong member count: rejected before any state is touched.
        let mut four: Vec<CoupledState> = (0..4).map(|_| d.model.ignite(&[], 0.0)).collect();
        let mut r = GaussianSampler::new(2);
        assert!(d.restore_from(&mut four, &mut r, &snap).is_err());

        // Wrong model configuration: fingerprint mismatch.
        let other = EnsembleDriver::new(
            CoupledModel::new(
                AtmosGrid {
                    nx: 7,
                    ny: 6,
                    nz: 4,
                    dx: 60.0,
                    dy: 60.0,
                    dz: 50.0,
                },
                AtmosParams::default(),
                FuelCategory::ShortGrass,
                4,
            )
            .unwrap(),
            1,
        );
        let mut three: Vec<CoupledState> = (0..3).map(|_| other.model.ignite(&[], 0.0)).collect();
        assert!(other.restore_from(&mut three, &mut r, &snap).is_err());
    }

    #[test]
    fn too_few_members_rejected() {
        let d = driver(1);
        let mut members = ensemble(&d, 1);
        let truth = members[0].clone();
        let (op, data) = strided_psi(&truth.fire, 5, 1.0);
        let mut pool = ObsSet::new();
        pool.push(&op, &data).unwrap();
        let mut rng = GaussianSampler::new(1);
        assert!(d
            .analyze_obs_ws(
                &mut members,
                &pool,
                1.0,
                &mut rng,
                &mut EnsembleWorkspace::new()
            )
            .is_err());
    }
}
