//! Versioned named-record files: full-state checkpoints and the
//! observation log.
//!
//! A [`Snapshot`] carries *everything* a bitwise restore needs: the
//! level-set field and ignition times, the atmosphere's prognostic fields,
//! clock and ambient wind, RNG provenance, and a fingerprint of the
//! producing configuration so a snapshot cannot silently restore into the
//! wrong model. The headline contract is exact: checkpoint mid-run →
//! restore → continue must reproduce the uninterrupted run bit for bit.
//! The same container carries the append-only observation log of
//! [`crate::ObsLogWriter`] / [`crate::StateFileTail`] — the disk files of
//! the paper's Fig. 2 dataflow.
//!
//! Format: magic `WFST`, version `u32`, record count `u32`, then per record
//! a length-prefixed UTF-8 name, an element count `u64`, and little-endian
//! `f64` payload. The API is workspace-shaped like the rest of the
//! codebase: `*_into` methods reuse the caller's buffers, so steady-state
//! checkpointing performs no heap allocation once record names and payload
//! capacities are warm.

use crate::{ObsError, Result};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;
use wildfire_core::{CoupledModel, CoupledState, CoupledWorkspace};
use wildfire_fire::UNBURNED;

/// File magic.
const MAGIC: [u8; 4] = *b"WFST";

/// Snapshot format version (v1, a single fire state, is no longer read).
pub const SNAPSHOT_VERSION: u32 = 2;

/// A named-record container of `f64` arrays — format v2.
///
/// Record payloads are written through reusing methods
/// ([`Snapshot::put_slice`], [`Snapshot::record_mut`]) so repeatedly
/// snapshotting into the same container allocates nothing once warm.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    records: BTreeMap<String, Vec<f64>>,
}

impl Snapshot {
    /// Empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the snapshot holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Record names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.records.keys().map(|s| s.as_str())
    }

    /// Inserts or overwrites a record, reusing the existing payload buffer
    /// when the name is already present (the steady-state path).
    pub fn put_slice(&mut self, name: &str, data: &[f64]) {
        let rec = self.record_mut(name);
        rec.extend_from_slice(data);
    }

    /// Inserts or overwrites a single-element record.
    pub fn put_scalar(&mut self, name: &str, value: f64) {
        self.put_slice(name, &[value]);
    }

    /// Inserts or overwrites a `u64` carried bitwise inside an `f64` slot
    /// (little-endian serialization preserves the bit pattern exactly).
    pub fn put_u64(&mut self, name: &str, value: u64) {
        self.put_scalar(name, f64::from_bits(value));
    }

    /// Clears and returns the payload buffer for `name`, inserting an empty
    /// record first if absent. The caller fills it in place — the zero-copy
    /// seam for encoders that map values while writing (e.g. the UNBURNED
    /// sentinel).
    pub fn record_mut(&mut self, name: &str) -> &mut Vec<f64> {
        // Avoid allocating the key when the record already exists.
        if !self.records.contains_key(name) {
            self.records.insert(name.to_string(), Vec::new());
        }
        let rec = self.records.get_mut(name).expect("just ensured");
        rec.clear();
        rec
    }

    /// Borrows a record.
    ///
    /// # Errors
    /// [`ObsError::MissingRecord`] when absent.
    pub fn get(&self, name: &str) -> Result<&[f64]> {
        self.records
            .get(name)
            .map(|v| v.as_slice())
            .ok_or_else(|| ObsError::MissingRecord(name.to_string()))
    }

    /// Reads a single-element record.
    ///
    /// # Errors
    /// [`ObsError::MissingRecord`] when absent; [`ObsError::BadStateFile`]
    /// when not exactly one element.
    pub fn get_scalar(&self, name: &str) -> Result<f64> {
        let rec = self.get(name)?;
        if rec.len() != 1 {
            return Err(ObsError::BadStateFile(format!(
                "record {name} must hold exactly one value"
            )));
        }
        Ok(rec[0])
    }

    /// Reads a `u64` stored bitwise by [`Snapshot::put_u64`].
    ///
    /// # Errors
    /// As [`Snapshot::get_scalar`].
    pub fn get_u64(&self, name: &str) -> Result<u64> {
        Ok(self.get_scalar(name)?.to_bits())
    }

    /// Serializes into `out` (cleared first; capacity is reused).
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for (name, data) in &self.records {
            let name_bytes = name.as_bytes();
            out.extend_from_slice(&(name_bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(name_bytes);
            out.extend_from_slice(&(data.len() as u64).to_le_bytes());
            for v in data {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    /// Serializes to a fresh byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.serialize_into(&mut out);
        out
    }

    /// Parses from bytes.
    ///
    /// # Errors
    /// [`ObsError::BadStateFile`] on any structural problem, including a v1
    /// (or any non-v2) header.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut snap = Snapshot::new();
        Self::from_bytes_into(bytes, &mut snap)?;
        Ok(snap)
    }

    /// Allocation-free [`Snapshot::from_bytes`]: parses into `snap`, reusing
    /// payload buffers of same-named records. When the byte stream's record
    /// set matches `snap`'s (the steady-state exchange path), no heap
    /// allocation occurs; on a schema change the container is rebuilt.
    ///
    /// On error `snap` may hold a partial record set — callers must treat
    /// it as undefined until the next successful parse.
    ///
    /// # Errors
    /// As [`Snapshot::from_bytes`].
    pub fn from_bytes_into(bytes: &[u8], snap: &mut Snapshot) -> Result<()> {
        let parsed = Self::parse_into(bytes, snap)?;
        if snap.records.len() != parsed {
            // Stale records from a previous schema linger; rebuild clean.
            snap.records.clear();
            Self::parse_into(bytes, snap)?;
        }
        Ok(())
    }

    /// Header + record parse; fills `snap` (reusing same-named buffers) and
    /// returns the record count declared by the stream. Record names must
    /// be strictly increasing — the order [`Snapshot::serialize_into`]
    /// writes — so a repeated name cannot overwrite an earlier record or
    /// leave a stale one standing.
    fn parse_into(bytes: &[u8], snap: &mut Snapshot) -> Result<usize> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            if *pos + n > bytes.len() {
                return Err(ObsError::BadStateFile("truncated snapshot".into()));
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let magic = take(&mut pos, 4)?;
        if magic != MAGIC {
            return Err(ObsError::BadStateFile("bad magic".into()));
        }
        let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(ObsError::BadStateFile(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let mut previous: Option<&str> = None;
        for _ in 0..count {
            let name_len =
                u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
            let name = std::str::from_utf8(take(&mut pos, name_len)?)
                .map_err(|_| ObsError::BadStateFile("non-utf8 record name".into()))?;
            if previous.is_some_and(|p| name <= p) {
                return Err(ObsError::BadStateFile(format!(
                    "record {name:?} repeated or out of order"
                )));
            }
            previous = Some(name);
            let len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
            // Bound the element count by the remaining bytes before any
            // reservation, so a corrupt length cannot balloon memory.
            if bytes.len() - pos < len.saturating_mul(8) {
                return Err(ObsError::BadStateFile("truncated snapshot".into()));
            }
            let payload = take(&mut pos, len * 8)?;
            let rec = snap.record_mut(name);
            rec.reserve(len);
            for chunk in payload.chunks_exact(8) {
                rec.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
            }
        }
        if pos != bytes.len() {
            return Err(ObsError::BadStateFile("trailing bytes".into()));
        }
        Ok(count)
    }

    /// Writes atomically: serialize to `path.tmp` in the same directory,
    /// fsync, then rename onto `path`, so a concurrent reader sees either
    /// the previous file or this one, never a torn mix.
    ///
    /// # Errors
    /// I/O failures.
    pub fn write(&self, path: &Path) -> Result<()> {
        let mut buf = Vec::new();
        self.write_buf(path, &mut buf)
    }

    /// [`Snapshot::write`] with a caller-owned byte buffer (cleared and
    /// reused), so repeated disk exchange allocates nothing once warm.
    ///
    /// # Errors
    /// I/O failures.
    pub fn write_buf(&self, path: &Path, buf: &mut Vec<u8>) -> Result<()> {
        self.serialize_into(buf);
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(buf)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and parses a snapshot file.
    ///
    /// # Errors
    /// I/O and format failures.
    pub fn read(path: &Path) -> Result<Self> {
        let mut snap = Snapshot::new();
        let mut buf = Vec::new();
        Self::read_into(path, &mut snap, &mut buf)?;
        Ok(snap)
    }

    /// Allocation-free [`Snapshot::read`]: the file bytes land in `buf`
    /// (cleared and reused) and records are parsed into `snap` through
    /// [`Snapshot::from_bytes_into`].
    ///
    /// # Errors
    /// I/O and format failures.
    pub fn read_into(path: &Path, snap: &mut Snapshot, buf: &mut Vec<u8>) -> Result<()> {
        buf.clear();
        std::fs::File::open(path)?.read_to_end(buf)?;
        Self::from_bytes_into(buf, snap)
    }
}

/// The configuration fingerprint record: grids and coupling flag of the
/// producing model, checked on restore so a snapshot cannot be deserialized
/// into a structurally different model.
const FINGERPRINT: &str = "model/fingerprint";

fn fingerprint(model: &CoupledModel) -> [f64; 13] {
    let fg = model.fire_grid;
    let ag = model.atmos.grid;
    [
        fg.nx as f64,
        fg.ny as f64,
        fg.dx,
        fg.dy,
        fg.origin.0,
        fg.origin.1,
        ag.nx as f64,
        ag.ny as f64,
        ag.nz as f64,
        ag.dx,
        ag.dy,
        ag.dz,
        if model.coupled { 1.0 } else { 0.0 },
    ]
}

/// Writes `states`, N states of `model`, into `snap`: the model's
/// fingerprint plus one record per field holding the N states' values
/// member-major. For one state these are the member snapshot's records.
/// Ignition times are stored with `UNBURNED` mapped to the exactly
/// representable `f64::MAX`. Reuses `snap`'s buffers, so it allocates
/// nothing once warm.
pub fn snapshot_states_into(model: &CoupledModel, states: &[CoupledState], snap: &mut Snapshot) {
    snap.put_slice(FINGERPRINT, &fingerprint(model));
    let mut put = |name: &str, each: &dyn Fn(&CoupledState, &mut Vec<f64>)| {
        let rec = snap.record_mut(name);
        for s in states {
            each(s, rec);
        }
    };
    put("fire/psi", &|s, r| {
        r.extend_from_slice(s.fire.psi.as_slice())
    });
    put("fire/tig", &|s, r| {
        r.extend(
            s.fire
                .tig
                .as_slice()
                .iter()
                .map(|&t| if t.is_finite() { t } else { f64::MAX }),
        );
    });
    put("fire/time", &|s, r| r.push(s.fire.time));
    put("atmos/u", &|s, r| r.extend_from_slice(&s.atmos.u));
    put("atmos/v", &|s, r| r.extend_from_slice(&s.atmos.v));
    put("atmos/w", &|s, r| r.extend_from_slice(&s.atmos.w));
    put("atmos/theta", &|s, r| r.extend_from_slice(&s.atmos.theta));
    put("atmos/qv", &|s, r| r.extend_from_slice(&s.atmos.qv));
    put("atmos/time", &|s, r| r.push(s.atmos.time));
    put("atmos/ambient_wind", &|s, r| {
        r.extend_from_slice(&[s.atmos.ambient_wind.0, s.atmos.ambient_wind.1]);
    });
}

/// Restores `states` from records written by [`snapshot_states_into`] for
/// exactly `states.len()` states of `model`. The fingerprint and every
/// record's presence and length are checked before any state is written,
/// so a refused snapshot leaves every state as it was.
///
/// # Errors
/// A missing record, a record of the wrong length (which includes a
/// different state count), or a fingerprint from a different model
/// configuration.
pub fn restore_states_from(
    model: &CoupledModel,
    states: &mut [CoupledState],
    snap: &Snapshot,
) -> Result<()> {
    let rec = snap.get(FINGERPRINT)?;
    let want = fingerprint(model);
    if rec.len() != want.len()
        || rec
            .iter()
            .zip(&want)
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err(ObsError::BadStateFile(
            "snapshot fingerprint does not match the restoring model".into(),
        ));
    }
    let (fg, ag) = (model.fire_grid, model.atmos.grid);
    let n_uv = ag.nx * ag.ny * ag.nz;
    let n_w = ag.nx * ag.ny * (ag.nz + 1);
    let n_c = ag.n_cells();
    let n = states.len();
    let mut recs: [&[f64]; 10] = [&[]; 10];
    for (rec, (name, per_state)) in recs.iter_mut().zip([
        ("fire/psi", fg.len()),
        ("fire/tig", fg.len()),
        ("fire/time", 1),
        ("atmos/u", n_uv),
        ("atmos/v", n_uv),
        ("atmos/w", n_w),
        ("atmos/theta", n_c),
        ("atmos/qv", n_c),
        ("atmos/time", 1),
        ("atmos/ambient_wind", 2),
    ]) {
        *rec = snap.get(name)?;
        if rec.len() != n * per_state {
            return Err(ObsError::BadStateFile(format!(
                "record {name} holds {} values, not {per_state} for each of {n} states",
                rec.len()
            )));
        }
    }
    let [psi, tig, fire_time, u, v, w, theta, qv, atmos_time, wind] = recs;
    for (i, s) in states.iter_mut().enumerate() {
        let part = |rec| share(rec, i, n);
        // Every node is overwritten below; skip the memset.
        s.fire.psi.resize_no_zero(fg);
        s.fire.psi.as_mut_slice().copy_from_slice(part(psi));
        s.fire.tig.resize_no_zero(fg);
        for (o, &t) in s.fire.tig.as_mut_slice().iter_mut().zip(part(tig)) {
            *o = if t >= f64::MAX { UNBURNED } else { t };
        }
        s.fire.time = fire_time[i];
        for (dst, rec) in [
            (&mut s.atmos.u, u),
            (&mut s.atmos.v, v),
            (&mut s.atmos.w, w),
            (&mut s.atmos.theta, theta),
            (&mut s.atmos.qv, qv),
        ] {
            dst.clear();
            dst.extend_from_slice(part(rec));
        }
        s.atmos.grid = ag;
        s.atmos.time = atmos_time[i];
        s.atmos.ambient_wind = (wind[2 * i], wind[2 * i + 1]);
    }
    Ok(())
}

/// State `i`'s share of a record holding `n` states' values member-major.
fn share(rec: &[f64], i: usize, n: usize) -> &[f64] {
    let len = rec.len() / n;
    &rec[i * len..(i + 1) * len]
}

/// Checkpoint/restore of one state of the coupled model — implemented here
/// (the obs crate owns the on-disk format) as an extension trait over
/// [`CoupledModel`], through [`snapshot_states_into`] and
/// [`restore_states_from`] with one state.
pub trait CoupledSnapshot {
    /// Captures `state` into `snap`, reusing its buffers. Allocation-free
    /// once `snap` is warm. The workspace carries no state between steps,
    /// so `ws` contributes nothing; it stays in the signature for callers.
    fn snapshot_into(
        &self,
        state: &CoupledState,
        ws: Option<&CoupledWorkspace>,
        snap: &mut Snapshot,
    );

    /// Restores `state` from `snap`, writing into the existing buffers; a
    /// refused snapshot leaves `state` as it was. `ws` is left untouched
    /// (see [`CoupledSnapshot::snapshot_into`]).
    ///
    /// # Errors
    /// Missing records, size mismatches, or a fingerprint from a different
    /// model configuration.
    fn restore_from(
        &self,
        state: &mut CoupledState,
        ws: Option<&mut CoupledWorkspace>,
        snap: &Snapshot,
    ) -> Result<()>;
}

impl CoupledSnapshot for CoupledModel {
    fn snapshot_into(
        &self,
        state: &CoupledState,
        _ws: Option<&CoupledWorkspace>,
        snap: &mut Snapshot,
    ) {
        snapshot_states_into(self, std::slice::from_ref(state), snap);
    }

    fn restore_from(
        &self,
        state: &mut CoupledState,
        _ws: Option<&mut CoupledWorkspace>,
        snap: &Snapshot,
    ) -> Result<()> {
        restore_states_from(self, std::slice::from_mut(state), snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wildfire_atmos::state::AtmosGrid;
    use wildfire_atmos::AtmosParams;
    use wildfire_fire::ignition::IgnitionShape;
    use wildfire_fire::FuelCategory;

    fn model() -> CoupledModel {
        let grid = AtmosGrid {
            nx: 6,
            ny: 6,
            nz: 4,
            dx: 60.0,
            dy: 60.0,
            dz: 50.0,
        };
        CoupledModel::new(grid, AtmosParams::default(), FuelCategory::ShortGrass, 4).unwrap()
    }

    fn ignited(m: &CoupledModel) -> CoupledState {
        m.ignite(
            &[IgnitionShape::Circle {
                center: (150.0, 150.0),
                radius: 25.0,
            }],
            0.0,
        )
    }

    #[test]
    fn bytes_roundtrip_bitwise() {
        let mut snap = Snapshot::new();
        snap.put_slice("a", &[1.0, -2.5, f64::MAX, f64::MIN_POSITIVE]);
        snap.put_slice("b/empty", &[]);
        snap.put_u64("rng", 0xDEAD_BEEF_0123_4567);
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap, back);
        assert_eq!(back.get_u64("rng").unwrap(), 0xDEAD_BEEF_0123_4567);
        assert!(matches!(back.get("nope"), Err(ObsError::MissingRecord(_))));
    }

    #[test]
    fn from_bytes_into_reuses_and_drops_stale_records() {
        let mut a = Snapshot::new();
        a.put_slice("x", &[1.0, 2.0]);
        let bytes = a.to_bytes();
        let mut target = Snapshot::new();
        target.put_slice("x", &[9.0; 8]);
        target.put_slice("stale", &[3.0]);
        Snapshot::from_bytes_into(&bytes, &mut target).unwrap();
        assert_eq!(target, a);
    }

    /// A stream with `count` records named `names`, one value each.
    fn stream(names: &[&str]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(names.len() as u32).to_le_bytes());
        for (k, name) in names.iter().enumerate() {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&1u64.to_le_bytes());
            out.extend_from_slice(&(k as f64).to_le_bytes());
        }
        out
    }

    #[test]
    fn repeated_record_name_rejected_fresh_and_reused() {
        let bytes = stream(&["a", "a"]);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(ObsError::BadStateFile(_))
        ));
        // Over a snap holding {a, b}: refused, not Ok with a stale `b`.
        let mut snap = Snapshot::new();
        snap.put_slice("a", &[7.0]);
        snap.put_slice("b", &[8.0]);
        assert!(matches!(
            Snapshot::from_bytes_into(&bytes, &mut snap),
            Err(ObsError::BadStateFile(_))
        ));
        // The serializer's own order still parses.
        assert!(Snapshot::from_bytes(&stream(&["a", "b"])).is_ok());
    }

    #[test]
    fn out_of_order_record_names_rejected() {
        let bytes = stream(&["b", "a"]);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(ObsError::BadStateFile(_))
        ));
        let mut snap = Snapshot::new();
        snap.put_slice("a", &[1.0]);
        snap.put_slice("b", &[2.0]);
        assert!(matches!(
            Snapshot::from_bytes_into(&bytes, &mut snap),
            Err(ObsError::BadStateFile(_))
        ));
    }

    #[test]
    fn cross_version_headers_rejected_both_ways() {
        // A v1 header, and a header from a future version, are refused
        // from the header alone.
        let mut snap = Snapshot::new();
        snap.put_slice("x", &[1.0]);
        for version in [1u32, 3] {
            let mut bytes = snap.to_bytes();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            let err = Snapshot::from_bytes(&bytes).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("unsupported snapshot version {version}")),
                "got: {err}"
            );
        }
    }

    #[test]
    fn rejects_truncation_corruption_and_trailing() {
        let mut snap = Snapshot::new();
        snap.put_slice("x", &[1.0, 2.0, 3.0]);
        let bytes = snap.to_bytes();
        for cut in 1..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..bytes.len() - cut]).is_err(),
                "truncation by {cut} must be rejected"
            );
        }
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        assert!(Snapshot::from_bytes(&bad).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(Snapshot::from_bytes(&long).is_err());
    }

    #[test]
    fn corrupt_length_cannot_balloon_memory() {
        let mut snap = Snapshot::new();
        snap.put_slice("x", &[1.0]);
        let mut bytes = snap.to_bytes();
        // The element-count u64 sits after magic(4)+ver(4)+count(4)+
        // namelen(4)+name(1).
        let len_at = 4 + 4 + 4 + 4 + 1;
        bytes[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Snapshot::from_bytes(&bytes).is_err());
    }

    #[test]
    fn coupled_snapshot_roundtrip_bitwise() {
        let m = model();
        let mut state = ignited(&m);
        let mut ws = CoupledWorkspace::new();
        m.run_ws(&mut state, 2.0, 0.5, &mut ws, |_, _| {}).unwrap();
        // The ambient wind is state: a value no fresh state holds survives.
        state.atmos.ambient_wind = (1.5, -2.25);

        let mut snap = Snapshot::new();
        m.snapshot_into(&state, Some(&ws), &mut snap);
        let snap = Snapshot::from_bytes(&snap.to_bytes()).unwrap();

        let mut restored = m.ignite(&[], 0.0);
        let mut ws2 = CoupledWorkspace::new();
        m.restore_from(&mut restored, Some(&mut ws2), &snap)
            .unwrap();
        assert_eq!(state.fire.psi, restored.fire.psi);
        assert_eq!(state.fire.tig, restored.fire.tig);
        assert_eq!(state.atmos, restored.atmos);

        // Continue both and require bitwise agreement.
        m.run_ws(&mut state, 4.0, 0.5, &mut ws, |_, _| {}).unwrap();
        m.run_ws(&mut restored, 4.0, 0.5, &mut ws2, |_, _| {})
            .unwrap();
        assert_eq!(state.fire.psi, restored.fire.psi);
        assert_eq!(state.atmos, restored.atmos);
    }

    #[test]
    fn restore_rejects_wrong_model() {
        let m = model();
        let state = ignited(&m);
        let mut snap = Snapshot::new();
        m.snapshot_into(&state, None, &mut snap);

        let other = CoupledModel::new(
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
        .unwrap();
        let mut target = other.ignite(&[], 0.0);
        let err = other.restore_from(&mut target, None, &snap).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "got: {err}");
    }

    #[test]
    fn failed_restore_leaves_the_state_untouched() {
        // Drop each record in turn, then give each one a wrong length in
        // turn: every restore must fail before it writes any field.
        let m = model();
        let mut source = ignited(&m);
        m.run_ws(
            &mut source,
            2.0,
            0.5,
            &mut CoupledWorkspace::new(),
            |_, _| {},
        )
        .unwrap();
        source.atmos.ambient_wind = (1.5, -2.25);
        let mut good = Snapshot::new();
        m.snapshot_into(&source, None, &mut good);
        let mut target = m.ignite(
            &[IgnitionShape::Circle {
                center: (90.0, 200.0),
                radius: 30.0,
            }],
            0.0,
        );
        let bytes_of = |s: &CoupledState| {
            let mut snap = Snapshot::new();
            m.snapshot_into(s, None, &mut snap);
            snap.to_bytes()
        };
        let before = bytes_of(&target);
        let names: Vec<String> = good.names().map(str::to_string).collect();
        assert_eq!(names.len(), 11);
        for name in &names {
            let mut dropped = good.clone();
            dropped.records.remove(name);
            let mut long = good.clone();
            long.records.get_mut(name).unwrap().push(0.0);
            for (what, bad) in [("dropped", dropped), ("lengthened", long)] {
                assert!(
                    m.restore_from(&mut target, None, &bad).is_err(),
                    "{name} {what}"
                );
                assert!(bytes_of(&target) == before, "{name} {what}: torn state");
            }
        }
        m.restore_from(&mut target, None, &good).unwrap();
        assert_eq!(bytes_of(&target), bytes_of(&source));
    }

    #[test]
    fn snapshot_into_is_allocation_free_once_warm() {
        // Warm the snapshot, then re-capture into it: record names and
        // payload capacities must be reused (checked indirectly — equal
        // capacities, equal contents; the bench crate's counting-allocator
        // suite pins the stronger no-alloc property).
        let m = model();
        let mut state = ignited(&m);
        let mut ws = CoupledWorkspace::new();
        m.run_ws(&mut state, 1.0, 0.5, &mut ws, |_, _| {}).unwrap();
        let mut snap = Snapshot::new();
        m.snapshot_into(&state, Some(&ws), &mut snap);
        let caps: Vec<usize> = snap.records.values().map(|v| v.capacity()).collect();
        let ptrs: Vec<*const f64> = snap.records.values().map(|v| v.as_ptr()).collect();
        m.snapshot_into(&state, Some(&ws), &mut snap);
        let caps2: Vec<usize> = snap.records.values().map(|v| v.capacity()).collect();
        let ptrs2: Vec<*const f64> = snap.records.values().map(|v| v.as_ptr()).collect();
        assert_eq!(caps, caps2);
        assert_eq!(ptrs, ptrs2, "payload buffers must be reused in place");
    }

    #[test]
    fn disk_roundtrip_atomic() {
        let dir = std::env::temp_dir().join(format!("wf_snapshot_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.wfst");
        let mut snap = Snapshot::new();
        snap.put_slice("v", &(0..500).map(|i| i as f64 * 0.25).collect::<Vec<_>>());
        snap.write(&path).unwrap();
        assert!(!path.with_extension("tmp").exists());
        let back = Snapshot::read(&path).unwrap();
        assert_eq!(snap, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unburned_sentinel_survives() {
        let m = model();
        let state = ignited(&m);
        assert!(state.fire.tig.as_slice().contains(&UNBURNED));
        let mut snap = Snapshot::new();
        m.snapshot_into(&state, None, &mut snap);
        assert!(snap.get("fire/tig").unwrap().iter().all(|t| t.is_finite()));
        let mut restored = m.ignite(&[], 0.0);
        m.restore_from(&mut restored, None, &snap).unwrap();
        assert_eq!(state.fire.tig, restored.fire.tig);
    }
}
