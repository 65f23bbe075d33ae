//! Versioned full-state checkpoints.
//!
//! [`StateFile`](crate::statefile::StateFile) (format v1) carries one fire
//! state between the Fig. 2 phases. A [`Snapshot`] (format v2, same magic
//! and record layout, bumped header version) carries *everything* a bitwise
//! restore needs: the level-set field and ignition times, the atmosphere's
//! prognostic fields and clock, RNG provenance, and a fingerprint of the
//! producing configuration so a snapshot cannot silently restore into the
//! wrong model. The headline contract is exact: checkpoint mid-run →
//! restore → continue must reproduce the uninterrupted run bit for bit.
//!
//! The API is workspace-shaped like the rest of the codebase: `*_into`
//! methods reuse the caller's buffers, so steady-state checkpointing
//! performs no heap allocation once record names and payload capacities
//! are warm.

use crate::{ObsError, Result};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;
use wildfire_core::{CoupledModel, CoupledState, CoupledWorkspace};
use wildfire_fire::UNBURNED;

/// Snapshot format version (shares the `WFST` magic with
/// [`crate::statefile::VERSION`] = 1; readers of either version reject the
/// other from the header alone).
pub const SNAPSHOT_VERSION: u32 = 2;

/// A named-record container of `f64` arrays — format v2.
///
/// Unlike [`StateFile`](crate::statefile::StateFile), record payloads are
/// written through reusing methods ([`Snapshot::put_slice`],
/// [`Snapshot::record_mut`]) so repeatedly snapshotting into the same
/// container allocates nothing once warm.
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
        out.extend_from_slice(&crate::statefile::MAGIC);
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
    /// returns the record count declared by the stream.
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
        if magic != crate::statefile::MAGIC {
            return Err(ObsError::BadStateFile("bad magic".into()));
        }
        let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(ObsError::BadStateFile(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        for _ in 0..count {
            let name_len =
                u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
            let name = std::str::from_utf8(take(&mut pos, name_len)?)
                .map_err(|_| ObsError::BadStateFile("non-utf8 record name".into()))?;
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
    /// fsync, then rename onto `path` — the same torn-read-free protocol as
    /// [`StateFile::write`](crate::statefile::StateFile::write) and
    /// [`ObsLogWriter`](crate::source::ObsLogWriter).
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

/// Encodes ignition times with `UNBURNED` mapped to the exactly
/// representable `f64::MAX` sentinel (matching the v1 fire codec), writing
/// in place into a snapshot record. Public so ensemble-level snapshots can
/// concatenate member `t_i` fields under the same encoding.
pub fn encode_tig_into(tig: &[f64], rec: &mut Vec<f64>) {
    rec.extend(
        tig.iter()
            .map(|&t| if t.is_finite() { t } else { f64::MAX }),
    );
}

/// Decodes a sentinel-mapped ignition-time record into `out` (inverse of
/// [`encode_tig_into`]).
pub fn decode_tig_into(rec: &[f64], out: &mut [f64]) {
    for (o, &t) in out.iter_mut().zip(rec) {
        *o = if t >= f64::MAX { UNBURNED } else { t };
    }
}

/// The configuration fingerprint record: grids and coupling flag of the
/// producing model, checked on restore so a snapshot cannot be deserialized
/// into a structurally different model.
pub const FINGERPRINT: &str = "model/fingerprint";

/// Writes the [`FINGERPRINT`] payload for `model` into `rec` (cleared by
/// the caller via [`Snapshot::record_mut`]). Public so ensemble-level
/// snapshots can stamp the same fingerprint record.
pub fn model_fingerprint_into(model: &CoupledModel, rec: &mut Vec<f64>) {
    let fg = model.fire_grid;
    let ag = model.atmos.grid;
    rec.extend_from_slice(&[
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
    ]);
}

/// Verifies that `snap`'s [`FINGERPRINT`] record was produced by a model
/// bitwise-compatible with `model`.
///
/// # Errors
/// Missing record or any mismatching entry.
pub fn check_model_fingerprint(model: &CoupledModel, snap: &Snapshot) -> Result<()> {
    let rec = snap.get(FINGERPRINT)?;
    let mut want = Vec::new();
    model_fingerprint_into(model, &mut want);
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
    Ok(())
}

/// Checkpoint/restore on the coupled model — implemented here (the obs
/// crate owns the on-disk format) as an extension trait over
/// [`CoupledModel`].
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

    /// Restores `state` from `snap`, writing into the existing buffers.
    /// `ws` is left untouched (see [`CoupledSnapshot::snapshot_into`]).
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
        model_fingerprint_into(self, snap.record_mut(FINGERPRINT));
        snap.put_slice("fire/psi", state.fire.psi.as_slice());
        encode_tig_into(state.fire.tig.as_slice(), snap.record_mut("fire/tig"));
        snap.put_scalar("fire/time", state.fire.time);
        snap.put_slice("atmos/u", &state.atmos.u);
        snap.put_slice("atmos/v", &state.atmos.v);
        snap.put_slice("atmos/w", &state.atmos.w);
        snap.put_slice("atmos/theta", &state.atmos.theta);
        snap.put_slice("atmos/qv", &state.atmos.qv);
        snap.put_scalar("atmos/time", state.atmos.time);
    }

    fn restore_from(
        &self,
        state: &mut CoupledState,
        _ws: Option<&mut CoupledWorkspace>,
        snap: &Snapshot,
    ) -> Result<()> {
        check_model_fingerprint(self, snap)?;
        let fg = self.fire_grid;
        let psi = snap.get("fire/psi")?;
        let tig = snap.get("fire/tig")?;
        if psi.len() != fg.len() || tig.len() != fg.len() {
            return Err(ObsError::BadStateFile("fire field size mismatch".into()));
        }
        // Every node is overwritten below; skip the memset.
        state.fire.psi.resize_no_zero(fg);
        state.fire.psi.as_mut_slice().copy_from_slice(psi);
        state.fire.tig.resize_no_zero(fg);
        decode_tig_into(tig, state.fire.tig.as_mut_slice());
        state.fire.time = snap.get_scalar("fire/time")?;

        let ag = self.atmos.grid;
        let n_uv = ag.nx * ag.ny * ag.nz;
        let n_w = ag.nx * ag.ny * (ag.nz + 1);
        let n_c = ag.n_cells();
        for (name, dst, want) in [
            ("atmos/u", &mut state.atmos.u, n_uv),
            ("atmos/v", &mut state.atmos.v, n_uv),
            ("atmos/w", &mut state.atmos.w, n_w),
            ("atmos/theta", &mut state.atmos.theta, n_c),
            ("atmos/qv", &mut state.atmos.qv, n_c),
        ] {
            let rec = snap.get(name)?;
            if rec.len() != want {
                return Err(ObsError::BadStateFile(format!("{name} size mismatch")));
            }
            dst.clear();
            dst.extend_from_slice(rec);
        }
        state.atmos.grid = ag;
        state.atmos.time = snap.get_scalar("atmos/time")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statefile::StateFile;
    use wildfire_atmos::state::AtmosGrid;
    use wildfire_atmos::AtmosParams;
    use wildfire_fire::ignition::IgnitionShape;
    use wildfire_fuel::FuelCategory;

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

    #[test]
    fn cross_version_headers_rejected_both_ways() {
        // v1 reader on v2 bytes.
        let mut snap = Snapshot::new();
        snap.put_slice("x", &[1.0]);
        let err = StateFile::from_bytes(&snap.to_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("unsupported version 2"),
            "got: {err}"
        );
        // v2 reader on v1 bytes.
        let mut sf = StateFile::new();
        sf.put("x", vec![1.0]);
        let err = Snapshot::from_bytes(&sf.to_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("unsupported snapshot version 1"),
            "got: {err}"
        );
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
