//! Snapshot stores: the Fig. 2 state exchange.
//!
//! Ensemble members flow between the forecast, observation, and analysis
//! phases — and between *worker processes* holding different shards of the
//! ensemble — through a [`SnapshotStore`] carrying versioned full-state
//! [`Snapshot`]s (ψ, ignition times, atmosphere, clocks, ambient wind).
//! The disk backend reproduces the paper's architecture literally
//! ("the ensemble of model states is maintained in disk files") with
//! atomic temp-then-rename writes, so a reader never observes a torn
//! member file; the memory backend provides the same interface without the
//! I/O for benchmarking the cost of the file-based exchange (experiment
//! E2). Both backends move exactly the same serialized bytes.

use crate::{EnsembleError, Result};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use wildfire_obs::Snapshot;

/// Abstract member-snapshot exchange.
///
/// Implementations are shared across worker threads (`&self` methods,
/// `Send + Sync`); the loading side is workspace-shaped
/// ([`SnapshotStore::load_into`]) so steady-state exchange reuses the
/// caller's record buffers.
pub trait SnapshotStore: Send + Sync {
    /// Persists a member's full-state snapshot.
    ///
    /// # Errors
    /// Backend failures.
    fn save(&self, member: usize, snap: &Snapshot) -> Result<()>;

    /// Retrieves a member's snapshot into `snap`, reusing its buffers.
    ///
    /// # Errors
    /// Backend failures or missing member.
    fn load_into(&self, member: usize, snap: &mut Snapshot) -> Result<()>;

    /// Members currently stored, sorted.
    fn members(&self) -> Vec<usize>;
}

thread_local! {
    /// Per-thread byte scratch for the disk backend, so single-threaded
    /// steady-state exchange performs no heap allocation once warm.
    static IO_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// In-memory store (lock-protected map of serialized snapshots —
/// serialization is kept so both backends move exactly the same bytes).
#[derive(Default)]
pub struct MemStore {
    files: Mutex<HashMap<usize, Vec<u8>>>,
}

impl MemStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SnapshotStore for MemStore {
    fn save(&self, member: usize, snap: &Snapshot) -> Result<()> {
        let mut files = self.files.lock().unwrap_or_else(PoisonError::into_inner);
        // `serialize_into` clears and reuses an existing entry's buffer.
        snap.serialize_into(files.entry(member).or_default());
        Ok(())
    }

    fn load_into(&self, member: usize, snap: &mut Snapshot) -> Result<()> {
        let files = self.files.lock().unwrap_or_else(PoisonError::into_inner);
        let bytes = files
            .get(&member)
            .ok_or(EnsembleError::Config("member not in store"))?;
        Snapshot::from_bytes_into(bytes, snap).map_err(EnsembleError::Store)
    }

    fn members(&self) -> Vec<usize> {
        let mut m: Vec<usize> = self
            .files
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .copied()
            .collect();
        m.sort_unstable();
        m
    }
}

/// Disk store: one `member_NNNN.wfst` per member in a directory, written
/// atomically (temp file + fsync + rename) so concurrent shard workers and
/// tailing readers never see a partial snapshot.
pub struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    /// Creates the directory if needed.
    ///
    /// # Errors
    /// I/O failures.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| EnsembleError::Store(e.into()))?;
        Ok(DiskStore { dir })
    }

    /// The directory member files live in.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn path(&self, member: usize) -> PathBuf {
        self.dir.join(format!("member_{member:04}.wfst"))
    }
}

impl SnapshotStore for DiskStore {
    fn save(&self, member: usize, snap: &Snapshot) -> Result<()> {
        IO_BUF.with(|buf| {
            snap.write_buf(&self.path(member), &mut buf.borrow_mut())
                .map_err(EnsembleError::Store)
        })
    }

    fn load_into(&self, member: usize, snap: &mut Snapshot) -> Result<()> {
        IO_BUF.with(|buf| {
            Snapshot::read_into(&self.path(member), snap, &mut buf.borrow_mut())
                .map_err(EnsembleError::Store)
        })
    }

    fn members(&self) -> Vec<usize> {
        let mut out = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                let name = e.file_name();
                let name = name.to_string_lossy();
                if let Some(num) = name
                    .strip_prefix("member_")
                    .and_then(|s| s.strip_suffix(".wfst"))
                {
                    if let Ok(id) = num.parse() {
                        out.push(id);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot(seed: f64) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.put_slice(
            "fire/psi",
            &(0..64).map(|i| seed + i as f64 * 0.5).collect::<Vec<_>>(),
        );
        snap.put_slice("fire/tig", &[f64::MAX, seed, f64::MAX, 2.0 * seed]);
        snap.put_scalar("fire/time", seed);
        snap.put_u64("ens/rng", 0xBAD0_CAFE_0000_0001 + seed.to_bits());
        snap
    }

    fn exercise(store: &dyn SnapshotStore) {
        assert!(store.members().is_empty());
        let s0 = sample_snapshot(0.0);
        let s1 = sample_snapshot(2.0);
        store.save(0, &s0).unwrap();
        store.save(7, &s1).unwrap();
        assert_eq!(store.members(), vec![0, 7]);
        let mut r = Snapshot::new();
        store.load_into(0, &mut r).unwrap();
        assert_eq!(r, s0);
        store.load_into(7, &mut r).unwrap();
        assert_eq!(r, s1);
        assert!(store.load_into(3, &mut r).is_err());
        // Overwrite; the reused target must drop the stale contents.
        store.save(0, &s1).unwrap();
        store.load_into(0, &mut r).unwrap();
        assert_eq!(r, s1);
    }

    #[test]
    fn mem_store_roundtrip() {
        exercise(&MemStore::new());
    }

    #[test]
    fn disk_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("wf_store_test_{}", std::process::id()));
        let store = DiskStore::new(&dir).unwrap();
        exercise(&store);
        // Atomic protocol: no temp droppings left behind.
        assert!(std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .all(|e| e.file_name().to_string_lossy().ends_with(".wfst")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_and_disk_agree_bitwise() {
        let dir = std::env::temp_dir().join(format!("wf_store_bits_{}", std::process::id()));
        let disk = DiskStore::new(&dir).unwrap();
        let mem = MemStore::new();
        let s = sample_snapshot(1.0);
        disk.save(0, &s).unwrap();
        mem.save(0, &s).unwrap();
        // Same interface, same bytes: the disk file and the memory entry
        // must be identical, and both must parse back to the original.
        let on_disk = std::fs::read(disk.path(0)).unwrap();
        assert_eq!(&on_disk, mem.files.lock().unwrap().get(&0).unwrap());
        let mut a = Snapshot::new();
        let mut b = Snapshot::new();
        disk.load_into(0, &mut a).unwrap();
        mem.load_into(0, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, s);
        std::fs::remove_dir_all(&dir).ok();
    }
}
