//! Tests of the observation log's on-disk state file: the [`Snapshot`]
//! file that [`ObsLogWriter`] publishes and [`StateFileTail`] reads back.
//! They pin the file as a file — its bytes, its atomic replacement, and
//! what a reader does with a damaged or incomplete one — where the
//! `source` tests pin the delivery of reports.
//!
//! [`Snapshot`]: crate::Snapshot
//! [`ObsLogWriter`]: crate::ObsLogWriter
//! [`StateFileTail`]: crate::StateFileTail

mod tests {
    use crate::{ObsError, ObsInbox, ObsLogWriter, ObsSource, Snapshot, StateFileTail};
    use std::path::PathBuf;

    /// A fresh, empty directory for one test, unique per process.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wildfire_statefile_{test}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A two-report log on disk: one report carrying the `UNBURNED`
    /// sentinel's encoding, one with an empty measurement vector.
    fn two_report_log(path: &std::path::Path) {
        let mut writer = ObsLogWriter::open(path).unwrap();
        writer.append(5.0, 0, &[1.0, -2.5, f64::MAX]).unwrap();
        writer.append(7.5, 3, &[]).unwrap();
    }

    #[test]
    fn bytes_roundtrip() {
        let dir = scratch_dir("bytes");
        let path = dir.join("obs_log.wfst");
        two_report_log(&path);

        let bytes = std::fs::read(&path).unwrap();
        let log = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(log.to_bytes(), bytes);
        assert_eq!(
            log.names().collect::<Vec<_>>(),
            vec![
                "obs/0/data",
                "obs/0/head",
                "obs/1/data",
                "obs/1/head",
                "obs/count"
            ]
        );
        assert_eq!(log.get("obs/0/data").unwrap(), &[1.0, -2.5, f64::MAX]);
        assert_eq!(log.get("obs/1/head").unwrap(), &[7.5, 3.0]);
        assert!(log.get("obs/1/data").unwrap().is_empty());
        assert_eq!(log.get_scalar("obs/count").unwrap(), 2.0);

        // The tail reads the same values back, the empty report included.
        let mut tail = StateFileTail::new(&path);
        let mut inbox = ObsInbox::new();
        assert_eq!(tail.poll(10.0, &mut inbox).unwrap(), 2);
        assert_eq!(inbox.due[0].data, vec![1.0, -2.5, f64::MAX]);
        assert_eq!((inbox.due[1].time, inbox.due[1].stream), (7.5, 3));
        assert!(inbox.due[1].data.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_corruption() {
        let dir = scratch_dir("corrupt");
        let path = dir.join("obs_log.wfst");
        two_report_log(&path);
        let good = std::fs::read(&path).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'Z';
        let truncated = good[..good.len() - 3].to_vec();
        let mut trailing = good.clone();
        trailing.push(0);
        for bytes in [bad_magic, truncated, trailing] {
            std::fs::write(&path, &bytes).unwrap();
            let mut tail = StateFileTail::new(&path);
            let mut inbox = ObsInbox::new();
            assert!(matches!(
                tail.poll(10.0, &mut inbox),
                Err(ObsError::BadStateFile(_))
            ));
            assert_eq!(tail.ingested(), 0);
            assert!(matches!(
                ObsLogWriter::open(&path),
                Err(ObsError::BadStateFile(_))
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_record_error() {
        let dir = scratch_dir("missing");
        let path = dir.join("obs_log.wfst");

        // A file without `obs/count` is no log.
        let mut not_a_log = Snapshot::new();
        not_a_log.put_slice("obs/0/head", &[1.0, 0.0]);
        not_a_log.write(&path).unwrap();
        assert!(matches!(
            ObsLogWriter::open(&path),
            Err(ObsError::MissingRecord(_))
        ));
        let mut inbox = ObsInbox::new();
        assert!(matches!(
            StateFileTail::new(&path).poll(10.0, &mut inbox),
            Err(ObsError::MissingRecord(_))
        ));

        // A count that promises a report whose records are absent.
        let mut short = Snapshot::read(&path).unwrap();
        short.put_slice("obs/0/data", &[4.0]);
        short.put_scalar("obs/count", 2.0);
        short.write(&path).unwrap();
        assert!(matches!(
            StateFileTail::new(&path).poll(10.0, &mut inbox),
            Err(ObsError::MissingRecord(name)) if name == "obs/1/head"
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_roundtrip_atomic() {
        let dir = scratch_dir("disk");
        let path = dir.join("obs_log.wfst");
        let data: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();

        let mut writer = ObsLogWriter::open(&path).unwrap();
        // Nothing is on disk before the first append.
        assert!(!path.exists());
        writer.append(1.0, 0, &data).unwrap();
        writer.append(2.0, 1, &data[..10]).unwrap();
        // Every append replaces the file by rename: no temporary is left.
        assert!(!path.with_extension("tmp").exists());

        // A reopened writer continues the file it finds.
        let mut reopened = ObsLogWriter::open(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        reopened.append(3.0, 0, &data[..1]).unwrap();
        assert!(!path.with_extension("tmp").exists());

        let log = Snapshot::read(&path).unwrap();
        assert_eq!(log.get_scalar("obs/count").unwrap(), 3.0);
        assert_eq!(log.get("obs/0/data").unwrap(), data.as_slice());
        assert_eq!(log.get("obs/1/data").unwrap(), &data[..10]);
        assert_eq!(log.get("obs/2/head").unwrap(), &[3.0, 0.0]);

        let mut tail = StateFileTail::new(&path);
        let mut inbox = ObsInbox::new();
        assert_eq!(tail.poll(10.0, &mut inbox).unwrap(), 3);
        assert_eq!(inbox.due[0].data, data);
        std::fs::remove_dir_all(&dir).ok();
    }
}
