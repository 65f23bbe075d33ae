//! Streaming observation ingestion: [`ObsSource`] and its implementations.
//!
//! The paper's cycle is *data driven* — "the data are received
//! asynchronously" and steer a running ensemble. The eager
//! [`ObsTimeline`] expands every report over a fixed
//! window up front; an [`ObsSource`] instead hands the driver whatever has
//! become due since the last poll, so ingestion can follow a wall clock, a
//! file on disk, or another thread. Three implementations cover the Fig. 2
//! transport shapes:
//!
//! * [`TimelineSource`] — wraps an eager [`ObsTimeline`]
//!   plus a data provider; polling it walks the pre-expanded schedule in
//!   order, so a source-driven cycle over it is bit-identical to the eager
//!   walk (pinned by test in `wildfire-ensemble`).
//! * [`StateFileTail`] — tails an append-only observation log in the
//!   [`Snapshot`] file format. Writers use [`ObsLogWriter`], which rewrites
//!   the whole log through the snapshot's atomic temp-file-then-rename
//!   protocol, so a tailer never observes a torn log: each poll sees some
//!   complete prefix of the appended reports. An unchanged file
//!   fingerprint (length + mtime) skips the re-read, so idle polls do no
//!   parsing.
//! * [`ChannelSource`] — receives [`ObsReport`]s from other threads over a
//!   [`std::sync::mpsc`] channel; polling drains the channel without
//!   blocking.
//!
//! The file and channel sources pass every arrival through a shared pending
//! queue that restores time order and applies one drop policy: a report at
//! or before the newest already-delivered time for its *stream* (within
//! [`TIME_EPS`]) is stale — it either duplicates a delivered report or
//! arrived too late to assimilate at its nominal time — and is dropped.
//! Duplicates still waiting in the queue (same stream, same time within
//! tolerance) are dropped on arrival. Reports for *different* streams are
//! never reordered relative to their times: a late report that is still
//! ahead of its own stream's delivery frontier is delivered at the next
//! poll.
//!
//! Steady-state polling recycles [`ObsReport`] buffers through the
//! [`ObsInbox`]: consume the due reports, call [`ObsInbox::recycle`], and
//! subsequent polls reuse the freed allocations.

use crate::timeline::TIME_EPS;
use crate::{ObsError, ObsTimeline, Result, Snapshot};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::time::SystemTime;

/// One observation report: stream `stream` measured `data` at simulation
/// time `time`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Report time (s, simulation clock).
    pub time: f64,
    /// Index of the reporting stream (aligned with the realized operator
    /// list on the consumer side).
    pub stream: usize,
    /// The measurement vector (length = the stream operator's `dim()`).
    pub data: Vec<f64>,
}

/// Delivery buffer between an [`ObsSource`] and its consumer, with report
/// recycling: consume `due`, then [`recycle`](Self::recycle) so later polls
/// reuse the freed `data` allocations instead of allocating fresh ones.
#[derive(Debug, Default)]
pub struct ObsInbox {
    /// Reports delivered by the last poll(s), oldest first.
    pub due: Vec<ObsReport>,
    spare: Vec<ObsReport>,
}

impl ObsInbox {
    /// An empty inbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves every consumed report back to the spare pool (keeping the
    /// `data` capacity) so the next poll is allocation-free.
    pub fn recycle(&mut self) {
        self.spare.append(&mut self.due);
    }

    /// A recycled (or fresh) report buffer for a source to fill.
    pub(crate) fn take_spare(&mut self) -> ObsReport {
        let mut r = self.spare.pop().unwrap_or_default();
        r.data.clear();
        r
    }
}

/// A non-blocking feed of observation reports.
///
/// `poll(now)` appends every report due at or before `now` to the inbox and
/// never blocks: a source backed by a channel or file reports only what has
/// already arrived. Implementations deliver reports oldest-first and are
/// allocation-free in steady state when the caller recycles inbox buffers
/// (the file tail additionally re-parses only when the file changed).
pub trait ObsSource {
    /// Appends reports due at or before `now` (within [`TIME_EPS`]) to
    /// `inbox.due`, oldest first; returns how many were appended.
    ///
    /// # Errors
    /// Source-specific ingestion failures (I/O, malformed logs, provider
    /// errors). Reports already appended before the failure stay in the
    /// inbox.
    fn poll(&mut self, now: f64, inbox: &mut ObsInbox) -> Result<usize>;

    /// The time of the earliest report this source already knows about but
    /// has not delivered, if any — a scheduling hint (channel and file
    /// sources cannot see reports that have not arrived yet).
    fn next_due(&self) -> Option<f64>;
}

/// Time-ordered staging shared by the asynchronous sources: restores time
/// order across arrivals and drops stale or duplicate reports (see module
/// docs for the policy).
#[derive(Debug, Default)]
struct PendingQueue {
    /// Undelivered reports, time-sorted (stable for ties).
    pending: Vec<ObsReport>,
    /// Newest delivered report time per stream (−∞ until first delivery).
    frontier: Vec<f64>,
}

impl PendingQueue {
    fn frontier(&mut self, stream: usize) -> f64 {
        if stream >= self.frontier.len() {
            self.frontier.resize(stream + 1, f64::NEG_INFINITY);
        }
        self.frontier[stream]
    }

    /// Stages `report`, or drops it as stale/duplicate (recycling its
    /// buffer into `inbox`). Returns whether it was kept.
    fn insert(&mut self, report: ObsReport, inbox: &mut ObsInbox) -> bool {
        if report.time <= self.frontier(report.stream) + TIME_EPS {
            // Stale: at or behind this stream's delivery frontier.
            inbox.spare.push(report);
            return false;
        }
        if self
            .pending
            .iter()
            .any(|p| p.stream == report.stream && (p.time - report.time).abs() <= TIME_EPS)
        {
            // Duplicate of a report still waiting to be delivered.
            inbox.spare.push(report);
            return false;
        }
        // Insert after every pending report at or before this time, so
        // equal-time arrivals keep their arrival order.
        let at = self
            .pending
            .partition_point(|p| p.time <= report.time + TIME_EPS);
        self.pending.insert(at, report);
        true
    }

    /// Delivers every staged report due at or before `now` into the inbox,
    /// advancing the per-stream frontiers. Returns how many were delivered.
    fn emit_due(&mut self, now: f64, inbox: &mut ObsInbox) -> usize {
        let n = self.pending.partition_point(|p| p.time <= now + TIME_EPS);
        for report in self.pending.drain(..n) {
            let f = if report.stream >= self.frontier.len() {
                self.frontier.resize(report.stream + 1, f64::NEG_INFINITY);
                f64::NEG_INFINITY
            } else {
                self.frontier[report.stream]
            };
            self.frontier[report.stream] = f.max(report.time);
            inbox.due.push(report);
        }
        n
    }

    fn next_due(&self) -> Option<f64> {
        self.pending.first().map(|p| p.time)
    }
}

/// An [`ObsSource`] over a pre-expanded [`ObsTimeline`]: the scheduled
/// events become due in timeline order, and a caller-supplied provider
/// fills each report's measurement vector at delivery time. Because the
/// timeline is already sorted and duplicate-free, polling reproduces the
/// eager `analysis_times()` walk exactly — measurement for measurement, in
/// the same order — which is what makes a source-driven assimilation cycle
/// over a `TimelineSource` bit-identical to the eager one.
///
/// The provider receives `(time, stream, &mut data)` with `data` cleared;
/// identical-twin harnesses typically call
/// [`synthesize_measurements`](crate::synthesize_measurements) against a
/// truth state here.
pub struct TimelineSource<F> {
    timeline: ObsTimeline,
    cursor: usize,
    provider: F,
}

impl<F> TimelineSource<F>
where
    F: FnMut(f64, usize, &mut Vec<f64>) -> Result<()>,
{
    /// Wraps `timeline`; events before the cursor (none initially) are
    /// considered already delivered.
    pub fn new(timeline: ObsTimeline, provider: F) -> Self {
        TimelineSource {
            timeline,
            cursor: 0,
            provider,
        }
    }

    /// How many scheduled events have been delivered so far.
    pub fn delivered(&self) -> usize {
        self.cursor
    }
}

impl<F> ObsSource for TimelineSource<F>
where
    F: FnMut(f64, usize, &mut Vec<f64>) -> Result<()>,
{
    fn poll(&mut self, now: f64, inbox: &mut ObsInbox) -> Result<usize> {
        let mut n = 0;
        while let Some(e) = self.timeline.events().get(self.cursor) {
            if e.time > now + TIME_EPS {
                break;
            }
            let mut report = inbox.take_spare();
            report.time = e.time;
            report.stream = e.stream;
            (self.provider)(e.time, e.stream, &mut report.data)?;
            inbox.due.push(report);
            self.cursor += 1;
            n += 1;
        }
        Ok(n)
    }

    fn next_due(&self) -> Option<f64> {
        self.timeline.events().get(self.cursor).map(|e| e.time)
    }
}

/// Record name of the report count in an observation log.
const LOG_COUNT: &str = "obs/count";

fn log_head_name(i: usize) -> String {
    format!("obs/{i}/head")
}

fn log_data_name(i: usize) -> String {
    format!("obs/{i}/data")
}

/// Appends observation reports to an on-disk log in the [`Snapshot`]
/// format, for a [`StateFileTail`] on the other side. Every append rewrites
/// the log through [`Snapshot::write_buf`]'s atomic temp-file-then-rename
/// write, so concurrent tailers always read a complete prefix of the
/// appended reports, never a torn file.
///
/// Log layout: `obs/count` holds the report count `n`; report `i < n` is
/// `obs/<i>/head` = `[time, stream]` plus `obs/<i>/data` = the measurement
/// vector.
#[derive(Debug)]
pub struct ObsLogWriter {
    path: PathBuf,
    log: Snapshot,
    /// Serialization buffer, reused across appends.
    buf: Vec<u8>,
    count: usize,
}

impl ObsLogWriter {
    /// Opens a log at `path`, continuing an existing well-formed log or
    /// starting empty (the file is not created until the first
    /// [`append`](Self::append)).
    ///
    /// # Errors
    /// I/O or format failures reading an existing file.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let (log, count) = if path.exists() {
            let log = Snapshot::read(&path)?;
            let count = log.get_scalar(LOG_COUNT)? as usize;
            (log, count)
        } else {
            (Snapshot::new(), 0)
        };
        Ok(ObsLogWriter {
            path,
            log,
            buf: Vec::new(),
            count,
        })
    }

    /// Reports appended so far (including any from a pre-existing log).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no report has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Appends one report and atomically publishes the updated log.
    ///
    /// # Errors
    /// I/O failures writing the log.
    pub fn append(&mut self, time: f64, stream: usize, data: &[f64]) -> Result<()> {
        self.log
            .put_slice(&log_head_name(self.count), &[time, stream as f64]);
        self.log.put_slice(&log_data_name(self.count), data);
        self.count += 1;
        self.log.put_scalar(LOG_COUNT, self.count as f64);
        self.log.write_buf(&self.path, &mut self.buf)
    }
}

/// Fingerprint of a log file on disk: changes whenever a new version is
/// renamed into place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileStamp {
    len: u64,
    mtime: Option<SystemTime>,
}

/// An [`ObsSource`] tailing an [`ObsLogWriter`]-format log on disk: each
/// poll re-reads the file when (and only when) its length/mtime fingerprint
/// changed, stages reports past the last-seen count, and delivers whatever
/// is due. A missing file simply means no data yet. Late or duplicate
/// reports follow the module-level drop policy.
#[derive(Debug)]
pub struct StateFileTail {
    path: PathBuf,
    stamp: Option<FileStamp>,
    seen: usize,
    queue: PendingQueue,
}

impl StateFileTail {
    /// Tails the log at `path` from its beginning.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        StateFileTail {
            path: path.into(),
            stamp: None,
            seen: 0,
            queue: PendingQueue::default(),
        }
    }

    /// The tailed path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads any new reports from the log into the pending queue.
    fn ingest(&mut self, inbox: &mut ObsInbox) -> Result<()> {
        let Ok(meta) = std::fs::metadata(&self.path) else {
            return Ok(()); // Not written yet.
        };
        let stamp = FileStamp {
            len: meta.len(),
            mtime: meta.modified().ok(),
        };
        if self.stamp == Some(stamp) {
            return Ok(());
        }
        let log = match Snapshot::read(&self.path) {
            Ok(log) => log,
            // The writer may have replaced the file between the metadata
            // probe and the open; a vanished file just means "retry next
            // poll". Torn contents are impossible under atomic rename.
            Err(ObsError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let count = log.get_scalar(LOG_COUNT)? as usize;
        for i in self.seen..count {
            let head = log.get(&log_head_name(i))?;
            if head.len() != 2 {
                return Err(ObsError::BadStateFile(format!(
                    "obs log head {i} must be [time, stream]"
                )));
            }
            let mut report = inbox.take_spare();
            report.time = head[0];
            report.stream = head[1] as usize;
            report.data.extend_from_slice(log.get(&log_data_name(i))?);
            self.queue.insert(report, inbox);
        }
        self.seen = self.seen.max(count);
        self.stamp = Some(stamp);
        Ok(())
    }
}

impl ObsSource for StateFileTail {
    fn poll(&mut self, now: f64, inbox: &mut ObsInbox) -> Result<usize> {
        self.ingest(inbox)?;
        Ok(self.queue.emit_due(now, inbox))
    }

    fn next_due(&self) -> Option<f64> {
        self.queue.next_due()
    }
}

/// An [`ObsSource`] fed from other threads over a [`std::sync::mpsc`]
/// channel: producers send [`ObsReport`]s through the [`Sender`] half
/// ([`channel`](Self::channel) returns both halves); each poll drains
/// whatever has arrived without blocking, restores time order, and delivers
/// what is due. Late or duplicate reports follow the module-level drop
/// policy. A disconnected (all senders dropped) channel is not an error —
/// the source simply delivers its remaining staged reports and then runs
/// dry.
#[derive(Debug)]
pub struct ChannelSource {
    rx: Receiver<ObsReport>,
    queue: PendingQueue,
    disconnected: bool,
}

impl ChannelSource {
    /// An unbounded feed: returns the sender half for producer threads and
    /// the source for the consumer.
    pub fn channel() -> (Sender<ObsReport>, Self) {
        let (tx, rx) = mpsc::channel();
        (
            tx,
            ChannelSource {
                rx,
                queue: PendingQueue::default(),
                disconnected: false,
            },
        )
    }
}

impl ObsSource for ChannelSource {
    fn poll(&mut self, now: f64, inbox: &mut ObsInbox) -> Result<usize> {
        loop {
            match self.rx.try_recv() {
                Ok(report) => {
                    self.queue.insert(report, inbox);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.disconnected = true;
                    break;
                }
            }
        }
        Ok(self.queue.emit_due(now, inbox))
    }

    fn next_due(&self) -> Option<f64> {
        self.queue.next_due()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{ObsStreamKind, ObsStreamSpec};

    impl ChannelSource {
        /// Whether every sender has dropped (no further reports can arrive;
        /// staged ones still deliver).
        pub(crate) fn is_disconnected(&self) -> bool {
            self.disconnected
        }
    }

    impl StateFileTail {
        /// Reports ingested from the log so far (delivered or still pending).
        pub(crate) fn ingested(&self) -> usize {
            self.seen
        }
    }

    fn spec(start: f64, period: f64) -> ObsStreamSpec {
        ObsStreamSpec::new(
            ObsStreamKind::StridedPsi {
                stride: 5,
                sigma: 1.0,
            },
            start,
            period,
        )
    }

    fn report(time: f64, stream: usize, v: f64) -> ObsReport {
        ObsReport {
            time,
            stream,
            data: vec![v],
        }
    }

    #[test]
    fn timeline_source_replays_schedule_in_order() {
        let tl = ObsTimeline::from_streams(&[spec(60.0, 60.0), spec(30.0, 30.0)], 120.0);
        let expect: Vec<(f64, usize)> = tl.events().iter().map(|e| (e.time, e.stream)).collect();
        let mut src = TimelineSource::new(tl, |t, s, data| {
            data.push(t + s as f64);
            Ok(())
        });
        let mut inbox = ObsInbox::new();
        // Nothing due before the first report.
        assert_eq!(src.poll(10.0, &mut inbox).unwrap(), 0);
        assert_eq!(src.next_due(), Some(30.0));
        // Poll in two bites; order must match the eager timeline exactly.
        let mut got = Vec::new();
        src.poll(60.0, &mut inbox).unwrap();
        for r in inbox.due.drain(..) {
            assert_eq!(r.data, vec![r.time + r.stream as f64]);
            got.push((r.time, r.stream));
        }
        src.poll(1e9, &mut inbox).unwrap();
        for r in inbox.due.drain(..) {
            got.push((r.time, r.stream));
        }
        assert_eq!(got, expect);
        assert_eq!(src.next_due(), None);
        assert_eq!(src.delivered(), expect.len());
    }

    #[test]
    fn inbox_recycles_buffers() {
        let tl = ObsTimeline::from_streams(&[spec(0.0, 10.0)], 100.0);
        let mut src = TimelineSource::new(tl, |_, _, data| {
            data.extend_from_slice(&[1.0, 2.0, 3.0]);
            Ok(())
        });
        let mut inbox = ObsInbox::new();
        src.poll(0.0, &mut inbox).unwrap();
        assert_eq!(inbox.due.len(), 1);
        let ptr = inbox.due[0].data.as_ptr();
        inbox.recycle();
        assert!(inbox.due.is_empty());
        src.poll(10.0, &mut inbox).unwrap();
        // The recycled allocation is reused, not reallocated.
        assert_eq!(inbox.due[0].data.as_ptr(), ptr);
    }

    #[test]
    fn pending_queue_orders_and_dedups() {
        let (tx, mut src) = ChannelSource::channel();
        let mut inbox = ObsInbox::new();
        // Out-of-order arrivals are delivered in time order.
        tx.send(report(20.0, 0, 1.0)).unwrap();
        tx.send(report(10.0, 1, 2.0)).unwrap();
        assert_eq!(src.poll(30.0, &mut inbox).unwrap(), 2);
        let order: Vec<f64> = inbox.due.iter().map(|r| r.time).collect();
        assert_eq!(order, vec![10.0, 20.0]);
        inbox.recycle();
        // A duplicate of a delivered report is dropped.
        tx.send(report(20.0, 0, 1.0)).unwrap();
        // A late report behind its own stream's frontier is dropped...
        tx.send(report(15.0, 0, 9.0)).unwrap();
        // ...but a late report for a stream still behind is delivered.
        tx.send(report(15.0, 1, 3.0)).unwrap();
        assert_eq!(src.poll(30.0, &mut inbox).unwrap(), 1);
        assert_eq!(inbox.due.len(), 1);
        assert_eq!((inbox.due[0].stream, inbox.due[0].time), (1, 15.0));
        inbox.recycle();
        // Duplicates within the pending queue collapse to one.
        tx.send(report(40.0, 0, 5.0)).unwrap();
        tx.send(report(40.0, 0, 6.0)).unwrap();
        assert_eq!(src.poll(50.0, &mut inbox).unwrap(), 1);
        assert_eq!(inbox.due[0].data, vec![5.0]);
        inbox.recycle();
        // Not-yet-due reports stay queued.
        tx.send(report(100.0, 0, 7.0)).unwrap();
        assert_eq!(src.poll(50.0, &mut inbox).unwrap(), 0);
        assert_eq!(src.next_due(), Some(100.0));
        assert!(!src.is_disconnected());
        drop(tx);
        assert_eq!(src.poll(200.0, &mut inbox).unwrap(), 1);
        assert!(src.is_disconnected());
    }

    #[test]
    fn obs_log_roundtrips_through_tail() {
        let dir = std::env::temp_dir().join("wildfire_obs_log_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obs_log.wfst");
        std::fs::remove_file(&path).ok();

        let mut tail = StateFileTail::new(&path);
        let mut inbox = ObsInbox::new();
        // Missing file: no data yet, not an error.
        assert_eq!(tail.poll(1e9, &mut inbox).unwrap(), 0);

        let mut writer = ObsLogWriter::open(&path).unwrap();
        assert!(writer.is_empty());
        writer.append(10.0, 0, &[1.0, 2.0]).unwrap();
        writer.append(20.0, 1, &[3.0]).unwrap();
        assert_eq!(writer.len(), 2);

        // Only what is due is delivered; the rest stays pending.
        assert_eq!(tail.poll(10.0, &mut inbox).unwrap(), 1);
        assert_eq!(
            inbox.due[0],
            ObsReport {
                time: 10.0,
                stream: 0,
                data: vec![1.0, 2.0],
            }
        );
        assert_eq!(tail.next_due(), Some(20.0));
        inbox.recycle();
        assert_eq!(tail.poll(25.0, &mut inbox).unwrap(), 1);
        assert_eq!(inbox.due[0].data, vec![3.0]);
        inbox.recycle();

        // Appends after the tail started are picked up.
        writer.append(30.0, 0, &[4.0]).unwrap();
        assert_eq!(tail.poll(30.0, &mut inbox).unwrap(), 1);
        assert_eq!(inbox.due[0].time, 30.0);
        assert_eq!(tail.ingested(), 3);
        inbox.recycle();

        // Unchanged file: the idle poll ingests nothing new.
        assert_eq!(tail.poll(1e9, &mut inbox).unwrap(), 0);

        // A fresh writer over the existing log continues the count.
        let mut writer2 = ObsLogWriter::open(&path).unwrap();
        assert_eq!(writer2.len(), 3);
        writer2.append(40.0, 1, &[5.0]).unwrap();
        assert_eq!(tail.poll(1e9, &mut inbox).unwrap(), 1);
        assert_eq!(inbox.due[0].time, 40.0);

        std::fs::remove_file(&path).ok();
    }
}
