//! `DataCollector` — the data abstraction of Table 1.
//!
//! "a DataCollector is set up as a data abstraction, which translates the
//! metadata (i.e., block information) that describes the storage information
//! of the data on the disk or generates the metadata (i.e., physical address
//! of memory) that describes where the data are placed by NICs. The
//! DataCollector is globally shared by its callers in generating cmds for
//! FPGA decoders." (§3.4.1)

use dlb_fpga::DataRef;
use dlb_net::RxDescriptor;
use dlb_storage::Record;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// Metadata for one file/request, ready for cmd generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Where the compressed bytes live.
    pub src: DataRef,
    /// Label (training) or request id (inference).
    pub label: u64,
    /// Source width.
    pub width: u32,
    /// Source height.
    pub height: u32,
    /// Source channels.
    pub channels: u8,
    /// For network items: arrival timestamp in nanos (latency accounting).
    pub arrival_nanos: Option<u64>,
    /// For served items: absolute SLO deadline in nanos (set by the
    /// serving layer's admission controller; `None` outside serving mode).
    pub deadline_nanos: Option<u64>,
    /// Epoch this item was dispensed in (dataset mode; 0 for streams).
    /// Stamped by [`DataCollector::next_metas`] at dispense time — it keys
    /// per-(epoch, sample) augmentation seeds, so a mid-batch epoch wrap
    /// stamps the two halves of the batch differently.
    pub epoch: u64,
}

impl FileMeta {
    /// Builds metadata from a dataset manifest record (`load_from_disk`).
    pub fn from_record(r: &Record) -> Self {
        FileMeta {
            src: DataRef::Disk {
                offset: r.disk_offset,
                len: r.len,
            },
            label: r.label,
            width: r.width,
            height: r.height,
            channels: r.channels,
            arrival_nanos: None,
            deadline_nanos: None,
            epoch: 0,
        }
    }

    /// Builds metadata from a NIC RX descriptor (`load_from_net`). Source
    /// geometry is unknown until decode; the FPGA parser extracts it.
    pub fn from_rx(d: &RxDescriptor) -> Self {
        FileMeta {
            src: DataRef::HostMem {
                phys_addr: d.phys_addr,
                len: d.len,
            },
            label: d.request_id,
            width: 0,
            height: 0,
            channels: 3,
            arrival_nanos: Some(d.arrival_nanos),
            deadline_nanos: None,
            epoch: 0,
        }
    }
}

/// The globally shared metadata source feeding the `FPGAReader`.
///
/// Two modes, matching the two DL workflows:
/// * **dataset mode** (offline training): a manifest iterated epoch after
///   epoch, with a deterministic per-epoch shuffle;
/// * **stream mode** (online inference): a FIFO fed by the NIC poll loop.
#[derive(Debug)]
pub struct DataCollector {
    inner: Mutex<Inner>,
    /// Signalled when the stream gains an item or closes, and by
    /// [`DataCollector::wake`]: what an idle stream reader sleeps on.
    stream_event: Condvar,
}

#[derive(Debug)]
struct Inner {
    /// Dataset manifest (empty in pure stream mode).
    manifest: Vec<FileMeta>,
    /// Iteration order for the current epoch (indices into `manifest`).
    order: Vec<u32>,
    /// Cursor into `order`.
    cursor: usize,
    /// Epoch counter.
    epoch: u64,
    /// Shuffle seed (0 = no shuffling).
    shuffle_seed: u64,
    /// Streamed items (network mode).
    stream: VecDeque<FileMeta>,
    /// Stream closed (no more pushes).
    stream_closed: bool,
}

impl DataCollector {
    /// Dataset mode: iterate `records` forever, reshuffling each epoch when
    /// `shuffle_seed != 0`.
    pub fn load_from_disk(records: &[Record], shuffle_seed: u64) -> Self {
        let manifest: Vec<FileMeta> = records.iter().map(FileMeta::from_record).collect();
        let mut inner = Inner {
            order: (0..manifest.len() as u32).collect(),
            manifest,
            cursor: 0,
            epoch: 0,
            shuffle_seed,
            stream: VecDeque::new(),
            stream_closed: true, // no stream in dataset mode
        };
        inner.reshuffle();
        Self {
            inner: Mutex::new(inner),
            stream_event: Condvar::new(),
        }
    }

    /// Stream mode: metadata arrives via [`DataCollector::push_from_net`].
    pub fn load_from_net() -> Self {
        Self {
            inner: Mutex::new(Inner {
                manifest: Vec::new(),
                order: Vec::new(),
                cursor: 0,
                epoch: 0,
                shuffle_seed: 0,
                stream: VecDeque::new(),
                stream_closed: false,
            }),
            stream_event: Condvar::new(),
        }
    }

    /// Feeds one NIC descriptor into the stream.
    pub fn push_from_net(&self, d: &RxDescriptor) {
        let mut inner = self.inner.lock();
        assert!(!inner.stream_closed, "stream closed");
        inner.stream.push_back(FileMeta::from_rx(d));
        self.stream_event.notify_all();
    }

    /// Feeds pre-built metadata into the stream — the serving layer's
    /// entry point, where items arrive already batched and carry an SLO
    /// deadline. The batch lands under one lock, so a reader woken by it
    /// sees all of it and does not split it.
    pub fn push_metas(&self, metas: impl IntoIterator<Item = FileMeta>) {
        let mut inner = self.inner.lock();
        assert!(!inner.stream_closed, "stream closed");
        inner.stream.extend(metas);
        self.stream_event.notify_all();
    }

    /// Marks the network stream finished (pipeline drain).
    pub fn close_stream(&self) {
        self.inner.lock().stream_closed = true;
        self.stream_event.notify_all();
    }

    /// Blocks until [`DataCollector::next_metas`] has something new to say
    /// — a queued item, or a closed stream — or `give_up()` holds. Dataset
    /// mode never blocks. `give_up` is evaluated under the collector's
    /// lock, so a flag set before [`DataCollector::wake`] is never missed.
    pub(crate) fn wait_stream(&self, give_up: impl Fn() -> bool) {
        let mut inner = self.inner.lock();
        while inner.stream.is_empty() && !inner.stream_closed && !give_up() {
            self.stream_event.wait(&mut inner);
        }
    }

    /// Makes every [`DataCollector::wait_stream`] caller re-evaluate its
    /// `give_up` condition (shutdown).
    pub(crate) fn wake(&self) {
        // Taking the lock orders this after any waiter's `give_up` check:
        // the waiter either saw the flag or is already asleep on the
        // condvar when the notification goes out.
        let _inner = self.inner.lock();
        self.stream_event.notify_all();
    }

    /// Next up to `n` items. Dataset mode always returns `n` (wrapping into
    /// the next epoch); stream mode returns what is queued (possibly empty),
    /// or `None` once closed and drained.
    pub fn next_metas(&self, n: usize) -> Option<Vec<FileMeta>> {
        let mut inner = self.inner.lock();
        if !inner.manifest.is_empty() {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                if inner.cursor >= inner.order.len() {
                    inner.epoch += 1;
                    inner.cursor = 0;
                    inner.reshuffle();
                }
                let idx = inner.order[inner.cursor] as usize;
                inner.cursor += 1;
                let mut meta = inner.manifest[idx].clone();
                meta.epoch = inner.epoch;
                out.push(meta);
            }
            return Some(out);
        }
        // Stream mode.
        if inner.stream.is_empty() {
            if inner.stream_closed {
                return None;
            }
            return Some(Vec::new());
        }
        let take = n.min(inner.stream.len());
        Some(inner.stream.drain(..take).collect())
    }

    /// Current epoch (dataset mode).
    #[cfg(test)]
    pub(crate) fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }
}

impl Inner {
    /// Fisher–Yates with a splitmix-derived sequence — deterministic in
    /// (seed, epoch).
    fn reshuffle(&mut self) {
        if self.shuffle_seed == 0 || self.order.len() < 2 {
            return;
        }
        let mut state = self
            .shuffle_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.epoch);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..self.order.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            self.order.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|id| Record {
                id,
                label: id % 10,
                disk_offset: id * 4096,
                len: 1000 + id as u32,
                width: 100,
                height: 75,
                channels: 3,
            })
            .collect()
    }

    #[test]
    fn dataset_mode_wraps_epochs() {
        let c = DataCollector::load_from_disk(&records(10), 0);
        let batch = c.next_metas(7).unwrap();
        assert_eq!(batch.len(), 7);
        assert_eq!(c.epoch(), 0);
        let batch = c.next_metas(7).unwrap();
        assert_eq!(batch.len(), 7);
        // Wrapped into epoch 1 mid-batch.
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn epoch_stamped_per_item_across_mid_batch_wrap() {
        let c = DataCollector::load_from_disk(&records(10), 0);
        let first = c.next_metas(7).unwrap();
        assert!(first.iter().all(|m| m.epoch == 0));
        let second = c.next_metas(7).unwrap();
        // Items 0..3 finish epoch 0, items 3..7 open epoch 1.
        assert_eq!(
            second.iter().map(|m| m.epoch).collect::<Vec<_>>(),
            vec![0, 0, 0, 1, 1, 1, 1]
        );
    }

    #[test]
    fn unshuffled_order_is_sequential() {
        let c = DataCollector::load_from_disk(&records(5), 0);
        let metas = c.next_metas(5).unwrap();
        let offs: Vec<u64> = metas
            .iter()
            .map(|m| match m.src {
                DataRef::Disk { offset, .. } => offset,
                _ => panic!(),
            })
            .collect();
        assert_eq!(offs, vec![0, 4096, 8192, 12288, 16384]);
    }

    #[test]
    fn shuffle_is_deterministic_and_epoch_varying() {
        let order_of = |seed: u64, skip_epochs: usize| {
            let c = DataCollector::load_from_disk(&records(32), seed);
            for _ in 0..skip_epochs {
                c.next_metas(32).unwrap();
            }
            c.next_metas(32)
                .unwrap()
                .iter()
                .map(|m| m.label)
                .collect::<Vec<_>>()
        };
        assert_eq!(order_of(5, 0), order_of(5, 0));
        assert_ne!(order_of(5, 0), order_of(6, 0), "seed must matter");
        assert_ne!(order_of(5, 0), order_of(5, 1), "epoch must reshuffle");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let c = DataCollector::load_from_disk(&records(100), 9);
        let metas = c.next_metas(100).unwrap();
        let mut offs: Vec<u64> = metas
            .iter()
            .map(|m| match m.src {
                DataRef::Disk { offset, .. } => offset,
                _ => panic!(),
            })
            .collect();
        offs.sort_unstable();
        assert_eq!(offs, (0..100).map(|i| i * 4096).collect::<Vec<_>>());
    }

    #[test]
    fn stream_mode_fifo_and_close() {
        let c = DataCollector::load_from_net();
        assert_eq!(c.next_metas(4).unwrap(), vec![]);
        for i in 0..3 {
            c.push_from_net(&RxDescriptor {
                request_id: i,
                client_id: 0,
                phys_addr: 0x100 * i,
                len: 50,
                arrival_nanos: i * 10,
            });
        }
        let metas = c.next_metas(2).unwrap();
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].label, 0);
        assert_eq!(metas[0].arrival_nanos, Some(0));
        c.close_stream();
        assert_eq!(c.next_metas(5).unwrap().len(), 1);
        assert!(c.next_metas(1).is_none(), "closed and drained");
    }

    #[test]
    fn wait_stream_returns_on_push_close_and_wake() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let rx = |id| RxDescriptor {
            request_id: id,
            client_id: 0,
            phys_addr: 0,
            len: 1,
            arrival_nanos: 0,
        };
        // Dataset mode and a non-empty stream never block.
        DataCollector::load_from_disk(&records(2), 0).wait_stream(|| false);
        let c = Arc::new(DataCollector::load_from_net());
        c.push_from_net(&rx(0));
        c.wait_stream(|| false);
        c.next_metas(1).unwrap();

        // Each event ends a wait that was entered on an empty stream: the
        // waiter reports in only after `wait_stream` returned.
        let stop = Arc::new(AtomicBool::new(false));
        let events: [&dyn Fn(); 3] = [
            &|| {
                stop.store(true, Ordering::SeqCst);
                c.wake();
            },
            &|| c.push_from_net(&rx(1)),
            &|| c.close_stream(),
        ];
        for event in events {
            stop.store(false, Ordering::SeqCst);
            let (tx, woke) = std::sync::mpsc::channel();
            let (cc, st) = (Arc::clone(&c), Arc::clone(&stop));
            let waiter = std::thread::spawn(move || {
                cc.wait_stream(|| st.load(Ordering::SeqCst));
                tx.send(()).unwrap();
            });
            assert!(
                woke.recv_timeout(std::time::Duration::from_millis(20))
                    .is_err(),
                "nothing happened yet"
            );
            event();
            woke.recv_timeout(std::time::Duration::from_secs(5))
                .expect("the event wakes the waiter");
            waiter.join().unwrap();
            let _ = c.next_metas(1);
        }
    }

    #[test]
    fn file_meta_conversions() {
        let r = &records(1)[0];
        let m = FileMeta::from_record(r);
        assert_eq!(
            m.src,
            DataRef::Disk {
                offset: 0,
                len: 1000
            }
        );
        assert_eq!(m.channels, 3);
        assert!(m.arrival_nanos.is_none());

        let d = RxDescriptor {
            request_id: 77,
            client_id: 1,
            phys_addr: 0xABC,
            len: 9,
            arrival_nanos: 5,
        };
        let m = FileMeta::from_rx(&d);
        assert_eq!(m.label, 77);
        assert_eq!(
            m.src,
            DataRef::HostMem {
                phys_addr: 0xABC,
                len: 9
            }
        );
    }
}
