//! `serve_open`: an open-loop, seeded Poisson stream of JPEG requests from
//! five clients through NIC → serving bridge → stream-mode `DlBooster` →
//! `Dispatcher` → Trans Queue.
//!
//! Two benchmark threads. The *generator* delivers each frame to the NIC at
//! its due time, sweeps the serving bridge, and books completions (telling
//! the bridge, and releasing the RX buffer, which the pipeline itself never
//! does). The *consumer* pops the Trans Queue, checks every item and
//! reports what it popped. Latency runs from a request's **due** time, so
//! a stalled generator cannot hide delay; how late the generator ran is
//! reported beside it.

use crate::alloc::{self, AllocDelta};
use crate::corpus::{digest, Corpus, ITEM_BYTES, TARGET};
use crate::engine::{self, EngineSide, Quiet};
use crate::host;
use crate::stats;
use dlbooster::net::{Frame, NicSpec};
use dlbooster::prelude::*;
use dlbooster::serving::IngestStats;
use dlbooster::simcore::SimTime;
use dlbooster::trace::SpanKind;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered load: about a quarter of what this pipeline sustains closed-loop
/// on the two-core box the bounds were measured on (the knee is near 800), so
/// that a neighbour taking half the host does not push the run past it.
pub const RATE_PER_S: f64 = 250.0;
pub const CLIENTS: u32 = 5;
pub const MAX_BATCH: u32 = 16;
pub const SLO: Duration = Duration::from_millis(100);
/// Requests served (and checked) before the measured section.
const WARMUP_REQUESTS: usize = 250;
/// The generator never sleeps longer than this between sweeps.
const POLL: Duration = Duration::from_micros(200);
/// A request not popped this long after the last one was due never will be.
/// Long enough to drain a whole section's backlog after a stalled host.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

const STAGE_DELIVER: &str = "bench.nic.deliver";
const STAGE_INGEST: &str = "bench.serving.ingest";

/// What the consumer saw in one popped batch.
struct Popped {
    at: Instant,
    /// Process CPU time at that moment.
    cpu_ms: f64,
    /// `DeviceBatch.ready_at` → popped.
    ready_to_trans_ms: f64,
    /// `(request id, arrival nanos that travelled with it)`.
    items: Vec<(u64, u64)>,
    /// Items whose bytes were not their request's reference decode.
    wrong: u64,
}

pub struct Live {
    /// One wire frame per corpus record; the header's request and client id
    /// are rewritten before each send.
    frames: Vec<Vec<u8>>,
    nic: Arc<NicRx>,
    collector: Arc<DataCollector>,
    bridge: ServingBridge,
    booster: Arc<DlBooster>,
    engine: EngineSide,
    consumer: JoinHandle<()>,
    popped: Receiver<Popped>,
    telemetry: Arc<Telemetry>,
    tracer: Option<Arc<Tracer>>,
    clock: Instant,
    rng: SplitMix,
    next_id: u64,
    pub setup_s: f64,
}

/// One run of requests through the live pipeline.
pub struct Section {
    pub started: Instant,
    pub requests: u64,
    pub completed: u64,
    /// Every popped batch: when, the process CPU time then, how many of its
    /// requests were answered and how many within the SLO, and due → popped
    /// for each of them.
    pub record: stats::Record,
    /// How late after its due time each frame reached the NIC.
    pub late_ms: Vec<f64>,
    /// `DeviceBatch.ready_at` → popped, per batch.
    pub ready_to_trans_ms: Vec<f64>,
    pub alloc: AllocDelta,
    pub ingest: IngestStats,
    pub dropped: u64,
    pub never_completed: u64,
    pub slo_missed: u64,
    pub wrong: u64,
    /// Requests delivered but not yet popped when the last one was sent.
    pub backlog_at_end: u64,
}

impl Section {
    /// Requests that did not come back right: refused, lost or wrong. A
    /// completion past the SLO is not a failure; it is missing from
    /// `images_per_s` and present in the latency percentiles.
    pub fn failed(&self) -> u64 {
        self.dropped + self.ingest.rejected + self.ingest.shed + self.never_completed + self.wrong
    }
}

pub struct Final {
    pub quiet: Quiet,
    pub frames_dropped: u64,
    pub frames_bad: u64,
}

impl Live {
    pub fn start(corpus: &Corpus, seed: u64, tracer: Option<Arc<Tracer>>) -> Result<Self, String> {
        let frames = build_frames(corpus)?;

        let t0 = Instant::now();
        let telemetry = Telemetry::with_defaults();
        if let Some(t) = &tracer {
            telemetry.install_tracer(Arc::clone(t));
        }
        let nic = Arc::new(
            NicRx::new(NicSpec::forty_gbps(), 0x8_0000_0000).with_telemetry(&telemetry.registry),
        );
        let collector = Arc::new(DataCollector::load_from_net());
        let bridge = ServingBridge::with_telemetry(serving_config(), &telemetry.registry);
        let decoder = engine::decoder(
            Arc::new(CombinedResolver::nic_only(Arc::clone(&nic))),
            &telemetry,
        )?;
        let booster = Arc::new(DlBooster::start_with_telemetry(
            Arc::clone(&collector),
            FpgaChannel::init_with_telemetry(decoder, 0, &telemetry),
            DlBoosterConfig::inference(1, MAX_BATCH as usize, TARGET),
            Arc::clone(&telemetry),
        )?);
        let engine = EngineSide::attach(booster.clone(), &telemetry)?;

        let (tx, popped) = mpsc::channel::<Popped>();
        let trans = Arc::clone(&engine.trans);
        let digests = Arc::clone(&corpus.digests);
        let consumer = std::thread::Builder::new()
            .name("bench-engine".into())
            .spawn(move || {
                while let Ok(batch) = trans.full.pop() {
                    let at = Instant::now();
                    let cpu_ms = host::process_cpu_ms();
                    let mut wrong = 0;
                    let mut items = Vec::with_capacity(batch.items.len());
                    for (i, item) in batch.items.iter().enumerate() {
                        let ok = item.len == ITEM_BYTES
                            && item.offset + item.len <= batch.dev.len()
                            && batch.arrivals.len() == batch.items.len()
                            && digest(&batch.dev.bytes()[item.offset..item.offset + item.len])
                                == digests[item.label as usize % digests.len()];
                        wrong += u64::from(!ok);
                        items.push((item.label, batch.arrivals.get(i).copied().unwrap_or(0)));
                    }
                    if trans.free.push(batch.dev).is_err()
                        || tx
                            .send(Popped {
                                at,
                                cpu_ms,
                                ready_to_trans_ms: host::ms(
                                    at.saturating_duration_since(batch.ready_at),
                                ),
                                items,
                                wrong,
                            })
                            .is_err()
                    {
                        break;
                    }
                }
            })
            .map_err(|e| e.to_string())?;

        let mut live = Live {
            frames,
            nic,
            collector,
            bridge,
            booster,
            engine,
            consumer,
            popped,
            telemetry,
            tracer,
            clock: t0,
            rng: SplitMix(seed ^ 0x0A11_1A7E),
            next_id: 0,
            setup_s: 0.0,
        };
        let warm = live.run(WARMUP_REQUESTS)?;
        if warm.failed() != 0 {
            return Err(format!("{} warm-up requests failed", warm.failed()));
        }
        live.setup_s = t0.elapsed().as_secs_f64();
        Ok(live)
    }

    /// Sends `n` requests on a fresh Poisson schedule and waits until every
    /// one of them is accounted for.
    pub fn run(&mut self, n: usize) -> Result<Section, String> {
        let first_id = self.next_id;
        self.next_id += n as u64;
        // Schedule, relative to the section's start: due time and client.
        let mut due = Vec::with_capacity(n);
        let mut at = 0.0f64;
        for _ in 0..n {
            at += -(1.0 - self.rng.unit()).ln() / RATE_PER_S;
            due.push((Duration::from_secs_f64(at), self.rng.below(CLIENTS)));
        }
        let mut phys: Vec<Option<u64>> = vec![None; n];
        let mut done = vec![false; n];
        let mut late_ms = Vec::with_capacity(n);
        let mut ready_to_trans_ms = Vec::with_capacity(n);
        let mut ingest = IngestStats::default();
        let (mut dropped, mut wrong, mut slo_missed, mut completed) = (0u64, 0u64, 0u64, 0u64);
        let mut backlog_at_end = 0;

        // Reserved before the allocator is read: the section's allocations
        // are the pipeline's.
        let mut record = stats::Record::begin(host::process_cpu_ms(), n, n);
        let alloc0 = alloc::totals();
        let base = self.clock.elapsed();
        let last_due = base + due[n - 1].0;
        let mut next = 0usize;
        // Requests whose fate is known: popped, or refused on the way in.
        let mut accounted;
        loop {
            let now = self.clock.elapsed();
            while next < n && base + due[next].0 <= now {
                let due_at = base + due[next].0;
                late_ms.push(host::ms(now - due_at));
                let id = first_id + next as u64;
                let slot = id as usize % self.frames.len();
                let wire = &mut self.frames[slot];
                address_frame(wire, id, due[next].1);
                let t = Instant::now();
                match self.nic.deliver(wire, due_at.as_nanos() as u64) {
                    Ok(desc) => phys[next] = Some(desc.phys_addr),
                    Err(_) => {
                        dropped += 1;
                        done[next] = true;
                    }
                }
                if let Some(tr) = &self.tracer {
                    tr.span(id + 1, STAGE_DELIVER, SpanKind::Service, t, Instant::now());
                }
                next += 1;
                if next == n {
                    backlog_at_end = n as u64 - dropped - completed;
                }
            }
            let t = Instant::now();
            let sweep = self.bridge.ingest(
                &self.nic,
                &self.collector,
                self.clock.elapsed().as_nanos() as u64,
            );
            if let Some(tr) = self.tracer.as_ref().filter(|_| sweep.offered > 0) {
                tr.span(1, STAGE_INGEST, SpanKind::Service, t, Instant::now());
            }
            ingest.merge(sweep);
            while let Ok(p) = self.popped.try_recv() {
                wrong += p.wrong;
                ready_to_trans_ms.push(p.ready_to_trans_ms);
                let at = p.at.duration_since(self.clock);
                let (mut answered, mut good) = (0, 0);
                for (id, arrival) in p.items {
                    self.bridge.complete(id, at.as_nanos() as u64);
                    let Some(i) = id
                        .checked_sub(first_id)
                        .map(|i| i as usize)
                        .filter(|i| *i < n)
                    else {
                        wrong += 1; // an id this section never sent
                        continue;
                    };
                    let due_at = base + due[i].0;
                    if done[i] || arrival != due_at.as_nanos() as u64 {
                        wrong += 1; // duplicate, or the wrong arrival stamp
                        continue;
                    }
                    done[i] = true;
                    answered += 1;
                    if let Some(addr) = phys[i] {
                        self.nic.release(addr);
                    }
                    let latency = at.saturating_sub(due_at);
                    record.latency_ms.push(host::ms(latency));
                    good += u64::from(latency <= SLO);
                }
                completed += answered;
                slo_missed += answered - good;
                record.pop(
                    at.saturating_sub(base).as_secs_f64(),
                    p.cpu_ms,
                    answered,
                    good,
                );
            }
            accounted = completed + dropped + ingest.rejected + ingest.shed;
            let now = self.clock.elapsed();
            if next == n && (accounted >= n as u64 || now > last_due + DRAIN_LIMIT) {
                break;
            }
            let nap = match due.get(next) {
                Some((d, _)) => (base + *d).saturating_sub(now).min(POLL),
                None => POLL,
            };
            std::thread::sleep(nap);
        }
        let alloc = AllocDelta::since(alloc0);
        Ok(Section {
            started: self.clock + base,
            requests: n as u64,
            completed,
            record,
            late_ms,
            ready_to_trans_ms,
            alloc,
            ingest,
            dropped,
            never_completed: (n as u64).saturating_sub(accounted),
            slo_missed,
            wrong,
            backlog_at_end,
        })
    }

    /// What the pipeline must not have done. A backlog when the last request
    /// was sent means the host stalled or the load was past the knee: that is
    /// the host's doing, shows in the latencies and is printed, not failed.
    pub fn validity_errors(&self, section: &Section) -> Vec<String> {
        let mut errors = Vec::new();
        if section.backlog_at_end > 4 * MAX_BATCH as u64 {
            println!(
                "# NOTE: backlog of {} requests when the last one was sent",
                section.backlog_at_end
            );
        }
        let (hits, misses, rejected) = self.booster.cache().stats();
        if (hits, misses, rejected) != (0, 0, 0) {
            errors.push("EpochCache was touched in stream mode".into());
        }
        if self.nic.buffers_held() != 0 && section.failed() == 0 {
            errors.push(format!(
                "{} RX buffers still held after every request completed",
                self.nic.buffers_held()
            ));
        }
        errors
    }

    pub fn stop(self) -> Final {
        self.collector.close_stream();
        self.engine.detach(self.booster.as_ref());
        self.consumer.join().expect("consumer thread panicked");
        let (_, frames_bad, _) = self.nic.counters();
        let frames_dropped = self.nic.dropped();
        drop(self.booster);
        Final {
            quiet: Quiet::read(&self.telemetry),
            frames_dropped,
            frames_bad,
        }
    }
}

/// Five clients, 100 ms SLO, shedding off: a request that a stalled host
/// made late is served late (and counted past the SLO), never refused, so no
/// operation of the workload fails because of the host.
pub fn serving_config() -> ServingConfig {
    ServingConfig::five_clients(
        MAX_BATCH,
        SimTime::from_nanos(SLO.as_nanos() as u64),
        ShedPolicy::DeadlineAware,
    )
    .without_shedding()
}

/// One encoded wire frame per corpus record (ids are filled in per send).
pub fn build_frames(corpus: &Corpus) -> Result<Vec<Vec<u8>>, String> {
    let frames: Vec<Vec<u8>> = (0..corpus.records().len())
        .map(|i| {
            Frame {
                request_id: 0,
                client_id: 0,
                send_ts_nanos: 0,
                payload: corpus.jpeg(i).as_ref().clone(),
            }
            .encode()
        })
        .collect();
    // The header rewrite below relies on the documented wire layout; make
    // sure this build of `dlb-net` still parses it back.
    let mut probe = frames[0].clone();
    address_frame(&mut probe, 0xFEED_F00D_0BAD_CAFE, 3);
    match Frame::decode(&probe) {
        Ok(f) if f.request_id == 0xFEED_F00D_0BAD_CAFE && f.client_id == 3 => Ok(frames),
        other => Err(format!("frame header layout changed: {other:?}")),
    }
}

/// Writes the request and client id into an encoded frame's header
/// (`magic u32 | request_id u64 | client_id u32 | …`, little endian), so the
/// generator sends without building a 50 KB frame per request.
pub fn address_frame(wire: &mut [u8], request_id: u64, client_id: u32) {
    wire[4..12].copy_from_slice(&request_id.to_le_bytes());
    wire[12..16].copy_from_slice(&client_id.to_le_bytes());
}

/// splitmix64: the arrival schedule's only source of randomness.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u32) -> u32 {
        (self.next() % n as u64) as u32
    }
}
