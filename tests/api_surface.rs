//! Table 1 API-surface conformance: every verb the paper lists exists with
//! the documented owner and semantics.
//!
//! | API | Owner | Arguments |
//! |---|---|---|
//! | submit_cmd | FPGAChannel | packeted cmds |
//! | drain_out | FPGAChannel | none |
//! | get_item | MemManager | buffer_size (pool-fixed here) |
//! | recycle_item | MemManager | none |
//! | phy2virt | MemManager | physical address |
//! | virt2phy | MemManager | virtual address |
//! | load_from_disk | DataCollector | none |
//! | load_from_net | DataCollector | none |

use dlbooster::net::RxDescriptor;
use dlbooster::prelude::*;
use dlbooster::storage::Record;
use std::sync::Arc;

#[test]
fn memmanager_verbs() {
    let pool = MemManager::new(PoolConfig {
        unit_size: 4096,
        unit_count: 2,
        phys_base: 0x4_0000_0000,
    })
    .unwrap();
    // get_item / recycle_item.
    let unit = pool.get_item().expect("get_item");
    let phys = unit.phys_addr();
    pool.recycle_item(unit).expect("recycle_item");
    // phy2virt / virt2phy are inverse bijections over the pool range.
    let virt = pool.phy2virt(phys + 128).expect("phy2virt");
    assert_eq!(pool.virt2phy(virt).expect("virt2phy"), phys + 128);
}

#[test]
fn fpga_channel_verbs() {
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let resolver = Arc::new(dlbooster::fpga::MapResolver::new());
    let img =
        dlbooster::codec::synth::generate(32, 32, dlbooster::codec::synth::SynthStyle::Photo, 1);
    let bytes = JpegEncoder::new(85).unwrap().encode(&img).unwrap();
    let src = resolver.put_disk(0, bytes);
    let engine = DecoderEngine::start(device, resolver).unwrap();
    let channel = FpgaChannel::init(engine, 3);
    assert_eq!(channel.queue_id(), 3);

    let pool = MemManager::new(PoolConfig {
        unit_size: 64 << 10,
        unit_count: 2,
        phys_base: 0x4_0000_0000,
    })
    .unwrap();
    let mut unit = pool.get_item().unwrap();
    let off = unit.reserve(16 * 16 * 3, 0, 16, 16, 3).unwrap();
    let cmd = DecodeCmd {
        cmd_id: 9,
        src,
        dst_phys: unit.phys_addr() + off as u64,
        dst_capacity: 16 * 16 * 3,
        target_w: 16,
        target_h: 16,
        format: OutputFormat::Rgb8,
    };
    // submit_cmd takes *packeted* cmds (the wire format) and returns any
    // already-finished batches; drain_out polls with best effort.
    let mut done = channel
        .submit_cmd(dlbooster::fpga::Submission {
            unit,
            cmds: vec![cmd.pack()],
        })
        .expect("submit_cmd");
    while done.is_empty() {
        done = channel.drain_out();
        std::thread::yield_now();
    }
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].ok_count(), 1);
    pool.recycle_item(done.pop().unwrap().unit).unwrap();
    // recycle (Algorithm 1 line 19) returns the device.
    let device = channel.recycle();
    assert!(device.mirror().is_some());
}

#[test]
fn data_collector_verbs() {
    // load_from_disk: block metadata from a manifest.
    let records = vec![Record {
        id: 0,
        label: 42,
        disk_offset: 8192,
        len: 1000,
        width: 100,
        height: 75,
        channels: 3,
    }];
    let disk_side = DataCollector::load_from_disk(&records, 0);
    let metas = disk_side.next_metas(1).unwrap();
    assert_eq!(metas.len(), 1);
    assert_eq!(metas[0].label, 42);

    // load_from_net: physical-address metadata from NIC descriptors.
    let net_side = DataCollector::load_from_net();
    net_side.push_from_net(&RxDescriptor {
        request_id: 7,
        client_id: 1,
        phys_addr: 0x9000_0000,
        len: 555,
        arrival_nanos: 3,
    });
    let metas = net_side.next_metas(1).unwrap();
    assert_eq!(metas.len(), 1);
    assert_eq!(metas[0].label, 7);
    assert_eq!(metas[0].arrival_nanos, Some(3));
}

#[test]
fn conservation_counters_round_trip_through_the_typed_snapshot() {
    // Every metric must be registered under the string the typed snapshot
    // reads: a typo on either side silently reads a fresh zero and the
    // laws go blind. The `names::*` constants and the typed fields now
    // come from one table, so this audits the whole table (gauges and
    // histograms too), and the four prefix-discovered families through
    // the code that registers them: every key a producer registers must
    // be a field the table declares, and the reverse.
    use dlbooster::serving::ServingInstruments;
    use dlbooster::simcore::SimTime;
    use dlbooster::telemetry::pipeline::{conservation_counters, Kind, Value};
    use dlbooster::telemetry::MetricValue;
    let telemetry = Telemetry::with_defaults();
    let registry = &telemetry.registry;
    for m in PipelineSnapshot::default().typed_metrics() {
        match m.kind {
            Kind::Counter => drop(registry.counter(m.name)),
            Kind::Gauge => drop(registry.gauge(m.name)),
            Kind::HighWater => {} // the gauge entry under the same name
            Kind::Histogram => drop(registry.histogram(m.name)),
        }
    }
    BlockingQueue::<u8>::bounded(1).instrument(&telemetry, "slot0");
    ServingInstruments::new(registry, 4).on_admitted(&ServeRequest {
        id: 1,
        tenant: 3,
        arrival: SimTime::ZERO,
        deadline: SimTime::ZERO,
    });
    let _cache = SampleCache::partitioned(1 << 20, &[(5, 1)], registry);
    dlbooster::cluster::ClusterInstruments::new(registry).on_request(9);

    // Drive everything registered to its own value through its string name.
    let registered = registry.snapshot();
    for (i, (key, value)) in registered.metrics.iter().enumerate() {
        let unique = 1_000 + 10 * i as u64;
        match value {
            MetricValue::Counter(_) => registry.counter(key).add(unique),
            MetricValue::Gauge { .. } => {
                registry.gauge(key).set(2 * unique as i64);
                registry.gauge(key).set(unique as i64);
            }
            MetricValue::Histogram(_) => registry.histogram(key).record(unique),
        }
    }
    let snap = telemetry.pipeline_snapshot();
    let mut read_back = std::collections::BTreeSet::new();
    for m in snap.typed_metrics() {
        let key = m.registry_name();
        let expected = match m.kind {
            Kind::Counter => Value::Counter(snap.raw.counter(&key)),
            Kind::Gauge => Value::Gauge(snap.raw.gauge(&key)),
            Kind::HighWater => Value::Gauge(snap.raw.gauge_high_water(&key)),
            Kind::Histogram => Value::Histogram(snap.raw.histogram(&key)),
        };
        assert_eq!(m.value, expected, "{key} → {}", m.field);
        assert!(
            !matches!(
                m.value,
                Value::Counter(0) | Value::Gauge(0) | Value::Histogram(None)
            ),
            "{key} is read by the typed view but nothing registers it"
        );
        read_back.insert(key);
    }
    let produced: Vec<_> = registered.metrics.keys().collect();
    assert_eq!(read_back.iter().collect::<Vec<_>>(), produced);
    assert_eq!(produced.iter().filter(|k| k.contains("slot0")).count(), 5);
    // The counters the law rows read are among them.
    let counters = conservation_counters();
    assert!(!counters.is_empty());
    assert!(counters.iter().all(|name| read_back.contains(*name)));
}

#[test]
fn backend_trait_is_object_safe_and_uniform() {
    // §3.1: engines program against one interface regardless of backend.
    fn assert_backend(b: &dyn PreprocessBackend) -> &'static str {
        b.name()
    }
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let ds = Dataset::build(DatasetSpec::mnist_like(4, 1), &disk).unwrap();
    let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
    let cpu = CpuBackend::start(
        collector,
        Arc::new(CombinedResolver::disk_only(disk)),
        CpuBackendConfig {
            n_engines: 1,
            batch_size: 2,
            target_w: 16,
            target_h: 16,
            workers: 1,
            max_batches: Some(1),
            sample_cache: None,
        },
    )
    .unwrap();
    assert_eq!(assert_backend(&cpu), "CPU-based");
    cpu.shutdown();
}
