//! Functional failover on the real machinery: three live [`DlBooster`]
//! nodes behind a [`BoosterCluster`], one chaos-killed mid-consumption.
//! Where `ClusterSim` proves the story at scale in virtual time, this
//! test proves the quiesce/residue/replacement contract holds batch for
//! batch on actual pipelines:
//!
//! * the killed node's `delivered()` is final after quiesce, and the
//!   residue its slot queues still hold drains cleanly;
//! * a replacement built over the *undelivered tail* of the dead shard
//!   re-produces exactly the shortfall — no batch lost, none duplicated;
//! * the ring drops the dead node and only the dead node's keys (plus
//!   those the newcomer claims) change owner.

use dlbooster::cluster::BoosterCluster;
use dlbooster::prelude::*;
use dlbooster::storage::Record;
use std::sync::Arc;

const BATCH: usize = 4;
const BUDGET: u64 = 10; // batches per node

/// One live node over its own disk shard: `records` feeds the
/// collector, `max_batches` caps its deliveries at the node's budget.
fn start_node(disk: &Arc<NvmeDisk>, records: &[Record], max_batches: u64) -> DlBooster {
    let collector = Arc::new(DataCollector::load_from_disk(records, 0));
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine = DecoderEngine::start(
        device,
        Arc::new(CombinedResolver::disk_only(Arc::clone(disk))),
    )
    .unwrap();
    let channel = FpgaChannel::init(engine, 0);
    let config = DlBoosterConfig::training(1, BATCH, (32, 32), records.len(), Some(max_batches));
    DlBooster::start(collector, channel, config).unwrap()
}

fn build_shard(seed: u64) -> (Arc<NvmeDisk>, Dataset) {
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(
        DatasetSpec::ilsvrc_small(BUDGET as usize * BATCH, seed),
        &disk,
    )
    .unwrap();
    (disk, dataset)
}

#[test]
fn killed_node_fails_over_with_exact_batch_accounting() {
    let shards: Vec<_> = (0..3u64).map(|i| build_shard(21 + i)).collect();
    let nodes = shards
        .iter()
        .map(|(disk, dataset)| (start_node(disk, &dataset.records, BUDGET), BUDGET))
        .collect();
    let mut cluster = BoosterCluster::new(0xFA11_0FE4, 32, nodes);
    assert_eq!(cluster.alive(), 3);

    // Snapshot routing before the kill so we can verify placement only
    // moves where membership change forces it to.
    let keys: Vec<SampleKey> = shards[0]
        .1
        .records
        .iter()
        .map(|r| SampleKey::Disk {
            offset: r.disk_offset,
            len: r.len,
        })
        .collect();
    let before: Vec<Option<u32>> = keys.iter().map(|k| cluster.route_sample(k)).collect();

    // Consume a couple of batches from the victim, then chaos-kill it.
    // The router has at most pool_units batches of headroom beyond what
    // we popped, so delivered < BUDGET and the shortfall is real.
    assert!(cluster.consume_one(1).unwrap());
    assert!(cluster.consume_one(1).unwrap());
    let (victim_disk, victim_dataset) = (&shards[1].0, &shards[1].1);
    let outcome = cluster
        .kill(1, |delivered| {
            let tail = &victim_dataset.records[delivered as usize * BATCH..];
            let shortfall = BUDGET - delivered;
            assert_eq!(tail.len(), shortfall as usize * BATCH);
            Some((start_node(victim_disk, tail, shortfall), shortfall))
        })
        .unwrap();

    assert!(
        outcome.delivered >= 2 && outcome.delivered < BUDGET,
        "delivered {} escaped [2, {BUDGET})",
        outcome.delivered
    );
    assert_eq!(outcome.shortfall, BUDGET - outcome.delivered);
    assert_eq!(
        outcome.residue,
        outcome.delivered - 2,
        "everything delivered but not popped must drain as residue"
    );
    assert_eq!(outcome.replacement, Some(3));
    assert_eq!(cluster.alive(), 3, "replacement keeps membership at 3");
    assert_eq!(
        cluster.consumed(1),
        outcome.delivered,
        "killed node's consumption ends at its delivered count"
    );

    // Placement: node 1 owns nothing; untouched keys keep their owner or
    // move only to the newcomer.
    for (k, &owner_before) in keys.iter().zip(&before) {
        let owner_after = cluster.route_sample(k);
        assert_ne!(owner_after, Some(1), "dead node still owns {k:?}");
        if owner_before != Some(1) {
            assert!(
                owner_after == owner_before || owner_after == Some(3),
                "{k:?} moved {owner_before:?} -> {owner_after:?}, not forced by membership"
            );
        }
    }

    // Drain the survivors and the replacement: every budgeted batch is
    // consumed exactly once across the whole episode.
    cluster.drain_live().unwrap();
    assert_eq!(cluster.consumed(0), BUDGET);
    assert_eq!(cluster.consumed(2), BUDGET);
    assert_eq!(cluster.consumed(3), outcome.shortfall);
    assert_eq!(cluster.total_consumed(), 3 * BUDGET, "no loss, no dup");
    cluster.shutdown();
}

#[test]
fn kill_with_no_shortfall_needs_no_replacement() {
    let (disk, dataset) = build_shard(7);
    let budget = 2u64;
    let nodes = vec![
        (
            start_node(&disk, &dataset.records[..2 * BATCH], budget),
            budget,
        ),
        (
            start_node(&disk, &dataset.records[2 * BATCH..4 * BATCH], budget),
            budget,
        ),
    ];
    let mut cluster = BoosterCluster::new(0xFA11_0FE4, 32, nodes);

    // Consume the victim's full budget, then kill: nothing to re-produce.
    assert!(cluster.consume_one(0).unwrap());
    assert!(cluster.consume_one(0).unwrap());
    assert!(!cluster.consume_one(0).unwrap(), "budget exhausted");
    let outcome = cluster
        .kill(0, |delivered| {
            assert_eq!(delivered, budget);
            None
        })
        .unwrap();
    assert_eq!(outcome.delivered, budget);
    assert_eq!(outcome.shortfall, 0);
    assert_eq!(outcome.residue, 0);
    assert_eq!(outcome.replacement, None);
    assert_eq!(cluster.alive(), 1);
    assert!(
        cluster.kill(0, |_| None).is_err(),
        "double-kill must be rejected"
    );

    cluster.drain_live().unwrap();
    assert_eq!(cluster.total_consumed(), 2 * budget);
    cluster.shutdown();
}
