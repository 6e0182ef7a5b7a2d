//! The sharded-cluster discrete-event simulation (beyond the paper: the
//! ROADMAP's "scale out past one machine" regime).
//!
//! [`ClusterSim`] drives N simulated preprocessing nodes behind the
//! `dlb-cluster` shard router: every request hashes to a node through the
//! consistent-hash [`HashRing`], per-tenant [`TenantQuotas`] bound
//! cluster-wide admission at the door, stragglers get a deadline-budget
//! hedge copy on the next ring replica ([`LatencyBudget`] per node), and
//! mid-run chaos kills exercise the failover path: the dead node's queued
//! copies are classified through the [`DedupLedger`] and replayed on ring
//! successors or shed, quotas rebalance to the surviving capacity, and the
//! `cluster.*` conservation laws must still balance exactly at the end.
//!
//! Each node is a single server over a per-tenant [`WeightedFairQueue`]:
//! service time is `1/node_capacity` with lognormal jitter, so the model
//! abstracts one `DlBooster` pipeline to its calibrated rate (the
//! functional failover story on *real* pipelines lives in
//! `dlb_cluster::BoosterCluster`; this model explores 8–32 nodes in
//! virtual time, which the real pool cannot).

use crate::report::{fmt_rate, fmt_ratio, FigureReport, Row};
use dlb_cluster::{
    ClusterInstruments, CompletionOutcome, CopyKind, DedupLedger, HashRing, HedgeConfig,
    LatencyBudget, LossOutcome, TenantQuotas,
};
use dlb_serving::{TenantClass, WeightedFairQueue};
use dlb_simcore::stats::LatencyStats;
use dlb_simcore::{Scheduler, SimModel, SimRng, SimTime, Simulation};
use dlb_telemetry::{PipelineSnapshot, Registry};
use dlb_trace::{stages, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Cluster experiment parameters.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Nodes in the initial membership (ids `0..nodes`).
    pub nodes: u32,
    /// Virtual points per node on the hash ring.
    pub vnodes: u32,
    /// Ring placement seed (placement is a pure function of this plus the
    /// membership).
    pub ring_seed: u64,
    /// One node's service rate, requests/s (the abstracted pipeline
    /// capacity; the DES jitters individual service times around it).
    pub node_capacity: f64,
    /// Lognormal sigma of per-copy service time.
    pub service_sigma: f64,
    /// Offered cluster-wide arrival rate, requests/s.
    pub rate: f64,
    /// Per-request latency SLO; `deadline = arrival + slo`.
    pub slo: SimTime,
    /// Tenant classes (WFQ weight and load share, as in the serving layer).
    pub tenants: Vec<TenantClass>,
    /// Fraction of live cluster capacity the quotas hand out (the
    /// admission ceiling; < 1 keeps node queues stable under overload).
    pub quota_headroom: f64,
    /// Seconds of burst credit each tenant's bucket may bank.
    pub quota_burst_secs: f64,
    /// Hedging policy (budget clamp, multiplier, copies per request).
    pub hedge: HedgeConfig,
    /// Completions in each node's sliding p99 window.
    pub hedge_window: usize,
    /// Chaos schedule: `(when, node)` kills applied mid-run.
    pub kills: Vec<(SimTime, u32)>,
    /// Request arrivals to generate.
    pub requests: u64,
    /// Request completions to discard as warmup.
    pub warmup: u64,
    /// Hot-object universe per tenant (keys recur, CCTV-style).
    pub keys_per_tenant: u64,
    /// RNG seed (arrivals, tenant mix, service jitter).
    pub seed: u64,
}

impl ClusterParams {
    /// The canonical setup: `nodes` nodes of 500 req/s each, five
    /// equal-weight tenants, 50 ms SLO, offered load at `overload` times
    /// the aggregate capacity, quotas at 80 % headroom, one hedge copy.
    pub fn baseline(nodes: u32, overload: f64, seed: u64) -> Self {
        assert!(nodes >= 1 && overload > 0.0);
        let node_capacity = 500.0;
        Self {
            nodes,
            vnodes: 256,
            ring_seed: 0xD1B0_0057,
            node_capacity,
            service_sigma: 0.3,
            rate: f64::from(nodes) * node_capacity * overload,
            slo: SimTime::from_millis(50),
            tenants: (0..5)
                .map(|id| TenantClass {
                    id,
                    weight: 1,
                    load_share: 0.2,
                })
                .collect(),
            quota_headroom: 0.7,
            // Small burst: buckets start full, so a generous burst floods
            // the cluster with one quarter-second of capacity at t = 0 and
            // the whole short run measures that transient.
            quota_burst_secs: 0.05,
            hedge: HedgeConfig {
                multiplier: 2.0,
                min_budget: SimTime::from_millis(2),
                max_budget: SimTime::from_millis(20),
                max_hedges: 1,
            },
            hedge_window: 128,
            kills: Vec::new(),
            requests: 6_000,
            warmup: 500,
            keys_per_tenant: 128,
            seed,
        }
    }

    /// Aggregate service capacity of the initial membership, requests/s.
    pub(crate) fn capacity(&self) -> f64 {
        f64::from(self.nodes) * self.node_capacity
    }

    /// Expected run length at the offered rate.
    pub(crate) fn expected_duration(&self) -> SimTime {
        SimTime::from_secs_f64(self.requests as f64 / self.rate.max(1.0))
    }

    /// Adds a chaos kill schedule.
    pub(crate) fn with_kills(mut self, kills: Vec<(SimTime, u32)>) -> Self {
        self.kills = kills;
        self
    }

    /// Schedules `n` kills of nodes `0..n`, evenly spread through the
    /// middle of the expected run (between 30 % and 60 % of its length).
    pub fn with_spread_kills(self, n: u32) -> Self {
        assert!(n < self.nodes, "must leave at least one survivor");
        let span = self.expected_duration().as_secs_f64();
        let kills = (0..n)
            .map(|i| {
                let frac = 0.3 + 0.3 * f64::from(i) / f64::from(n.max(1));
                (SimTime::from_secs_f64(span * frac), i)
            })
            .collect();
        self.with_kills(kills)
    }
}

/// Measured cluster outcome.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Requests offered at the cluster door.
    pub offered: u64,
    /// Requests whose first copy completion won (request-level serves).
    pub completed: u64,
    /// Requests terminally shed (quota, dead ring, unreplayable loss).
    pub shed: u64,
    /// Completions inside the SLO.
    pub good: u64,
    /// In-SLO completions per second over the post-warmup window.
    pub goodput: f64,
    /// Median winning-copy latency (arrival → first completion).
    pub p50_latency: SimTime,
    /// Tail winning-copy latency.
    pub p99_latency: SimTime,
    /// Per-tenant p99 latency (ascending tenant id).
    pub tenant_p99: Vec<(u32, SimTime)>,
    /// Nodes chaos-killed during the run.
    pub killed: u32,
    /// Requests still open at the end — must be zero ("no stuck work").
    pub open_requests: usize,
    /// Virtual duration.
    pub sim_time: SimTime,
    /// End-of-run telemetry: every `cluster.*` counter, with the
    /// conservation laws checkable via
    /// [`PipelineSnapshot::invariant_violations`].
    pub snapshot: PipelineSnapshot,
}

#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    Kickoff,
    /// A request reached the cluster door.
    Arrival,
    /// Node `node` finished the copy it was serving. Stale epochs (the
    /// node was killed after this was scheduled) are ignored — the kill
    /// already classified the copy as lost.
    NodeDone {
        /// Serving node.
        node: u32,
        /// The node's liveness epoch when service started.
        epoch: u64,
    },
    /// Request `req`'s hedge budget expired.
    HedgeDue {
        /// The request whose budget ran out.
        req: u64,
    },
    /// Chaos kill of `node`.
    Kill {
        /// The victim.
        node: u32,
    },
}

/// One copy of a request, as queued on a node.
struct InFlightCopy {
    req: u64,
    tenant: u32,
    kind: CopyKind,
    dispatched_at: SimTime,
    /// Trace ordinal of this copy (0 = untraced).
    trace: u64,
}

/// One simulated preprocessing node.
struct Node {
    alive: bool,
    /// Bumped on kill so in-flight `NodeDone` events become stale.
    epoch: u64,
    busy: bool,
    queue: WeightedFairQueue<InFlightCopy>,
    in_service: Option<InFlightCopy>,
    rng: SimRng,
    budget: LatencyBudget,
}

/// Per-request routing state the router keeps while the request is open.
struct ReqInfo {
    tenant: u32,
    key: u64,
    arrival: SimTime,
    deadline: SimTime,
    hedges: u32,
    /// Nodes that already hold (or held) a copy — hedges skip them.
    tried: Vec<u32>,
}

/// The cluster DES model.
pub struct ClusterSim {
    params: ClusterParams,
    ring: HashRing,
    quotas: TenantQuotas,
    ledger: DedupLedger,
    instruments: Arc<ClusterInstruments>,
    registry: Arc<Registry>,
    nodes: Vec<Node>,
    reqs: HashMap<u64, ReqInfo>,
    /// Cumulative tenant load shares for arrival sampling.
    tenant_cdf: Vec<(u32, f64)>,
    rng: SimRng,
    next_id: u64,
    arrivals_generated: u64,
    killed: u32,
    /// Optional span recorder: per-copy ordinals, hedge-dup links.
    tracer: Option<Arc<Tracer>>,
    /// Winning copy's trace ordinal per request, for linking late dups.
    won_trace: HashMap<u64, u64>,

    // Measurement.
    latency: LatencyStats,
    tenant_latency: BTreeMap<u32, LatencyStats>,
    wins: u64,
    good_wins: u64,
    good_after_warmup: u64,
    warmup_at: Option<SimTime>,
    done_at: SimTime,
    shed_reqs: u64,
}

impl ClusterSim {
    /// Builds the model.
    pub(crate) fn new(params: ClusterParams) -> Self {
        assert!(params.nodes >= 1, "need at least one node");
        assert!(params.requests > params.warmup, "warmup eats the run");
        assert!(params.rate > 0.0, "offered rate must be positive");
        assert!(!params.tenants.is_empty(), "need at least one tenant");
        let ring = HashRing::with_nodes(params.ring_seed, params.vnodes, 0..params.nodes);
        let weights: Vec<(u32, u32)> = params.tenants.iter().map(|t| (t.id, t.weight)).collect();
        let quotas = TenantQuotas::from_weights(
            weights.iter().copied(),
            params.capacity() * params.quota_headroom,
            params.quota_burst_secs,
        );
        let registry = Arc::new(Registry::new());
        let instruments = ClusterInstruments::new(&registry);
        instruments.set_nodes_alive(params.nodes);
        let mut rng = SimRng::new(params.seed);
        let nodes = (0..params.nodes)
            .map(|i| Node {
                alive: true,
                epoch: 0,
                busy: false,
                queue: WeightedFairQueue::new(weights.iter().copied()),
                in_service: None,
                rng: rng.fork(u64::from(i) + 1),
                budget: LatencyBudget::new(params.hedge, params.hedge_window),
            })
            .collect();
        let total_share: f64 = params.tenants.iter().map(|t| t.load_share.max(0.0)).sum();
        let mut acc = 0.0;
        let tenant_cdf = params
            .tenants
            .iter()
            .map(|t| {
                acc += t.load_share.max(0.0) / total_share.max(f64::MIN_POSITIVE);
                (t.id, acc)
            })
            .collect();
        Self {
            ring,
            quotas,
            ledger: DedupLedger::new(),
            instruments,
            registry,
            nodes,
            reqs: HashMap::new(),
            tenant_cdf,
            rng,
            next_id: 0,
            arrivals_generated: 0,
            killed: 0,
            tracer: None,
            won_trace: HashMap::new(),
            latency: LatencyStats::new(),
            tenant_latency: BTreeMap::new(),
            wins: 0,
            good_wins: 0,
            good_after_warmup: 0,
            warmup_at: None,
            done_at: SimTime::ZERO,
            shed_reqs: 0,
            params,
        }
    }

    fn sample_tenant(&mut self) -> u32 {
        let u = self.rng.uniform();
        for &(id, cum) in &self.tenant_cdf {
            if u <= cum {
                return id;
            }
        }
        self.tenant_cdf.last().map(|&(id, _)| id).unwrap_or(0)
    }

    fn schedule_next_arrival(&mut self, sched: &mut Scheduler<Ev>) {
        if self.arrivals_generated >= self.params.requests {
            return;
        }
        self.arrivals_generated += 1;
        let gap = self.rng.exponential(1.0 / self.params.rate);
        sched.after(SimTime::from_secs_f64(gap), Ev::Arrival);
    }

    /// Attaches a span recorder: every dispatched copy gets a trace
    /// ordinal, and duplicate completions are linked to the winning copy.
    /// Recording never touches the sim's RNG, so attaching a tracer
    /// cannot change the outcome.
    pub(crate) fn attach_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Puts one copy of `req` on `node`'s queue and starts service if the
    /// node is idle.
    fn dispatch(&mut self, now: SimTime, node: u32, req: u64, kind: CopyKind) {
        let info = self
            .reqs
            .get_mut(&req)
            .expect("dispatch of unknown request");
        info.tried.push(node);
        let tenant = info.tenant;
        self.ledger.dispatch(req);
        self.instruments.on_dispatch(kind);
        let trace = self.tracer.as_ref().map_or(0, |t| t.next_batch_id());
        self.nodes[node as usize].queue.push(
            tenant,
            InFlightCopy {
                req,
                tenant,
                kind,
                dispatched_at: now,
                trace,
            },
        );
    }

    /// Records a duplicate completion against the request's winning copy:
    /// a `cluster.hedge_dup` mark on the dup's ordinal, plus a link folding
    /// its spans into the winner's timeline.
    fn trace_duplicate(&self, copy: &InFlightCopy) {
        let Some(t) = &self.tracer else { return };
        if copy.trace == 0 {
            return;
        }
        t.mark(copy.trace, stages::HEDGE_DUP);
        if let Some(&winner) = self.won_trace.get(&copy.req) {
            t.link(copy.trace, winner);
        }
    }

    fn try_start(&mut self, node: u32, sched: &mut Scheduler<Ev>) {
        let median = 1.0 / self.params.node_capacity;
        let sigma = self.params.service_sigma;
        loop {
            let copy = {
                let n = &mut self.nodes[node as usize];
                if !n.alive || n.busy {
                    return;
                }
                match n.queue.pop() {
                    Some(c) => c,
                    None => return,
                }
            };
            if self.ledger.is_terminal(copy.req) {
                // Lazy cancellation: the request already won on another
                // node (or was shed) — retire this copy as a zero-cost
                // duplicate instead of burning service time on it.
                let outcome = self.ledger.complete(copy.req, copy.kind);
                debug_assert!(matches!(outcome, CompletionOutcome::Duplicate));
                self.trace_duplicate(&copy);
                self.instruments
                    .on_completion(copy.tenant, copy.kind, false, false);
                continue;
            }
            let n = &mut self.nodes[node as usize];
            n.busy = true;
            let epoch = n.epoch;
            let svc = SimTime::from_secs_f64(n.rng.lognormal(median, sigma));
            n.in_service = Some(copy);
            sched.after(svc, Ev::NodeDone { node, epoch });
            return;
        }
    }

    /// Terminally sheds `req` (quota denial, dead ring, or an
    /// unreplayable loss).
    fn shed_request(&mut self, req: u64, tenant: u32, quota: bool) {
        self.ledger.shed(req);
        self.instruments.on_shed(tenant, quota);
        self.shed_reqs += 1;
        self.reqs.remove(&req);
    }

    fn arrival(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        let tenant = self.sample_tenant();
        let req = self.next_id;
        self.next_id += 1;
        let object = self.rng.below(self.params.keys_per_tenant.max(1));
        let key = HashRing::object_key(tenant, object);
        self.instruments.on_request(tenant);
        self.ledger.admit(req);
        self.reqs.insert(
            req,
            ReqInfo {
                tenant,
                key,
                arrival: now,
                deadline: now + self.params.slo,
                hedges: 0,
                tried: Vec::new(),
            },
        );
        if !self.quotas.try_acquire(tenant, now) {
            self.shed_request(req, tenant, true);
            return;
        }
        let Some(target) = self.ring.route(key) else {
            // Every node is dead: nothing can serve this.
            self.shed_request(req, tenant, false);
            return;
        };
        self.instruments.on_admitted();
        self.dispatch(now, target, req, CopyKind::Primary);
        self.try_start(target, sched);
        if self.params.hedge.max_hedges > 0 {
            let budget = self.nodes[target as usize].budget.budget();
            sched.after(budget, Ev::HedgeDue { req });
        }
    }

    fn hedge_due(&mut self, now: SimTime, req: u64, sched: &mut Scheduler<Ev>) {
        if self.ledger.is_terminal(req) {
            return;
        }
        let Some(info) = self.reqs.get(&req) else {
            return;
        };
        if info.hedges >= self.params.hedge.max_hedges {
            return;
        }
        let key = info.key;
        let tried = info.tried.clone();
        let Some(target) = self.ring.successors(key).find(|n| !tried.contains(n)) else {
            return;
        };
        let info = self.reqs.get_mut(&req).expect("checked above");
        info.hedges += 1;
        let more = info.hedges < self.params.hedge.max_hedges;
        self.dispatch(now, target, req, CopyKind::Hedge);
        self.try_start(target, sched);
        if more {
            let budget = self.nodes[target as usize].budget.budget();
            sched.after(budget, Ev::HedgeDue { req });
        }
    }

    fn node_done(&mut self, now: SimTime, node: u32, epoch: u64, sched: &mut Scheduler<Ev>) {
        {
            let n = &mut self.nodes[node as usize];
            if n.epoch != epoch {
                // The node was killed while this copy was in service; the
                // kill handler already classified it as lost.
                return;
            }
            n.busy = false;
        }
        let copy = self.nodes[node as usize]
            .in_service
            .take()
            .expect("NodeDone with empty server");
        self.nodes[node as usize]
            .budget
            .observe(now.saturating_sub(copy.dispatched_at));
        let outcome = self.ledger.complete(copy.req, copy.kind);
        let won = matches!(outcome, CompletionOutcome::Won(_));
        if won {
            if self.tracer.is_some() && copy.trace != 0 {
                self.won_trace.insert(copy.req, copy.trace);
            }
            let info = self.reqs.remove(&copy.req).expect("won unknown request");
            let latency = now.saturating_sub(info.arrival);
            let good = now <= info.deadline;
            self.instruments
                .on_completion(copy.tenant, copy.kind, true, good);
            self.instruments.observe_latency(latency);
            self.wins += 1;
            if good {
                self.good_wins += 1;
            }
            if self.wins == self.params.warmup {
                self.warmup_at = Some(now);
            }
            if self.wins > self.params.warmup {
                // Latency percentiles and goodput are post-warmup views,
                // as in the inference DES.
                self.latency.record(latency);
                self.tenant_latency
                    .entry(copy.tenant)
                    .or_default()
                    .record(latency);
                if good {
                    self.good_after_warmup += 1;
                }
            }
            self.done_at = now;
        } else {
            self.trace_duplicate(&copy);
            self.instruments
                .on_completion(copy.tenant, copy.kind, false, false);
        }
        self.try_start(node, sched);
    }

    fn kill(&mut self, now: SimTime, node: u32, sched: &mut Scheduler<Ev>) {
        let orphans = {
            let n = &mut self.nodes[node as usize];
            if !n.alive {
                return;
            }
            n.alive = false;
            n.epoch += 1;
            n.busy = false;
            let mut orphans: Vec<InFlightCopy> = n.in_service.take().into_iter().collect();
            while let Some(c) = n.queue.pop() {
                orphans.push(c);
            }
            orphans
        };
        self.ring.remove(node);
        self.killed += 1;
        let alive = self.nodes.iter().filter(|n| n.alive).count() as u32;
        self.instruments.on_kill(alive);
        self.quotas.rebalance(alive, self.params.nodes);
        self.instruments.on_rebalance();
        for copy in orphans {
            match self.ledger.lose(copy.req) {
                LossOutcome::Replayable => {
                    let (key, deadline) = {
                        let info = self.reqs.get(&copy.req).expect("open request tracked");
                        (info.key, info.deadline)
                    };
                    // Replay on the new ring owner — unless the deadline
                    // already passed (the copy would complete useless) or
                    // no live node remains.
                    let target = if now <= deadline {
                        self.ring.route(key)
                    } else {
                        None
                    };
                    match target {
                        Some(t) => {
                            self.instruments.on_lost(true);
                            self.dispatch(now, t, copy.req, CopyKind::Replay);
                            self.try_start(t, sched);
                        }
                        None => {
                            self.instruments.on_lost(false);
                            self.shed_request(copy.req, copy.tenant, false);
                        }
                    }
                }
                LossOutcome::Covered | LossOutcome::Stale => {
                    self.instruments.on_lost(false);
                }
            }
        }
    }
}

impl SimModel for ClusterSim {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Kickoff => {
                for (at, node) in self.params.kills.clone() {
                    assert!((node as usize) < self.nodes.len(), "kill of unknown node");
                    sched.at(at, Ev::Kill { node });
                }
                self.schedule_next_arrival(sched);
            }
            Ev::Arrival => {
                self.arrival(now, sched);
                self.schedule_next_arrival(sched);
            }
            Ev::NodeDone { node, epoch } => self.node_done(now, node, epoch, sched),
            Ev::HedgeDue { req } => self.hedge_due(now, req, sched),
            Ev::Kill { node } => self.kill(now, node, sched),
        }
    }
}

impl ClusterSim {
    /// Runs one cluster experiment to quiescence.
    pub fn run(params: ClusterParams) -> ClusterOutcome {
        Self::run_with(params, None)
    }

    /// [`ClusterSim::run`] with a span recorder attached: dispatched
    /// copies get trace ordinals and hedge duplicates link to the winning
    /// copy. The outcome is bitwise identical to the untraced run.
    pub fn run_traced(params: ClusterParams, tracer: Arc<Tracer>) -> ClusterOutcome {
        Self::run_with(params, Some(tracer))
    }

    fn run_with(params: ClusterParams, tracer: Option<Arc<Tracer>>) -> ClusterOutcome {
        let mut model = ClusterSim::new(params);
        if let Some(t) = tracer {
            model.attach_tracer(t);
        }
        let mut sim = Simulation::new(model);
        sim.seed(SimTime::ZERO, Ev::Kickoff);
        let summary = sim.run_until(SimTime::from_secs(3600), 50_000_000);
        assert!(summary.events > 0, "cluster sim processed no events at all");
        let mut model = sim.into_model();
        let start = model.warmup_at.unwrap_or(SimTime::ZERO);
        let window = model.done_at.saturating_sub(start);
        let goodput = if window == SimTime::ZERO {
            0.0
        } else {
            model.good_after_warmup as f64 / window.as_secs_f64()
        };
        let snapshot = PipelineSnapshot::from_parts(model.registry.snapshot(), Vec::new());
        let tenant_p99 = model
            .tenant_latency
            .iter_mut()
            .map(|(&id, stats)| (id, stats.p99()))
            .collect();
        ClusterOutcome {
            offered: model.arrivals_generated,
            completed: model.wins,
            shed: model.shed_reqs,
            good: model.good_wins,
            goodput,
            p50_latency: model.latency.median(),
            p99_latency: model.latency.p99(),
            tenant_p99,
            killed: model.killed,
            open_requests: model.ledger.open_requests(),
            sim_time: model.done_at,
            snapshot,
        }
    }

    /// Degradation sweep: 3× overload on `nodes` nodes, killing
    /// `0..=max_kills` of them mid-run. Returns one outcome per kill
    /// count; the zero-kill run is the goodput-retention baseline.
    pub(crate) fn degradation_sweep(nodes: u32, max_kills: u32, seed: u64) -> Vec<ClusterOutcome> {
        assert!(max_kills < nodes, "must leave at least one survivor");
        (0..=max_kills)
            .map(|k| {
                ClusterSim::run(ClusterParams::baseline(nodes, 3.0, seed).with_spread_kills(k))
            })
            .collect()
    }
}

/// The goodput/p99-vs-killed-nodes figure: an 8-node cluster at 3×
/// overload, with 0–3 nodes chaos-killed mid-run. Goodput retention
/// should track surviving capacity (≈ `1 − killed/8`), and p99 must stay
/// inside the SLO — quota rebalancing sheds the lost capacity's load at
/// the door instead of letting queues blow up.
pub(crate) fn cluster_degradation_figure() -> FigureReport {
    let nodes = 8;
    let outcomes = ClusterSim::degradation_sweep(nodes, 3, 11);
    let baseline = outcomes[0].goodput.max(1.0);
    let slo = ClusterParams::baseline(nodes, 3.0, 11).slo;
    let mut rep = FigureReport::new(
        "Cluster degradation",
        "8-node cluster at 3x overload: goodput and p99 vs chaos-killed nodes",
        &[
            "killed",
            "goodput (req/s)",
            "retention",
            "p99 (ms)",
            "shed",
            "hedge wins",
            "replays",
        ],
    );
    for o in &outcomes {
        let c = &o.snapshot.cluster;
        rep.push_row(Row::new(&[
            o.killed.to_string(),
            fmt_rate(o.goodput),
            fmt_ratio(o.goodput / baseline),
            format!("{:.2}", o.p99_latency.as_millis_f64()),
            c.shed.to_string(),
            c.hedge_wins.to_string(),
            c.replays.to_string(),
        ]));
    }
    rep.note(format!(
        "SLO {} ms; retention should track surviving capacity (7/8 = 0.875 at one kill)",
        slo.as_millis_f64()
    ));
    rep.note("conservation: requests + hedge_dups == served + replayed + shed at quiescence");
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_cluster_serves_everything_in_slo() {
        let mut p = ClusterParams::baseline(8, 0.5, 3);
        p.requests = 2_000;
        p.warmup = 200;
        let o = ClusterSim::run(p);
        assert_eq!(o.open_requests, 0, "stuck requests");
        assert_eq!(o.completed + o.shed, o.offered);
        assert!(o.shed == 0, "underload must not shed (shed {})", o.shed);
        let good_fraction = o.good as f64 / o.offered as f64;
        assert!(
            good_fraction > 0.99,
            "underload good fraction {good_fraction:.3}"
        );
        assert!(o.snapshot.invariant_violations().is_empty());
    }

    #[test]
    fn overload_sheds_at_the_quota_door_not_in_queues() {
        let mut p = ClusterParams::baseline(8, 3.0, 5);
        p.requests = 4_000;
        p.warmup = 300;
        let o = ClusterSim::run(p);
        assert_eq!(o.open_requests, 0);
        let c = &o.snapshot.cluster;
        assert!(c.quota_shed > 0, "3x overload must trip the quotas");
        assert_eq!(c.quota_shed, c.shed, "all shedding happens at the door");
        // Quota headroom keeps queues short: p99 inside the SLO.
        assert!(
            o.p99_latency < SimTime::from_millis(50),
            "p99 {} blew the SLO",
            o.p99_latency
        );
        assert!(o.snapshot.invariant_violations().is_empty());
    }

    #[test]
    fn kill_preserves_conservation_and_bounds_degradation() {
        let base = ClusterSim::run(ClusterParams::baseline(8, 3.0, 9));
        let killed = ClusterSim::run(ClusterParams::baseline(8, 3.0, 9).with_spread_kills(1));
        assert_eq!(killed.killed, 1);
        assert_eq!(killed.open_requests, 0, "kill stranded requests");
        let c = &killed.snapshot.cluster;
        assert_eq!(c.kills, 1);
        assert!(c.rebalances >= 1);
        assert!(
            killed.snapshot.invariant_violations().is_empty(),
            "{:?}",
            killed.snapshot.invariant_violations()
        );
        let retention = killed.goodput / base.goodput.max(1.0);
        assert!(
            retention >= 0.85,
            "goodput retention {retention:.3} (base {:.0}, killed {:.0})",
            base.goodput,
            killed.goodput
        );
    }

    #[test]
    fn killing_every_node_sheds_the_tail_cleanly() {
        let mut p = ClusterParams::baseline(3, 1.0, 21);
        p.requests = 1_500;
        p.warmup = 100;
        let span = p.expected_duration().as_secs_f64();
        p = p.with_kills(
            (0..3)
                .map(|i| (SimTime::from_secs_f64(span * 0.4), i))
                .collect(),
        );
        let o = ClusterSim::run(p);
        assert_eq!(o.killed, 3);
        assert_eq!(o.open_requests, 0, "dead cluster stranded requests");
        assert_eq!(o.completed + o.shed, o.offered);
        assert!(o.shed > 0, "arrivals after total death must shed");
        assert!(
            o.snapshot.invariant_violations().is_empty(),
            "{:?}",
            o.snapshot.invariant_violations()
        );
    }

    #[test]
    fn replay_preserves_work_when_capacity_allows() {
        // Kill while queues hold work but the ring survives: lost copies
        // must be replayed (or covered), never silently dropped.
        let killed = ClusterSim::run(ClusterParams::baseline(8, 3.0, 17).with_spread_kills(2));
        let c = &killed.snapshot.cluster;
        assert!(c.lost > 0, "kills with queued work must lose copies");
        assert_eq!(c.lost, c.replays + c.lost_unreplayed);
        assert!(c.replayed <= c.replays, "replay completions exceed replays");
        assert!(killed.snapshot.invariant_violations().is_empty());
    }

    #[test]
    fn seed_replay_is_bitwise_identical() {
        let a = ClusterSim::run(ClusterParams::baseline(8, 2.0, 42).with_spread_kills(1));
        let b = ClusterSim::run(ClusterParams::baseline(8, 2.0, 42).with_spread_kills(1));
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.good, b.good);
        assert_eq!(a.p99_latency, b.p99_latency);
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.snapshot.cluster.dispatches, b.snapshot.cluster.dispatches);
    }

    #[test]
    fn degradation_figure_has_four_rows() {
        let rep = cluster_degradation_figure();
        assert_eq!(rep.rows.len(), 4);
        // Retention column is monotone-ish downward: last ≤ first.
        let first: f64 = rep.rows[0].cells[2].trim_end_matches('x').parse().unwrap();
        let last: f64 = rep.rows[3].cells[2].trim_end_matches('x').parse().unwrap();
        assert!(last <= first + 1e-9, "retention rose with kills?");
    }
}
