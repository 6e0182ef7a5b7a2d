//! Pipeline-level aggregation, written once: the **metric table** (one
//! entry per metric → its [`names`] constant, its typed field, the
//! raw-snapshot fold, and the JSON/text renderings), the **law table**
//! (one row per conservation law, evaluated in signed arithmetic), the
//! [`PipelineSnapshot`] view both produce, and the [`Telemetry`] bundle
//! (registry + watchdog) threaded through the pipeline.
//!
//! To add a metric, add one entry to the `metrics!` invocation; to add a
//! law, add one row to `LAWS`. Nothing else in this file lists a metric.

use crate::json::Json;
use crate::metrics::HistogramSnapshot;
use crate::registry::{Registry, RegistrySnapshot};
use crate::watchdog::{StallReport, Watchdog};
use dlb_trace::Tracer;
use std::fmt::Write;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Registry + watchdog bundle threaded through pipeline construction.
#[derive(Debug)]
pub struct Telemetry {
    /// The single metric registry.
    pub registry: Arc<Registry>,
    /// Stall watchdog over stage queues.
    pub watchdog: Arc<Watchdog>,
    /// Optional span tracer (see [`Telemetry::install_tracer`]). Empty by
    /// default: stages probe it per batch and skip recording when unset, so
    /// disabled tracing costs one load + branch per record site. Shared
    /// behind an `Arc` so stage daemons can keep a clone of the cell and
    /// observe a tracer installed after they started (the same
    /// first-attach-wins shape as the chaos and cache hooks).
    tracer: Arc<OnceLock<Arc<Tracer>>>,
}

impl Telemetry {
    /// Bundle with the given stall threshold.
    pub fn new(stall_threshold: Duration) -> Arc<Self> {
        Arc::new(Self {
            registry: Arc::new(Registry::new()),
            watchdog: Arc::new(Watchdog::new(stall_threshold)),
            tracer: Arc::new(OnceLock::new()),
        })
    }

    /// Bundle with a threshold long enough that healthy test runs never
    /// trip it (2 s).
    pub fn with_defaults() -> Arc<Self> {
        Self::new(Duration::from_secs(2))
    }

    /// Installs a span tracer; every stage holding this bundle starts
    /// recording spans through it. First install wins (mirrors the
    /// first-attach-wins cells used elsewhere in the pipeline); returns
    /// `false` if a tracer was already installed.
    pub fn install_tracer(&self, tracer: Arc<Tracer>) -> bool {
        self.tracer.set(tracer).is_ok()
    }

    /// The installed tracer, if any. Stages call this per batch; `None`
    /// means tracing is disabled and the record site is a no-op.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.get()
    }

    /// The shared tracer cell, for stage daemons that outlive their
    /// construction-time `&Telemetry` borrow: probe `cell.get()` per batch
    /// exactly like [`Telemetry::tracer`].
    pub fn tracer_cell(&self) -> Arc<OnceLock<Arc<Tracer>>> {
        Arc::clone(&self.tracer)
    }

    /// Captures a [`PipelineSnapshot`] right now.
    pub fn pipeline_snapshot(&self) -> PipelineSnapshot {
        PipelineSnapshot::capture(&self.registry.snapshot(), &self.watchdog)
    }
}

/// How a table entry is recorded in the registry and typed in the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic counter, typed `u64`.
    Counter,
    /// Gauge level, typed `i64`.
    Gauge,
    /// High-water mark of the gauge registered under the same name, typed
    /// `i64`.
    HighWater,
    /// Histogram, typed `Option<HistogramSnapshot>` (`None` until a stage
    /// registers it).
    Histogram,
}

/// One typed-view value, borrowed from its snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// A [`Kind::Counter`] field.
    Counter(u64),
    /// A [`Kind::Gauge`] or [`Kind::HighWater`] field.
    Gauge(i64),
    /// A [`Kind::Histogram`] field.
    Histogram(Option<&'a HistogramSnapshot>),
}

impl Value<'_> {
    /// The value a law computes with: counters and gauges as they are
    /// (signed, so a negative gauge stays negative), histograms by count.
    fn scalar(self) -> i128 {
        match self {
            Value::Counter(v) => v.into(),
            Value::Gauge(v) => v.into(),
            Value::Histogram(h) => h.map_or(0, |h| h.count).into(),
        }
    }

    fn to_json(self) -> Json {
        match self {
            Value::Counter(v) => v.into(),
            Value::Gauge(v) => v.into(),
            Value::Histogram(None) => Json::Null,
            Value::Histogram(Some(h)) => Json::object(vec![
                ("count", Json::from(h.count)),
                ("mean_ns", Json::from(h.mean())),
                ("p50_ns", Json::from(h.quantile(0.5))),
                ("p99_ns", Json::from(h.quantile(0.99))),
                ("max_ns", Json::from(h.max)),
            ]),
        }
    }

    /// ` field=value`, or ` field[n=… mean=… …]` for histograms.
    fn write_text(self, out: &mut String, field: &str) {
        let _ = match self {
            Value::Histogram(Some(h)) if h.count > 0 => write!(
                out,
                " {field}[n={} mean={:.1}µs p50={:.1}µs p99={:.1}µs max={:.1}µs]",
                h.count,
                h.mean() / 1e3,
                h.quantile(0.5) as f64 / 1e3,
                h.quantile(0.99) as f64 / 1e3,
                h.max as f64 / 1e3
            ),
            Value::Histogram(_) => write!(out, " {field}[n=0]"),
            scalar => write!(out, " {field}={}", scalar.scalar()),
        };
    }
}

/// What every generated struct exposes to the generic renderers, the
/// law evaluator and [`PipelineSnapshot::typed_metrics`].
trait Table {
    /// The struct's own entries with their values, in declaration order.
    fn fields(&self) -> Vec<TypedMetric<'_>>;
    /// `(id field, id, registry prefix)` for a prefix-discovered member.
    fn member(&self) -> Option<(&'static str, &str, &'static str)>;
    /// `(field, members)` for a struct that owns a member family.
    fn family(&self) -> Option<(&'static str, Vec<&dyn Table>)>;
    /// False while an optional layer has recorded nothing (its
    /// `is_empty()`): its text line is omitted.
    fn active(&self) -> bool;
}

/// The one discovery loop: ids of every `<prefix><id>.<probe>` key.
fn member_ids<'a>(
    raw: &'a RegistrySnapshot,
    prefix: &'a str,
    probe: &'a str,
) -> impl Iterator<Item = &'a str> {
    raw.metrics.keys().filter_map(move |k| {
        let (id, field) = k.strip_prefix(prefix)?.rsplit_once('.')?;
        (field == probe).then_some(id)
    })
}

/// `[id,] fields…` as JSON object pairs.
fn field_json(t: &dyn Table) -> Vec<(&'static str, Json)> {
    let id = t.member().map(|(field, id, _)| (field, id.into()));
    let fields = t.fields().into_iter();
    id.into_iter()
        .chain(fields.map(|m| (m.field, m.value.to_json())))
        .collect()
}

/// The member family, if any, as one `(field, array)` pair.
fn family_json(t: &dyn Table) -> Option<(&'static str, Json)> {
    let (field, members) = t.family()?;
    Some((
        field,
        Json::Array(members.into_iter().map(section_json).collect()),
    ))
}

fn section_json(t: &dyn Table) -> Json {
    Json::object(field_json(t).into_iter().chain(family_json(t)).collect())
}

/// `  <label>  [id=…] field=value …`, then one indented line per member.
fn write_text(out: &mut String, indent: &str, label: &str, t: &dyn Table) {
    let _ = write!(out, "{indent}{label:<10}");
    if let Some((field, id, _)) = t.member() {
        let _ = write!(out, " {field}={id}");
    }
    for m in t.fields() {
        m.value.write_text(out, m.field);
    }
    out.push('\n');
    if let Some((field, members)) = t.family() {
        for m in members {
            write_text(out, &format!("{indent}  "), field, m);
        }
    }
}

/// One table entry's value in a snapshot's typed view
/// (see [`PipelineSnapshot::typed_metrics`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TypedMetric<'a> {
    /// Field name in the section (or member) struct.
    pub field: &'static str,
    /// Registry name, or the `<field>` suffix for a family member.
    pub name: &'static str,
    /// How the entry is recorded and typed.
    pub kind: Kind,
    /// `(registry prefix, member id)` for a prefix-discovered member.
    pub member: Option<(&'static str, &'a str)>,
    /// The typed field's value.
    pub value: Value<'a>,
}

impl TypedMetric<'_> {
    /// The full registry key this entry was folded from.
    pub fn registry_name(&self) -> String {
        match self.member {
            None => self.name.to_string(),
            Some((prefix, id)) => names::member_key(prefix, id, self.name),
        }
    }
}

/// The section name of [`PipelineSnapshot`]'s own fields and queues.
const TOP_LEVEL: &str = "pipeline";

fn flatten<'a>(t: &'a dyn Table, out: &mut Vec<TypedMetric<'a>>) {
    out.extend(t.fields());
    for m in t.family().into_iter().flat_map(|(_, members)| members) {
        flatten(m, out);
    }
}

/// The metric table's grammar. One invocation (below) declares every
/// metric; an entry is
///
/// ```text
/// /// doc line (shared by the `names` constant and the typed field)
/// field: Kind CONST = "registry.name",
/// ```
///
/// and a `HighWater` entry names the `CONST` of the gauge it shadows
/// instead of declaring a new one.
macro_rules! metrics {
    (@ty Counter) => { u64 };
    (@ty Gauge) => { i64 };
    (@ty HighWater) => { i64 };
    (@ty Histogram) => { Option<HistogramSnapshot> };
    (@read Counter $raw:ident $key:expr) => { $raw.counter($key) };
    (@read Gauge $raw:ident $key:expr) => { $raw.gauge($key) };
    (@read HighWater $raw:ident $key:expr) => { $raw.gauge_high_water($key) };
    (@read Histogram $raw:ident $key:expr) => { $raw.histogram($key).cloned() };
    (@value Counter $field:expr) => { Value::Counter($field) };
    (@value Gauge $field:expr) => { Value::Gauge($field) };
    (@value HighWater $field:expr) => { Value::Gauge($field) };
    (@value Histogram $field:expr) => { Value::Histogram($field.as_ref()) };

    (@const [$(#[$m:meta])*] $C:ident = $lit:literal) => {
        $(#[$m])*
        pub const $C: &str = $lit;
    };
    (@const [$(#[$m:meta])*] $C:ident) => {};
    (@consts { $($(#[$m:meta])* $f:ident: $k:ident $C:ident $(= $lit:literal)?,)* }) => {
        $(metrics! { @const [$(#[$m])*] $C $(= $lit)? })*
    };

    // One generated struct: definition, fold, and `Table` impl.
    (@table
        [$(#[$m:meta])*] $Name:ident, scope [$($scope:tt)*],
        $(active [$($g:ident),+],)?
        $(member [$id:ident, $prefix:expr, $probe:expr],)?
        $(family [$ff:ident: $Fam:ident],)?
        extra { $($extra:tt)* }
        { $($(#[$fm:meta])* $f:ident: $k:ident $C:ident $(= $lit:literal)?,)* }
    ) => {
        $(#[$m])*
        #[derive(Debug, Clone, Default)]
        pub struct $Name {
            $(
                /// Member id as registered: the `<id>` in
                /// `<prefix><id>.<field>`.
                pub $id: String,
            )?
            $($(#[$fm])* pub $f: metrics!(@ty $k),)*
            $(
                /// Per-member breakdown, discovered by registry prefix.
                pub $ff: Vec<$Fam>,
            )?
            $($extra)*
        }

        impl $Name {
            /// Folds the entries (and the member family, if any) out of
            /// `raw`; `prefix` is empty for sections and
            /// `<prefix><id>.` for a family member.
            #[allow(clippy::needless_update)]
            fn read(raw: &RegistrySnapshot, prefix: &str) -> Self {
                #[allow(unused_imports)]
                use $($scope)*::*;
                Self {
                    $($f: metrics!(@read $k raw &format!("{prefix}{}", $C)),)*
                    $($ff: <$Fam>::discover(raw),)?
                    ..Default::default()
                }
            }

            $(
                /// True when nothing was recorded into this section
                /// (every guard field is still zero): its text line is
                /// omitted and its laws are skipped.
                pub fn is_empty(&self) -> bool {
                    true $(&& self.$g == 0)+
                }
            )?

            $(
                /// Every member registered under the family prefix.
                fn discover(raw: &RegistrySnapshot) -> Vec<Self> {
                    member_ids(raw, $prefix, $probe)
                        .map(|id| Self {
                            $id: id.to_string(),
                            ..Self::read(raw, &names::member_key($prefix, id, ""))
                        })
                        .collect()
                }
            )?
        }

        impl Table for $Name {
            fn fields(&self) -> Vec<TypedMetric<'_>> {
                #[allow(unused_imports)]
                use $($scope)*::*;
                let member = self.member().map(|(_, id, prefix)| (prefix, id));
                vec![$(TypedMetric {
                    field: stringify!($f),
                    name: $C,
                    kind: Kind::$k,
                    member,
                    value: metrics!(@value $k self.$f),
                },)*]
            }
            fn member(&self) -> Option<(&'static str, &str, &'static str)> {
                None $(.or(Some((stringify!($id), self.$id.as_str(), $prefix))))?
            }
            fn family(&self) -> Option<(&'static str, Vec<&dyn Table>)> {
                None $(.or(Some((
                    stringify!($ff),
                    self.$ff.iter().map(|m| m as &dyn Table).collect(),
                ))))?
            }
            fn active(&self) -> bool {
                true $(&& !(true $(&& self.$g == 0)+))?
            }
        }
    };

    (
        untyped { $($(#[$um:meta])* $UC:ident = $ulit:literal,)* }
        stages { $($(#[$tm:meta])* $stage:ident: $Stage:ident $sbody:tt)* }
        pipeline [queues: $Queue:ident] $pbody:tt
        layers {
            $($(#[$lm:meta])* $layer:ident: $Layer:ident
                [active if $($g:ident)|+ $(; members $lf:ident: $LFam:ident)?] $lbody:tt)*
        }
        unrendered {
            $($(#[$hm:meta])* $hidden:ident: $Hidden:ident [active if $($hg:ident)|+] $hbody:tt)*
        }
        families {
            $($(#[$fm:meta])* $Fam:ident [$id:ident; $fmod:ident; $PREFIX:ident = $plit:literal; probe $PROBE:ident] $fbody:tt)*
        }
    ) => {
        /// Canonical metric names, shared by stage wiring and aggregation
        /// (generated from the metric table).
        pub mod names {
            $($(#[$um])* pub const $UC: &str = $ulit;)*
            $(metrics! { @consts $sbody })*
            metrics! { @consts $pbody }
            $(metrics! { @consts $lbody })*
            $(metrics! { @consts $hbody })*
            $(
                #[doc = concat!(
                    "Prefix of the `", $plit, "<id>.<field>` family; the fields are in [`",
                    stringify!($fmod), "`]."
                )]
                pub const $PREFIX: &str = $plit;

                #[doc = concat!("Field suffixes of the `", $plit, "<id>.<field>` family.")]
                pub mod $fmod {
                    /// The family's registry prefix.
                    pub const PREFIX: &str = super::$PREFIX;
                    metrics! { @consts $fbody }
                }
            )*

            /// The registry key of one member field:
            /// `<prefix><id>.<field>`.
            pub fn member_key(prefix: &str, id: impl std::fmt::Display, field: &str) -> String {
                format!("{prefix}{id}.{field}")
            }
        }

        $(metrics! { @table [$(#[$tm])*] $Stage, scope [names], extra {} $sbody })*
        $(metrics! {
            @table [$(#[$lm])*] $Layer, scope [names], active [$($g),+],
            $(family [$lf: $LFam],)? extra {} $lbody
        })*
        $(metrics! {
            @table [$(#[$hm])*] $Hidden, scope [names], active [$($hg),+], extra {} $hbody
        })*
        $(metrics! {
            @table [$(#[$fm])*] $Fam, scope [names::$fmod],
            member [$id, names::$PREFIX, names::$fmod::$PROBE], extra {} $fbody
        })*
        metrics! {
            @table [
                /// A structured view over one pipeline's telemetry: per-stage
                /// metrics, optional layers, instrumented queues, current
                /// stalls, and the raw registry snapshot.
            ] PipelineSnapshot, scope [names], family [queues: $Queue],
            extra {
                $($(#[$tm])* pub $stage: $Stage,)*
                $($(#[$lm])* pub $layer: $Layer,)*
                $($(#[$hm])* pub $hidden: $Hidden,)*
                /// Stages flagged as stalled at capture time.
                pub stalls: Vec<StallReport>,
                /// The underlying raw snapshot (all metrics, mergeable).
                pub raw: RegistrySnapshot,
            }
            $pbody
        }

        impl PipelineSnapshot {
            /// Builds the typed view from already-collected parts.
            pub fn from_parts(raw: RegistrySnapshot, stalls: Vec<StallReport>) -> Self {
                let mut snap = Self {
                    $($stage: <$Stage>::read(&raw, ""),)*
                    $($layer: <$Layer>::read(&raw, ""),)*
                    $($hidden: <$Hidden>::read(&raw, ""),)*
                    stalls,
                    ..Self::read(&raw, "")
                };
                snap.raw = raw;
                snap
            }

            /// What the JSON and text forms render, in order: the stages,
            /// the top-level fields (as [`TOP_LEVEL`]), the optional layers.
            fn sections(&self) -> Vec<(&'static str, &dyn Table)> {
                vec![
                    $((stringify!($stage), &self.$stage as &dyn Table),)*
                    (TOP_LEVEL, self),
                    $((stringify!($layer), &self.$layer as &dyn Table),)*
                ]
            }

            /// The optional layers kept out of the JSON and text forms.
            fn unrendered(&self) -> Vec<&dyn Table> {
                vec![$(&self.$hidden as &dyn Table,)*]
            }
        }
    };
}

metrics! {
    untyped {
        /// NIC: frames dropped because the bounded RX ring was full.
        NET_RX_DROPS = "net.rx_ring_drops",
        /// NIC: frames rejected by the wire parser.
        NET_FRAMES_BAD = "net.frames_bad",
    }
    stages {
        /// FpgaReader stage (Algorithm 1).
        reader: ReaderMetrics {
            /// Batches handed to the FPGA.
            batches_submitted: Counter READER_BATCHES_SUBMITTED = "reader.batches_submitted",
            /// Batches fully drained back.
            batches_completed: Counter READER_BATCHES_COMPLETED = "reader.batches_completed",
            /// Batches aborted before completion.
            batch_errors: Counter READER_BATCH_ERRORS = "reader.batch_errors",
            /// Per-item FINISH errors observed while draining.
            item_errors: Counter READER_ITEM_ERRORS = "reader.item_errors",
            /// CPU busy nanoseconds (Algorithm 1 loop).
            cpu_busy_nanos: Counter READER_CPU_BUSY_NANOS = "reader.cpu_busy_nanos",
            /// Cmd submit→completion latency (ns).
            submit_latency: Histogram READER_SUBMIT_LATENCY = "reader.submit_latency_nanos",
            /// Cmds in flight on the device at snapshot time.
            inflight: Gauge READER_INFLIGHT = "reader.inflight_cmds",
        }
        /// FpgaChannel stage.
        channel: ChannelMetrics {
            /// Cmds submitted to the device.
            cmds_submitted: Counter CHANNEL_CMDS_SUBMITTED = "channel.cmds_submitted",
            /// Completions drained from the device.
            cmds_drained: Counter CHANNEL_CMDS_DRAINED = "channel.cmds_drained",
            /// Submitted minus drained at snapshot time.
            inflight: Gauge CHANNEL_INFLIGHT = "channel.inflight",
        }
        /// DecoderEngine stage.
        decoder: DecoderMetrics {
            /// Batches retired by the lanes.
            batches: Counter DECODER_BATCHES = "decoder.batches",
            /// Items entering the lanes.
            items_in: Counter DECODER_ITEMS_IN = "decoder.items_in",
            /// Items decoded successfully.
            items_ok: Counter DECODER_ITEMS_OK = "decoder.items_ok",
            /// Items failed (FINISH error).
            items_err: Counter DECODER_ITEMS_ERR = "decoder.items_err",
            /// DMA bytes written back to host memory.
            bytes_written: Counter DECODER_BYTES_WRITTEN = "decoder.bytes_written",
            /// Per-item lane service time (ns).
            lane_service: Histogram DECODER_LANE_SERVICE = "decoder.lane_service_nanos",
        }
        /// MemManager stage.
        pool: PoolMetrics {
            /// Successful leases.
            leases: Counter POOL_LEASES = "pool.leases",
            /// Units recycled.
            recycles: Counter POOL_RECYCLES = "pool.recycles",
            /// Lease attempts that had to wait (starvation events).
            starvations: Counter POOL_STARVATIONS = "pool.starvations",
            /// Nanoseconds spent blocked waiting for a unit.
            blocked_nanos: Counter POOL_BLOCKED_NANOS = "pool.blocked_nanos",
            /// Free units at snapshot time.
            free_units: Gauge POOL_FREE_UNITS = "pool.free_units",
        }
        /// Dispatcher stage (Algorithm 3).
        dispatcher: DispatcherMetrics {
            /// Batches copied host→device.
            batches: Counter DISPATCHER_BATCHES = "dispatcher.batches",
            /// H2D bytes copied.
            bytes_copied: Counter DISPATCHER_BYTES_COPIED = "dispatcher.bytes_copied",
            /// Failed copies.
            copy_errors: Counter DISPATCHER_COPY_ERRORS = "dispatcher.copy_errors",
            /// CPU busy nanoseconds (Algorithm 3 loop).
            cpu_busy_nanos: Counter DISPATCHER_CPU_BUSY_NANOS = "dispatcher.cpu_busy_nanos",
            /// Per-batch copy latency (ns).
            copy_latency: Histogram DISPATCHER_COPY_LATENCY = "dispatcher.copy_latency_nanos",
        }
        /// Trainer/inference engines.
        engines: EngineMetrics {
            /// Batches consumed (training iterations / inference calls).
            batches: Counter ENGINE_BATCHES = "engine.batches",
            /// Time spent waiting for a ready batch (ns).
            batch_wait: Histogram ENGINE_BATCH_WAIT = "engine.batch_wait_nanos",
            /// Compute time per batch (ns).
            compute: Histogram ENGINE_COMPUTE = "engine.compute_nanos",
        }
    }
    pipeline [queues: QueueMetrics] {
        /// Batches the router delivered to slot queues.
        router_delivered: Counter ROUTER_DELIVERED = "router.delivered",
    }
    layers {
        /// SLO-aware serving layer: admission, shedding, dynamic batching,
        /// goodput.
        serving: ServingMetrics [active if offered | admitted | batches; members tenants: TenantServingMetrics] {
            /// Requests offered to the admission controller.
            offered: Counter SERVING_OFFERED = "serving.offered",
            /// Requests admitted into the serving queue.
            admitted: Counter SERVING_ADMITTED = "serving.admitted",
            /// Requests rejected at the admission door.
            rejected: Counter SERVING_REJECTED = "serving.rejected",
            /// Admitted requests later evicted by the shedding policy.
            shed: Counter SERVING_SHED = "serving.shed",
            /// Admitted requests that completed (prediction returned).
            completed: Counter SERVING_COMPLETED = "serving.completed",
            /// Completions that met their SLO deadline (goodput).
            good: Counter SERVING_GOOD = "serving.good",
            /// Admitted minus (completed + shed) at snapshot time.
            inflight: Gauge SERVING_INFLIGHT = "serving.inflight",
            /// Admission-queue depth at snapshot time.
            queue_depth: Gauge SERVING_QUEUE_DEPTH = "serving.queue_depth",
            /// Highest admission-queue depth observed (worst backlog).
            queue_depth_high_water: HighWater SERVING_QUEUE_DEPTH,
            /// Batches formed by the dynamic batcher.
            batches: Counter SERVING_BATCHES = "serving.batches_formed",
            /// Batches closed because they reached `max_batch`.
            batches_closed_full: Counter SERVING_BATCH_FULL = "serving.batches_closed_full",
            /// Batches closed because `max_linger` expired (or by a drain).
            batches_closed_linger: Counter SERVING_BATCH_LINGER = "serving.batches_closed_linger",
            /// Batches closed because the pipeline downstream was idle.
            batches_closed_idle: Counter SERVING_BATCH_IDLE = "serving.batches_closed_idle",
            /// Formed-batch size distribution (items per batch).
            batch_size: Histogram SERVING_BATCH_SIZE = "serving.batch_size",
            /// Admission-queue delay distribution (ns, arrival→dequeue).
            queue_delay: Histogram SERVING_QUEUE_DELAY = "serving.queue_delay_nanos",
            /// Batch-forming wait distribution (ns, first push→close).
            form_wait: Histogram SERVING_FORM_WAIT = "serving.form_wait_nanos",
        }
        /// Decoded-sample cache (`dlb-cache`): admission, eviction,
        /// quarantine and residency accounting.
        cache: CacheMetrics [active if lookups | insertions | capacity_bytes; members tenants: TenantCacheMetrics] {
            /// Sample lookups against the decoded-sample cache.
            lookups: Counter CACHE_LOOKUPS = "cache.lookups",
            /// Lookups that found a resident decoded sample.
            hits: Counter CACHE_HITS = "cache.hits",
            /// Lookups that missed (redecode required).
            misses: Counter CACHE_MISSES = "cache.misses",
            /// Samples admitted.
            insertions: Counter CACHE_INSERTIONS = "cache.insertions",
            /// Bytes admitted (sum of admitted sample sizes).
            inserted_bytes: Counter CACHE_INSERTED_BYTES = "cache.inserted_bytes",
            /// Admissions refused (quarantined key or oversized sample).
            rejected: Counter CACHE_REJECTED = "cache.rejected",
            /// Samples evicted (cost-aware policy or quarantine removal).
            evictions: Counter CACHE_EVICTIONS = "cache.evictions",
            /// Bytes evicted.
            evicted_bytes: Counter CACHE_EVICTED_BYTES = "cache.evicted_bytes",
            /// Failed-decode observations that poisoned a key.
            quarantined: Counter CACHE_QUARANTINED = "cache.quarantined",
            /// Whole batches delivered straight from cache (decode skipped).
            bypass_batches: Counter CACHE_BYPASS_BATCHES = "cache.bypass_batches",
            /// Bytes resident at snapshot time.
            resident_bytes: Gauge CACHE_RESIDENT_BYTES = "cache.resident_bytes",
            /// Highest residency ever observed (must stay ≤ capacity).
            resident_bytes_high_water: HighWater CACHE_RESIDENT_BYTES,
            /// Entries resident at snapshot time.
            resident_entries: Gauge CACHE_RESIDENT_ENTRIES = "cache.resident_entries",
            /// Configured capacity in bytes (set at construction).
            capacity_bytes: Gauge CACHE_CAPACITY_BYTES = "cache.capacity_bytes",
            /// Bytes of slots a hit has pinned (lent to an in-flight batch
            /// unit) at snapshot time.
            pinned_bytes: Gauge CACHE_PINNED_BYTES = "cache.pinned_bytes",
            /// Most slot bytes ever pinned at once.
            pinned_bytes_high_water: HighWater CACHE_PINNED_BYTES,
        }
        /// Shard router (`dlb-cluster`): consistent-hash routing, tenant
        /// quotas, hedging, and node-kill replay accounting.
        ///
        /// `served`/`replayed` count **copy** completions (primary/hedge
        /// vs replay), duplicates included; `hedge_dups` counts exactly
        /// the duplicates. The headline law `requests + hedge_dups =
        /// served + replayed + shed + inflight` is `in = served + shed +
        /// replayed − hedge_dups` rearranged; at quiescence `inflight` is
        /// zero.
        cluster: ClusterMetrics [active if requests | dispatches | kills; members tenants: TenantClusterMetrics] {
            /// Requests arriving at the shard router's door.
            requests: Counter CLUSTER_REQUESTS = "cluster.requests",
            /// Requests that passed quota + routing (primary dispatched).
            admitted: Counter CLUSTER_ADMITTED = "cluster.admitted",
            /// Requests terminally shed (quota, dead ring, or an
            /// unreplayable loss).
            shed: Counter CLUSTER_SHED = "cluster.shed",
            /// The subset of sheds denied by a tenant quota bucket.
            quota_shed: Counter CLUSTER_QUOTA_SHED = "cluster.quota_shed",
            /// Copies placed on node queues (primaries + hedges + replays).
            dispatches: Counter CLUSTER_DISPATCHES = "cluster.dispatches",
            /// Hedge copies dispatched after a budget expiry.
            hedges: Counter CLUSTER_HEDGES = "cluster.hedges",
            /// Requests whose first completion came from a hedge copy.
            hedge_wins: Counter CLUSTER_HEDGE_WINS = "cluster.hedge_wins",
            /// Duplicate completions of already-terminal requests.
            hedge_dups: Counter CLUSTER_HEDGE_DUPS = "cluster.hedge_dups",
            /// Replay copies dispatched for work lost to a node kill.
            replays: Counter CLUSTER_REPLAYS = "cluster.replays",
            /// Copies that finished service (wins and duplicates).
            completions: Counter CLUSTER_COMPLETIONS = "cluster.completions",
            /// Completions by primary or hedge copies (duplicates included).
            served: Counter CLUSTER_SERVED = "cluster.served",
            /// Completions by replay copies (duplicates included).
            replayed: Counter CLUSTER_REPLAYED = "cluster.replayed",
            /// Winning completions inside the SLO deadline (goodput).
            good: Counter CLUSTER_GOOD = "cluster.good",
            /// Copies that died with a killed node.
            lost: Counter CLUSTER_LOST = "cluster.lost",
            /// Lost copies not re-dispatched (stale, covered, or shed).
            lost_unreplayed: Counter CLUSTER_LOST_UNREPLAYED = "cluster.lost_unreplayed",
            /// Nodes chaos-killed.
            kills: Counter CLUSTER_KILLS = "cluster.kills",
            /// Quota rebalances after membership changes.
            rebalances: Counter CLUSTER_REBALANCES = "cluster.rebalances",
            /// Requests admitted to the door but not yet terminal.
            inflight: Gauge CLUSTER_INFLIGHT = "cluster.inflight",
            /// Copies dispatched but not yet completed or lost.
            node_queued: Gauge CLUSTER_NODE_QUEUED = "cluster.node_queued",
            /// Live nodes on the ring at snapshot time.
            nodes_alive: Gauge CLUSTER_NODES_ALIVE = "cluster.nodes_alive",
            /// Winning-request arrival→completion latency (ns).
            latency: Histogram CLUSTER_LATENCY = "cluster.latency_nanos",
        }
        /// Chaos fault plane: injected faults per stage plus the recovery
        /// policy's retry/failover accounting.
        chaos: ChaosMetrics [active if faults_total | failovers | retry_attempts | cmd_timeouts] {
            /// Total faults injected across every stage.
            faults_total: Counter CHAOS_FAULTS_TOTAL = "chaos.faults_total",
            /// Faults injected into storage reads.
            injected_storage: Counter CHAOS_INJECTED_STORAGE = "chaos.injected.storage",
            /// Faults injected into NIC RX delivery.
            injected_net: Counter CHAOS_INJECTED_NET = "chaos.injected.net",
            /// Faults injected into FPGA decode lanes.
            injected_fpga: Counter CHAOS_INJECTED_FPGA = "chaos.injected.fpga",
            /// Faults injected into the batch pool.
            injected_pool: Counter CHAOS_INJECTED_POOL = "chaos.injected.pool",
            /// Faults injected into GPU copy slots.
            injected_gpu: Counter CHAOS_INJECTED_GPU = "chaos.injected.gpu",
            /// Primary→fallback backend failovers performed.
            failovers: Counter CHAOS_FAILOVER_TOTAL = "chaos.failover_total",
            /// Operation attempts under a retry policy (first tries included).
            retry_attempts: Counter RETRY_ATTEMPTS = "retry.attempts",
            /// Retries performed after a transient failure.
            retry_retries: Counter RETRY_RETRIES = "retry.retries",
            /// Operations that exhausted their attempt budget.
            retry_giveups: Counter RETRY_GIVEUPS = "retry.giveups",
            /// Nanoseconds of backoff scheduled between attempts.
            retry_backoff_nanos: Counter RETRY_BACKOFF_NANOS = "retry.backoff_nanos",
            /// Reader cmd batches that exceeded their completion timeout.
            cmd_timeouts: Counter RETRY_CMD_TIMEOUTS = "retry.cmd_timeouts",
            /// Reader cmd batches re-submitted after a timeout.
            cmd_resubmits: Counter RETRY_CMD_RESUBMITS = "retry.cmd_resubmits",
            /// Late completions of timed-out batches, drained and dropped.
            late_completions: Counter RETRY_LATE_COMPLETIONS = "retry.late_completions",
        }
    }
    unrendered {
        /// Per-stage codec timers exported by the decode workers. Summed
        /// across workers, so values can exceed wall time; together they
        /// account for where decode CPU cycles went. Typed view only: the
        /// JSON and text forms never carried them.
        codec: CodecMetrics [active if huffman_nanos | idct_nanos | color_nanos | resize_nanos] {
            /// Nanoseconds in Huffman entropy decoding.
            huffman_nanos: Counter CODEC_HUFFMAN_NANOS = "codec.huffman_ns",
            /// Nanoseconds in dequantisation + inverse DCT.
            idct_nanos: Counter CODEC_IDCT_NANOS = "codec.idct_ns",
            /// Nanoseconds in chroma upsampling + YCbCr→RGB conversion.
            color_nanos: Counter CODEC_COLOR_NANOS = "codec.color_ns",
            /// Nanoseconds in decode-side resizing (bilinear scaling).
            resize_nanos: Counter CODEC_RESIZE_NANOS = "codec.resize_ns",
        }
    }
    families {
        /// One instrumented queue's view (slot queues, trans queues, ...).
        QueueMetrics [name; queue; QUEUE_PREFIX = "queue."; probe DEPTH] {
            /// Depth at snapshot time.
            depth: Gauge DEPTH = "depth",
            /// Highest depth observed.
            high_water: HighWater DEPTH,
            /// Items pushed.
            pushed: Counter PUSHED = "pushed",
            /// Items popped.
            popped: Counter POPPED = "popped",
            /// Producer blocked time (ns).
            blocked_push_nanos: Counter BLOCKED_PUSH_NANOS = "blocked_push_nanos",
            /// Consumer blocked time (ns).
            blocked_pop_nanos: Counter BLOCKED_POP_NANOS = "blocked_pop_nanos",
        }
        /// One tenant class's serving view.
        TenantServingMetrics [tenant; serving_tenant; SERVING_TENANT_PREFIX = "serving.tenant."; probe ADMITTED] {
            /// Requests admitted for this tenant.
            admitted: Counter ADMITTED = "admitted",
            /// Completions for this tenant.
            completed: Counter COMPLETED = "completed",
            /// Requests shed (rejected or evicted) for this tenant.
            shed: Counter SHED = "shed",
            /// In-SLO completions for this tenant (goodput gauge level).
            goodput: Gauge GOODPUT = "goodput",
        }
        /// One tenant partition's cache view (`DriveMode::Served`).
        TenantCacheMetrics [tenant; cache_tenant; CACHE_TENANT_PREFIX = "cache.tenant."; probe RESIDENT_BYTES] {
            /// Lookup hits in this tenant's partition.
            hits: Counter HITS = "hits",
            /// Lookup misses in this tenant's partition.
            misses: Counter MISSES = "misses",
            /// Evictions from this tenant's partition.
            evictions: Counter EVICTIONS = "evictions",
            /// Bytes resident in this tenant's partition.
            resident_bytes: Gauge RESIDENT_BYTES = "resident_bytes",
        }
        /// One tenant's cluster view.
        TenantClusterMetrics [tenant; cluster_tenant; CLUSTER_TENANT_PREFIX = "cluster.tenant."; probe REQUESTS] {
            /// Requests this tenant offered to the cluster door.
            requests: Counter REQUESTS = "requests",
            /// Requests whose first completion arrived (request-level serves).
            completed: Counter COMPLETED = "completed",
            /// Requests terminally shed for this tenant.
            shed: Counter SHED = "shed",
            /// Completions inside the SLO deadline.
            good: Counter GOOD = "good",
        }
    }
}

impl Copy for CodecMetrics {}

/// One operand of a law: a metric named by its constant.
enum Term {
    /// The counter or gauge registered under this name.
    Metric(&'static str),
    /// The high-water mark of the gauge registered under this name.
    HighWater(&'static str),
    /// `(family prefix, field)`: the field summed over the family's
    /// members. A law with a `Sum` over no members is skipped.
    Sum(&'static str, &'static str),
}

enum Op {
    Eq,
    Le,
}

/// One conservation law: `lhs op rhs` over signed sums of terms.
struct Law {
    name: &'static str,
    /// The optional layer the law belongs to; skipped while that layer
    /// has recorded nothing (`is_empty()`).
    guard: Option<fn(&PipelineSnapshot) -> bool>,
    /// `Some(family prefix)`: the law is checked once per member, its
    /// `Metric` terms naming that family's fields.
    each: Option<&'static str>,
    lhs: &'static [Term],
    op: Op,
    rhs: &'static [Term],
}

/// The law table's grammar:
/// `"name" [if layer] [each family]: [A + B] == [C + hw(D) + sum(family, F)]`
/// with `==` or `<=`; terms are [`names`] constants (the family's field
/// constants under `each`), and `[0]` is the empty side.
macro_rules! laws {
    (@side [0]) => { &[] };
    (@term hw($c:ident)) => { Term::HighWater($c) };
    (@term sum($fam:ident, $c:ident)) => { Term::Sum(names::$fam::PREFIX, names::$fam::$c) };
    (@term $c:ident) => { Term::Metric($c) };
    (@side [$t0:ident $(($($a0:tt)*))? $(+ $t:ident $(($($a:tt)*))?)*]) => {
        &[laws!(@term $t0 $(($($a0)*))?) $(, laws!(@term $t $(($($a)*))?))*]
    };
    (@op ==) => { Op::Eq };
    (@op <=) => { Op::Le };
    (@guard) => { None };
    (@guard $g:ident) => { Some(|s: &PipelineSnapshot| !s.$g.is_empty()) };
    (@each) => { None };
    (@each $fam:ident) => { Some(names::$fam::PREFIX) };
    ($($name:literal $(if $g:ident)? $(each $fam:ident)?: $lhs:tt $op:tt $rhs:tt)*) => {
        &[$({
            #[allow(unused_imports)]
            use names::*;
            $(use names::$fam::*;)?
            Law {
                name: $name,
                guard: laws!(@guard $($g)?),
                each: laws!(@each $($fam)?),
                lhs: laws!(@side $lhs),
                op: laws!(@op $op),
                rhs: laws!(@side $rhs),
            }
        }),*]
    };
}

/// Every conservation law a quiescent pipeline must satisfy.
const LAWS: &[Law] = laws! {
    "batch conservation": [READER_BATCHES_SUBMITTED] == [READER_BATCHES_COMPLETED + READER_BATCH_ERRORS]
    "item conservation": [DECODER_ITEMS_IN] == [DECODER_ITEMS_OK + DECODER_ITEMS_ERR]
    "channel conservation": [CHANNEL_CMDS_SUBMITTED] == [CHANNEL_CMDS_DRAINED + CHANNEL_INFLIGHT]
    "queue conservation" each queue: [PUSHED] == [POPPED + DEPTH]

    "serving admission conservation" if serving: [SERVING_OFFERED] == [SERVING_ADMITTED + SERVING_REJECTED]
    "serving conservation" if serving: [SERVING_ADMITTED] == [SERVING_COMPLETED + SERVING_SHED + SERVING_INFLIGHT]
    "serving goodput exceeds completions" if serving: [SERVING_GOOD] <= [SERVING_COMPLETED]
    "serving batch close accounting" if serving: [SERVING_BATCHES] == [SERVING_BATCH_FULL + SERVING_BATCH_LINGER + SERVING_BATCH_IDLE]

    "cache lookup conservation" if cache: [CACHE_HITS + CACHE_MISSES] == [CACHE_LOOKUPS]
    "cache capacity exceeded" if cache: [hw(CACHE_RESIDENT_BYTES)] <= [CACHE_CAPACITY_BYTES]
    "cache byte conservation" if cache: [CACHE_INSERTED_BYTES] == [CACHE_RESIDENT_BYTES + CACHE_EVICTED_BYTES]
    "cache entry conservation" if cache: [CACHE_INSERTIONS] == [CACHE_RESIDENT_ENTRIES + CACHE_EVICTIONS]
    "cache partition conservation" if cache: [sum(cache_tenant, RESIDENT_BYTES)] == [CACHE_RESIDENT_BYTES]
    "cache pins held at quiescence" if cache: [CACHE_PINNED_BYTES] == [0]
    "cache pinned beyond capacity" if cache: [hw(CACHE_PINNED_BYTES)] <= [CACHE_CAPACITY_BYTES]

    "cluster request conservation" if cluster: [CLUSTER_REQUESTS + CLUSTER_HEDGE_DUPS] == [CLUSTER_SERVED + CLUSTER_REPLAYED + CLUSTER_SHED + CLUSTER_INFLIGHT]
    "cluster dispatch composition" if cluster: [CLUSTER_DISPATCHES] == [CLUSTER_ADMITTED + CLUSTER_HEDGES + CLUSTER_REPLAYS]
    "cluster copy conservation" if cluster: [CLUSTER_DISPATCHES] == [CLUSTER_COMPLETIONS + CLUSTER_LOST + CLUSTER_NODE_QUEUED]
    "cluster completion split" if cluster: [CLUSTER_COMPLETIONS] == [CLUSTER_SERVED + CLUSTER_REPLAYED]
    "cluster loss accounting" if cluster: [CLUSTER_LOST] == [CLUSTER_REPLAYS + CLUSTER_LOST_UNREPLAYED]
    "cluster hedge/quota bounds" if cluster: [CLUSTER_QUOTA_SHED] <= [CLUSTER_SHED]
    "cluster hedge/quota bounds" if cluster: [CLUSTER_HEDGE_WINS] <= [CLUSTER_HEDGES]
    "cluster hedge/quota bounds" if cluster: [CLUSTER_HEDGE_DUPS] <= [CLUSTER_COMPLETIONS]
    "cluster tenant conservation" if cluster: [sum(cluster_tenant, REQUESTS)] == [CLUSTER_REQUESTS]
    "cluster tenant accounting" if cluster each cluster_tenant: [COMPLETED + SHED] <= [REQUESTS]
    "cluster tenant accounting" if cluster each cluster_tenant: [GOOD] <= [COMPLETED]

    "retry conservation" if chaos: [RETRY_RETRIES + RETRY_GIVEUPS] <= [RETRY_ATTEMPTS]
    "reader resubmits exceed timeouts" if chaos: [RETRY_CMD_RESUBMITS] <= [RETRY_CMD_TIMEOUTS]
    "chaos conservation" if chaos: [CHAOS_INJECTED_STORAGE + CHAOS_INJECTED_NET + CHAOS_INJECTED_FPGA + CHAOS_INJECTED_POOL + CHAOS_INJECTED_GPU] == [CHAOS_FAULTS_TOTAL]
};

impl Law {
    /// Appends this law's violations: at most one, or one per member
    /// under `each`.
    fn check(&self, snap: &PipelineSnapshot, typed: &[TypedMetric<'_>], out: &mut Vec<String>) {
        if self.guard.is_some_and(|active| !active(snap)) {
            return;
        }
        let mut scopes = vec![None];
        if let Some(prefix) = self.each {
            // `typed` lists each member's fields contiguously.
            let members = typed
                .iter()
                .filter_map(|m| m.member.filter(|(p, _)| *p == prefix));
            scopes = members.map(Some).collect();
            scopes.dedup();
        }
        for member in scopes {
            let sides = (side(self.lhs, typed, member), side(self.rhs, typed, member));
            let (Some((l, lhs)), Some((r, rhs))) = sides else {
                continue;
            };
            let (holds, violated) = match self.op {
                Op::Eq => (l == r, "!="),
                Op::Le => (l <= r, ">"),
            };
            if !holds {
                let scope = member.map_or(String::new(), |(p, id)| format!(" [{p}{id}]"));
                out.push(format!("{}{scope}: {lhs} {violated} {rhs}", self.name));
            }
        }
    }
}

/// One side of a law in `member`'s scope: its signed total and its
/// rendering (`field value + field value`). `None` when a `Sum` ranges
/// over no members.
fn side(
    terms: &[Term],
    typed: &[TypedMetric<'_>],
    member: Option<(&'static str, &str)>,
) -> Option<(i128, String)> {
    let mut total = 0;
    let mut text = String::new();
    for term in terms {
        let (label, value) = match *term {
            Term::Metric(name) | Term::HighWater(name) => {
                let high_water = matches!(term, Term::HighWater(_));
                let m = typed
                    .iter()
                    .find(|m| {
                        m.name == name
                            && m.member == member
                            && (m.kind == Kind::HighWater) == high_water
                    })
                    .unwrap_or_else(|| panic!("law term {name} is not a metric-table entry"));
                (m.field.to_string(), m.value.scalar())
            }
            Term::Sum(prefix, field) => {
                let mut members = typed
                    .iter()
                    .filter(|m| m.name == field && m.member.is_some_and(|(p, _)| p == prefix))
                    .peekable();
                members.peek()?;
                let sum = members.map(|m| m.value.scalar()).sum();
                (format!("sum({prefix}*.{field})"), sum)
            }
        };
        total += value;
        let plus = if text.is_empty() { "" } else { " + " };
        let _ = write!(text, "{plus}{label} {value}");
    }
    if text.is_empty() {
        text.push('0');
    }
    Some((total, text))
}

/// The registry names of every counter a section-level law row reads, in
/// row order — computed from the rows, so it cannot fall behind them.
pub fn conservation_counters() -> Vec<&'static str> {
    let empty = PipelineSnapshot::default();
    let typed = empty.typed_metrics();
    let mut counters = Vec::new();
    for law in LAWS.iter().filter(|law| law.each.is_none()) {
        for term in law.lhs.iter().chain(law.rhs) {
            let Term::Metric(name) = *term else { continue };
            let counter = |m: &TypedMetric<'_>| m.name == name && m.kind == Kind::Counter;
            if !counters.contains(&name) && typed.iter().any(counter) {
                counters.push(name);
            }
        }
    }
    counters
}

impl PipelineSnapshot {
    /// Builds the typed view from a raw snapshot plus the watchdog's
    /// current verdicts.
    pub(crate) fn capture(raw: &RegistrySnapshot, watchdog: &Watchdog) -> Self {
        Self::from_parts(raw.clone(), watchdog.stalled())
    }

    /// Batches that entered the pipeline (reader submissions).
    pub fn batches_in(&self) -> u64 {
        self.reader.batches_submitted
    }

    /// Batches that left the reader stage intact.
    pub fn batches_out(&self) -> u64 {
        self.reader.batches_completed
    }

    /// Batch-level errors.
    pub fn batch_errors(&self) -> u64 {
        self.reader.batch_errors
    }

    /// Every metric-table entry with its typed-view value: stages, the
    /// top-level fields and queues, then the optional layers, each
    /// followed by its members.
    pub fn typed_metrics(&self) -> Vec<TypedMetric<'_>> {
        let mut out = Vec::new();
        let rendered = self.sections().into_iter().map(|(_, section)| section);
        for section in rendered.chain(self.unrendered()) {
            flatten(section, &mut out);
        }
        out
    }

    /// Conservation checks that must hold once the pipeline is quiescent:
    /// every row of the law table, evaluated in signed arithmetic (a
    /// gauge driven negative by a double decrement breaks its equality).
    /// Returns human-readable violations (empty = healthy).
    pub fn invariant_violations(&self) -> Vec<String> {
        let typed = self.typed_metrics();
        let mut out = Vec::new();
        for law in LAWS {
            law.check(self, &typed, &mut out);
        }
        out
    }

    /// Structured JSON form (stage sections + stalls + raw metrics).
    pub fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        for (name, section) in self.sections() {
            match name {
                TOP_LEVEL => pairs.extend(field_json(section)),
                _ => pairs.push((name, section_json(section))),
            }
        }
        pairs.extend(family_json(self));
        let millis = |d: Duration| Json::from(d.as_millis() as u64);
        let stalls = self.stalls.iter().map(|s| {
            let queues = s.queues.iter().map(|q| {
                Json::object(vec![
                    ("stage", q.stage.as_str().into()),
                    ("last_progress_ms", millis(q.last_progress)),
                    ("depth", q.depth.into()),
                ])
            });
            Json::object(vec![
                ("stage", s.stage.as_str().into()),
                ("idle_ms", millis(s.idle)),
                ("depth", s.depth.into()),
                ("queues", Json::Array(queues.collect())),
            ])
        });
        pairs.push(("stalls", Json::Array(stalls.collect())));
        pairs.push(("metrics", self.raw.to_json()));
        Json::object(pairs)
    }

    /// Human-readable multi-line report: one `field=value` line per
    /// section in table order (optional layers only once active), then
    /// the watchdog's verdicts.
    pub fn to_text(&self) -> String {
        let mut out = String::from("pipeline telemetry\n");
        for (name, section) in self.sections() {
            if section.active() {
                write_text(&mut out, "  ", name, section);
            }
        }
        if self.stalls.is_empty() {
            let _ = writeln!(out, "  watchdog   quiet");
        }
        for s in &self.stalls {
            let _ = writeln!(
                out,
                "  watchdog   STALL {} idle={:?} depth={}",
                s.stage, s.idle, s.depth
            );
            for q in &s.queues {
                let _ = writeln!(
                    out,
                    "    at trip: {:<12} last_progress={:?} depth={}",
                    q.stage, q.last_progress, q.depth
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_extracts_stage_views() {
        let t = Telemetry::with_defaults();
        t.registry.counter(names::READER_BATCHES_SUBMITTED).add(4);
        t.registry.counter(names::READER_BATCHES_COMPLETED).add(4);
        t.registry.counter(names::DECODER_ITEMS_IN).add(10);
        t.registry.counter(names::DECODER_ITEMS_OK).add(9);
        t.registry.counter(names::DECODER_ITEMS_ERR).add(1);
        t.registry
            .histogram(names::DECODER_LANE_SERVICE)
            .record(1500);
        t.registry.gauge("queue.slot0.depth").set(1);
        t.registry.counter("queue.slot0.pushed").add(3);
        t.registry.counter("queue.slot0.popped").add(2);
        let snap = t.pipeline_snapshot();
        assert_eq!(snap.batches_in(), 4);
        assert_eq!(snap.batches_out(), 4);
        assert_eq!(snap.decoder.items_ok, 9);
        assert_eq!(snap.decoder.lane_service.as_ref().unwrap().count, 1);
        assert_eq!(snap.queues.len(), 1);
        assert_eq!(snap.queues[0].name, "slot0");
        assert_eq!(snap.queues[0].pushed, 3);
        assert!(snap.invariant_violations().is_empty());
        assert!(snap.stalls.is_empty());
    }

    #[test]
    fn violations_detected() {
        let t = Telemetry::with_defaults();
        t.registry.counter(names::READER_BATCHES_SUBMITTED).add(5);
        t.registry.counter(names::READER_BATCHES_COMPLETED).add(3);
        let snap = t.pipeline_snapshot();
        let v = snap.invariant_violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("batch conservation"));
    }

    #[test]
    fn serving_metrics_collected_and_conserved() {
        let t = Telemetry::with_defaults();
        t.registry.counter(names::SERVING_OFFERED).add(10);
        t.registry.counter(names::SERVING_ADMITTED).add(7);
        t.registry.counter(names::SERVING_REJECTED).add(3);
        t.registry.counter(names::SERVING_SHED).add(1);
        t.registry.counter(names::SERVING_COMPLETED).add(4);
        t.registry.counter(names::SERVING_GOOD).add(4);
        t.registry.gauge(names::SERVING_INFLIGHT).set(2);
        t.registry.gauge(names::SERVING_QUEUE_DEPTH).set(2);
        t.registry.counter("serving.tenant.0.admitted").add(7);
        t.registry.counter("serving.tenant.0.completed").add(4);
        t.registry.gauge("serving.tenant.0.goodput").set(4);
        let snap = t.pipeline_snapshot();
        assert_eq!(snap.serving.offered, 10);
        assert_eq!(snap.serving.admitted, 7);
        assert_eq!(snap.serving.inflight, 2);
        assert_eq!(snap.serving.tenants.len(), 1);
        assert_eq!(snap.serving.tenants[0].tenant, "0");
        assert_eq!(snap.serving.tenants[0].goodput, 4);
        assert!(
            snap.invariant_violations().is_empty(),
            "{:?}",
            snap.invariant_violations()
        );
        let text = snap.to_text();
        assert!(text.contains("serving    offered=10 admitted=7"));
        let j = snap.to_json();
        assert_eq!(j["serving"]["admitted"], 7u64);
        assert_eq!(j["serving"]["tenants"][0]["goodput"], 4u64);
    }

    #[test]
    fn serving_conservation_violations_detected() {
        let t = Telemetry::with_defaults();
        t.registry.counter(names::SERVING_OFFERED).add(5);
        t.registry.counter(names::SERVING_ADMITTED).add(5);
        // completed + shed + inflight = 3 != 5 admitted.
        t.registry.counter(names::SERVING_COMPLETED).add(3);
        let v = t.pipeline_snapshot().invariant_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("serving conservation"));
    }

    #[test]
    fn empty_serving_is_invisible() {
        let t = Telemetry::with_defaults();
        let snap = t.pipeline_snapshot();
        assert!(snap.serving.is_empty());
        assert!(!snap.to_text().contains("serving"));
        assert!(snap.invariant_violations().is_empty());
    }

    #[test]
    fn cache_metrics_collected_and_conserved() {
        let t = Telemetry::with_defaults();
        t.registry.counter(names::CACHE_LOOKUPS).add(10);
        t.registry.counter(names::CACHE_HITS).add(6);
        t.registry.counter(names::CACHE_MISSES).add(4);
        t.registry.counter(names::CACHE_INSERTIONS).add(4);
        t.registry.counter(names::CACHE_INSERTED_BYTES).add(400);
        t.registry.counter(names::CACHE_EVICTIONS).add(1);
        t.registry.counter(names::CACHE_EVICTED_BYTES).add(100);
        t.registry.gauge(names::CACHE_RESIDENT_BYTES).set(300);
        t.registry.gauge(names::CACHE_RESIDENT_ENTRIES).set(3);
        t.registry.gauge(names::CACHE_CAPACITY_BYTES).set(1024);
        t.registry.counter("cache.tenant.0.hits").add(6);
        t.registry.gauge("cache.tenant.0.resident_bytes").set(300);
        let snap = t.pipeline_snapshot();
        assert_eq!(snap.cache.lookups, 10);
        assert_eq!(snap.cache.hits, 6);
        assert_eq!(snap.cache.resident_bytes, 300);
        assert_eq!(snap.cache.tenants.len(), 1);
        assert_eq!(snap.cache.tenants[0].hits, 6);
        assert!(
            snap.invariant_violations().is_empty(),
            "{:?}",
            snap.invariant_violations()
        );
        assert!(snap.to_text().contains("cache      lookups=10 hits=6"));
        assert_eq!(snap.to_json()["cache"]["hits"], 6u64);
        assert_eq!(
            snap.to_json()["cache"]["tenants"][0]["resident_bytes"],
            300u64
        );
        // Quiet registries hide the section entirely.
        let quiet = Telemetry::with_defaults().pipeline_snapshot();
        assert!(quiet.cache.is_empty());
        assert!(!quiet.to_text().contains("cache"));
    }

    #[test]
    fn cache_conservation_violations_detected() {
        // Lookup law: hits + misses must equal lookups.
        let t = Telemetry::with_defaults();
        t.registry.counter(names::CACHE_LOOKUPS).add(5);
        t.registry.counter(names::CACHE_HITS).add(3);
        let v = t.pipeline_snapshot().invariant_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("cache lookup conservation"));

        // Capacity law: residency may never have exceeded capacity.
        let t = Telemetry::with_defaults();
        t.registry.counter(names::CACHE_LOOKUPS).add(1);
        t.registry.counter(names::CACHE_MISSES).add(1);
        let g = t.registry.gauge(names::CACHE_RESIDENT_BYTES);
        g.set(2048); // high-water records the spike...
        g.set(100); // ...even after it settles back under capacity
        t.registry.gauge(names::CACHE_CAPACITY_BYTES).set(1024);
        t.registry.counter(names::CACHE_INSERTED_BYTES).add(100);
        t.registry.gauge(names::CACHE_RESIDENT_ENTRIES).set(0);
        let v = t.pipeline_snapshot().invariant_violations();
        assert!(
            v.iter().any(|m| m.contains("cache capacity exceeded")),
            "{v:?}"
        );

        // Byte law: every inserted byte is resident or was evicted.
        let t = Telemetry::with_defaults();
        t.registry.counter(names::CACHE_INSERTIONS).add(2);
        t.registry.counter(names::CACHE_INSERTED_BYTES).add(200);
        t.registry.gauge(names::CACHE_RESIDENT_BYTES).set(100);
        t.registry.gauge(names::CACHE_RESIDENT_ENTRIES).set(2);
        t.registry.gauge(names::CACHE_CAPACITY_BYTES).set(1024);
        let v = t.pipeline_snapshot().invariant_violations();
        assert!(
            v.iter().any(|m| m.contains("cache byte conservation")),
            "{v:?}"
        );
    }

    #[test]
    fn cluster_metrics_collected_and_conserved() {
        let t = Telemetry::with_defaults();
        // 10 requests: 7 plain serves, 1 hedged (primary wins, hedge
        // dups), 1 killed-and-replayed, 1 quota-shed.
        t.registry.counter(names::CLUSTER_REQUESTS).add(10);
        t.registry.counter(names::CLUSTER_ADMITTED).add(9);
        t.registry.counter(names::CLUSTER_SHED).add(1);
        t.registry.counter(names::CLUSTER_QUOTA_SHED).add(1);
        t.registry.counter(names::CLUSTER_DISPATCHES).add(11); // 9 + 1 hedge + 1 replay
        t.registry.counter(names::CLUSTER_HEDGES).add(1);
        t.registry.counter(names::CLUSTER_HEDGE_DUPS).add(1);
        t.registry.counter(names::CLUSTER_REPLAYS).add(1);
        t.registry.counter(names::CLUSTER_COMPLETIONS).add(10);
        t.registry.counter(names::CLUSTER_SERVED).add(9); // 8 wins + 1 dup
        t.registry.counter(names::CLUSTER_REPLAYED).add(1);
        t.registry.counter(names::CLUSTER_GOOD).add(8);
        t.registry.counter(names::CLUSTER_LOST).add(1);
        t.registry.counter(names::CLUSTER_KILLS).add(1);
        t.registry.counter(names::CLUSTER_REBALANCES).add(1);
        t.registry.gauge(names::CLUSTER_NODES_ALIVE).set(7);
        t.registry.histogram(names::CLUSTER_LATENCY).record(42_000);
        t.registry.counter("cluster.tenant.0.requests").add(10);
        t.registry.counter("cluster.tenant.0.completed").add(9);
        t.registry.counter("cluster.tenant.0.shed").add(1);
        t.registry.counter("cluster.tenant.0.good").add(8);
        let snap = t.pipeline_snapshot();
        assert_eq!(snap.cluster.requests, 10);
        assert_eq!(snap.cluster.hedge_dups, 1);
        assert_eq!(snap.cluster.nodes_alive, 7);
        assert_eq!(snap.cluster.tenants.len(), 1);
        assert_eq!(snap.cluster.tenants[0].good, 8);
        // The headline ISSUE law, in its unsigned arrangement.
        let c = &snap.cluster;
        assert_eq!(c.requests + c.hedge_dups, c.served + c.replayed + c.shed);
        assert!(
            snap.invariant_violations().is_empty(),
            "{:?}",
            snap.invariant_violations()
        );
        assert!(snap.to_text().contains("cluster    requests=10"));
        assert_eq!(snap.to_json()["cluster"]["replayed"], 1u64);
        assert_eq!(snap.to_json()["cluster"]["tenants"][0]["requests"], 10u64);
        // Quiet registries hide the section entirely.
        let quiet = Telemetry::with_defaults().pipeline_snapshot();
        assert!(quiet.cluster.is_empty());
        assert!(!quiet.to_text().contains("cluster"));
    }

    #[test]
    fn cluster_conservation_violations_detected() {
        // Headline law: a served completion with no matching request.
        let t = Telemetry::with_defaults();
        t.registry.counter(names::CLUSTER_REQUESTS).add(2);
        t.registry.counter(names::CLUSTER_ADMITTED).add(2);
        t.registry.counter(names::CLUSTER_DISPATCHES).add(2);
        t.registry.counter(names::CLUSTER_COMPLETIONS).add(3);
        t.registry.counter(names::CLUSTER_SERVED).add(3);
        let v = t.pipeline_snapshot().invariant_violations();
        assert!(
            v.iter().any(|m| m.contains("cluster request conservation")),
            "{v:?}"
        );
        assert!(
            v.iter().any(|m| m.contains("cluster copy conservation")),
            "{v:?}"
        );

        // Loss law: a lost copy neither replayed nor written off.
        let t = Telemetry::with_defaults();
        t.registry.counter(names::CLUSTER_REQUESTS).add(1);
        t.registry.counter(names::CLUSTER_ADMITTED).add(1);
        t.registry.counter(names::CLUSTER_DISPATCHES).add(1);
        t.registry.counter(names::CLUSTER_LOST).add(1);
        t.registry.counter(names::CLUSTER_SHED).add(1);
        let v = t.pipeline_snapshot().invariant_violations();
        assert!(
            v.iter().any(|m| m.contains("cluster loss accounting")),
            "{v:?}"
        );
    }

    #[test]
    fn chaos_metrics_collected_and_checked() {
        let t = Telemetry::with_defaults();
        t.registry.counter(names::CHAOS_FAULTS_TOTAL).add(5);
        t.registry.counter(names::CHAOS_INJECTED_STORAGE).add(3);
        t.registry.counter(names::CHAOS_INJECTED_FPGA).add(2);
        t.registry.counter(names::CHAOS_FAILOVER_TOTAL).add(1);
        t.registry.counter(names::RETRY_ATTEMPTS).add(6);
        t.registry.counter(names::RETRY_RETRIES).add(2);
        t.registry.counter(names::RETRY_GIVEUPS).add(1);
        let snap = t.pipeline_snapshot();
        assert_eq!(snap.chaos.faults_total, 5);
        assert_eq!(snap.chaos.injected_storage, 3);
        assert_eq!(snap.chaos.failovers, 1);
        assert!(
            snap.invariant_violations().is_empty(),
            "{:?}",
            snap.invariant_violations()
        );
        assert!(snap.to_text().contains("chaos      faults_total=5"));
        assert_eq!(snap.to_json()["chaos"]["failovers"], 1u64);
        // Quiet registries hide the section entirely.
        let quiet = Telemetry::with_defaults().pipeline_snapshot();
        assert!(quiet.chaos.is_empty());
        assert!(!quiet.to_text().contains("chaos"));
    }

    #[test]
    fn chaos_conservation_violations_detected() {
        let t = Telemetry::with_defaults();
        t.registry.counter(names::CHAOS_FAULTS_TOTAL).add(4);
        t.registry.counter(names::CHAOS_INJECTED_NET).add(1);
        let v = t.pipeline_snapshot().invariant_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("chaos conservation"));
    }

    #[test]
    fn json_and_text_render() {
        let t = Telemetry::with_defaults();
        t.registry.counter(names::DISPATCHER_BYTES_COPIED).add(1024);
        let snap = t.pipeline_snapshot();
        let j = snap.to_json();
        assert_eq!(j["dispatcher"]["bytes_copied"], 1024u64);
        assert_eq!(j["stalls"], Json::Array(vec![]));
        let text = snap.to_text();
        assert!(text.contains("dispatcher batches=0 bytes_copied=1024"));
        assert!(text.contains("watchdog   quiet"));
    }

    #[test]
    fn negative_gauges_break_their_laws() {
        // A double decrement drives a gauge below zero; clamping it to
        // zero would hide exactly the bug these laws exist to catch.
        let t = Telemetry::with_defaults();
        t.registry.counter(names::CHANNEL_CMDS_SUBMITTED).add(5);
        t.registry.counter(names::CHANNEL_CMDS_DRAINED).add(5);
        t.registry.gauge(names::CHANNEL_INFLIGHT).set(-3);
        t.registry.counter(names::SERVING_OFFERED).add(4);
        t.registry.counter(names::SERVING_ADMITTED).add(4);
        t.registry.counter(names::SERVING_COMPLETED).add(4);
        t.registry.gauge(names::SERVING_INFLIGHT).set(-2);
        let v = t.pipeline_snapshot().invariant_violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(
            v[0],
            "channel conservation: cmds_submitted 5 != cmds_drained 5 + inflight -3"
        );
        assert!(v[1].starts_with("serving conservation: "), "{v:?}");
    }

    /// Every key path of `j` in document order; arrays contribute their
    /// first element under `[]`, and the raw-registry subtree is one leaf.
    fn key_paths(j: &Json, prefix: &str, out: &mut Vec<String>) {
        match j {
            Json::Object(pairs) if prefix != "metrics" => {
                for (k, v) in pairs {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    key_paths(v, &path, out);
                }
            }
            Json::Array(items) if !items.is_empty() => {
                key_paths(&items[0], &format!("{prefix}[]"), out)
            }
            _ => out.push(prefix.to_string()),
        }
    }

    #[test]
    fn json_key_paths_match_the_frozen_wire_shape() {
        // Populated enough that every optional shape is present: all nine
        // histograms, one member per prefix-discovered family, one stall.
        let t = Telemetry::with_defaults();
        for h in [
            names::READER_SUBMIT_LATENCY,
            names::DECODER_LANE_SERVICE,
            names::DISPATCHER_COPY_LATENCY,
            names::ENGINE_BATCH_WAIT,
            names::ENGINE_COMPUTE,
            names::SERVING_QUEUE_DELAY,
            names::SERVING_BATCH_SIZE,
            names::SERVING_FORM_WAIT,
            names::CLUSTER_LATENCY,
        ] {
            t.registry.histogram(h).record(1_000);
        }
        t.registry.gauge("queue.slot0.depth").set(1);
        t.registry.counter("serving.tenant.0.admitted").inc();
        t.registry.gauge("cache.tenant.0.resident_bytes").set(1);
        t.registry.counter("cluster.tenant.0.requests").inc();
        let stall = StallReport {
            stage: "slot0".into(),
            idle: Duration::from_secs(3),
            depth: 1,
            queues: vec![crate::watchdog::QueueProgress {
                stage: "slot0".into(),
                last_progress: Duration::from_secs(3),
                depth: 1,
            }],
        };
        let snap = PipelineSnapshot::from_parts(t.registry.snapshot(), vec![stall]);
        let mut paths = Vec::new();
        key_paths(&snap.to_json(), "", &mut paths);
        let golden: Vec<&str> = include_str!("../tests/snapshot_json_keys.golden")
            .lines()
            .collect();
        assert_eq!(paths, golden);
    }
}
