//! The event-driven network simulator.
//!
//! The piece that matters for the paper is the **router CPU model**:
//! routing updates cost `cost_per_route × routes` of control-plane CPU, the
//! update timer is (by default) re-armed only when that processing
//! completes — the Periodic Messages coupling — and while the CPU is busy a
//! [`ForwardingMode::BlockedDuringUpdates`] router cannot forward data
//! packets. That last behaviour is what turned NEARnet's synchronized IGRP
//! updates into 90-second-periodic ping loss; the 1992 software fix is
//! [`ForwardingMode::Concurrent`].
//!
//! Link completions and CPU releases are scheduled lazily at reserved
//! engine sequence numbers (see `routesync_desim::Engine::reserve_seq`).
//! A transmission reserves the key of its completion but pushes a
//! `TxDone` only once a packet queues behind it; until the key has passed
//! the link is busy. Each CPU charge reserves the key of its release, and
//! a router keeps at most one live `CpuFree` in the engine, which re-arms
//! at the latest reserved key when a later charge has superseded it. Both
//! pop exactly where an event pushed for every transmission and every
//! charge would have, so every output is the same; only the number of
//! engine events and the pending depth are smaller.

use std::collections::{HashMap, VecDeque};

use routesync_desim::{Duration, Engine, SimTime, TokenGen};
use routesync_rng::{JitterPolicy, MinStd, TimerResetPolicy};
use serde::{Deserialize, Serialize};

use crate::app::{App, CbrReceiverStats, PingStats};
use crate::area::{AreaLayout, AreaMode, DEFAULT_DST};
use crate::dv::{split_horizon_into, AreaEntry, DvConfig, RouteEntry, RoutingTable, UpdateMode};
use crate::faults::{
    FaultKind, FaultPlan, FaultRecord, LinkFlapProfile, RouterFlapProfile, IMPAIR_STREAM,
    LINK_FLAP_STREAM, ROUTER_FLAP_STREAM,
};
use crate::packet::{Packet, Payload, RoutingUpdate};
use crate::topology::{LinkId, Medium, NodeId, NodeKind, Topology};

/// Whether the router can forward data packets while the control CPU is
/// processing routing updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForwardingMode {
    /// Data packets arriving during update processing wait in a small
    /// holding queue and overflow to the floor — the pre-1992 behaviour
    /// behind the paper's Figure 1.
    BlockedDuringUpdates,
    /// Forwarding is unaffected by control-plane load — the NEARnet fix.
    Concurrent,
}

/// Initial phases of the routing timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimerStart {
    /// Every router's first update fires at the same instant (the
    /// power-failure / triggered-wave scenario, and the steady state the
    /// NEARnet measurements caught).
    Synchronized,
    /// First updates drawn uniformly from `[0, Tp]`.
    Unsynchronized,
}

/// Per-router configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Protocol parameters.
    pub dv: DvConfig,
    /// Control-CPU time per route entry (the paper quotes ~1 ms/route on
    /// the Xerox PARC ciscos).
    pub cost_per_route: Duration,
    /// Data-plane behaviour during update processing.
    pub forwarding: ForwardingMode,
    /// Holding-queue capacity for data packets while the CPU is busy.
    pub pending_cap: usize,
    /// Initial timer phases.
    pub start: TimerStart,
    /// Install shortest-path routes at t = 0 instead of waiting for the
    /// protocol to converge (steady-state experiments).
    pub prepopulate: bool,
    /// Record `(time, router)` for every timer re-arm and update send
    /// (needed by the synchronization analyses; off for pure traffic
    /// runs).
    pub record_timeline: bool,
    /// Record the router path of every delivered data packet (costs an
    /// allocation per hop; for path-validation tests and debugging).
    pub record_paths: bool,
}

impl RouterConfig {
    /// A reasonable default around a given protocol config.
    pub fn new(dv: DvConfig) -> Self {
        RouterConfig {
            dv,
            cost_per_route: Duration::from_millis(1),
            forwarding: ForwardingMode::BlockedDuringUpdates,
            pending_cap: 2,
            start: TimerStart::Synchronized,
            prepopulate: true,
            record_timeline: false,
            record_paths: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrive {
        to: NodeId,
        pkt_id: u64,
    },
    HelloTimer {
        node: NodeId,
    },
    /// The completion of a transmission that a packet queued behind.
    TxDone {
        link: LinkId,
        slot: usize,
    },
    /// A router's CPU release, at the key `seq` one charge reserved.
    CpuFree {
        node: NodeId,
        seq: u64,
    },
    DvTimer {
        node: NodeId,
        gen: u64,
    },
    AppTick {
        node: NodeId,
    },
    LinkDown {
        link: LinkId,
    },
    LinkUp {
        link: LinkId,
    },
    /// A scheduled fault-plan link transition (logged, unlike the raw
    /// `LinkDown`/`LinkUp` of `schedule_link_down/up`).
    FaultLink {
        link: LinkId,
        up: bool,
    },
    /// A stochastic link-flap transition; reschedules itself.
    LinkFlap {
        flap: usize,
        down: bool,
    },
    RouterCrash {
        node: NodeId,
    },
    RouterReboot {
        node: NodeId,
    },
    /// A stochastic router-flap transition; reschedules itself.
    RouterFlap {
        flap: usize,
        down: bool,
    },
}

/// Drop/delivery counters, readable after a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Packets handed to the network by applications and protocols.
    pub sent: u64,
    /// Packets delivered to their destination node.
    pub delivered: u64,
    /// Data packets forwarded by routers.
    pub forwarded: u64,
    /// Dropped: no route to destination.
    pub drop_no_route: u64,
    /// Dropped: link output queue full.
    pub drop_queue: u64,
    /// Dropped: router CPU busy with routing updates (blocked mode).
    pub drop_cpu: u64,
    /// Dropped: link was down.
    pub drop_link_down: u64,
    /// Dropped: TTL expired (a transient routing loop ate the packet).
    pub drop_ttl: u64,
    /// Routing updates transmitted (per link).
    pub updates_sent: u64,
    /// Routing updates processed.
    pub updates_processed: u64,
    /// Hello packets transmitted (per link).
    pub hellos_sent: u64,
    /// Dropped: lost to a fault-plan link impairment.
    pub drop_link_loss: u64,
    /// Dropped: addressed to (or queued on) a crashed router.
    pub drop_router_down: u64,
    /// Topology-affecting faults applied (link down/up transitions,
    /// crashes, reboots — the length of [`NetSim::fault_log`]).
    pub faults_injected: u64,
    /// Router reboots (cold starts) among the injected faults.
    pub reboots: u64,
    /// Triggered-update emissions (the storm metric: one per triggered
    /// emission, however many links it fans out over).
    pub updates_triggered: u64,
}

/// Instrumentation handles for the simulator's hot paths, resolved once at
/// construction from the global `routesync-obs` collector. With no
/// collector installed every handle is a no-op (a single branch per
/// record), so instrumented-off runs are bit-identical to pre-obs builds.
struct NetObs {
    packets_sent: routesync_obs::Counter,
    packets_moved: routesync_obs::Counter,
    packets_dropped: routesync_obs::Counter,
    updates_sent: routesync_obs::Counter,
    updates_processed: routesync_obs::Counter,
    /// In-flight slab high-water mark (allocation pressure).
    slab_high_water: routesync_obs::Gauge,
    /// Simulated nanoseconds of router control-plane CPU spent digesting
    /// and preparing routing updates.
    cpu_busy_ns: routesync_obs::Counter,
    /// Topology-affecting faults applied from a [`FaultPlan`].
    faults_injected: routesync_obs::Counter,
    /// Router reboots (cold starts) among the injected faults.
    faults_reboots: routesync_obs::Counter,
    /// Triggered-update emissions (update-storm intensity).
    updates_triggered: routesync_obs::Counter,
    /// Incremental (delta) triggered-update emissions.
    scale_delta_updates: routesync_obs::Counter,
    /// Forwarding decisions resolved through an aggregate or default
    /// route instead of an exact entry (hierarchical mode).
    scale_agg_hits: routesync_obs::Counter,
    /// Per-router busy attribution: `(sim-time, node)` trace events.
    trace: routesync_obs::Tracer,
    /// Online synchronization detector over periodic (non-triggered)
    /// update emissions: one window = one round of sends across all
    /// routers on the cycle `Tp`, publishing the Kuramoto order
    /// parameter R(t), cluster stats, and the sync-onset estimate as
    /// gauges (`netsim.sync.*`). Fed regardless of
    /// [`RouterConfig::record_timeline`] so live telemetry never
    /// changes simulation output.
    sync: routesync_obs::SyncDetector,
}

impl NetObs {
    fn resolve(routers: usize, period: Duration) -> Self {
        let obs = routesync_obs::global();
        let sync = if routers > 0 {
            obs.sync_detector(
                "netsim.sync",
                routesync_obs::DetectorConfig::new(routers, period.as_nanos()),
            )
        } else {
            routesync_obs::SyncDetector::noop()
        };
        NetObs {
            packets_sent: obs.counter("netsim.packets.sent"),
            packets_moved: obs.counter("netsim.packets.moved"),
            packets_dropped: obs.counter("netsim.packets.dropped"),
            updates_sent: obs.counter("netsim.updates.sent"),
            updates_processed: obs.counter("netsim.updates.processed"),
            slab_high_water: obs.gauge("netsim.slab.high_water"),
            cpu_busy_ns: obs.counter("netsim.router.busy_ns"),
            faults_injected: obs.counter("netsim.faults.injected"),
            faults_reboots: obs.counter("netsim.faults.reboots"),
            updates_triggered: obs.counter("netsim.updates.triggered"),
            scale_delta_updates: obs.counter("netsim.scale.delta_updates"),
            scale_agg_hits: obs.counter("netsim.scale.agg_hits"),
            trace: obs.tracer(),
            sync,
        }
    }
}

/// Flat CSR `(neighbour, link)` adjacency, sorted by neighbour id within
/// each node's range: binary-search lookups, two allocations total,
/// replacing the per-node `HashMap` that dominated construction at large
/// N. On duplicate neighbours (two shared links) the later link wins,
/// matching the `HashMap` insert order this replaces.
struct Adjacency {
    offsets: Vec<u32>,
    pairs: Vec<(NodeId, LinkId)>,
}

impl Adjacency {
    fn build(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut pairs: Vec<(NodeId, LinkId)> = Vec::new();
        offsets.push(0u32);
        let mut row: Vec<(NodeId, LinkId)> = Vec::new();
        for id in 0..n {
            row.clear();
            row.extend(topo.neighbors_iter(id));
            row.sort_by_key(|&(nb, _)| nb); // stable: ties keep link order
            let mut w = 0;
            for r in 0..row.len() {
                if r + 1 < row.len() && row[r + 1].0 == row[r].0 {
                    continue; // keep the last link to this neighbour
                }
                row[w] = row[r];
                w += 1;
            }
            row.truncate(w);
            pairs.extend_from_slice(&row);
            offsets.push(pairs.len() as u32);
        }
        Adjacency { offsets, pairs }
    }

    fn of(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        &self.pairs[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }

    fn link_to(&self, node: NodeId, nbr: NodeId) -> Option<LinkId> {
        let row = self.of(node);
        row.binary_search_by_key(&nbr, |&(nb, _)| nb)
            .ok()
            .map(|i| row[i].1)
    }
}

/// Runtime state of the hierarchical area model ([`NetSim::with_areas`]).
/// Boxed behind an `Option`: without areas every hook is a single `None`
/// branch and the simulation is bit-identical to a pre-areas build.
struct AreaState {
    layout: AreaLayout,
    mode: AreaMode,
    /// Per node: border router of its area (attached to an out-of-area
    /// link), hence originates the default route inward.
    border: Vec<bool>,
    /// Per link: `Some(k)` for links entirely inside area `k`, `None` for
    /// backbone / cross-area links.
    link_area: Vec<Option<usize>>,
}

/// A per-link loss/reorder impairment with its dedicated RNG stream.
struct Impair {
    loss: f64,
    reorder: f64,
    reorder_delay: Duration,
    rng: MinStd,
}

/// Runtime state of an installed [`FaultPlan`]. Boxed behind an `Option`
/// on [`NetSim`]: with no plan installed (the overwhelmingly common case)
/// every fault hook is a single `None` branch and the simulation is
/// bit-identical to a pre-faults build.
struct FaultState {
    link_flaps: Vec<(LinkFlapProfile, MinStd)>,
    router_flaps: Vec<(RouterFlapProfile, MinStd)>,
    /// Per-link impairment (dense, indexed by link id).
    impairments: Vec<Option<Impair>>,
    /// Per-node CPU cost multiplier (1.0 = unaffected).
    slowdown: Vec<f64>,
    /// Per-node crashed flag.
    crashed: Vec<bool>,
    /// Every applied topology-affecting fault, in application order.
    log: Vec<FaultRecord>,
}

/// One sender's transmitter on a link.
struct TxSlot {
    /// Engine key `(time, seq)` at which the last transmission completes;
    /// the slot is busy until it has passed. `(ZERO, 0)`, which has
    /// always passed, before the first transmission.
    done: (SimTime, u64),
    /// Whether a `TxDone` for `done` is in the engine.
    done_queued: bool,
    queue: VecDeque<(Packet, Option<NodeId>)>,
}

struct LinkState {
    up: bool,
    slots: Vec<TxSlot>,
}

struct NodeState {
    kind: NodeKind,
    table: RoutingTable,
    rng: MinStd,
    jitter: JitterPolicy,
    cpu_busy: bool,
    cpu_until: SimTime,
    /// Sequence number the last CPU charge reserved for its release at
    /// `cpu_until`; 0 after a crash.
    cpu_free_seq: u64,
    /// Sequence number of the live `CpuFree` in the engine, 0 if none.
    /// One from before a crash may still be queued; it is ignored.
    cpu_armed_seq: u64,
    timer_gen: TokenGen,
    arm_when_free: bool,
    pending_triggered: bool,
    pending_data: VecDeque<Packet>,
    app: Option<App>,
    /// Per-neighbour liveness (hello protocol): last hello heard and
    /// whether the adjacency is currently up.
    neighbor_liveness: HashMap<NodeId, (SimTime, bool)>,
    /// Incremental mode: whether the initial full advertisement went out.
    sent_initial_full: bool,
    ping_stats: PingStats,
    cbr_stats: CbrReceiverStats,
    default_router: Option<NodeId>,
}

/// The simulator. Build with [`NetSim::new`], attach traffic with
/// `add_ping`/`add_cbr`/`add_poisson`, then [`NetSim::run_until`].
pub struct NetSim {
    topo: Topology,
    cfg: RouterConfig,
    engine: Engine<Ev>,
    nodes: Vec<NodeState>,
    links: Vec<LinkState>,
    /// In-flight packets: a slab indexed by the id carried in
    /// `Ev::Arrive` (keeps the event type `Copy` and cheap). Freed slots
    /// are recycled through `free_slots`, so a steady-state run stops
    /// allocating here entirely.
    in_flight: Vec<Option<Packet>>,
    free_slots: Vec<u64>,
    /// `(neighbor → link)` per node, flat and sorted.
    adjacency: Adjacency,
    counters: Counters,
    reset_log: Vec<(SimTime, NodeId)>,
    update_log: Vec<(SimTime, NodeId)>,
    delivered_paths: Vec<(NodeId, Vec<NodeId>)>,
    /// Reusable scratch (hot-path buffers; always left cleared-or-stale,
    /// never read across calls).
    scratch_peers: Vec<NodeId>,
    scratch_nodes: Vec<NodeId>,
    scratch_entries: Vec<RouteEntry>,
    /// Area advertisement base lists of the firing router, one per link
    /// area class (`emit_update`).
    scratch_area_base: [Vec<AreaEntry>; 2],
    /// The master seed (fault-plan RNG streams derive from it).
    seed: u64,
    /// Installed fault plan, if any ([`NetSim::install_faults`]).
    faults: Option<Box<FaultState>>,
    /// Hierarchical area model, if any ([`NetSim::with_areas`]).
    areas: Option<Box<AreaState>>,
    obs: NetObs,
}

impl NetSim {
    /// Build a simulator over `topo`. Every router shares `cfg`; `seed`
    /// fixes all randomness.
    pub fn new(topo: Topology, cfg: RouterConfig, seed: u64) -> Self {
        Self::build(topo, cfg, seed, None, None)
    }

    /// Like [`NetSim::new`], but install shortest-path routes from a
    /// [`PrecomputedRoutes`] computed once for the topology instead of
    /// re-running the per-destination BFS — the ensemble amortization
    /// behind [`run_many`]. Ignored unless `cfg.prepopulate` is set.
    pub fn with_routes(
        topo: Topology,
        cfg: RouterConfig,
        seed: u64,
        routes: &PrecomputedRoutes,
    ) -> Self {
        Self::build(topo, cfg, seed, Some(routes), None)
    }

    /// Build a simulator with the hierarchical area model: routers carry
    /// aggregate routes for remote areas and (on edge routers) a default
    /// route instead of per-destination exacts, and advertisements follow
    /// the [`RoutingTable::advertisement_area_into`] aggregation rules.
    /// With `cfg.prepopulate`, tables start in the converged hierarchical
    /// state directly — no O(N²) all-pairs BFS, which is what admits
    /// N = 100 000+ routers. Expects star-shaped areas (every non-border
    /// member adjacent to its border router), as built by
    /// [`crate::scenario::ScenarioSpec::hierarchical`].
    pub fn with_areas(
        topo: Topology,
        cfg: RouterConfig,
        seed: u64,
        layout: AreaLayout,
        mode: AreaMode,
    ) -> Self {
        Self::build(topo, cfg, seed, None, Some((layout, mode)))
    }

    fn build(
        topo: Topology,
        cfg: RouterConfig,
        seed: u64,
        routes: Option<&PrecomputedRoutes>,
        areas: Option<(AreaLayout, AreaMode)>,
    ) -> Self {
        let n = topo.node_count();
        let engine = Engine::new();
        let adjacency = Adjacency::build(&topo);
        let areas = areas.map(|(layout, mode)| {
            layout.check(topo.storage());
            let link_area: Vec<Option<usize>> = (0..topo.link_count())
                .map(|l| layout.link_area(&topo, l))
                .collect();
            let border: Vec<bool> = (0..n)
                .map(|id| {
                    topo.kind(id) == NodeKind::Router
                        && topo.links_of(id).iter().any(|&l| link_area[l].is_none())
                })
                .collect();
            Box::new(AreaState {
                layout,
                mode,
                border,
                link_area,
            })
        });
        let mut nodes = Vec::with_capacity(n);
        for id in 0..n {
            let mut rng = routesync_rng::stream(seed, id as u64);
            let jitter = cfg.dv.jitter.materialize(&mut rng);
            let mut table = RoutingTable::new(id);
            for &(nb, _) in adjacency.of(id) {
                table.install_direct(nb);
            }
            if cfg.dv.triggered_delta && topo.kind(id) == NodeKind::Router {
                table.set_dirty_tracking(true);
            }
            let default_router = topo
                .neighbors_iter(id)
                .find(|&(nb, _)| topo.kind(nb) == NodeKind::Router)
                .map(|(nb, _)| nb);
            nodes.push(NodeState {
                kind: topo.kind(id),
                table,
                rng,
                jitter,
                cpu_busy: false,
                cpu_until: SimTime::ZERO,
                cpu_free_seq: 0,
                cpu_armed_seq: 0,
                timer_gen: TokenGen::new(),
                arm_when_free: false,
                pending_triggered: false,
                pending_data: VecDeque::new(),
                app: None,
                neighbor_liveness: HashMap::new(),
                sent_initial_full: false,
                ping_stats: PingStats::default(),
                cbr_stats: CbrReceiverStats::default(),
                default_router,
            });
        }
        let links = (0..topo.link_count())
            .map(|l| LinkState {
                up: true,
                slots: topo
                    .link(l)
                    .nodes
                    .iter()
                    .map(|_| TxSlot {
                        done: (SimTime::ZERO, 0),
                        done_queued: false,
                        queue: VecDeque::new(),
                    })
                    .collect(),
            })
            .collect();
        let routers = (0..n)
            .filter(|&id| topo.kind(id) == NodeKind::Router)
            .count();
        let obs = NetObs::resolve(routers, cfg.dv.jitter.tp());
        let mut sim = NetSim {
            topo,
            cfg,
            engine,
            nodes,
            links,
            in_flight: Vec::new(),
            free_slots: Vec::new(),
            adjacency,
            counters: Counters::default(),
            reset_log: Vec::new(),
            update_log: Vec::new(),
            delivered_paths: Vec::new(),
            scratch_peers: Vec::new(),
            scratch_nodes: Vec::new(),
            scratch_entries: Vec::new(),
            scratch_area_base: [Vec::new(), Vec::new()],
            seed,
            faults: None,
            areas,
            obs,
        };
        if cfg.prepopulate {
            if sim.areas.is_some() {
                sim.install_hierarchy();
            } else {
                match routes {
                    Some(r) => sim.install_routes(r),
                    None => {
                        let r = PrecomputedRoutes::compute(&sim.topo);
                        sim.install_routes(&r);
                    }
                }
            }
        }
        // Arm the routing timers.
        let tp = cfg.dv.jitter.tp();
        for id in sim.topo.routers() {
            let first = match cfg.start {
                TimerStart::Synchronized => tp,
                TimerStart::Unsynchronized => {
                    routesync_rng::dist::UniformDuration::new(Duration::ZERO, tp)
                        .sample(&mut sim.nodes[id].rng)
                }
            };
            let gen = sim.nodes[id].timer_gen.current();
            sim.engine
                .schedule(SimTime::ZERO + first, Ev::DvTimer { node: id, gen });
        }
        if let Some(hello) = cfg.dv.hello {
            for id in sim.topo.routers() {
                // Stagger the first hellos uniformly over one interval and
                // presume neighbours alive from t = 0.
                for (nb, _) in sim.topo.neighbors_iter(id) {
                    if sim.topo.kind(nb) == NodeKind::Router {
                        sim.nodes[id]
                            .neighbor_liveness
                            .insert(nb, (SimTime::ZERO, true));
                    }
                }
                let first =
                    routesync_rng::dist::UniformDuration::new(Duration::ZERO, hello.interval)
                        .sample(&mut sim.nodes[id].rng);
                sim.engine
                    .schedule(SimTime::ZERO + first, Ev::HelloTimer { node: id });
            }
        }
        sim
    }

    /// Install `routes` (shortest-path, hop count) on every router, for
    /// steady-state experiments that should not wait for convergence.
    fn install_routes(&mut self, routes: &PrecomputedRoutes) {
        for &(r, dst, metric, next_hop) in &routes.entries {
            self.nodes[r].table.install(dst, metric, next_hop);
        }
    }

    /// Converged-state prepopulation for the hierarchical area model:
    /// border routers get their own aggregate (metric 0) plus one
    /// aggregate per reachable remote area via that area's border router;
    /// edge routers get the default route via their border router (and,
    /// in [`AreaMode::Stub`], intra-area exacts at metric 2). O(total
    /// table entries), not O(N²) — the whole point at N = 100k.
    fn install_hierarchy(&mut self) {
        let st = self.areas.take().expect("hierarchy without area state");
        let mut agg_routes = 0u64;
        let mut default_routes = 0u64;
        for k in 0..st.layout.areas() {
            for r in st.layout.members(k) {
                if self.nodes[r].kind != NodeKind::Router {
                    continue;
                }
                if st.border[r] {
                    self.nodes[r].table.install(AreaLayout::agg_dst(k), 0, r);
                    agg_routes += 1;
                    // Remote areas via their border routers on shared
                    // out-of-area (backbone) links.
                    for i in 0..self.adjacency.of(r).len() {
                        let (nb, l) = self.adjacency.of(r)[i];
                        if st.link_area[l].is_some()
                            || self.nodes[nb].kind != NodeKind::Router
                            || !st.border[nb]
                        {
                            continue;
                        }
                        if let Some(j) = st.layout.area_of(nb) {
                            if j != k {
                                self.nodes[r].table.install(AreaLayout::agg_dst(j), 1, nb);
                                agg_routes += 1;
                            }
                        }
                    }
                } else {
                    // First adjacent border router is the way out.
                    let Some(&(b, _)) =
                        self.adjacency.of(r).iter().find(|&&(nb, _)| {
                            self.nodes[nb].kind == NodeKind::Router && st.border[nb]
                        })
                    else {
                        continue; // area without a border router: isolated
                    };
                    self.nodes[r].table.install(DEFAULT_DST, 1, b);
                    default_routes += 1;
                    if st.mode == AreaMode::Stub {
                        // Converged stub-mode state: non-adjacent area
                        // members at metric 2 via the border router, and
                        // the remote-area aggregates the border will keep
                        // advertising onto stub links (only totally-stubby
                        // areas suppress those).
                        for m in st.layout.members(k) {
                            if m != r && self.nodes[r].table.metric(m).is_none() {
                                self.nodes[r].table.install(m, 2, b);
                            }
                        }
                        for j in 0..st.layout.areas() {
                            if j != k && !st.layout.members(j).is_empty() {
                                self.nodes[r].table.install(AreaLayout::agg_dst(j), 2, b);
                                agg_routes += 1;
                            }
                        }
                    }
                }
            }
        }
        let obs = routesync_obs::global();
        obs.gauge("netsim.scale.areas")
            .set(st.layout.areas() as u64);
        obs.gauge("netsim.scale.agg_routes").set(agg_routes);
        obs.gauge("netsim.scale.default_routes").set(default_routes);
        self.areas = Some(st);
    }

    /// The hierarchical area model installed at construction, if any.
    pub fn area_model(&self) -> Option<(&AreaLayout, AreaMode)> {
        self.areas.as_deref().map(|st| (&st.layout, st.mode))
    }

    /// Events processed by the discrete-event engine so far — the
    /// denominator of the `events/sec` throughput the scale benchmarks
    /// record.
    pub fn events_processed(&self) -> u64 {
        self.engine.processed()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Drop/delivery counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The simulated topology. Consumers that mirror the simulator's
    /// network outside the event loop — the live daemon building one UDP
    /// socket per adjacency — read the node/link structure from here so
    /// both worlds are guaranteed to agree.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The per-router configuration every node runs (protocol timers,
    /// processing cost, forwarding mode).
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// A node's routing table.
    pub fn table(&self, node: NodeId) -> &RoutingTable {
        &self.nodes[node].table
    }

    /// Overwrite one route on a router (scenario/test setup — e.g. to
    /// install a deliberately inconsistent state and watch the protocol or
    /// the TTL guard clean it up).
    pub fn install_route(&mut self, node: NodeId, dst: NodeId, metric: u32, next_hop: NodeId) {
        self.nodes[node].table.install(dst, metric, next_hop);
    }

    /// Ping statistics recorded at `node` (the ping *sender*).
    pub fn ping_stats(&self, node: NodeId) -> &PingStats {
        &self.nodes[node].ping_stats
    }

    /// CBR receive statistics recorded at `node` (the audio *sink*).
    pub fn cbr_stats(&self, node: NodeId) -> &CbrReceiverStats {
        &self.nodes[node].cbr_stats
    }

    /// Timer re-arm instants per router (requires
    /// [`RouterConfig::record_timeline`]).
    pub fn reset_log(&self) -> &[(SimTime, NodeId)] {
        &self.reset_log
    }

    /// Periodic-update send instants per router (requires
    /// [`RouterConfig::record_timeline`]).
    pub fn update_log(&self) -> &[(SimTime, NodeId)] {
        &self.update_log
    }

    /// Router paths of delivered data packets, in delivery order
    /// (requires [`RouterConfig::record_paths`]).
    pub fn delivered_paths(&self) -> &[(NodeId, Vec<NodeId>)] {
        &self.delivered_paths
    }

    /// Attach a ping sender at `src` probing `dst`: `count` probes,
    /// `interval` apart, starting at `start`.
    pub fn add_ping(
        &mut self,
        src: NodeId,
        dst: NodeId,
        interval: Duration,
        count: u64,
        start: SimTime,
    ) {
        self.nodes[src].app = Some(App::Ping {
            dst,
            interval,
            count,
            sent: 0,
        });
        self.nodes[src].ping_stats = PingStats::with_capacity(count as usize);
        self.engine.schedule(start, Ev::AppTick { node: src });
    }

    /// Attach a constant-bit-rate source at `src` streaming to `dst`.
    pub fn add_cbr(
        &mut self,
        src: NodeId,
        dst: NodeId,
        interval: Duration,
        count: u64,
        start: SimTime,
    ) {
        self.nodes[src].app = Some(App::Cbr {
            dst,
            interval,
            count,
            sent: 0,
        });
        self.engine.schedule(start, Ev::AppTick { node: src });
    }

    /// Attach a Poisson background source at `src` towards `dst` with the
    /// given mean inter-packet interval, active until `until`.
    pub fn add_poisson(
        &mut self,
        src: NodeId,
        dst: NodeId,
        mean_interval: Duration,
        until: SimTime,
        start: SimTime,
    ) {
        self.nodes[src].app = Some(App::Poisson {
            dst,
            mean_interval,
            until,
        });
        self.engine.schedule(start, Ev::AppTick { node: src });
    }

    /// Take `link` down at `at` (routers on it poison dependent routes and
    /// emit triggered updates).
    pub fn schedule_link_down(&mut self, link: LinkId, at: SimTime) {
        self.engine.schedule(at, Ev::LinkDown { link });
    }

    /// Bring `link` back up at `at`.
    pub fn schedule_link_up(&mut self, link: LinkId, at: SimTime) {
        self.engine.schedule(at, Ev::LinkUp { link });
    }

    /// Install a [`FaultPlan`]: schedule its timed events and seed its
    /// stochastic processes. Installing an **empty** plan is a no-op —
    /// the run stays bit-identical to one without the call. Stochastic
    /// faults draw from dedicated RNG streams derived from the master
    /// seed (never from the per-node RNGs), so the same `(seed, plan)`
    /// reproduces the same fault sequence byte-for-byte.
    ///
    /// Call before [`NetSim::run_until`]; installing a second non-empty
    /// plan replaces the first (its pending stochastic transitions keep
    /// firing but find the old state gone and re-derive from the new).
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        let n = self.topo.node_count();
        let mut st = Box::new(FaultState {
            link_flaps: plan
                .link_flaps
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    (
                        *f,
                        routesync_rng::stream(self.seed, LINK_FLAP_STREAM + i as u64),
                    )
                })
                .collect(),
            router_flaps: plan
                .router_flaps
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    (
                        *f,
                        routesync_rng::stream(self.seed, ROUTER_FLAP_STREAM + i as u64),
                    )
                })
                .collect(),
            impairments: (0..self.topo.link_count()).map(|_| None).collect(),
            slowdown: vec![1.0; n],
            crashed: vec![false; n],
            log: Vec::new(),
        });
        for imp in &plan.impairments {
            assert!(
                imp.link < self.topo.link_count(),
                "unknown link {}",
                imp.link
            );
            st.impairments[imp.link] = Some(Impair {
                loss: imp.loss,
                reorder: imp.reorder,
                reorder_delay: imp.reorder_delay,
                rng: routesync_rng::stream(self.seed, IMPAIR_STREAM + imp.link as u64),
            });
        }
        for s in &plan.slowdowns {
            assert!(
                self.topo.kind(s.node) == NodeKind::Router,
                "cpu slowdown target {} is not a router",
                s.node
            );
            st.slowdown[s.node] = s.factor;
        }
        for ev in &plan.scheduled {
            let e = match ev.action {
                crate::faults::FaultAction::LinkDown(l) => Ev::FaultLink { link: l, up: false },
                crate::faults::FaultAction::LinkUp(l) => Ev::FaultLink { link: l, up: true },
                crate::faults::FaultAction::RouterCrash(r) => Ev::RouterCrash { node: r },
                crate::faults::FaultAction::RouterReboot(r) => Ev::RouterReboot { node: r },
            };
            self.engine.schedule(ev.at, e);
        }
        // First stochastic transitions: every flapping entity starts up
        // and fails after Exp(mtbf).
        for flap in 0..st.link_flaps.len() {
            let (prof, rng) = &mut st.link_flaps[flap];
            let dt = exp_duration(prof.mtbf, rng);
            self.engine
                .schedule(SimTime::ZERO + dt, Ev::LinkFlap { flap, down: true });
        }
        for flap in 0..st.router_flaps.len() {
            let (prof, rng) = &mut st.router_flaps[flap];
            assert!(
                self.topo.kind(prof.node) == NodeKind::Router,
                "router flap target {} is not a router",
                prof.node
            );
            let dt = exp_duration(prof.mtbf, rng);
            self.engine
                .schedule(SimTime::ZERO + dt, Ev::RouterFlap { flap, down: true });
        }
        self.faults = Some(st);
    }

    /// The topology-affecting faults applied so far, in application
    /// order. Empty when no [`FaultPlan`] is installed.
    pub fn fault_log(&self) -> &[FaultRecord] {
        self.faults.as_ref().map_or(&[], |f| &f.log)
    }

    /// Whether `node` is currently crashed by the installed fault plan.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.crashed[node])
    }

    /// Run the simulation until `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) {
        let _span = routesync_obs::span!("netsim.run_until");
        loop {
            match self.engine.peek_time() {
                None => break,
                Some(t) if t >= horizon => break,
                Some(_) => {}
            }
            let (now, ev) = self.engine.pop().expect("peeked event vanished");
            self.dispatch(now, ev);
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrive { to, pkt_id } => {
                let pkt = self.in_flight[pkt_id as usize]
                    .take()
                    .expect("arrival without in-flight packet");
                self.free_slots.push(pkt_id);
                self.on_arrive(now, to, pkt);
            }
            Ev::TxDone { link, slot } => self.on_tx_done(now, link, slot),
            Ev::CpuFree { node, seq } => self.on_cpu_free_event(now, node, seq),
            Ev::DvTimer { node, gen } => {
                if self.nodes[node].timer_gen.is_live(gen) {
                    self.on_dv_timer(now, node);
                }
            }
            Ev::HelloTimer { node } => self.on_hello_timer(now, node),
            Ev::AppTick { node } => self.on_app_tick(now, node),
            Ev::LinkDown { link } => self.on_link_down(now, link),
            Ev::LinkUp { link } => self.on_link_up(now, link),
            Ev::FaultLink { link, up } => self.on_fault_link(now, link, up),
            Ev::LinkFlap { flap, down } => self.on_link_flap(now, flap, down),
            Ev::RouterCrash { node } => self.on_router_crash(now, node),
            Ev::RouterReboot { node } => self.on_router_reboot(now, node),
            Ev::RouterFlap { flap, down } => self.on_router_flap(now, flap, down),
        }
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    /// Queue `pkt` for transmission by `from` on `link`. `dst_hint` selects
    /// the receiving node on a broadcast medium (`None` = all attached).
    fn transmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        link: LinkId,
        pkt: Packet,
        dst_hint: Option<NodeId>,
    ) {
        if !self.links[link].up {
            self.counters.drop_link_down += 1;
            self.obs.packets_dropped.inc();
            return;
        }
        let slot = self.slot_of(link, from);
        let (done_at, done_seq) = self.links[link].slots[slot].done;
        if !self.engine.has_passed(done_at, done_seq) {
            let cap = self.topo.link(link).queue_cap;
            let s = &mut self.links[link].slots[slot];
            if s.queue.len() < cap {
                s.queue.push_back((pkt, dst_hint));
                if !s.done_queued {
                    s.done_queued = true;
                    self.engine
                        .schedule_reserved(done_at, done_seq, Ev::TxDone { link, slot });
                }
            } else {
                self.counters.drop_queue += 1;
                self.obs.packets_dropped.inc();
            }
        } else {
            self.start_tx(now, link, slot, pkt, dst_hint);
        }
    }

    fn slot_of(&self, link: LinkId, node: NodeId) -> usize {
        self.topo
            .link(link)
            .nodes
            .iter()
            .position(|&n| n == node)
            .expect("node not attached to link")
    }

    fn start_tx(
        &mut self,
        now: SimTime,
        link: LinkId,
        slot: usize,
        pkt: Packet,
        dst_hint: Option<NodeId>,
    ) {
        let l = self.topo.link(link);
        let tx_time = l.tx_time(pkt.size);
        let arrive_at = now + tx_time + l.delay;
        let sender = l.nodes[slot];
        let medium = l.medium;
        match (medium, dst_hint) {
            (Medium::PointToPoint, _) => {
                let to = self.topo.link(link).other_end(sender);
                self.deliver_on(link, arrive_at, to, pkt);
            }
            (Medium::Broadcast, Some(d)) => self.deliver_on(link, arrive_at, d, pkt),
            (Medium::Broadcast, None) => {
                // Every other attached node hears the frame; move the
                // packet into the last copy instead of cloning it.
                let count = self.topo.link(link).nodes.len();
                let mut remaining = count - 1;
                let mut pkt = Some(pkt);
                for i in 0..count {
                    let to = self.topo.link(link).nodes[i];
                    if to == sender {
                        continue;
                    }
                    remaining -= 1;
                    let copy = if remaining == 0 {
                        pkt.take().expect("broadcast packet reused")
                    } else {
                        pkt.as_ref().expect("broadcast packet gone").clone()
                    };
                    self.deliver_on(link, arrive_at, to, copy);
                }
            }
        }
        // Reserve the completion's key now, where an eager push would
        // have taken it; push the event only if a packet already waits.
        let done = (now + tx_time, self.engine.reserve_seq());
        let s = &mut self.links[link].slots[slot];
        s.done = done;
        s.done_queued = !s.queue.is_empty();
        if s.done_queued {
            self.engine
                .schedule_reserved(done.0, done.1, Ev::TxDone { link, slot });
        }
    }

    /// Deliver `pkt` over `link`, applying any fault-plan impairment:
    /// an independent loss draw, then an independent reorder draw that
    /// adds the impairment's extra delay. Without an installed plan this
    /// is a single branch in front of [`NetSim::schedule_arrival`].
    fn deliver_on(&mut self, link: LinkId, at: SimTime, to: NodeId, pkt: Packet) {
        let mut at = at;
        if let Some(f) = self.faults.as_deref_mut() {
            if let Some(imp) = f.impairments[link].as_mut() {
                if imp.loss > 0.0 && routesync_rng::dist::unit_f64(&mut imp.rng) < imp.loss {
                    self.counters.drop_link_loss += 1;
                    self.obs.packets_dropped.inc();
                    return;
                }
                if imp.reorder > 0.0 && routesync_rng::dist::unit_f64(&mut imp.rng) < imp.reorder {
                    at += imp.reorder_delay;
                }
            }
        }
        self.schedule_arrival(at, to, pkt);
    }

    /// Park `pkt` in the in-flight slab and schedule its arrival.
    fn schedule_arrival(&mut self, at: SimTime, to: NodeId, pkt: Packet) {
        self.obs.packets_moved.inc();
        let id = match self.free_slots.pop() {
            Some(id) => {
                self.in_flight[id as usize] = Some(pkt);
                id
            }
            None => {
                self.in_flight.push(Some(pkt));
                self.obs
                    .slab_high_water
                    .record_max(self.in_flight.len() as u64);
                (self.in_flight.len() - 1) as u64
            }
        };
        self.engine.schedule(at, Ev::Arrive { to, pkt_id: id });
    }

    fn on_tx_done(&mut self, now: SimTime, link: LinkId, slot: usize) {
        self.links[link].slots[slot].done_queued = false;
        if let Some((pkt, hint)) = self.links[link].slots[slot].queue.pop_front() {
            if self.links[link].up {
                self.start_tx(now, link, slot, pkt, hint);
            } else {
                self.counters.drop_link_down += 1;
                self.obs.packets_dropped.inc();
            }
        }
    }

    // ------------------------------------------------------------------
    // Arrival, forwarding, local delivery
    // ------------------------------------------------------------------

    fn on_arrive(&mut self, now: SimTime, to: NodeId, pkt: Packet) {
        if self.is_crashed(to) {
            // A crashed router hears nothing: data, hellos and routing
            // updates addressed to it all hit the floor.
            self.counters.drop_router_down += 1;
            self.obs.packets_dropped.inc();
            return;
        }
        if matches!(pkt.payload, Payload::Hello) {
            if self.nodes[to].kind == NodeKind::Router {
                self.on_hello(now, to, pkt.src);
            }
            return;
        }
        if let Payload::Routing(update) = pkt.payload {
            // Hosts ignore routing chatter.
            if self.nodes[to].kind == NodeKind::Router {
                self.process_routing(now, to, &update);
            }
            return;
        }
        if pkt.dst == to {
            self.deliver_local(now, to, pkt);
            return;
        }
        match self.nodes[to].kind {
            NodeKind::Host => {
                // Hosts never relay.
                self.counters.drop_no_route += 1;
                self.obs.packets_dropped.inc();
            }
            NodeKind::Router => {
                let blocked = self.cfg.forwarding == ForwardingMode::BlockedDuringUpdates
                    && self.cpu_busy_now(to, now);
                if blocked {
                    if self.nodes[to].pending_data.len() < self.cfg.pending_cap {
                        self.nodes[to].pending_data.push_back(pkt);
                    } else {
                        self.counters.drop_cpu += 1;
                        self.obs.packets_dropped.inc();
                    }
                } else {
                    self.forward(now, to, pkt);
                }
            }
        }
    }

    fn cpu_busy_now(&self, node: NodeId, now: SimTime) -> bool {
        self.nodes[node].cpu_busy && now < self.nodes[node].cpu_until
    }

    fn forward(&mut self, now: SimTime, router: NodeId, mut pkt: Packet) {
        if pkt.ttl == 0 {
            self.counters.drop_ttl += 1;
            self.obs.packets_dropped.inc();
            return;
        }
        pkt.ttl -= 1;
        if self.cfg.record_paths {
            pkt.hops.push(router);
        }
        let infinity = self.cfg.dv.infinity;
        let next = {
            let table = &self.nodes[router].table;
            match table.lookup(pkt.dst, infinity) {
                Some(nh) => Some(nh),
                // Hierarchical fallback chain: exact → area aggregate →
                // default route.
                None => self.areas.as_deref().and_then(|st| {
                    let via = st
                        .layout
                        .area_of(pkt.dst)
                        .and_then(|k| table.lookup(AreaLayout::agg_dst(k), infinity))
                        .or_else(|| table.lookup(DEFAULT_DST, infinity));
                    if via.is_some() {
                        self.obs.scale_agg_hits.inc();
                    }
                    via
                }),
            }
        };
        match next.and_then(|nh| self.adjacency.link_to(router, nh).map(|l| (nh, l))) {
            None => {
                self.counters.drop_no_route += 1;
                self.obs.packets_dropped.inc();
            }
            Some((next, link)) => {
                self.counters.forwarded += 1;
                self.transmit(now, router, link, pkt, Some(next));
            }
        }
    }

    fn deliver_local(&mut self, now: SimTime, node: NodeId, pkt: Packet) {
        self.counters.delivered += 1;
        if self.cfg.record_paths && !matches!(pkt.payload, Payload::Routing(_) | Payload::Hello) {
            self.delivered_paths.push((node, pkt.hops.clone()));
        }
        match pkt.payload {
            Payload::Ping { seq, sent_ns } => {
                // Echo.
                let reply = Packet::new(node, pkt.src, pkt.size, Payload::Pong { seq, sent_ns });
                self.send_from(now, node, reply);
            }
            Payload::Pong { seq, sent_ns } => {
                let rtt = (now.as_nanos() - sent_ns) as f64 / 1e9;
                self.nodes[node].ping_stats.record(seq, rtt);
            }
            Payload::Audio { seq } => {
                self.nodes[node].cbr_stats.record(seq, now.as_secs_f64());
            }
            Payload::Data => {}
            Payload::Hello | Payload::Routing(_) => unreachable!("handled in on_arrive"),
        }
    }

    /// Send a locally originated packet from `node` (host or router).
    fn send_from(&mut self, now: SimTime, node: NodeId, pkt: Packet) {
        self.counters.sent += 1;
        self.obs.packets_sent.inc();
        if pkt.dst == node {
            self.deliver_local(now, node, pkt);
            return;
        }
        match self.nodes[node].kind {
            NodeKind::Router => self.forward(now, node, pkt),
            NodeKind::Host => {
                // Directly attached destination?
                if let Some(link) = self.adjacency.link_to(node, pkt.dst) {
                    let dst = pkt.dst;
                    self.transmit(now, node, link, pkt, Some(dst));
                    return;
                }
                match self.nodes[node].default_router {
                    None => {
                        self.counters.drop_no_route += 1;
                        self.obs.packets_dropped.inc();
                    }
                    Some(r) => {
                        let link = self
                            .adjacency
                            .link_to(node, r)
                            .expect("default router not adjacent");
                        self.transmit(now, node, link, pkt, Some(r));
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    fn process_routing(&mut self, now: SimTime, node: NodeId, update: &RoutingUpdate) {
        self.counters.updates_processed += 1;
        self.obs.updates_processed.inc();
        // CPU cost of digesting the whole update, padding included.
        let cost = self.cfg.cost_per_route * update.entries.len() as u64;
        self.cpu_add(now, node, cost);
        // Strip the padding entries (out-of-range dst) into the reusable
        // scratch buffer instead of a fresh Vec per update. With areas
        // installed, logical destinations (aggregates, default) pass the
        // filter and ride the ordinary Bellman-Ford path.
        let n = self.topo.node_count();
        let areas = self.areas.as_deref();
        self.scratch_entries.clear();
        self.scratch_entries.extend(
            update
                .entries
                .iter()
                .copied()
                .filter(|e| e.dst < n || areas.is_some_and(|st| st.layout.is_logical(e.dst))),
        );
        let changed = self.nodes[node].table.process_update_with(
            update.origin,
            &self.scratch_entries,
            now,
            self.cfg.dv.infinity,
            self.cfg.dv.holddown,
        );
        if changed && self.cfg.dv.triggered_updates {
            self.note_change(now, node);
        }
    }

    /// A routing change at `node` wants a triggered update out.
    fn note_change(&mut self, now: SimTime, node: NodeId) {
        if self.cpu_busy_now(node, now) {
            self.nodes[node].pending_triggered = true;
        } else {
            self.emit_update(now, node, true);
        }
    }

    fn on_dv_timer(&mut self, now: SimTime, node: NodeId) {
        match self.cfg.dv.update_mode {
            UpdateMode::PeriodicFullTable => {
                // Housekeeping at update time: age out stale routes (their
                // poisoning rides along in this very update).
                self.nodes[node]
                    .table
                    .expire(now, self.cfg.dv.route_timeout, self.cfg.dv.infinity);
                self.nodes[node]
                    .table
                    .gc_due(now, self.cfg.dv.gc_timeout, self.cfg.dv.infinity);
                self.emit_update(now, node, false);
            }
            UpdateMode::Incremental => {
                if self.nodes[node].sent_initial_full {
                    // Just a keepalive: no table, (almost) no CPU.
                    self.emit_keepalive(now, node);
                } else {
                    self.nodes[node].sent_initial_full = true;
                    self.emit_update(now, node, false);
                }
            }
        }
        match self.cfg.dv.reset_policy {
            TimerResetPolicy::AfterProcessing => {
                self.nodes[node].arm_when_free = true;
                // If the CPU somehow finished instantly (zero-cost config),
                // arm right away.
                if !self.cpu_busy_now(node, now) {
                    self.arm_timer(now, node);
                }
            }
            TimerResetPolicy::OnExpiry => self.arm_timer(now, node),
        }
    }

    /// Build and transmit a full-table update on every interface.
    fn emit_update(&mut self, now: SimTime, node: NodeId, triggered: bool) {
        // Incremental mode: a triggered update carries only the dirtied
        // routes; a periodic full update flushes the dirty set (it
        // re-advertises everything anyway). The dirty list is drained
        // once and applied to every link.
        let mut dirty = std::mem::take(&mut self.scratch_nodes);
        let delta = if self.cfg.dv.triggered_delta {
            self.nodes[node].table.take_dirty_into(&mut dirty);
            if triggered {
                if dirty.is_empty() {
                    // A periodic update already covered the change:
                    // nothing to say, nothing sent, nothing counted.
                    self.scratch_nodes = dirty;
                    return;
                }
                self.obs.scale_delta_updates.inc();
                true
            } else {
                false
            }
        } else {
            false
        };
        if !triggered {
            if self.cfg.record_timeline {
                self.update_log.push((now, node));
            }
            // Streamed regardless of the timeline flag: the detector only
            // writes metrics, so it cannot change simulation output.
            self.obs.sync.on_send(now.as_nanos());
        }
        if triggered {
            self.counters.updates_triggered += 1;
            self.obs.updates_triggered.inc();
        }
        let pad = self.cfg.dv.advertise_pad;
        // Preparation cost: the advertised table scan, plus padding.
        let basis = if delta {
            dirty.len()
        } else {
            self.nodes[node].table.len()
        };
        let prep = self.cfg.cost_per_route * (basis + pad) as u64;
        self.cpu_add(now, node, prep);
        // Area advertisements: every link of one area class shares the
        // class's base list, built on first use in this fire. A link
        // inside an area joins members of that area only, so `node`'s
        // intra-area links are all in its own area: two classes, indexed
        // by `link_area.is_some()`.
        let mut base_built = [false; 2];
        for li in 0..self.topo.links_of(node).len() {
            let link = self.topo.links_of(node)[li];
            if !self.links[link].up {
                continue;
            }
            self.scratch_peers.clear();
            self.scratch_peers.extend(
                self.topo
                    .link(link)
                    .nodes
                    .iter()
                    .copied()
                    .filter(|&m| m != node),
            );
            let table = &self.nodes[node].table;
            let adv = &mut self.scratch_entries;
            adv.clear();
            match self.areas.as_deref() {
                Some(st) => {
                    let link_area = st.link_area[link];
                    debug_assert!(link_area.is_none() || link_area == st.layout.area_of(node));
                    let class = usize::from(link_area.is_some());
                    let base = &mut self.scratch_area_base[class];
                    if !base_built[class] {
                        table.area_base_into(
                            &st.layout,
                            st.mode,
                            link_area,
                            st.border[node],
                            delta.then_some(dirty.as_slice()),
                            base,
                        );
                        base_built[class] = true;
                    }
                    split_horizon_into(
                        base,
                        &self.scratch_peers,
                        self.cfg.dv.split_horizon,
                        self.cfg.dv.infinity,
                        adv,
                    );
                }
                None if delta => table.advertisement_delta_into(
                    &dirty,
                    &self.scratch_peers,
                    self.cfg.dv.split_horizon,
                    self.cfg.dv.infinity,
                    adv,
                ),
                None => table.advertisement_into(
                    &self.scratch_peers,
                    self.cfg.dv.split_horizon,
                    self.cfg.dv.infinity,
                    adv,
                ),
            }
            // The entry list is owned by the packet, so an allocation is
            // inherent: build in scratch, then allocate at the exact length.
            let mut entries = Vec::with_capacity(adv.len() + pad);
            entries.extend_from_slice(adv);
            // Padding entries model the ~300-route backbone tables; they
            // carry an out-of-range dst and are filtered by receivers (but
            // still cost wire time and CPU).
            for k in 0..pad {
                entries.push(RouteEntry {
                    dst: usize::MAX - k,
                    metric: self.cfg.dv.infinity,
                });
            }
            let size = Packet::routing_size(entries.len());
            let pkt = Packet::new(
                node,
                node, // dst unused for routing broadcast
                size,
                Payload::Routing(RoutingUpdate {
                    origin: node,
                    triggered,
                    entries,
                }),
            );
            self.counters.updates_sent += 1;
            self.obs.updates_sent.inc();
            self.transmit(now, node, link, pkt, None);
        }
        self.scratch_nodes = dirty;
    }

    /// Periodic hello tick: greet every router neighbour and check for
    /// silent ones.
    fn on_hello_timer(&mut self, now: SimTime, node: NodeId) {
        let Some(hello) = self.cfg.dv.hello else {
            return;
        };
        // A crashed router sends nothing and declares nobody dead, but
        // its hello timer keeps ticking silently (below) so the RNG
        // stream and schedule stay deterministic across the outage.
        if !self.is_crashed(node) {
            // Send hellos on every up link (to all router neighbours).
            for li in 0..self.topo.links_of(node).len() {
                let link = self.topo.links_of(node)[li];
                if !self.links[link].up {
                    continue;
                }
                let pkt = Packet::new(node, node, 44, Payload::Hello);
                self.counters.hellos_sent += 1;
                self.transmit(now, node, link, pkt, None);
            }
            // Declare silent neighbours dead. The scratch buffer dodges a
            // Vec per tick; sorting pins down the HashMap's iteration
            // order so the failure sequence is reproducible.
            let dead_after = hello.dead_after();
            let mut silent = std::mem::take(&mut self.scratch_nodes);
            silent.clear();
            silent.extend(
                self.nodes[node]
                    .neighbor_liveness
                    .iter()
                    .filter(|&(_, &(last, alive))| alive && last + dead_after <= now)
                    .map(|(&nb, _)| nb),
            );
            silent.sort_unstable();
            let mut changed = false;
            for &nb in &silent {
                self.nodes[node]
                    .neighbor_liveness
                    .insert(nb, (SimTime::ZERO, false));
                if self.nodes[node].table.fail_via_with(
                    nb,
                    self.cfg.dv.infinity,
                    now,
                    self.cfg.dv.holddown,
                ) {
                    changed = true;
                }
            }
            self.scratch_nodes = silent;
            if changed && self.cfg.dv.triggered_updates {
                self.note_change(now, node);
            }
        }
        // Re-arm with the standard 0.75-1.25x jitter.
        let lo = hello.interval.as_nanos() * 3 / 4;
        let hi = hello.interval.as_nanos() * 5 / 4;
        let next = routesync_rng::dist::UniformDuration::new(
            Duration::from_nanos(lo),
            Duration::from_nanos(hi),
        )
        .sample(&mut self.nodes[node].rng);
        self.engine.schedule(now + next, Ev::HelloTimer { node });
    }

    /// A hello from `from` reached `node`: refresh (or resurrect) the
    /// adjacency.
    fn on_hello(&mut self, now: SimTime, node: NodeId, from: NodeId) {
        let was_alive = self.nodes[node]
            .neighbor_liveness
            .get(&from)
            .map(|&(_, alive)| alive);
        self.nodes[node].neighbor_liveness.insert(from, (now, true));
        if was_alive == Some(false) {
            self.nodes[node].table.install_direct(from);
            if self.cfg.dv.triggered_updates {
                self.note_change(now, node);
            }
        }
    }

    /// Whether `node` currently considers `neighbor` alive (always true
    /// without the hello protocol).
    pub fn neighbor_alive(&self, node: NodeId, neighbor: NodeId) -> bool {
        if self.cfg.dv.hello.is_none() {
            return true;
        }
        self.nodes[node]
            .neighbor_liveness
            .get(&neighbor)
            .is_some_and(|&(_, alive)| alive)
    }

    /// A tiny periodic session keepalive (incremental mode): an empty
    /// routing update — 24 bytes of wire, no route entries, no measurable
    /// CPU at the receiver.
    fn emit_keepalive(&mut self, now: SimTime, node: NodeId) {
        for li in 0..self.topo.links_of(node).len() {
            let link = self.topo.links_of(node)[li];
            if !self.links[link].up {
                continue;
            }
            let pkt = Packet::new(
                node,
                node,
                Packet::routing_size(0),
                Payload::Routing(RoutingUpdate {
                    origin: node,
                    triggered: false,
                    entries: Vec::new(),
                }),
            );
            self.counters.updates_sent += 1;
            self.obs.updates_sent.inc();
            self.transmit(now, node, link, pkt, None);
        }
    }

    fn cpu_add(&mut self, now: SimTime, node: NodeId, cost: Duration) {
        // Fault-plan CPU slowdown: scale the control-plane cost.
        let cost = match self.faults.as_deref() {
            Some(f) if f.slowdown[node] != 1.0 => {
                Duration::from_nanos((cost.as_nanos() as f64 * f.slowdown[node]).round() as u64)
            }
            _ => cost,
        };
        if cost.is_zero() {
            return;
        }
        self.obs.cpu_busy_ns.add(cost.as_nanos());
        self.obs
            .trace
            .record(now.as_nanos(), "netsim.cpu.busy", node as f64);
        let nd = &mut self.nodes[node];
        if nd.cpu_busy && now < nd.cpu_until {
            nd.cpu_until += cost;
        } else {
            nd.cpu_busy = true;
            nd.cpu_until = now + cost;
        }
        // Reserve the release's key now; the router's one live CpuFree
        // re-arms at it if it is queued for an earlier key.
        let seq = self.engine.reserve_seq();
        nd.cpu_free_seq = seq;
        if nd.cpu_armed_seq == 0 {
            nd.cpu_armed_seq = seq;
            self.engine
                .schedule_reserved(nd.cpu_until, seq, Ev::CpuFree { node, seq });
        }
    }

    /// A `CpuFree` popped: one queued before a crash, one a later charge
    /// superseded, or the release of the whole busy period.
    fn on_cpu_free_event(&mut self, now: SimTime, node: NodeId, seq: u64) {
        let nd = &mut self.nodes[node];
        if seq != nd.cpu_armed_seq {
            // Queued before a crash that abandoned it.
            return;
        }
        if seq != nd.cpu_free_seq {
            // A later charge extended the busy period: wait for the
            // release it reserved.
            let (at, seq) = (nd.cpu_until, nd.cpu_free_seq);
            nd.cpu_armed_seq = seq;
            self.engine
                .schedule_reserved(at, seq, Ev::CpuFree { node, seq });
            return;
        }
        nd.cpu_armed_seq = 0;
        debug_assert!(nd.cpu_busy && nd.cpu_until == now);
        self.on_cpu_free(now, node);
    }

    fn on_cpu_free(&mut self, now: SimTime, node: NodeId) {
        self.nodes[node].cpu_busy = false;
        if self.nodes[node].pending_triggered {
            self.nodes[node].pending_triggered = false;
            self.emit_update(now, node, true);
            // The triggered emission re-busied the CPU; timer arming and
            // queue draining happen at the next CpuFree.
            if self.cpu_busy_now(node, now) {
                return;
            }
        }
        if self.nodes[node].arm_when_free {
            self.arm_timer(now, node);
        }
        // Forward everything that waited out the control-plane burst.
        while let Some(pkt) = self.nodes[node].pending_data.pop_front() {
            self.forward(now, node, pkt);
        }
    }

    fn arm_timer(&mut self, now: SimTime, node: NodeId) {
        self.nodes[node].arm_when_free = false;
        if self.cfg.record_timeline {
            self.reset_log.push((now, node));
        }
        let nd = &mut self.nodes[node];
        let interval = nd.jitter.sample(&mut nd.rng);
        let gen = nd.timer_gen.current();
        self.engine
            .schedule(now + interval, Ev::DvTimer { node, gen });
    }

    // ------------------------------------------------------------------
    // Applications
    // ------------------------------------------------------------------

    fn on_app_tick(&mut self, now: SimTime, node: NodeId) {
        if self.is_crashed(node) {
            // A crashed node's application dies with it (the remaining
            // train is simply never sent).
            return;
        }
        let Some(app) = self.nodes[node].app.clone() else {
            return;
        };
        match app {
            App::Ping {
                dst,
                interval,
                count,
                sent,
            } => {
                if sent >= count {
                    return;
                }
                let pkt = Packet::new(
                    node,
                    dst,
                    64,
                    Payload::Ping {
                        seq: sent,
                        sent_ns: now.as_nanos(),
                    },
                );
                self.nodes[node]
                    .ping_stats
                    .note_sent(sent, now.as_secs_f64());
                self.send_from(now, node, pkt);
                self.nodes[node].app = Some(App::Ping {
                    dst,
                    interval,
                    count,
                    sent: sent + 1,
                });
                if sent + 1 < count {
                    self.engine.schedule(now + interval, Ev::AppTick { node });
                }
            }
            App::Cbr {
                dst,
                interval,
                count,
                sent,
            } => {
                if sent >= count {
                    return;
                }
                // ~20 ms of 64 kbit/s PCM plus headers.
                let pkt = Packet::new(node, dst, 320, Payload::Audio { seq: sent });
                self.send_from(now, node, pkt);
                self.nodes[node].app = Some(App::Cbr {
                    dst,
                    interval,
                    count,
                    sent: sent + 1,
                });
                if sent + 1 < count {
                    self.engine.schedule(now + interval, Ev::AppTick { node });
                }
            }
            App::Poisson {
                dst,
                mean_interval,
                until,
            } => {
                if now >= until {
                    return;
                }
                let pkt = Packet::new(node, dst, 512, Payload::Data);
                self.send_from(now, node, pkt);
                let exp = routesync_rng::dist::Exp::new(mean_interval.as_secs_f64());
                let gap = exp.sample(&mut self.nodes[node].rng).max(1e-6);
                self.engine
                    .schedule(now + Duration::from_secs_f64(gap), Ev::AppTick { node });
            }
        }
    }

    // ------------------------------------------------------------------
    // Link failures
    // ------------------------------------------------------------------

    fn on_link_down(&mut self, now: SimTime, link: LinkId) {
        if !self.links[link].up {
            return;
        }
        self.links[link].up = false;
        for slot in &mut self.links[link].slots {
            self.counters.drop_link_down += slot.queue.len() as u64;
            self.obs.packets_dropped.add(slot.queue.len() as u64);
            slot.queue.clear();
        }
        if self.cfg.dv.hello.is_some() {
            // Failure detection is the hello protocol's job.
            return;
        }
        let attached = self.topo.link(link).nodes.len();
        for ri in 0..attached {
            let r = self.topo.link(link).nodes[ri];
            if self.topo.kind(r) != NodeKind::Router || self.is_crashed(r) {
                continue;
            }
            let mut changed = false;
            for mi in 0..attached {
                let m = self.topo.link(link).nodes[mi];
                if m != r
                    && self.nodes[r].table.fail_via_with(
                        m,
                        self.cfg.dv.infinity,
                        now,
                        self.cfg.dv.holddown,
                    )
                {
                    changed = true;
                }
            }
            if changed && self.cfg.dv.triggered_updates {
                self.note_change(now, r);
            }
        }
    }

    fn on_link_up(&mut self, now: SimTime, link: LinkId) {
        if self.links[link].up {
            return;
        }
        self.links[link].up = true;
        if self.cfg.dv.hello.is_some() {
            // Adjacencies come back when hellos resume.
            return;
        }
        let attached = self.topo.link(link).nodes.len();
        for ri in 0..attached {
            let r = self.topo.link(link).nodes[ri];
            if self.topo.kind(r) != NodeKind::Router || self.is_crashed(r) {
                continue;
            }
            for mi in 0..attached {
                let m = self.topo.link(link).nodes[mi];
                if m != r && !self.is_crashed(m) {
                    self.nodes[r].table.install_direct(m);
                }
            }
            if self.cfg.dv.triggered_updates {
                self.note_change(now, r);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Log a fault application and bump the injection counters.
    fn record_fault(&mut self, at: SimTime, kind: FaultKind, subject: usize) {
        self.counters.faults_injected += 1;
        self.obs.faults_injected.inc();
        if let Some(f) = self.faults.as_mut() {
            f.log.push(FaultRecord { at, kind, subject });
        }
    }

    /// A fault-plan link transition: like the raw `LinkDown`/`LinkUp`
    /// events but logged and counted. No-op transitions (downing a link
    /// that is already down) are not logged, which keeps the fault log a
    /// faithful record of what actually changed.
    fn on_fault_link(&mut self, now: SimTime, link: LinkId, up: bool) {
        if self.links[link].up == up {
            return;
        }
        self.record_fault(
            now,
            if up {
                FaultKind::LinkUp
            } else {
                FaultKind::LinkDown
            },
            link,
        );
        if up {
            self.on_link_up(now, link);
        } else {
            self.on_link_down(now, link);
        }
    }

    /// One transition of a stochastic link flap: apply it, then draw the
    /// dwell time until the opposite transition from the flap's own RNG
    /// stream.
    fn on_link_flap(&mut self, now: SimTime, flap: usize, down: bool) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        let (prof, rng) = &mut f.link_flaps[flap];
        let link = prof.link;
        let dwell = exp_duration(if down { prof.mttr } else { prof.mtbf }, rng);
        self.engine
            .schedule(now + dwell, Ev::LinkFlap { flap, down: !down });
        self.on_fault_link(now, link, !down);
    }

    /// One transition of a stochastic router flap (crash or reboot).
    fn on_router_flap(&mut self, now: SimTime, flap: usize, down: bool) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        let (prof, rng) = &mut f.router_flaps[flap];
        let node = prof.node;
        let dwell = exp_duration(if down { prof.mttr } else { prof.mtbf }, rng);
        self.engine
            .schedule(now + dwell, Ev::RouterFlap { flap, down: !down });
        if down {
            self.on_router_crash(now, node);
        } else {
            self.on_router_reboot(now, node);
        }
    }

    /// Crash a router: wipe its routing table, cancel its timers and CPU,
    /// and drop everything it was holding. While crashed, every packet
    /// addressed to it drops and its hello/app ticks are suppressed (the
    /// hello *timer* keeps ticking silently so the reboot resumes the
    /// same deterministic schedule).
    fn on_router_crash(&mut self, now: SimTime, node: NodeId) {
        if self.topo.kind(node) != NodeKind::Router {
            return;
        }
        {
            let Some(f) = self.faults.as_mut() else {
                return;
            };
            if f.crashed[node] {
                return;
            }
            f.crashed[node] = true;
        }
        self.record_fault(now, FaultKind::RouterCrash, node);
        let nd = &mut self.nodes[node];
        // Invalidate every in-flight DvTimer for this node — the same
        // generation-token pattern that cancels stale timers — and the
        // queued CpuFree, whose sequence number no longer matches.
        nd.timer_gen.bump();
        nd.cpu_free_seq = 0;
        nd.cpu_armed_seq = 0;
        nd.cpu_busy = false;
        nd.arm_when_free = false;
        nd.pending_triggered = false;
        let dropped = nd.pending_data.len() as u64;
        nd.pending_data.clear();
        nd.table.reset();
        nd.sent_initial_full = false;
        self.counters.drop_router_down += dropped;
        self.obs.packets_dropped.add(dropped);
        if self.cfg.dv.hello.is_none() {
            // Oracle failure detection (mirrors `on_link_down`): router
            // neighbours poison routes through the dead router at once.
            // With hellos, neighbours time the adjacency out instead.
            let mut nbrs = std::mem::take(&mut self.scratch_nodes);
            nbrs.clear();
            nbrs.extend(
                self.topo
                    .neighbors_iter(node)
                    .filter(|&(m, _)| self.topo.kind(m) == NodeKind::Router)
                    .map(|(m, _)| m),
            );
            for &m in &nbrs {
                if self.is_crashed(m) {
                    continue;
                }
                let changed = self.nodes[m].table.fail_via_with(
                    node,
                    self.cfg.dv.infinity,
                    now,
                    self.cfg.dv.holddown,
                );
                if changed && self.cfg.dv.triggered_updates {
                    self.note_change(now, m);
                }
            }
            self.scratch_nodes = nbrs;
        }
    }

    /// Reboot a crashed router: cold-start its table with only the
    /// self-route plus live direct links, announce itself with a
    /// triggered update (the Section 3.1 storm-injection path), and
    /// restart its periodic timer at a fresh phase.
    fn on_router_reboot(&mut self, now: SimTime, node: NodeId) {
        if self.topo.kind(node) != NodeKind::Router {
            return;
        }
        {
            let Some(f) = self.faults.as_mut() else {
                return;
            };
            if !f.crashed[node] {
                return;
            }
            f.crashed[node] = false;
        }
        self.record_fault(now, FaultKind::RouterReboot, node);
        self.counters.reboots += 1;
        self.obs.faults_reboots.inc();
        let mut nbrs = std::mem::take(&mut self.scratch_nodes);
        nbrs.clear();
        nbrs.extend(
            self.topo
                .neighbors_iter(node)
                .filter(|&(_, l)| self.links[l].up)
                .map(|(m, _)| m),
        );
        self.nodes[node].table.reset();
        for &m in &nbrs {
            self.nodes[node].table.install_direct(m);
        }
        if self.cfg.dv.hello.is_some() {
            // Presume neighbours alive from the reboot instant, exactly
            // like the initial build.
            self.nodes[node].neighbor_liveness.clear();
            for &m in &nbrs {
                if self.topo.kind(m) == NodeKind::Router {
                    self.nodes[node].neighbor_liveness.insert(m, (now, true));
                }
            }
        }
        self.nodes[node].sent_initial_full = false;
        // Cold-start announcement: the reborn table storms out through
        // the existing triggered-update machinery.
        if self.cfg.dv.triggered_updates {
            self.note_change(now, node);
        }
        // Restart the periodic timer at a phase set by the reboot time —
        // the perturbation whose re-absorption the resync experiments
        // measure.
        self.arm_timer(now, node);
        if self.cfg.dv.hello.is_none() {
            // Oracle mode: neighbours resurrect their direct route and
            // propagate the good news.
            for &m in &nbrs {
                if self.topo.kind(m) != NodeKind::Router || self.is_crashed(m) {
                    continue;
                }
                self.nodes[m].table.install_direct(node);
                if self.cfg.dv.triggered_updates {
                    self.note_change(now, m);
                }
            }
        }
        self.scratch_nodes = nbrs;
    }
}

/// Exponentially distributed duration with the given mean, floored at
/// 1 ms so back-to-back flap transitions can never collapse onto one
/// instant.
fn exp_duration(mean: Duration, rng: &mut MinStd) -> Duration {
    let secs = routesync_rng::dist::Exp::new(mean.as_secs_f64()).sample(rng);
    Duration::from_secs_f64(secs.max(1e-3))
}

/// Shortest-path (hop count) routes for a topology, computed once and
/// installable on any number of simulators over the same topology — see
/// [`NetSim::with_routes`] and [`run_many`]. Hosts can terminate paths but
/// never relay.
#[derive(Debug, Clone)]
pub struct PrecomputedRoutes {
    /// `(router, dst, metric, next_hop)` install tuples.
    entries: Vec<(NodeId, NodeId, u32, NodeId)>,
}

impl PrecomputedRoutes {
    /// Run the per-destination BFS over `topo` (buffers reused across
    /// destinations).
    pub fn compute(topo: &Topology) -> Self {
        let n = topo.node_count();
        let routers = topo.routers();
        let mut entries = Vec::new();
        let mut dist = vec![u32::MAX; n];
        let mut next_hop = vec![usize::MAX; n];
        let mut queue = VecDeque::with_capacity(n);
        for dst in 0..n {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            next_hop.iter_mut().for_each(|h| *h = usize::MAX);
            queue.clear();
            // BFS from the destination; expand only through routers.
            dist[dst] = 0;
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                if u != dst && topo.kind(u) != NodeKind::Router {
                    continue; // hosts don't relay
                }
                for (v, _) in topo.neighbors_iter(u) {
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        next_hop[v] = u;
                        queue.push_back(v);
                    }
                }
            }
            for &r in &routers {
                if r != dst && dist[r] != u32::MAX {
                    entries.push((r, dst, dist[r], next_hop[r]));
                }
            }
        }
        PrecomputedRoutes { entries }
    }
}

/// Run one simulation per seed, in parallel, amortizing the per-run setup:
/// the shortest-path BFS runs once for the whole ensemble and the topology
/// is cloned (not rebuilt) per run. `threads ≤ 1` runs serially; any
/// thread count produces the results in seed order, bit-identical to the
/// serial run (see `routesync-exec`).
///
/// `build_and_run` gets a fresh simulator plus its seed, attaches traffic,
/// runs it, and returns whatever measurement the caller wants.
pub fn run_many<R: Send>(
    topo: &Topology,
    cfg: RouterConfig,
    seeds: &[u64],
    threads: usize,
    build_and_run: impl Fn(NetSim, u64) -> R + Sync,
) -> Vec<R> {
    let routes = if cfg.prepopulate {
        Some(PrecomputedRoutes::compute(topo))
    } else {
        None
    };
    let routes = &routes;
    routesync_exec::run_many(
        seeds,
        Some(threads),
        || (),
        move |(), seed| {
            let sim = match routes {
                Some(r) => NetSim::with_routes(topo.clone(), cfg, seed, r),
                None => NetSim::new(topo.clone(), cfg, seed),
            };
            build_and_run(sim, seed)
        },
    )
}

#[cfg(test)]
mod ensemble_tests {
    use super::*;
    use crate::dv::DvConfig;

    fn chain() -> Topology {
        let mut t = Topology::new();
        let a = t.add_host("a");
        let r0 = t.add_router("r0");
        let r1 = t.add_router("r1");
        let b = t.add_host("b");
        t.add_link(a, r0, Duration::from_millis(1), 10_000_000, 50);
        t.add_link(r0, r1, Duration::from_millis(10), 1_544_000, 50);
        t.add_link(r1, b, Duration::from_millis(1), 10_000_000, 50);
        t
    }

    fn measure(mut sim: NetSim, _seed: u64) -> (Counters, usize) {
        sim.add_ping(
            0,
            3,
            Duration::from_secs_f64(1.01),
            20,
            SimTime::from_secs(1),
        );
        sim.run_until(SimTime::from_secs(60));
        (sim.counters().clone(), sim.ping_stats(0).lost())
    }

    #[test]
    fn run_many_matches_fresh_sims_at_any_thread_count() {
        let topo = chain();
        let cfg = RouterConfig::new(DvConfig::rip());
        let seeds: Vec<u64> = (0..6).collect();
        // Reference: a fresh simulator per seed, no sharing at all.
        let fresh: Vec<(Counters, usize)> = seeds
            .iter()
            .map(|&s| measure(NetSim::new(topo.clone(), cfg, s), s))
            .collect();
        for threads in [1, 2, 4] {
            let got = run_many(&topo, cfg, &seeds, threads, measure);
            assert_eq!(got, fresh, "threads = {threads}");
        }
    }

    #[test]
    fn precomputed_routes_match_the_builtin_bfs() {
        let topo = chain();
        let cfg = RouterConfig::new(DvConfig::rip());
        let routes = PrecomputedRoutes::compute(&topo);
        let plain = NetSim::new(topo.clone(), cfg, 9);
        let shared = NetSim::with_routes(topo, cfg, 9, &routes);
        for r in [1usize, 2] {
            for dst in 0..4 {
                assert_eq!(
                    plain.table(r).metric(dst),
                    shared.table(r).metric(dst),
                    "router {r} dst {dst}"
                );
            }
        }
    }
}
