//! The modeled router↔shard transport: lossy links, deterministic
//! retransmit with dedup, and straggler hedging.
//!
//! Without this controller the router→shard hop is a perfect lossless
//! teleport: a fragment becomes deliverable at its `release` instant and
//! the shard simply sees it. The controller runs when the [`FaultPlan`]
//! declares a link window or hedging is on, and then the hop is a *modeled
//! datagram link* degraded by the [`FaultPlan::links`] windows:
//! every send can be dropped, delayed (fixed plus per-entry serialization),
//! duplicated, or reordered, and the router reacts the way a real RPC layer
//! does — retransmit on an unacknowledged timeout with exponential backoff
//! (a constant [`RetryPolicy`]), bounded attempts, and receiver-side dedup
//! by attempt identity so retransmissions are **exactly-once in effect**.
//! The retransmit schedule, the draw seed and the hedge age floor are fixed
//! constants, tabled in `docs/ARCHITECTURE.md`, "Fixed controller
//! constants".
//!
//! # Determinism contract
//!
//! Every random decision is a pure function of
//! `(LINK_SEED, query_index, shard, attempt, stream)` through SplitMix64 — no
//! RNG state threads through execution — so a fragment's retransmit chain
//! is a pure function of the fragment. The window loop resolves the chains
//! of each routing as it hands it off — a routed window, or what a front
//! door pass admitted: every fragment either carries its effective delivery
//! instant (the earliest surviving copy) as its release, or is lost and
//! rejects its query. Stepped and threaded execution route identical
//! windows, so they stay bit-identical by construction; with no link
//! windows the chains are the identity function and the run is
//! bit-identical to the runtime without the transport.
//!
//! # Map changes in flight
//!
//! The map decides only where a fragment is *sent*. A fragment whose
//! delivery lands after an epoch or an evacuation moved one of its buckets
//! is served where it lands, by the shard it was sent to; the next epoch
//! sees that load through the shard's bucket depths. A delivery that lands
//! inside an outage of its shard is lost to it, and failover re-delivers
//! it from that instant ([`RuntimeConfig::failover`](crate::RuntimeConfig::failover)).
//! A hedge race follows its fragments through every move: it is settled
//! per fragment id, and a fragment finishes when its last part does,
//! wherever that part ran.
//!
//! # The ack model
//!
//! A chain sends attempt 0 at the fragment's release and escalates on the
//! retransmit schedule while no acknowledgement has arrived by the
//! next send instant. Each attempt's *data* leg crosses the `ToShard` link
//! (drop / delay / duplicate / reorder draws); each received attempt is
//! acknowledged over the `ToRouter` link (drop and fixed-delay only — acks
//! carry no entries and are too small to meaningfully reorder). The
//! receiver's effect happens at the **earliest** data arrival; every other
//! arrival — later retransmissions and network duplicates alike — is
//! suppressed by attempt-identity dedup. A dropped *ack* therefore costs
//! spurious retransmissions but never duplicated work, and a chain is
//! rejected only when **no** attempt's data ever arrived.
//!
//! # Straggler hedging
//!
//! With a non-zero [`HedgeConfig::max_hedges`] a hedge handler joins the
//! window loop, and its checks are barriers. At a check `t` it reads every
//! fragment completion the pool recorded by `t` (each shard's running
//! clock, as in the canonical merge) into per-class response samples, then
//! re-issues every outstanding fragment that lags its class — outstanding
//! longer than `latency_multiplier ×` the class's response quantile,
//! floored at a fixed 500 ms — to the least-loaded live shard *the query
//! was never handed to*. A query's class is the one every report books it under: the
//! front door's thresholds when the door is on, the defaults otherwise.
//! Ages and responses both count from the hand-off: a routed fragment's
//! arrival, or the pass that admitted a door-held query. The
//! next check is the earliest instant an outstanding fragment falls due,
//! so the hedges before any instant depend only on the arrivals before it:
//! a threshold comes from the responses seen so far, never from the run's
//! future. The copy, a fragment with its own id, races the original;
//! whichever finishes first wins and the loser is suppressed exactly like a
//! network duplicate, so hedging trades duplicate *work* for tail latency
//! without ever double-counting a query.

use std::collections::{BTreeSet, HashMap, HashSet};

use liferaft_catalog::hash::{hash4, unit_f64};
use liferaft_catalog::Catalog;
use liferaft_query::{FragmentId, QueryId};
use liferaft_sim::LinkDirection;
use liferaft_storage::{SimDuration, SimTime};
use liferaft_telemetry::{Event, EventKind};

use crate::admission::{FrontDoorConfig, QueryClass};
use crate::config::FaultPlan;
use crate::ledger::{Completion, RejectedQuery};
use crate::retry::RetryPolicy;
use crate::router::{Fragment, Routing};
use crate::worker::ShardWorker;

/// Draw-stream tags: one independent SplitMix64 stream per decision kind,
/// all keyed by `(LINK_SEED, query_index, shard·attempt)`.
const STREAM_DATA_DROP: u64 = 0x7d01;
const STREAM_DATA_REORDER: u64 = 0x7d02;
const STREAM_DATA_DUP: u64 = 0x7d03;
const STREAM_ACK_DROP: u64 = 0x7d04;

/// Retransmission of an unacknowledged send: 1 s after the send, then
/// 500 ms·2^(k−1) after retransmission k, and the chain gives up when the
/// 4th retransmission's deadline passes unacknowledged.
const RETRANSMIT: RetryPolicy =
    RetryPolicy::new(SimDuration::from_secs(1), SimDuration::from_millis(500), 4);

/// Seed of the per-message draws: every decision is keyed by
/// `(LINK_SEED, query_index, shard, attempt, stream)`.
const LINK_SEED: u64 = 0x11fe_4af7;

/// Floor on the hedge threshold — no fragment younger than this hedges,
/// however fast its class looks — and the spacing of re-checks while a
/// class has fewer than `min_samples` responses.
const HEDGE_MIN_AGE: SimDuration = SimDuration::from_millis(500);

/// Straggler-hedging policy: when a fragment's outstanding age exceeds a
/// multiple of its class's observed response quantile, issue a duplicate to
/// another shard and let the first completion win. Hedging runs when its
/// budget allows a hedge (`max_hedges > 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// A fragment hedges once its age exceeds `latency_multiplier ×` the
    /// observed class quantile (≥ 1.0).
    pub latency_multiplier: f64,
    /// Which response quantile anchors the threshold (in `(0, 1)`).
    pub quantile: f64,
    /// Observed responses a class needs before its quantile is trusted.
    pub min_samples: usize,
    /// Budget on hedge copies per run; zero switches hedging off.
    pub max_hedges: usize,
}

impl HedgeConfig {
    /// Hedging off (the duplicate-free default): a zero budget.
    pub fn off() -> Self {
        HedgeConfig {
            max_hedges: 0,
            ..Self::p90()
        }
    }

    /// Hedge fragments lagging 2× the observed p90 of their class, up to
    /// 256 copies per run.
    pub fn p90() -> Self {
        HedgeConfig {
            latency_multiplier: 2.0,
            quantile: 0.9,
            min_samples: 10,
            max_hedges: 256,
        }
    }

    /// Validates invariants.
    pub fn validate(&self) {
        assert!(
            self.latency_multiplier.is_finite() && self.latency_multiplier >= 1.0,
            "a hedge multiplier below 1.0 would hedge faster-than-typical fragments"
        );
        assert!(
            self.quantile > 0.0 && self.quantile < 1.0,
            "hedge quantile {} outside (0, 1)",
            self.quantile
        );
        assert!(
            self.min_samples >= 1,
            "hedging needs at least one observed response"
        );
    }
}

/// The transport controller's knob: the hedging policy. The transport runs
/// when the [`FaultPlan`] declares a link window or hedging is on; the
/// per-message draws are keyed by a fixed seed (`LINK_SEED`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportConfig {
    /// Straggler hedging (off by default).
    pub hedge: HedgeConfig,
}

impl TransportConfig {
    /// Reliable delivery over whatever link windows the fault plan
    /// declares — retransmit + dedup, no hedging (the default).
    pub fn reliable() -> Self {
        TransportConfig {
            hedge: HedgeConfig::off(),
        }
    }

    /// Reliable delivery plus p90 straggler hedging.
    pub fn hedged() -> Self {
        TransportConfig {
            hedge: HedgeConfig::p90(),
        }
    }

    /// Validates invariants.
    pub fn validate(&self) {
        self.hedge.validate();
    }
}

/// One dropped message: a data send that never reached its shard
/// (`ToShard`) or an acknowledgement that never reached the router
/// (`ToRouter`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDrop {
    /// When the message was lost (send instant for data, delivery instant
    /// of the acked data for acks).
    pub at: SimTime,
    /// Trace index of the fragment's query.
    pub query_index: usize,
    /// The shard whose link ate the message.
    pub shard: u32,
    /// Which direction of the hop dropped it.
    pub direction: LinkDirection,
    /// 0-based attempt the message belonged to.
    pub attempt: u32,
}

/// One retransmission: the router re-sent a fragment because no ack had
/// arrived by the attempt's deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retransmit {
    /// Send instant.
    pub at: SimTime,
    /// Trace index of the fragment's query.
    pub query_index: usize,
    /// Destination shard.
    pub shard: u32,
    /// 1-based retransmission attempt (attempt 0 is the original send).
    pub attempt: u32,
}

/// One receiver-side dedup: a data copy (late retransmission or network
/// duplicate) arrived after the fragment had already been delivered and was
/// discarded by attempt identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuppressedDuplicate {
    /// Arrival instant of the discarded copy.
    pub at: SimTime,
    /// Trace index of the fragment's query.
    pub query_index: usize,
    /// The receiving shard.
    pub shard: u32,
    /// Attempt the discarded copy carried.
    pub attempt: u32,
}

/// One hedge: a straggling fragment re-issued to another shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeDecision {
    /// The hedge check (a window-loop barrier) at which the fragment was
    /// due: at or after its hand-off (arrival, or door admission) plus its
    /// class threshold.
    pub at: SimTime,
    /// Trace index of the straggling query.
    pub query_index: usize,
    /// The shard the original fragment is lagging on.
    pub from: u32,
    /// The least-loaded live shard the query was never handed to, which
    /// receives the copy.
    pub to: u32,
    /// (object × bucket) assignments the copy carries.
    pub entries: u64,
    /// When the copy reaches `to` (hedge instant plus the target link's
    /// delivery latency).
    pub delivered_at: SimTime,
}

/// The transport decision log of one run: every drop, retransmission and
/// suppression its hand-offs resolved, and every hedge its checks
/// issued — identical across execution modes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransportLog {
    /// Lost messages, in `(at, query, shard)` order.
    pub drops: Vec<LinkDrop>,
    /// Retransmissions, in `(at, query, shard)` order.
    pub retransmits: Vec<Retransmit>,
    /// Receiver-side dedups, in `(at, query, shard)` order.
    pub suppressed: Vec<SuppressedDuplicate>,
    /// Hedge decisions, in decision order.
    pub hedges: Vec<HedgeDecision>,
}

impl TransportLog {
    /// True when the transport changed nothing: no message was dropped,
    /// re-sent, suppressed, or hedged.
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty()
            && self.retransmits.is_empty()
            && self.suppressed.is_empty()
            && self.hedges.is_empty()
    }

    /// Renders the log as router events: drops, then retransmissions, then
    /// suppressed duplicates, then hedges.
    pub(crate) fn render(&self, out: &mut Vec<Event>) {
        for d in &self.drops {
            out.push(Event::router(
                d.at,
                EventKind::FragmentDropped {
                    query: d.query_index as u64,
                    link: d.shard,
                    to_shard: matches!(d.direction, LinkDirection::ToShard),
                    attempt: d.attempt,
                },
            ));
        }
        for r in &self.retransmits {
            out.push(Event::router(
                r.at,
                EventKind::FragmentRetransmitted {
                    query: r.query_index as u64,
                    to: r.shard,
                    attempt: r.attempt,
                },
            ));
        }
        for s in &self.suppressed {
            out.push(Event::router(
                s.at,
                EventKind::DuplicateSuppressed {
                    query: s.query_index as u64,
                    to: s.shard,
                    attempt: s.attempt,
                },
            ));
        }
        for h in &self.hedges {
            out.push(Event::router(
                h.at,
                EventKind::FragmentHedged {
                    query: h.query_index as u64,
                    from: h.from,
                    to: h.to,
                    entries: h.entries,
                },
            ));
        }
    }
}

/// What the transport path did and how the run ended: the decision log,
/// the rejected remainder, and the hedge race outcome. The per-class books
/// are the run's, [`RuntimeReport::per_class`](crate::RuntimeReport::per_class).
#[derive(Debug, Clone, PartialEq)]
pub struct TransportReport {
    /// The decision log.
    pub log: TransportLog,
    /// Queries rejected because a fragment exhausted its retransmission
    /// budget with no copy delivered, in trace order.
    pub rejected: Vec<RejectedQuery>,
    /// Hedge copies that beat their original fragment.
    pub hedge_wins: u64,
    /// Hedge copies that lost the race (the duplicate work was wasted).
    pub hedge_losses: u64,
}

impl TransportReport {
    /// Total queries the transport rejected.
    pub fn total_rejected(&self) -> usize {
        self.rejected.len()
    }
}

/// The transport's books of one run: the decision log and the per-query
/// rejections, filled window by window.
#[derive(Debug, Clone)]
pub(crate) struct DeliveryPlan {
    /// Drops / retransmits / suppressions (hedges join at [`seal`](Self::seal)).
    pub log: TransportLog,
    /// Per trace index: `Some` when a fragment of the query exhausted its
    /// budget undelivered — when the last losing chain gave up, and the
    /// retransmissions the worst one spent.
    pub rejected: Vec<Option<(SimTime, u32)>>,
}

impl DeliveryPlan {
    /// Empty books over a trace of `trace_len` queries.
    pub(crate) fn new(trace_len: usize) -> Self {
        DeliveryPlan {
            log: TransportLog::default(),
            rejected: vec![None; trace_len],
        }
    }

    /// Resolves the retransmit chain of every fragment in one routed window
    /// and rewrites the window into what the shards receive: a surviving
    /// fragment carries its effective delivery instant as `release` (the
    /// worker merges it into its stream by release), a lost one leaves the
    /// window and marks its query rejected.
    ///
    /// With no link-fault windows every chain is the identity — the window
    /// is left untouched and the log stays empty, which is what makes a
    /// hedging run's transport bit-identical to the static hop.
    pub(crate) fn deliver(&mut self, faults: &FaultPlan, routing: &mut Routing) {
        for (shard, fragments) in routing.shards.iter_mut().enumerate() {
            fragments.retain_mut(|f| {
                let (q, shard) = (f.query_index, shard as u32);
                let outcome = plan_chain(faults, q, shard, f.release, f.assignments, &mut self.log);
                if let Some(at) = outcome.delivered_at {
                    f.release = at;
                    return true;
                }
                let (at, spent) = self.rejected[q].unwrap_or_default();
                self.rejected[q] =
                    Some((at.max(outcome.gave_up_at), spent.max(outcome.retransmits)));
                false
            });
        }
    }

    /// Closes the books: the log in canonical order (time, then fragment
    /// identity) with `hedges` in decision order.
    pub(crate) fn seal(mut self, hedges: Vec<HedgeDecision>) -> Self {
        let log = &mut self.log;
        log.drops
            .sort_unstable_by_key(|d| (d.at, d.query_index, d.shard, d.direction as u8, d.attempt));
        log.retransmits
            .sort_unstable_by_key(|r| (r.at, r.query_index, r.shard, r.attempt));
        log.suppressed
            .sort_unstable_by_key(|s| (s.at, s.query_index, s.shard, s.attempt));
        log.hedges = hedges;
        self
    }

    /// The queries the plan rejected, in trace order: `(trace index, when,
    /// retransmissions spent)`.
    pub(crate) fn rejections(&self) -> impl Iterator<Item = (usize, SimTime, u32)> + '_ {
        let undelivered = |(i, r): (usize, &Option<_>)| r.map(|(at, n)| (i, at, n));
        self.rejected.iter().enumerate().filter_map(undelivered)
    }
}

/// One chain's resolution: the effective delivery instant (earliest
/// surviving copy), or `None` with the give-up instant when every attempt's
/// data was lost.
struct ChainOutcome {
    delivered_at: Option<SimTime>,
    gave_up_at: SimTime,
    retransmits: u32,
}

/// Resolves one fragment's retransmit chain against the link windows —
/// a pure function of `(faults, query_index, shard, release, entries)`.
fn plan_chain(
    faults: &FaultPlan,
    query_index: usize,
    shard: u32,
    release: SimTime,
    entries: u64,
    log: &mut TransportLog,
) -> ChainOutcome {
    let draw = |attempt: u32, stream: u64| -> f64 {
        unit_f64(hash4(
            LINK_SEED,
            query_index as u64,
            ((shard as u64) << 32) | attempt as u64,
            stream,
        ))
    };
    // All data arrivals (including network duplicates), then dedup below.
    let mut arrivals: Vec<(SimTime, u32)> = Vec::new();
    let mut first_ack: Option<SimTime> = None;
    let mut send_at = release;
    let mut attempt = 0u32;
    let gave_up_at = loop {
        if first_ack.is_some_and(|a| a <= send_at) {
            break send_at; // acked in time: the chain closed cleanly
        }
        if attempt > RETRANSMIT.max_attempts {
            break send_at; // budget exhausted at this expired deadline
        }
        if attempt > 0 {
            log.retransmits.push(Retransmit {
                at: send_at,
                query_index,
                shard,
                attempt,
            });
        }
        // Data leg: router → shard at the send instant's window.
        let data = faults.link_at(shard, LinkDirection::ToShard, send_at);
        let dropped = data.is_some_and(|w| draw(attempt, STREAM_DATA_DROP) < w.drop_prob);
        if dropped {
            log.drops.push(LinkDrop {
                at: send_at,
                query_index,
                shard,
                direction: LinkDirection::ToShard,
                attempt,
            });
        } else {
            let mut arrive = send_at;
            if let Some(w) = data {
                arrive = arrive + w.delay + w.delay_per_entry.times(entries);
                if draw(attempt, STREAM_DATA_REORDER) < w.reorder_prob {
                    arrive += w.reorder_delay;
                }
                if draw(attempt, STREAM_DATA_DUP) < w.dup_prob {
                    // The network minted an extra copy: same identity, same
                    // path latency — always discarded by dedup.
                    arrivals.push((arrive, attempt));
                }
            }
            arrivals.push((arrive, attempt));
            // Ack leg: shard → router at the delivery instant's window. One
            // ack per received attempt identity (duplicates share it).
            let ack = faults.link_at(shard, LinkDirection::ToRouter, arrive);
            let ack_dropped = ack.is_some_and(|w| draw(attempt, STREAM_ACK_DROP) < w.drop_prob);
            if ack_dropped {
                log.drops.push(LinkDrop {
                    at: arrive,
                    query_index,
                    shard,
                    direction: LinkDirection::ToRouter,
                    attempt,
                });
            } else {
                let ack_at = arrive + ack.map_or(SimDuration::ZERO, |w| w.delay);
                first_ack = Some(first_ack.map_or(ack_at, |a| a.min(ack_at)));
            }
        }
        send_at = RETRANSMIT.deadline_after(send_at, attempt);
        attempt += 1;
    };
    // Receiver dedup: the earliest arrival (ties to the lowest attempt) is
    // the effect; every other copy is suppressed by attempt identity.
    arrivals.sort_unstable();
    let delivered_at = arrivals.first().map(|&(t, _)| t);
    for &(at, dup_attempt) in arrivals.iter().skip(1) {
        log.suppressed.push(SuppressedDuplicate {
            at,
            query_index,
            shard,
            attempt: dup_attempt,
        });
    }
    ChainOutcome {
        delivered_at,
        gave_up_at,
        retransmits: attempt.saturating_sub(1).min(RETRANSMIT.max_attempts),
    }
}

/// The hedge handler of the window loop (see the module docs, "Straggler
/// hedging"). A fragment is *outstanding* while it bears work, its query
/// was not rejected, it was not hedged, and no check has seen its last part
/// complete — on whichever shards its parts ran.
pub(crate) struct Hedges {
    cfg: HedgeConfig,
    /// The run's front door, whose [`run_class`](FrontDoorConfig::run_class)
    /// classifies each query as the reports do.
    door: FrontDoorConfig,
    /// Per routed query: its class and the instant the router handed it off.
    class_of: HashMap<QueryId, (QueryClass, SimTime)>,
    /// The shards each query's fragments were handed or hedged to: a copy
    /// goes to none of them.
    hosts: HashSet<(QueryId, u32)>,
    /// Per class: outstanding fragments in `(handed off, query, shard)`
    /// order.
    outstanding: [BTreeSet<(SimTime, QueryId, u32, FragmentId)>; 3],
    /// Per outstanding fragment: its class, its key in `outstanding`, and
    /// the assignments no check has seen complete.
    open: HashMap<FragmentId, Open>,
    /// Per class: responses (s) of the work-bearing completions read, sorted.
    samples: [Vec<f64>; 3],
    /// Per shard: completions read so far, and the shard's running clock.
    read: Vec<(usize, SimTime)>,
    /// The latest check.
    last: SimTime,
    /// The hedges issued, in decision order.
    pub(crate) log: Vec<HedgeDecision>,
    /// Per hedge, in `log` order: the id of the raced original and of its
    /// copy.
    pub(crate) races: Vec<(FragmentId, FragmentId)>,
}

/// One outstanding fragment's books.
struct Open {
    class: usize,
    key: (SimTime, QueryId, u32, FragmentId),
    left: u64,
}

impl Hedges {
    pub(crate) fn new(cfg: HedgeConfig, door: FrontDoorConfig, n_shards: usize) -> Self {
        Hedges {
            cfg,
            door,
            class_of: HashMap::new(),
            hosts: HashSet::new(),
            outstanding: Default::default(),
            open: HashMap::new(),
            samples: Default::default(),
            read: vec![(0, SimTime::ZERO); n_shards],
            last: SimTime::ZERO,
            log: Vec::new(),
            races: Vec::new(),
        }
    }

    /// Classifies every query of one routing handed off at `at` (a routed
    /// window: no later than its first arrival; a door pass: its instant),
    /// after transport resolved it and before failover takes what lands in
    /// an outage: its responses count from the later of its arrival and
    /// `at`, so the time a query waited at the door never counts as lagging
    /// at a shard. `assignments_of` covers the trace routed so far.
    pub(crate) fn classify(&mut self, routing: &Routing, at: SimTime, assignments_of: &[u64]) {
        for f in routing.shards.iter().flatten() {
            let class = self.door.run_class(assignments_of[f.query_index]);
            self.class_of.insert(f.query, (class, f.arrival.max(at)));
        }
    }

    /// Tracks what the workers take of a [classified](Self::classify)
    /// routing: every work-bearing fragment of a query not in `rejected` is
    /// outstanding from its query's hand-off.
    pub(crate) fn track(&mut self, routing: &Routing, rejected: &[Option<(SimTime, u32)>]) {
        for (shard, fragments) in routing.shards.iter().enumerate() {
            for f in fragments {
                let (class, handed) = self.class_of[&f.query];
                self.hosts.insert((f.query, shard as u32));
                if f.assignments > 0 && rejected[f.query_index].is_none() {
                    let (class, key) = (class.rank(), (handed, f.query, shard as u32, f.id));
                    self.outstanding[class].insert(key);
                    let left = f.assignments;
                    self.open.insert(f.id, Open { class, key, left });
                }
            }
        }
    }

    /// When an outstanding fragment of `class` handed off at `handed` falls
    /// due: `latency_multiplier ×` the class's response quantile (floored
    /// at [`HEDGE_MIN_AGE`]) after its hand-off — or, while the class has
    /// fewer than `min_samples` responses and so hedges nothing, a re-check
    /// [`HEDGE_MIN_AGE`] after the later of its hand-off and the latest check.
    fn due(&self, class: QueryClass, handed: SimTime) -> SimTime {
        let s = &self.samples[class.rank()];
        if s.len() < self.cfg.min_samples {
            return handed.max(self.last) + HEDGE_MIN_AGE;
        }
        let k = ((s.len() - 1) as f64 * self.cfg.quantile).round() as usize;
        let threshold = SimDuration::from_secs_f64(self.cfg.latency_multiplier * s[k]);
        handed + threshold.max(HEDGE_MIN_AGE)
    }

    /// The next check: the earliest instant an outstanding fragment falls
    /// due (`None` once none is, or the budget is spent).
    pub(crate) fn next_check(&self) -> Option<SimTime> {
        if self.log.len() >= self.cfg.max_hedges {
            return None;
        }
        let first = |class: QueryClass| self.outstanding[class.rank()].first().map(|f| f.0);
        let due = |class| first(class).map(|handed| self.due(class, handed));
        QueryClass::ALL.into_iter().filter_map(due).min()
    }

    /// The check at barrier `t`: reads every completion the pool recorded
    /// by `t` — a work-bearing one is a response sample of its query's
    /// class, and each fragment share it holds counts that fragment down —
    /// then hedges every outstanding fragment due by `t`, earliest due
    /// first, up to `max_hedges`, onto the live shard with the lowest
    /// [queued backlog](liferaft_sim::EngineCore::total_queued) its query
    /// was never handed to. The copy, under the next id from `minted`, is
    /// released once it crosses that shard's `ToShard` link.
    pub(crate) fn fire<C: Catalog + ?Sized>(
        &mut self,
        t: SimTime,
        workers: &mut [ShardWorker<'_, C>],
        up: &[bool],
        faults: &FaultPlan,
        total_fragments: &mut usize,
        minted: &mut u32,
    ) {
        self.last = t;
        for (shard, w) in workers.iter().enumerate() {
            let (read, clock) = &mut self.read[shard];
            let tracker = w.driver.core().tracker();
            for (k, o) in tracker.completed().iter().enumerate().skip(*read) {
                if o.completion.max(*clock) > t {
                    break;
                }
                *clock = o.completion.max(*clock);
                *read += 1;
                let (class, handed) = self.class_of[&o.query];
                if o.assignments > 0 {
                    let response = o.completion.since(handed).as_secs_f64();
                    let samples = &mut self.samples[class.rank()];
                    samples.insert(samples.partition_point(|&s| s <= response), response);
                }
                for &(id, n) in tracker.completed_parts(k) {
                    let Some(open) = self.open.get_mut(&id) else {
                        continue;
                    };
                    open.left -= n;
                    if open.left == 0 {
                        self.outstanding[open.class].remove(&open.key);
                        self.open.remove(&id);
                    }
                }
            }
        }
        let mut due: Vec<(SimTime, QueryId, u32, FragmentId)> = Vec::new();
        for class in QueryClass::ALL {
            while let Some(&(handed, query, from, id)) = self.outstanding[class.rank()].first() {
                let at = self.due(class, handed);
                if at > t {
                    break;
                }
                self.outstanding[class.rank()].pop_first();
                self.open.remove(&id);
                due.push((at, query, from, id));
            }
        }
        due.sort_unstable();
        for (_, query, from, id) in due {
            if self.log.len() >= self.cfg.max_hedges {
                break;
            }
            let target = (0..workers.len())
                .filter(|&s| up[s] && !self.hosts.contains(&(query, s as u32)))
                .min_by_key(|&s| (workers[s].driver.core().total_queued(), s));
            let Some(to) = target else {
                continue; // the query spans every live shard: nowhere to hedge
            };
            let original = workers[from as usize]
                .fragment(id)
                .expect("an outstanding fragment is in the stream it was handed to");
            let entries = original.assignments;
            // The copy crosses the target's ToShard link: delay applies, but
            // hedge copies skip the drop/duplicate/reorder draws — the model
            // treats the hedge path as a fresh, clean connection (documented
            // simplification; the race and dedup are the point here).
            let link = faults.link_at(to as u32, LinkDirection::ToShard, t);
            let delivered_at = link.map_or(t, |w| t + w.delay + w.delay_per_entry.times(entries));
            let copy = Fragment {
                id: FragmentId(*minted),
                release: delivered_at,
                ..original.clone()
            };
            *minted += 1;
            self.log.push(HedgeDecision {
                at: t,
                query_index: copy.query_index,
                from,
                to: to as u32,
                entries,
                delivered_at,
            });
            self.races.push((id, copy.id));
            self.hosts.insert((query, to as u32));
            *total_fragments += 1;
            workers[to].append_fragments(vec![copy]);
        }
    }
}

/// Resolves every hedge race over the executed pool's canonical merged
/// completion stream. `races[i]` names hedge `i`'s original and copy, each
/// of `hedges[i].entries` assignments; a fragment finishes at the stream
/// position where its shares, counted wherever they ran, reach that total.
/// The first of the two to finish wins, and every share of the loser leaves
/// `stream` — the winner covered its assignments, so the ledger must not
/// count them twice (the loser's serviced entries still count in the
/// per-shard counters: duplicated work is real work). Returns `(wins,
/// losses)` of the hedge copies. Both executors produce identical streams,
/// so the resolution is mode-independent.
pub(crate) fn resolve_hedges(
    hedges: &[HedgeDecision],
    races: &[(FragmentId, FragmentId)],
    stream: &mut Vec<Completion>,
) -> (u64, u64) {
    if races.is_empty() {
        return (0, 0);
    }
    // Per raced fragment: its race and whether it is the copy.
    let mut raced: HashMap<FragmentId, (usize, bool)> = HashMap::new();
    for (i, &(original, copy)) in races.iter().enumerate() {
        raced.insert(original, (i, false));
        raced.insert(copy, (i, true));
    }
    let mut left: Vec<[u64; 2]> = hedges.iter().map(|h| [h.entries; 2]).collect();
    let mut copy_won: Vec<Option<bool>> = vec![None; races.len()];
    for c in stream.iter() {
        let Some(&(i, is_copy)) = raced.get(&c.fragment) else {
            continue;
        };
        let side = &mut left[i][usize::from(is_copy)];
        *side -= c.assignments;
        if *side == 0 && copy_won[i].is_none() {
            copy_won[i] = Some(is_copy);
        }
    }
    stream.retain(|c| {
        let lost = |&(i, is_copy): &(usize, bool)| copy_won[i] != Some(is_copy);
        !raced.get(&c.fragment).is_some_and(lost)
    });
    let won: Vec<bool> = copy_won
        .into_iter()
        .map(|w| w.expect("every hedge race must produce a finished fragment"))
        .collect();
    let wins = won.iter().filter(|&&w| w).count() as u64;
    (wins, won.len() as u64 - wins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_sim::LinkFault;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn fragment(query_index: usize, release_ms: u64, assignments: u64) -> Fragment {
        Fragment {
            id: FragmentId(query_index as u32),
            query_index,
            query: QueryId(query_index as u64),
            arrival: t(release_ms),
            release: t(release_ms),
            items: Vec::new(),
            assignments,
        }
    }

    fn routing(shards: Vec<Vec<Fragment>>, trace_len: usize) -> Routing {
        let mut assignments_of = vec![0u64; trace_len];
        for f in shards.iter().flatten() {
            assignments_of[f.query_index] += f.assignments;
        }
        Routing {
            shards,
            assignments_of,
            cross_shard_queries: 0,
        }
    }

    /// One window's delivery over a fresh trace of `trace_len` queries.
    fn plan_delivery(faults: &FaultPlan, routing: &mut Routing, trace_len: usize) -> DeliveryPlan {
        let mut plan = DeliveryPlan::new(trace_len);
        plan.deliver(faults, routing);
        plan
    }

    fn window(shard: u32, direction: LinkDirection, drop_prob: f64) -> LinkFault {
        LinkFault {
            shard,
            direction,
            from: SimTime::ZERO,
            until: t(3_600_000),
            drop_prob,
            delay: SimDuration::from_millis(100),
            delay_per_entry: SimDuration::from_micros(10),
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: SimDuration::ZERO,
        }
    }

    #[test]
    fn no_windows_is_the_identity() {
        let faults = FaultPlan::none();
        let mut r = routing(vec![vec![fragment(0, 10, 5), fragment(1, 20, 3)]], 2);
        let before = r.shards.clone();
        let plan = plan_delivery(&faults, &mut r, 2);
        assert!(plan.log.is_empty());
        assert!(plan.rejected.iter().all(Option::is_none));
        assert_eq!(r.shards, before, "fault-free transport must be a no-op");
    }

    #[test]
    fn clean_links_delay_by_fixed_plus_per_entry() {
        let mut faults = FaultPlan::none();
        faults.links.push(window(0, LinkDirection::ToShard, 0.0));
        let mut r = routing(vec![vec![fragment(0, 10, 5)]], 1);
        let plan = plan_delivery(&faults, &mut r, 1);
        assert!(plan.log.is_empty(), "a lossless window logs nothing");
        // 10 ms release + 100 ms fixed + 5 × 10 µs serialization.
        assert_eq!(
            r.shards[0][0].release,
            t(110) + SimDuration::from_micros(50)
        );
    }

    #[test]
    fn certain_drop_rejects_after_the_budget() {
        let mut faults = FaultPlan::none();
        faults.links.push(window(0, LinkDirection::ToShard, 1.0));
        let mut r = routing(vec![vec![fragment(0, 0, 5), fragment(1, 0, 2)]], 2);
        let plan = plan_delivery(&faults, &mut r, 2);
        assert!(plan.rejected.iter().all(Option::is_some));
        assert!(r.shards[0].is_empty(), "lost fragments leave the stream");
        // Original + 4 retransmits, every one dropped.
        let budget = RETRANSMIT.max_attempts;
        assert_eq!(budget, 4);
        assert_eq!(plan.log.drops.len(), 2 * (1 + budget as usize));
        assert_eq!(plan.log.retransmits.len(), 2 * budget as usize);
        assert!(plan.log.suppressed.is_empty());

        // The chain gives up when the final attempt's deadline expires:
        // send 0 at 0 s, retransmits at 1 s, 1.5 s, 2.5 s, 4.5 s, expiry
        // 4.5 s + 4 s = 8.5 s.
        let sends: Vec<SimTime> = plan.log.retransmits[..4].iter().map(|r| r.at).collect();
        assert_eq!(sends, vec![t(1_000), t(1_500), t(2_500), t(4_500)]);
        let gave_up = Some((t(8_500), budget));
        assert_eq!(plan.rejected, vec![gave_up; 2]);
    }

    #[test]
    fn dropped_acks_retransmit_but_deliver_exactly_once() {
        let mut faults = FaultPlan::none();
        // Data always lands; every ack dies.
        faults.links.push(window(0, LinkDirection::ToRouter, 1.0));
        let mut r = routing(vec![vec![fragment(0, 0, 1)]], 1);
        let plan = plan_delivery(&faults, &mut r, 1);
        assert!(plan.rejected[0].is_none(), "delivered data never rejects");
        assert_eq!(r.shards[0].len(), 1);
        // No ToShard window: the effect happens at the original send.
        assert_eq!(r.shards[0][0].release, t(0));
        let n = RETRANSMIT.max_attempts as usize;
        assert_eq!(plan.log.retransmits.len(), n);
        // Every retransmitted copy reached the shard and was deduped.
        assert_eq!(plan.log.suppressed.len(), n);
        assert_eq!(
            plan.log
                .drops
                .iter()
                .filter(|d| d.direction == LinkDirection::ToRouter)
                .count(),
            n + 1
        );
    }

    #[test]
    fn network_duplicates_are_suppressed() {
        let mut faults = FaultPlan::none();
        let mut w = window(0, LinkDirection::ToShard, 0.0);
        w.dup_prob = 1.0;
        faults.links.push(w);
        let mut r = routing(vec![vec![fragment(0, 0, 1)]], 1);
        let plan = plan_delivery(&faults, &mut r, 1);
        assert!(plan.rejected[0].is_none());
        assert_eq!(plan.log.suppressed.len(), 1, "the minted copy is deduped");
        assert!(
            plan.log.retransmits.is_empty(),
            "the clean ack stops the chain"
        );
    }

    #[test]
    fn reordering_holds_a_delivery_back() {
        let mut faults = FaultPlan::none();
        let mut w = window(0, LinkDirection::ToShard, 0.0);
        w.reorder_prob = 1.0;
        w.reorder_delay = SimDuration::from_millis(400);
        faults.links.push(w);
        let mut r = routing(vec![vec![fragment(0, 0, 0)]], 1);
        let plan = plan_delivery(&faults, &mut r, 1);
        assert!(plan.log.is_empty());
        assert_eq!(
            r.shards[0][0].release,
            t(500),
            "100 ms delay + 400 ms hold-back"
        );
    }

    #[test]
    fn a_delay_can_overtake_within_a_window() {
        let mut faults = FaultPlan::none();
        // A delay window that ends between the two releases: the first
        // fragment is delayed past the second's untouched release. The
        // window keeps routing order; the worker merges by release.
        let mut w = window(0, LinkDirection::ToShard, 0.0);
        w.until = t(15);
        w.delay = SimDuration::from_millis(200);
        faults.links.push(w);
        let mut r = routing(vec![vec![fragment(0, 10, 1), fragment(1, 20, 1)]], 2);
        let plan = plan_delivery(&faults, &mut r, 2);
        assert!(plan.log.is_empty());
        let releases: Vec<SimTime> = r.shards[0].iter().map(|f| f.release).collect();
        assert_eq!(releases, vec![t(210) + SimDuration::from_micros(10), t(20)]);
    }

    #[test]
    fn chains_are_reproducible() {
        let mut faults = FaultPlan::none();
        let mut w = window(0, LinkDirection::ToShard, 0.35);
        w.dup_prob = 0.2;
        w.reorder_prob = 0.25;
        w.reorder_delay = SimDuration::from_millis(50);
        faults.links.push(w);
        faults.links.push(window(0, LinkDirection::ToRouter, 0.35));
        let shards = || {
            vec![(0..40)
                .map(|q| fragment(q, 100 * q as u64, 3))
                .collect::<Vec<_>>()]
        };
        let mut a = routing(shards(), 40);
        let mut b = routing(shards(), 40);
        let pa = plan_delivery(&faults, &mut a, 40);
        let pb = plan_delivery(&faults, &mut b, 40);
        assert_eq!(pa.log, pb.log, "same fragments, same plan");
        assert!(!pa.log.is_empty(), "the lossy windows must bite");
        assert_eq!(a.shards, b.shards);
    }

    #[test]
    #[should_panic(expected = "hedge quantile")]
    fn out_of_range_quantile_rejected() {
        let mut cfg = TransportConfig::hedged();
        cfg.hedge.quantile = 1.5;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "hedge multiplier")]
    fn sub_unit_multiplier_rejected() {
        let mut cfg = TransportConfig::hedged();
        cfg.hedge.latency_multiplier = 0.5;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "hedge quantile")]
    fn hedge_settings_validate_while_hedging_is_off() {
        let mut cfg = TransportConfig::reliable();
        cfg.hedge.quantile = 7.0;
        cfg.validate();
    }
}
