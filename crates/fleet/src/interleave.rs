//! The sweep engine: message-granularity handshake simulation, where
//! every wire message is its own scheduler event, bus groups shard
//! across host threads, and groups of sessions can share one
//! arbitrated CAN-FD bus under a deterministic fault plan.
//!
//! Each STS establishment decomposes into its four wire messages
//! (`A1 B1 A2 B2`): an endpoint's [`ecq_proto::Endpoint::step`] runs
//! when its message *arrives*, its compute time is integrated from the
//! primitive-operation trace it recorded during that step (against the
//! board's `ecq_devices` cost table), and the reply goes back to the
//! link, which decides the next delivery time. Sessions sharing a bus
//! genuinely interleave on the virtual timeline, at message
//! granularity.
//!
//! `run_sweep` is the only driver. It streams lazily produced work
//! through a bounded admission window ([`SweepOptions::max_inflight`])
//! and hands each bus group's outcome to a caller-supplied sink in
//! group order: an establishment sweep over materialized sessions, a
//! rekey epoch and a million-device streaming sweep differ only in
//! the work they feed and the sink they fold with.
//!
//! # Parallelism / determinism contract
//!
//! A bus group — `group` consecutive sessions on one
//! [`TransportKind::SharedBus`] (`group = 1` is a private link) —
//! shares no simulation state with any other group, so its entire
//! outcome is a pure function of its own work items. Three rules keep the
//! `(config, seed)` report bit-identical for any worker count and any
//! admission window:
//!
//! 1. **Shard by bus, never by pair.** `run_sweep` deals whole bus
//!    groups to workers; a worker *hard-errors* if it receives a
//!    bus with members missing (a split bus would change arbitration).
//! 2. **Lane-ordered events.** Each worker's scheduler orders same-time
//!    events by a global lane key (session index; buses order after all
//!    sessions), not by insertion order, so the pop order is a function
//!    of the virtual timeline alone.
//! 3. **Pure fault decisions.** Every random fault choice is a
//!    splitmix64 hash of `(fault seed, bus id, sequence number)` (see
//!    [`ecq_simnet::fault`]), never a draw from mutable RNG state.
//!
//! Session state (credentials, RNG seeds) is prepared serially and
//! *moved* into the workers, so the timed sweep region clones no
//! certificates or keys.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::scheduler::{micros_from_ms, LaneScheduler, VirtualTime};
use ecq_cert::CertError;
use ecq_crypto::{ct, HmacDrbg};
use ecq_devices::timing::cost_since;
use ecq_devices::{DevicePreset, DeviceProfile};
use ecq_proto::{Credentials, Endpoint, ProtocolError, Role, SessionKey, StepOutput};
use ecq_simnet::transport::pair_overheads;
use ecq_simnet::{FaultCounters, FaultPlan, FaultSpec, FrameRecord, SharedBus};
use ecq_sts::{endpoint_pair, StsConfig, StsInitiator, StsResponder, StsVariant};

/// How the sweep's sessions share CAN-FD buses: every handshake
/// message rides a slot on an `ecq_simnet::SharedBus`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// One arbitrated CAN-FD bus per `group` consecutive sessions
    /// (`ecq_simnet::SharedBus`): their frames compete for the wire and
    /// the sweep's [`FaultSpec`] applies. Every frame pays per-frame
    /// driver overhead from its sender's and receiver's board cost
    /// tables. `group = 1` is a private (but fault-injectable) CAN-FD
    /// link per pair.
    SharedBus {
        /// Sessions per bus; session `i` rides bus `i / group`.
        group: usize,
    },
}

/// Revocation arriving *during* the sweep: from `at_us`, session
/// `session`'s peer is considered revoked, but endpoints only learn of
/// it once the CRL propagates — `propagation_us` is the stale-CRL
/// acceptance window during which the revoked peer is still honored
/// (the paper's §IV-C lifecycle caveat, made measurable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RevocationSpec {
    /// Global session index whose handshake the revocation targets.
    pub session: usize,
    /// Virtual time (µs) the certificate is revoked at the CA.
    pub at_us: u64,
    /// CRL propagation delay (µs): deliveries to the targeted session
    /// strictly before `at_us + propagation_us` still succeed.
    pub propagation_us: u64,
}

/// Options for an interleaved sweep.
///
/// The struct is `#[non_exhaustive]`: build one with
/// [`SweepOptions::new`] (or `default()`) and refine it with the
/// builder methods, e.g.
/// `SweepOptions::new().threads(8).transport(TransportKind::SharedBus { group: 4 })`.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct SweepOptions {
    /// Host worker threads to shard the session population across
    /// (clamped to at least 1). The report is identical for any value.
    pub threads: usize,
    /// Bus grouping for every session.
    pub transport: TransportKind,
    /// Fault schedule applied to every CAN-FD bus
    /// ([`FaultSpec::none`] injects nothing).
    /// The spec's `deadline_us` bounds the sweep: sessions unfinished
    /// at the deadline fail closed with [`ProtocolError::Timeout`].
    pub faults: FaultSpec,
    /// Optional mid-sweep revocation with a stale-CRL window.
    pub revocation: Option<RevocationSpec>,
    /// Chaos hook: the worker drops the state of the session with this
    /// global index before its kickoff. The session must fail closed
    /// with [`ProtocolError::Poisoned`] (counted in
    /// [`crate::FleetReport::poisoned`]) while the rest of the fleet
    /// completes — the regression harness for the sweep's
    /// no-panic contract.
    pub poison: Option<usize>,
    /// Admission window of the sweep engine: at most this many
    /// sessions are resident (queued in worker channels, simulating, or
    /// awaiting in-order aggregation) at any moment, so peak memory
    /// scales with the window instead of the fleet. `usize::MAX` (the
    /// default) admits the whole sweep at once. The report is
    /// bit-identical for any window value — bus groups are pure
    /// functions of their own work items, so admission timing cannot
    /// change their outcome.
    pub max_inflight: usize,
}

impl Default for SweepOptions {
    /// One worker, a private CAN-FD link per pair, no faults.
    fn default() -> Self {
        SweepOptions {
            threads: 1,
            transport: TransportKind::SharedBus { group: 1 },
            faults: FaultSpec::none(),
            revocation: None,
            poison: None,
            max_inflight: usize::MAX,
        }
    }
}

impl SweepOptions {
    /// The default options, as a builder starting point.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the host worker thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the bus grouping.
    #[must_use]
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the fault schedule.
    #[must_use]
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Schedules a mid-sweep revocation.
    #[must_use]
    pub fn revocation(mut self, revocation: RevocationSpec) -> Self {
        self.revocation = Some(revocation);
        self
    }

    /// Poisons the session with this global index (chaos hook).
    #[must_use]
    pub fn poison(mut self, poison: usize) -> Self {
        self.poison = Some(poison);
        self
    }

    /// Bounds the number of sessions resident in the sweep engine at
    /// once (clamped up to one bus group).
    #[must_use]
    pub fn max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }
}

/// One delivered wire message, in the order its bus group's scheduler
/// popped it (diagnostic evidence of interleaving on a shared bus; not
/// part of the report).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Global session index the message belongs to.
    pub session: usize,
    /// The paper's step label ("A1", "B1", "A2", "B2").
    pub step: &'static str,
    /// Virtual time the message was delivered to its endpoint.
    pub at_us: VirtualTime,
}

/// Everything a worker needs to run one session, prepared serially by
/// the coordinator so RNG streams derive in session-index order.
pub(crate) struct SessionWork {
    pub index: usize,
    pub creds_a: Credentials,
    pub creds_b: Credentials,
    pub preset_a: DevicePreset,
    pub preset_b: DevicePreset,
    /// Per-pair seed for the wire endpoints' DRBG streams.
    pub wire_seed: [u8; 32],
    pub now: u32,
    pub variant: StsVariant,
    /// Pre-checked against the coordinator's revocation list: a denied
    /// session never starts its handshake.
    pub denied: bool,
}

/// Per-session outcome, aggregated in index order.
pub(crate) struct SessionResult {
    pub key: Option<SessionKey>,
    pub failure: Option<ProtocolError>,
    pub end_us: VirtualTime,
    pub messages: u64,
    pub wire_bytes: u64,
    pub frames: u64,
    /// The session was denied by the CRL check before kickoff. Carried
    /// in the result so the report fold (which holds no per-session
    /// state of its own) can classify the outcome.
    pub denied: bool,
}

impl SessionResult {
    pub(crate) fn empty() -> Self {
        SessionResult {
            key: None,
            failure: None,
            end_us: 0,
            messages: 0,
            wire_bytes: 0,
            frames: 0,
            denied: false,
        }
    }
}

/// Fault-engine evidence from one shared bus: aggregate counters for
/// the report and the full frame-schedule log for fixtures/forensics.
pub(crate) struct BusTrace {
    pub bus: usize,
    pub counters: FaultCounters,
    pub frames: Vec<FrameRecord>,
}

/// What one worker run produced: per-session results in the order the
/// work was given, the delivery log in scheduler pop order, and the
/// traces of the buses it owned (sorted by bus id).
pub(crate) struct GroupOutcome {
    pub results: Vec<SessionResult>,
    pub deliveries: Vec<DeliveryRecord>,
    pub buses: Vec<BusTrace>,
}

/// A live session inside one worker's event loop.
struct Live {
    /// Global session index (for the delivery log and event lanes;
    /// results aggregate by slot order).
    index: usize,
    initiator: StsInitiator,
    responder: StsResponder,
    /// The session's wire: a slot on the bus its group co-owns.
    bus: Rc<RefCell<SharedBus>>,
    bus_id: usize,
    bus_slot: usize,
    profiles: [DeviceProfile; 2],
    cursors: [usize; 2],
    result: SessionResult,
    /// Last virtual time anything happened to this session (timeout
    /// stamping when no deadline is set).
    last_event_us: VirtualTime,
    done: bool,
}

enum Event {
    /// The initiator opens its handshake (draws no message).
    Kickoff { slot: usize },
    /// A wire message arrives at one endpoint.
    Deliver { slot: usize, to: Role },
    /// A shared bus may have frames to arbitrate/complete.
    BusAdvance { bus: usize },
}

/// Event lanes order same-time events globally: session events ride
/// their *global* session index, bus events ride `LANE_BUS + bus id`
/// so every same-time endpoint step (and its sends) lands before the
/// bus arbitrates — the pop order is shard-layout-independent.
const LANE_BUS: u64 = 1 << 32;

impl Live {
    fn endpoint_mut(&mut self, role: Role) -> &mut dyn Endpoint {
        match role {
            Role::Initiator => &mut self.initiator,
            Role::Responder => &mut self.responder,
        }
    }

    /// Runs one endpoint step and returns `(output, completion time)`;
    /// the completion time charges the step's traced primitives against
    /// the endpoint's board.
    fn step(
        &mut self,
        role: Role,
        incoming: Option<&ecq_proto::Message>,
        now: VirtualTime,
    ) -> Result<(StepOutput, VirtualTime), ProtocolError> {
        let out = self.endpoint_mut(role).step(incoming)?;
        let (trace, idx) = match role {
            Role::Initiator => (self.initiator.trace(), 0),
            Role::Responder => (self.responder.trace(), 1),
        };
        let cost = cost_since(trace, &mut self.cursors[idx], &self.profiles[idx]);
        Ok((out, now + micros_from_ms(cost)))
    }

    fn recv_message(&mut self, to: Role, now: VirtualTime) -> Option<ecq_proto::Message> {
        self.bus.borrow_mut().recv(self.bus_slot, to, now)
    }

    /// Puts `msg` on the session's bus and schedules the bus to
    /// arbitrate it; the peer's delivery follows from that advance.
    fn send(
        &self,
        from: Role,
        msg: ecq_proto::Message,
        done_at: VirtualTime,
        scheduler: &mut LaneScheduler<Event>,
    ) {
        self.bus
            .borrow_mut()
            .send(self.bus_slot, from, msg, done_at);
        scheduler.schedule(
            done_at,
            LANE_BUS + self.bus_id as u64,
            Event::BusAdvance { bus: self.bus_id },
        );
    }

    fn capture_stats(&mut self) {
        let s = self.bus.borrow().slot_stats(self.bus_slot);
        self.result.messages = s.messages;
        self.result.wire_bytes = s.bytes;
        self.result.frames = s.frames;
    }

    /// Closes an established session. Both sides claiming establishment
    /// is *not* trusted: the keys are compared (in constant time) and a
    /// disagreement surfaces as [`ProtocolError::KeyMismatch`] — a
    /// faulted wire must never yield a silently mismatched session.
    fn finalize(&mut self, end: VirtualTime) {
        let key_a = self.initiator.session_key().ok();
        let key_b = self.responder.session_key().ok();
        match (key_a, key_b) {
            (Some(a), Some(b)) if ct::eq(a.as_bytes(), b.as_bytes()) => {
                self.result.key = Some(a);
            }
            _ => self.result.failure = Some(ProtocolError::KeyMismatch),
        }
        self.result.end_us = end;
        self.capture_stats();
        self.done = true;
    }

    fn fail(&mut self, err: ProtocolError, at: VirtualTime) {
        self.result.failure = Some(err);
        self.result.end_us = at;
        self.capture_stats();
        self.done = true;
    }
}

/// Runs a set of sessions — in the engine, one bus group — under a
/// single virtual clock, delivering messages as events. Takes its
/// sessions by value so the prepared credentials move straight into
/// the endpoints — the sweep performs no per-session certificate/key
/// cloning inside the timed region. `total` is the sweep's session
/// count (it bounds the width of the last bus).
///
/// # Panics
///
/// Panics if `work` contains a bus group with members missing: a bus
/// split across sweep shards would arbitrate different traffic per
/// layout and break the determinism contract, so it is rejected loudly
/// rather than simulated wrong.
pub(crate) fn run_worker(work: Vec<SessionWork>, cfg: &SweepOptions, total: usize) -> GroupOutcome {
    let TransportKind::SharedBus { group } = cfg.transport;
    let group = group.max(1);
    assert_complete_buses(&work, group, total);

    let mut live: Vec<Option<Live>> = Vec::with_capacity(work.len());
    // Slots whose state was lost while events were still due for them.
    // A poisoned slot fails closed as `ProtocolError::Poisoned` instead
    // of aborting the whole worker.
    let mut poisoned: Vec<bool> = vec![false; work.len()];
    // Slots denied by the CRL pre-check (echoed into the results).
    let mut denied_slots: Vec<bool> = vec![false; work.len()];
    let mut log: Vec<DeliveryRecord> = Vec::new();
    let mut scheduler = LaneScheduler::new();
    // Buses this worker owns, and (bus, bus slot) → local `live` slot.
    let mut buses: BTreeMap<usize, Rc<RefCell<SharedBus>>> = BTreeMap::new();
    let mut slot_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();

    for (slot, w) in work.into_iter().enumerate() {
        // Register the bus slot for *every* session — including denied
        // ones — so slot numbering (and thus arbitration priority)
        // matches the global layout `bus slot = index % group`.
        let bus_id = w.index / group;
        let bus = buses
            .entry(bus_id)
            .or_insert_with(|| {
                Rc::new(RefCell::new(SharedBus::new(FaultPlan::new(
                    cfg.faults,
                    bus_id as u64,
                ))))
            })
            .clone();
        let bus_slot = bus.borrow_mut().add_slot(
            (w.index & 0xFFFF) as u16,
            pair_overheads(&w.preset_a.profile(), &w.preset_b.profile()),
        );
        debug_assert_eq!(bus_slot, w.index % group, "bus slots follow session order");
        slot_of.insert((bus_id, bus_slot), slot);
        if w.denied {
            if let Some(d) = denied_slots.get_mut(slot) {
                *d = true;
            }
            live.push(None);
            continue;
        }
        if cfg.poison == Some(w.index) {
            // Test hook: the session's state is gone but its kickoff
            // still fires, driving the fail-closed branch below.
            live.push(None);
            scheduler.schedule(0, w.index as u64, Event::Kickoff { slot });
            continue;
        }
        // The endpoints `ecq_sts::establish` would build, forked from
        // the pair's wire seed.
        let mut rng = HmacDrbg::new(&w.wire_seed, b"fleet-pair-wire");
        let config = StsConfig {
            now: w.now,
            variant: w.variant,
        };
        let (initiator, responder) = endpoint_pair(w.creds_a, w.creds_b, &config, &mut rng);
        let lane = w.index as u64;
        live.push(Some(Live {
            index: w.index,
            initiator,
            responder,
            bus,
            bus_id,
            bus_slot,
            profiles: [w.preset_a.profile(), w.preset_b.profile()],
            cursors: [0, 0],
            result: SessionResult::empty(),
            last_event_us: 0,
            done: false,
        }));
        scheduler.schedule(0, lane, Event::Kickoff { slot });
    }

    let deadline = cfg.faults.deadline_us;
    while let Some((now, event)) = scheduler.next() {
        if now > deadline {
            break;
        }
        match event {
            Event::Kickoff { slot } => {
                let Some(session) = live.get_mut(slot).and_then(Option::as_mut) else {
                    // State for this slot is gone (broken scheduler
                    // invariant or the poison hook): fail it closed
                    // instead of aborting the worker.
                    if let Some(p) = poisoned.get_mut(slot) {
                        *p = true;
                    }
                    continue;
                };
                session.last_event_us = now;
                match session.step(Role::Initiator, None, now) {
                    Ok((StepOutput::Send(msg), done_at)) => {
                        session.send(Role::Initiator, msg, done_at, &mut scheduler);
                    }
                    Ok((_, done_at)) => session.fail(ProtocolError::Stalled, done_at),
                    Err(e) => session.fail(e, now),
                }
            }
            Event::Deliver { slot, to } => {
                let Some(session) = live.get_mut(slot).and_then(Option::as_mut) else {
                    // A delivery for a vanished session: fail the slot
                    // closed, drop the message on the floor.
                    if let Some(p) = poisoned.get_mut(slot) {
                        *p = true;
                    }
                    continue;
                };
                if session.done {
                    continue;
                }
                session.last_event_us = now;
                // Revocation lifecycle: once the CRL has propagated,
                // the targeted session refuses its peer — whatever the
                // handshake state. Deliveries inside the stale-CRL
                // window still succeed (the measurable exposure).
                if let Some(rv) = cfg.revocation {
                    if session.index == rv.session
                        && now >= rv.at_us.saturating_add(rv.propagation_us)
                    {
                        let _ = session.recv_message(to, now);
                        session.fail(ProtocolError::Cert(CertError::Revoked), now);
                        continue;
                    }
                }
                // A delivery can evaporate: the message was lost to
                // faults after its sibling scheduled this event, or a
                // replay already consumed it.
                let Some(msg) = session.recv_message(to, now) else {
                    continue;
                };
                log.push(DeliveryRecord {
                    session: session.index,
                    step: msg.step,
                    at_us: now,
                });
                match session.step(to, Some(&msg), now) {
                    Ok((StepOutput::Send(reply), done_at)) => {
                        session.send(to, reply, done_at, &mut scheduler);
                        // A responder that just sent B2 is established;
                        // the session finishes when the initiator
                        // consumes it.
                    }
                    Ok((_, done_at)) => {
                        if session.initiator.is_established() && session.responder.is_established()
                        {
                            session.finalize(done_at);
                        } else if !session.done {
                            // Waiting with nothing in flight cannot
                            // happen in a two-party alternating
                            // handshake; treat it as a stall.
                            session.fail(ProtocolError::Stalled, done_at);
                        }
                    }
                    Err(e) => session.fail(e, now),
                }
            }
            Event::BusAdvance { bus } => {
                let Some(rc) = buses.get(&bus).map(Rc::clone) else {
                    // An advance for a bus this worker does not own:
                    // skip it — its sessions (if any) resolve through
                    // the fail-closed timeout backstop below.
                    continue;
                };
                let due = rc.borrow_mut().process(now);
                for d in due {
                    let Some(&slot) = slot_of.get(&(bus, d.slot)) else {
                        // An unregistered bus slot cannot be routed;
                        // its session fails closed at the deadline.
                        continue;
                    };
                    // Denied sessions never transmit, so nothing is
                    // ever due for them; route on the session's lane.
                    let lane = live
                        .get(slot)
                        .and_then(Option::as_ref)
                        .map_or(0, |l| l.index as u64);
                    scheduler.schedule(d.at_us, lane, Event::Deliver { slot, to: d.to });
                }
                // `next_activity_us` is strictly beyond `now` once
                // `process(now)` ran, so this re-arm terminates;
                // redundant advances are idempotent.
                let next = rc.borrow().next_activity_us();
                if let Some(at) = next {
                    scheduler.schedule(at, LANE_BUS + bus as u64, Event::BusAdvance { bus });
                }
            }
        }
    }

    // Fail-closed sweep boundary: anything unfinished at the deadline
    // (lost frames, withheld messages, storms that never relented)
    // times out — it must never linger as a half-open session.
    for session in live.iter_mut().flatten() {
        if !session.done {
            let at = if deadline < u64::MAX {
                deadline
            } else {
                session.last_event_us
            };
            session.fail(ProtocolError::Timeout, at);
        }
    }

    let results = live
        .into_iter()
        .zip(poisoned.into_iter().zip(denied_slots))
        .map(|(slot, (was_poisoned, was_denied))| match slot {
            Some(l) => l.result,
            // Denial wins over the poison hook: a denied session never
            // schedules events, so nothing can poison it.
            None if was_denied => {
                let mut r = SessionResult::empty();
                r.denied = true;
                r
            }
            None if was_poisoned => {
                let mut r = SessionResult::empty();
                r.failure = Some(ProtocolError::Poisoned);
                r
            }
            None => SessionResult::empty(),
        })
        .collect();
    let buses = buses
        .into_iter()
        .map(|(bus, rc)| {
            let mut b = rc.borrow_mut();
            BusTrace {
                bus,
                counters: b.counters(),
                frames: b.take_frame_log(),
            }
        })
        .collect();
    GroupOutcome {
        results,
        deliveries: log,
        buses,
    }
}

/// Hard-errors unless every bus group in `work` is complete: members
/// of bus `b` are exactly the global indices `b·group .. min((b+1)·group,
/// total)`, all present.
fn assert_complete_buses(work: &[SessionWork], group: usize, total: usize) {
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for w in work {
        members.entry(w.index / group).or_default().push(w.index);
    }
    for (bus, mut present) in members {
        present.sort_unstable();
        let start = bus * group;
        let expected: Vec<usize> = (start..(start + group).min(total)).collect();
        assert!(
            present == expected,
            "bus split across sweep shards: bus {bus} needs sessions {expected:?} \
             in one worker but got {present:?} (shard whole buses, not pairs)"
        );
    }
}

/// The sweep engine: streams lazily produced `work` (`total` sessions)
/// through `opts.threads` workers with at most `opts.max_inflight`
/// sessions resident at once, handing each bus group's outcome to
/// `sink` together with the global index of its first session, in
/// **strict group order** (so the caller folds an incremental digest
/// in session-index order).
///
/// # Architecture
///
/// The calling thread is the producer: it pulls `work` (which may run
/// real enrollment cryptography per pull), chunks it into bus groups —
/// `group` consecutive sessions, the sweep's unit of independence; one
/// session on a private link — and deals group `g` to worker
/// `g % threads` over a bounded channel. Workers simulate one group at
/// a time ([`run_worker`]) and send `(group, outcome)` back; a reorder
/// buffer releases outcomes to `sink` in group order.
///
/// # Why the report cannot depend on the window
///
/// A group interacts with nothing outside its own work items: the
/// worker event loop's virtual clock never advances an event past its
/// scheduled time (the `schedule` clamp is vacuous because every
/// follow-up is scheduled at or after the event that produced it), so
/// the outcome of a group is a pure function of `(config, seed,
/// group)` — identical whether the window holds one group or the
/// whole sweep — and in-order delivery makes the aggregate report
/// bit-identical for any `threads` and any `max_inflight`.
///
/// # Deadlock freedom
///
/// The producer only blocks in two places: a full worker channel (then
/// it drains one result first — a full channel means that worker holds
/// work and will emit), and the final drain (workers hold the only
/// remaining results). The reorder buffer is bounded by the number of
/// admitted-but-undelivered groups, which the channels bound by
/// construction. A worker that panics ends the stream early; the
/// thread scope then re-raises its panic.
pub(crate) fn run_sweep<I, F>(work: I, total: usize, opts: &SweepOptions, mut sink: F)
where
    I: Iterator<Item = SessionWork>,
    F: FnMut(usize, GroupOutcome),
{
    use std::sync::mpsc::{channel, sync_channel, TrySendError};

    let TransportKind::SharedBus { group } = opts.transport;
    let group = group.max(1);
    // Never more workers than bus groups: an idle worker only costs a
    // thread spawn.
    let groups = total.div_ceil(group).max(1);
    let threads = opts.threads.max(1).min(groups);
    // Per-worker queue depth in groups: the window split across
    // workers, at least one so every worker can hold work — and never
    // more groups than a worker gets (`sync_channel` preallocates its
    // ring, so an unbounded window must not allocate an unbounded one).
    let cap = (opts.max_inflight.max(group) / threads / group).clamp(1, groups.div_ceil(threads));

    let mut work = work;
    std::thread::scope(|scope| {
        let (res_tx, res_rx) = channel::<(usize, GroupOutcome)>();
        let mut feeds = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = sync_channel::<(usize, Vec<SessionWork>)>(cap);
            let worker_tx = res_tx.clone();
            scope.spawn(move || {
                while let Ok((g, batch)) = rx.recv() {
                    if worker_tx.send((g, run_worker(batch, opts, total))).is_err() {
                        return;
                    }
                }
            });
            feeds.push(tx);
        }
        drop(res_tx);

        // Reorder buffer: completed groups awaiting in-order delivery.
        let mut pending: BTreeMap<usize, GroupOutcome> = BTreeMap::new();
        let mut next_out = 0usize;
        let mut retire = |g: usize, outcome: GroupOutcome| {
            pending.insert(g, outcome);
            while let Some(outcome) = pending.remove(&next_out) {
                sink(next_out * group, outcome);
                next_out += 1;
            }
        };

        let mut g = 0usize;
        loop {
            let mut batch = Vec::with_capacity(group);
            while batch.len() < group {
                match work.next() {
                    Some(w) => batch.push(w),
                    None => break,
                }
            }
            if batch.is_empty() {
                break;
            }
            let Some(feed) = feeds.get(g % threads) else {
                break; // unreachable: g % threads < threads
            };
            // Retire everything already finished before admitting more:
            // when workers outpace the producer (enrollment runs on this
            // thread), finished results must fold into `sink` now, not
            // pile up in the unbounded result channel until the final
            // drain — that would grow resident state with fleet size and
            // void the bounded-memory contract.
            while let Ok((done, outcome)) = res_rx.try_recv() {
                retire(done, outcome);
            }
            let mut msg = (g, batch);
            loop {
                match feed.try_send(msg) {
                    Ok(()) => break,
                    Err(TrySendError::Full(back)) => {
                        msg = back;
                        // Admission is at the window: retire one group
                        // before admitting another.
                        match res_rx.recv() {
                            Ok((done, outcome)) => retire(done, outcome),
                            Err(_) => break, // workers gone; scope will surface the panic
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            g += 1;
        }
        drop(feeds);
        while let Ok((done, outcome)) = res_rx.recv() {
            retire(done, outcome);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::pool::CaPool;
    use ecq_cert::requester::CertRequester;

    /// Builds real enrolled credentials for `pairs` sessions against a
    /// one-shard CA (the coordinator's enrollment path, condensed).
    fn session_work(pairs: usize) -> Vec<SessionWork> {
        let mut master = HmacDrbg::from_seed(0x7E57_0001);
        let pool = CaPool::new(1, &mut master);
        let mut ca_rng = HmacDrbg::new(&master.bytes32(), b"test-ca");
        let mut ids = Vec::new();
        let mut requesters = Vec::new();
        for i in 0..2 * pairs {
            let device = SimDevice::new(i, 0);
            let mut rng = HmacDrbg::new(&master.bytes32(), b"test-dev");
            requesters.push(CertRequester::generate(device.id, &mut rng));
            ids.push(device.id);
        }
        let requests: Vec<_> = requesters.iter().map(|r| r.request()).collect();
        let ca = pool.shard(0);
        let issued = ca
            .issue_batch(&requests, 0, 86_400, &mut ca_rng)
            .expect("test CA issues");
        let creds: Vec<Credentials> = requesters
            .iter()
            .zip(&issued)
            .zip(&ids)
            .map(|((requester, cert), &id)| {
                let keys = requester
                    .reconstruct(cert, &ca.public_key())
                    .expect("test reconstruction");
                Credentials {
                    id,
                    cert: cert.certificate,
                    keys,
                    ca_public: ca.public_key(),
                }
            })
            .collect();
        let mut creds = creds.into_iter();
        (0..pairs)
            .map(|p| {
                let mut wire_seed = [0u8; 32];
                wire_seed[0] = p as u8;
                SessionWork {
                    index: p,
                    creds_a: creds.next().expect("one credential per endpoint"),
                    creds_b: creds.next().expect("one credential per endpoint"),
                    preset_a: DevicePreset::S32K144,
                    preset_b: DevicePreset::S32K144,
                    wire_seed,
                    now: 1,
                    variant: StsVariant::Conventional,
                    denied: false,
                }
            })
            .collect()
    }

    fn shared(group: usize) -> SweepOptions {
        SweepOptions::new().transport(TransportKind::SharedBus { group })
    }

    #[test]
    #[should_panic(expected = "bus split across sweep shards")]
    fn split_bus_group_is_rejected() {
        let mut work = session_work(2);
        work.remove(1); // bus 0 = sessions {0, 1}; hand the worker only 0
        let _ = run_worker(work, &shared(2), 2);
    }

    #[test]
    fn poisoned_session_fails_closed_while_siblings_complete() {
        let work = session_work(3);
        let results = run_worker(work, &shared(1).poison(1), 3).results;
        assert_eq!(results.len(), 3);
        assert_eq!(results[1].failure, Some(ProtocolError::Poisoned));
        assert!(results[1].key.is_none(), "a poisoned session has no key");
        for i in [0usize, 2] {
            assert!(results[i].failure.is_none(), "sibling {i} unaffected");
            assert!(results[i].key.is_some(), "sibling {i} completes");
        }
    }

    #[test]
    fn shared_bus_sessions_complete_with_equal_keys() {
        let work = session_work(2);
        let out = run_worker(work, &shared(2), 2);
        assert_eq!(out.results.len(), 2);
        for r in &out.results {
            assert!(r.failure.is_none(), "unexpected failure: {:?}", r.failure);
            assert!(r.key.is_some());
            assert_eq!(r.messages, 4);
            assert_eq!(r.frames, 10);
        }
        assert_eq!(out.deliveries.len(), 8, "4 deliveries per session");
        assert_eq!(out.buses.len(), 1);
        assert_eq!(out.buses[0].counters, FaultCounters::default());
        assert!(!out.buses[0].frames.is_empty(), "the frame log moves out");
    }

    type Outcomes = Vec<(Option<[u8; 32]>, Option<ProtocolError>, VirtualTime)>;

    /// Runs the engine over four faulted shared-bus sessions; returns
    /// the sink's first indices, the per-session outcomes and the
    /// per-bus fault counters, all in delivery order.
    fn faulted_sweep(
        threads: usize,
        window: usize,
    ) -> (Vec<usize>, Outcomes, Vec<(usize, FaultCounters)>) {
        let opts = SweepOptions::new()
            .threads(threads)
            .transport(TransportKind::SharedBus { group: 2 })
            .faults(FaultSpec {
                seed: 11,
                drop_per_mille: 60,
                corrupt_per_mille: 40,
                deadline_us: 30_000_000,
                ..FaultSpec::none()
            })
            .max_inflight(window);
        let (mut firsts, mut outcomes, mut counters) = (Vec::new(), Vec::new(), Vec::new());
        run_sweep(session_work(4).into_iter(), 4, &opts, |first, group| {
            firsts.push(first);
            for r in &group.results {
                outcomes.push((r.key.as_ref().map(|k| *k.as_bytes()), r.failure, r.end_us));
            }
            counters.extend(group.buses.iter().map(|b| (b.bus, b.counters)));
        });
        (firsts, outcomes, counters)
    }

    #[test]
    fn streaming_pump_matches_materialized_for_any_window() {
        let baseline = faulted_sweep(1, usize::MAX);
        assert_eq!(baseline.0, vec![0, 2], "strict in-order group delivery");
        assert_eq!(baseline.1.len(), 4);
        for (threads, window) in [(1, 1), (2, 2), (3, 5), (2, usize::MAX)] {
            assert_eq!(
                faulted_sweep(threads, window),
                baseline,
                "threads {threads}, window {window}"
            );
        }
    }

    #[test]
    fn shared_bus_sweep_is_thread_count_invariant() {
        let baseline = faulted_sweep(1, usize::MAX);
        assert_eq!(baseline, faulted_sweep(2, usize::MAX));
        assert_eq!(baseline, faulted_sweep(8, usize::MAX));
    }
}
