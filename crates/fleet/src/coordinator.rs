//! The fleet coordinator: batch enrollment, then establishment and
//! rekey epochs as message-granularity sweeps on the one sweep engine
//! ([`crate::interleave`]).

use crate::device::SimDevice;
use crate::interleave::{self, DeliveryRecord, SessionResult, SessionWork, SweepOptions};
use crate::pool::CaPool;
use crate::report::FleetReport;
use crate::scheduler::{micros_from_ms, VirtualTime};
use crate::FleetError;
use ecq_cert::requester::CertRequester;
use ecq_cert::{CertError, RevocationList};
use ecq_crypto::sha256::Sha256;
use ecq_crypto::HmacDrbg;
use ecq_devices::{timing, DevicePreset, DeviceProfile};
use ecq_proto::{Credentials, ProtocolError, SessionKey};
use ecq_simnet::{FaultCounters, FrameRecord};
use ecq_sts::{RekeyPolicy, StsVariant};
use std::collections::VecDeque;

/// Parameters of a fleet run. Everything — device count, sharding,
/// batching, validity, rekey policy — is explicit so a `(config, seed)`
/// pair fully determines the run.
///
/// The struct is `#[non_exhaustive]`: build one with
/// [`FleetConfig::new`] (or `default()`) and refine it with the
/// builder methods, e.g.
/// `FleetConfig::new().devices(64).seed(7).variant(StsVariant::OptimizationII)`.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct FleetConfig {
    /// Devices in the roster.
    pub devices: usize,
    /// Independent CA shards provisioning the roster.
    pub ca_shards: usize,
    /// Certificates per [`ecq_cert::ca::CertificateAuthority::issue_batch`] call.
    pub enroll_batch: usize,
    /// Certificate validity start (deployment seconds).
    pub valid_from: u32,
    /// Certificate validity end (deployment seconds).
    pub valid_to: u32,
    /// Rekey policy every pair session runs under.
    pub rekey: RekeyPolicy,
    /// STS execution-schedule variant.
    pub variant: StsVariant,
    /// Master seed; all shard, device and session DRBGs derive from it.
    pub seed: u64,
}

impl Default for FleetConfig {
    /// 1024 devices over 4 shards, 64-certificate batches, one-day
    /// certificates, hourly/10k-message rekey.
    fn default() -> Self {
        FleetConfig {
            devices: 1024,
            ca_shards: 4,
            enroll_batch: 64,
            valid_from: 0,
            valid_to: 86_400,
            rekey: RekeyPolicy::default(),
            variant: StsVariant::Conventional,
            seed: 0xF1EE7,
        }
    }
}

impl FleetConfig {
    /// The default configuration, as a builder starting point.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the roster size.
    #[must_use]
    pub fn devices(mut self, devices: usize) -> Self {
        self.devices = devices;
        self
    }

    /// Sets the number of independent CA shards.
    #[must_use]
    pub fn ca_shards(mut self, ca_shards: usize) -> Self {
        self.ca_shards = ca_shards;
        self
    }

    /// Sets the issuance batch size.
    #[must_use]
    pub fn enroll_batch(mut self, enroll_batch: usize) -> Self {
        self.enroll_batch = enroll_batch;
        self
    }

    /// Sets the certificate validity window.
    #[must_use]
    pub fn validity(mut self, valid_from: u32, valid_to: u32) -> Self {
        self.valid_from = valid_from;
        self.valid_to = valid_to;
        self
    }

    /// Sets the rekey policy.
    #[must_use]
    pub fn rekey(mut self, rekey: RekeyPolicy) -> Self {
        self.rekey = rekey;
        self
    }

    /// Sets the STS execution-schedule variant.
    #[must_use]
    pub fn variant(mut self, variant: StsVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One pair session between two enrolled devices of the same shard.
pub struct PairSession {
    /// Roster index of the initiating device.
    pub a: usize,
    /// Roster index of the responding device.
    pub b: usize,
    /// The pair seed: establishment's wire seed, and the root every
    /// rekey epoch's wire seed derives from.
    seed: [u8; 32],
    rekeys: u64,
    last_key: Option<SessionKey>,
    failure: Option<FleetError>,
}

impl PairSession {
    /// Rekey handshakes this session completed in
    /// [`FleetCoordinator::run_epochs`] (the initial establishment is
    /// not a rekey).
    pub fn rekey_count(&self) -> u64 {
        self.rekeys
    }

    /// The most recent session key, once established.
    pub fn last_key(&self) -> Option<&SessionKey> {
        self.last_key.as_ref()
    }

    /// Why this session most recently failed (e.g.
    /// [`ecq_cert::CertError::Revoked`] after a mid-run revocation),
    /// if it did.
    pub fn failure(&self) -> Option<&FleetError> {
        self.failure.as_ref()
    }
}

/// Drives N simulated devices through the full paper lifecycle —
/// sharded batch ECQV enrollment, concurrent STS establishment,
/// policy-driven rekey epochs — on a virtual timeline.
///
/// # Example
///
/// ```
/// use ecq_fleet::{FleetConfig, FleetCoordinator};
///
/// let config = FleetConfig::new().devices(16).ca_shards(2);
/// let mut fleet = FleetCoordinator::new(config);
/// let report = fleet.run_lifecycle(2).unwrap();
/// assert_eq!(report.enrolled, 16);
/// assert!(report.rekeys > 0);
/// ```
pub struct FleetCoordinator {
    config: FleetConfig,
    pool: CaPool,
    devices: Vec<SimDevice>,
    device_seeds: Vec<[u8; 32]>,
    shard_rngs: Vec<HmacDrbg>,
    session_rng: HmacDrbg,
    sessions: Vec<PairSession>,
    /// Rekey epochs run so far.
    epochs: u32,
    gateway: DeviceProfile,
    crl: RevocationList,
    last_deliveries: Vec<DeliveryRecord>,
    last_frame_logs: Vec<(usize, Vec<FrameRecord>)>,
    report: FleetReport,
}

impl FleetCoordinator {
    /// Builds the roster and CA pool; no work happens until
    /// [`Self::enroll_all`].
    pub fn new(config: FleetConfig) -> Self {
        let mut master = HmacDrbg::from_seed(config.seed);
        let pool = CaPool::new(config.ca_shards, &mut master);
        let shard_rngs = (0..pool.shard_count())
            .map(|_| HmacDrbg::new(&master.bytes32(), b"fleet-shard"))
            .collect();
        let mut devices = Vec::with_capacity(config.devices);
        let mut device_seeds = Vec::with_capacity(config.devices);
        for i in 0..config.devices {
            let mut device = SimDevice::new(i, 0);
            device.shard = pool.shard_for(&device.id);
            devices.push(device);
            device_seeds.push(master.bytes32());
        }
        let mut report = FleetReport {
            devices: config.devices,
            shards: pool.shard_count(),
            ..FleetReport::default()
        };
        for d in &devices {
            *report.per_preset.entry(d.preset).or_insert(0) += 1;
        }
        FleetCoordinator {
            config,
            pool,
            devices,
            device_seeds,
            shard_rngs,
            session_rng: HmacDrbg::new(&master.bytes32(), b"fleet-sessions"),
            sessions: Vec::new(),
            epochs: 0,
            gateway: DevicePreset::RaspberryPi4.profile(),
            crl: RevocationList::new(),
            last_deliveries: Vec::new(),
            last_frame_logs: Vec::new(),
            report,
        }
    }

    /// The device roster.
    pub fn devices(&self) -> &[SimDevice] {
        &self.devices
    }

    /// Overrides every roster entry to simulate `preset` (homogeneous
    /// fleet). Presets only drive the virtual cost model, so this is
    /// safe at any point; call it before [`Self::enroll_all`] for the
    /// makespans to be consistent across phases.
    pub fn set_preset_all(&mut self, preset: DevicePreset) {
        for d in &mut self.devices {
            d.preset = preset;
        }
        self.report.per_preset.clear();
        self.report.per_preset.insert(preset, self.devices.len());
    }

    /// The pair sessions created by [`Self::interleaved_sweep`].
    pub fn sessions(&self) -> &[PairSession] {
        &self.sessions
    }

    /// The running report.
    pub fn report(&self) -> &FleetReport {
        &self.report
    }

    /// Batch-enrolls every device against its CA shard.
    ///
    /// Shards run concurrently on the virtual timeline; within a shard
    /// the CA serializes `issue_batch` calls of `enroll_batch`
    /// certificates each. A device's enrollment completes when its
    /// batch is issued *and* the device finished its own key
    /// reconstruction (concurrent across devices).
    ///
    /// # Errors
    ///
    /// [`FleetError::Cert`] when issuance or reconstruction fails
    /// (impossible for well-formed rosters).
    pub fn enroll_all(&mut self) -> Result<(), FleetError> {
        let mut enroller = Enroller::over(
            self.config,
            &self.pool,
            &self.devices,
            &self.device_seeds,
            &mut self.shard_rngs,
            &self.gateway,
        );
        let mut issued = Vec::new();
        while let Some((_, batch)) = enroller.next_batch()? {
            issued.extend(batch);
        }
        let (enrolled, batches, makespan) =
            (enroller.enrolled, enroller.batches, enroller.makespan);
        for (i, _, creds) in issued {
            if let Some(d) = self.devices.get_mut(i) {
                d.credentials = Some(Box::new(creds));
            }
        }
        self.report.enrolled = enrolled;
        self.report.enroll_batches = batches;
        self.report.enroll_makespan_us = makespan;
        Ok(())
    }

    /// The once-only guard both establishment entry points run first:
    /// a coordinator establishes its sessions exactly once, and a
    /// streaming sweep enrolls its roster itself.
    fn check_unswept(&self, streaming: bool) -> Result<(), FleetError> {
        if self.report.key_digest.is_some() || (streaming && self.report.enrolled > 0) {
            return Err(FleetError::AlreadySwept);
        }
        Ok(())
    }

    /// Pairs consecutive enrolled devices within each shard, creating
    /// one session per pair; pair seeds are drawn from the session
    /// DRBG in session-index order (so RNG streams do not depend on how
    /// a later sweep shards work across threads).
    fn create_sessions(&mut self) {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.pool.shard_count()];
        for d in &self.devices {
            if let Some(list) = by_shard.get_mut(d.shard) {
                if d.is_enrolled() {
                    list.push(d.index);
                }
            }
        }
        for list in &by_shard {
            for pair in list.chunks_exact(2) {
                self.sessions.push(PairSession {
                    a: pair[0],
                    b: pair[1],
                    seed: self.session_rng.bytes32(),
                    rekeys: 0,
                    last_key: None,
                    failure: None,
                });
            }
        }
        self.report.sessions = self.sessions.len();
    }

    /// Whether either participant of `session` holds a revoked
    /// certificate. A participant whose revocation status cannot be
    /// checked (missing roster entry or credentials — unreachable for
    /// sessions built by [`Self::create_sessions`]) is treated as
    /// revoked: the denial is the fail-closed outcome.
    fn session_revoked(&self, session: &PairSession) -> bool {
        let revoked = |i: usize| match self.devices.get(i).and_then(|d| d.credentials.as_ref()) {
            Some(c) => self.crl.is_revoked(c.cert.serial),
            None => true,
        };
        revoked(session.a) || revoked(session.b)
    }

    /// The deployment clock at the start of rekey epoch `epoch`
    /// (0 = establishment): one policy age per epoch.
    fn epoch_now(&self, epoch: u32) -> u32 {
        self.config
            .valid_from
            .saturating_add(epoch.saturating_mul(self.config.rekey.max_age_secs))
    }

    /// One sweep over every materialized pair session as epoch `epoch`
    /// (0 = establishment), checked against the CRL now, with the
    /// collecting sink: each session records its outcome, and the
    /// delivery and frame logs are kept for inspection.
    fn sweep_sessions(&mut self, epoch: u32, opts: &SweepOptions) -> ReportFold {
        let now = self.epoch_now(epoch);
        let work: Vec<SessionWork> = self
            .sessions
            .iter()
            .enumerate()
            .filter_map(|(index, s)| {
                let creds = |i: usize| {
                    let d = self.devices.get(i)?;
                    Some((d.credentials.as_deref()?.clone(), d.preset))
                };
                // Both participants are enrolled: sessions pair only
                // enrolled devices, and credentials are never removed.
                let ((creds_a, preset_a), (creds_b, preset_b)) = (creds(s.a)?, creds(s.b)?);
                Some(SessionWork {
                    index,
                    creds_a,
                    creds_b,
                    preset_a,
                    preset_b,
                    wire_seed: epoch_seed(&s.seed, epoch),
                    now,
                    variant: self.config.variant,
                    denied: self.session_revoked(s),
                })
            })
            .collect();

        let mut fold = ReportFold::default();
        let (mut deliveries, mut frame_logs) = (Vec::new(), Vec::new());
        let sessions = &mut self.sessions;
        interleave::run_sweep(work.into_iter(), sessions.len(), opts, |first, group| {
            for (j, result) in group.results.into_iter().enumerate() {
                let outcome = fold.session(first + j, result);
                let Some(session) = sessions.get_mut(first + j) else {
                    continue; // unreachable: results are index-aligned
                };
                match outcome {
                    Ok(key) => {
                        session.last_key = Some(key);
                        session.rekeys += u64::from(epoch > 0);
                    }
                    Err(e) => session.failure = Some(e),
                }
            }
            deliveries.extend(group.deliveries);
            for bus in group.buses {
                fold.faults += bus.counters;
                frame_logs.push((bus.bus, bus.frames));
            }
        });
        self.last_deliveries = deliveries;
        self.last_frame_logs = frame_logs;
        fold
    }

    /// Records an establishment fold: counts, makespan and key digest.
    fn finish_establishment(&mut self, fold: ReportFold) -> Result<(), FleetError> {
        fold.add_counts(&mut self.report);
        self.report.handshake_makespan_us = fold.end_us;
        self.report.key_digest = Some(fold.digest.finalize());
        fold.first_failure.map_or(Ok(()), Err)
    }

    /// Pairs consecutive enrolled devices within each shard and
    /// establishes every pair's first session at **message
    /// granularity**: each STS wire message is delivered as its own
    /// scheduler event over the configured transport, and bus groups
    /// shard across [`SweepOptions::threads`] host workers (the report
    /// is bit-identical for any thread count and any
    /// [`SweepOptions::max_inflight`] — see [`crate::interleave`]).
    ///
    /// Pairing stays intra-shard because the shards are independent
    /// trust roots: a cross-shard handshake would (correctly) fail
    /// authentication. Sessions whose participants are on the
    /// revocation list are denied ([`ecq_cert::CertError::Revoked`]
    /// recorded on the session, [`FleetReport::denied_revoked`]
    /// counted) while the rest of the fleet completes.
    ///
    /// Runs once per coordinator; later re-establishments happen
    /// through [`Self::run_epochs`].
    ///
    /// # Errors
    ///
    /// [`FleetError::AlreadySwept`] when an establishment sweep already
    /// ran; [`FleetError::Protocol`] when a non-revocation handshake
    /// failure occurs (impossible for well-formed rosters on a clean
    /// wire).
    pub fn interleaved_sweep(&mut self, opts: &SweepOptions) -> Result<(), FleetError> {
        self.check_unswept(false)?;
        self.create_sessions();
        let fold = self.sweep_sessions(0, opts);
        self.finish_establishment(fold)
    }

    /// The bounded-memory establishment sweep for million-device
    /// fleets: enrollment, pairing and handshake simulation run as one
    /// pipeline. Pair material is *produced lazily* — each pull
    /// batch-enrolls just enough devices to emit the next pair — and
    /// streamed through the sweep engine with at most
    /// [`SweepOptions::max_inflight`] sessions resident, so peak memory
    /// scales with the admission window and the roster skeleton, never
    /// with `devices × credentials`.
    ///
    /// The resulting [`FleetReport`] (including the key digest) is
    /// **bit-identical** to [`Self::enroll_all`] +
    /// [`Self::interleaved_sweep`] on the same `(config, seed)`, for
    /// any thread count and any window: both enroll through the same
    /// per-shard batch chain, pair in the same order and draw every
    /// DRBG stream identically, and both fold through the same report
    /// fold. What the streaming path does *not* keep is per-session
    /// state: the roster stays un-enrolled in memory,
    /// [`Self::sessions`] stays empty, and each bus group's delivery
    /// and frame logs are dropped as the group is folded (only its
    /// fault counters are kept).
    ///
    /// # Errors
    ///
    /// [`FleetError::AlreadySwept`] when the coordinator already
    /// enrolled or swept; [`FleetError::Cert`] when enrollment fails,
    /// [`FleetError::Protocol`] when a non-revocation handshake failure
    /// occurs (both impossible for well-formed rosters on a clean
    /// wire).
    pub fn streaming_sweep(&mut self, opts: &SweepOptions) -> Result<(), FleetError> {
        self.check_unswept(true)?;
        let (now, variant) = (self.epoch_now(0), self.config.variant);
        let enroller = Enroller::over(
            self.config,
            &self.pool,
            &self.devices,
            &self.device_seeds,
            &mut self.shard_rngs,
            &self.gateway,
        );
        let total = enroller.worklists.iter().map(|l| l.len() / 2).sum();
        let mut producer = PairProducer {
            enroller,
            crl: &self.crl,
            session_rng: &mut self.session_rng,
            now,
            variant,
            queue: VecDeque::new(),
            queue_shard: 0,
            next_index: 0,
            error: None,
        };
        let mut fold = ReportFold::default();
        interleave::run_sweep(&mut producer, total, opts, |first, group| {
            for (j, result) in group.results.into_iter().enumerate() {
                let _ = fold.session(first + j, result);
            }
            // The group's delivery and frame logs drop here: resident
            // state stays bounded by the admission window.
            for bus in &group.buses {
                fold.faults += bus.counters;
            }
        });
        let e = &producer.enroller;
        self.report.enrolled = e.enrolled;
        self.report.enroll_batches = e.batches;
        self.report.enroll_makespan_us = e.makespan;
        self.report.sessions = producer.next_index;
        let error = producer.error;
        let swept = self.finish_establishment(fold);
        error.map_or(swept, Err)
    }

    /// The per-session message-delivery log of the last sweep over the
    /// materialized sessions ([`Self::interleaved_sweep`] or the last
    /// epoch of [`Self::run_epochs`]), concatenated in bus-group order.
    /// Diagnostic: it shows cross-session interleaving at message
    /// granularity on a shared bus (a session on a private link is
    /// simulated alone, so its deliveries are contiguous).
    pub fn last_deliveries(&self) -> &[DeliveryRecord] {
        &self.last_deliveries
    }

    /// The per-bus frame-schedule logs of the last sweep over the
    /// materialized sessions, in bus-id order. The frame schedule is
    /// deterministic — it is pinned line-by-line by the golden
    /// shared-bus fixture. Streaming sweeps keep none.
    pub fn last_frame_logs(&self) -> &[(usize, Vec<FrameRecord>)] {
        &self.last_frame_logs
    }

    /// Revokes the certificate of roster device `index` on the
    /// coordinator's revocation list. Subsequent handshakes involving
    /// the device are denied with [`ecq_cert::CertError::Revoked`];
    /// established keys stay valid until their epoch ends (revocation
    /// stops *future* sessions — Table III, node capture).
    ///
    /// Returns `false` when the device is not enrolled or was already
    /// revoked.
    pub fn revoke_device(&mut self, index: usize) -> bool {
        match self.devices.get(index).and_then(|d| d.credentials.as_ref()) {
            Some(creds) => self.crl.revoke(creds.cert.serial),
            None => false,
        }
    }

    /// Mutable access to the revocation list, for revoking by serial
    /// before a [`Self::streaming_sweep`] (whose roster never holds the
    /// credentials [`Self::revoke_device`] would look up).
    pub fn revocation_list_mut(&mut self) -> &mut RevocationList {
        &mut self.crl
    }

    /// Runs `epochs` rekey epochs over the established pair sessions.
    /// Epoch *e* (counting on from earlier calls) starts
    /// [`RekeyPolicy::max_age_secs`] after the previous one — every
    /// key has aged out — and is one message-granularity sweep on the
    /// sweep engine: each pair runs a fresh STS handshake whose wire
    /// seed derives from its pair seed and *e*, with the deployment
    /// clock at `valid_from + e·max_age_secs`.
    ///
    /// The CRL is checked at epoch start: sessions with a revoked
    /// participant are denied instead of rekeyed
    /// ([`ecq_cert::CertError::Revoked`] recorded on the session,
    /// counted into [`FleetReport::denied_revoked`]), while every other
    /// session proceeds — revoking one device never stalls the fleet.
    /// An epoch adds to the report's rekey, handshake, denial, failure,
    /// traffic and fault counts and sets
    /// [`FleetReport::epoch_end_us`]; the establishment key digest and
    /// makespan are left as they were.
    ///
    /// # Errors
    ///
    /// The first [`FleetError::Protocol`] a rekey handshake failed with
    /// (e.g. the certificates expired before the last epoch); the
    /// remaining sessions and epochs still run.
    pub fn run_epochs(&mut self, epochs: u32, opts: &SweepOptions) -> Result<(), FleetError> {
        let mut first_failure = None;
        for _ in 0..epochs {
            self.epochs += 1;
            let epoch = self.epochs;
            let fold = self.sweep_sessions(epoch, opts);
            fold.add_counts(&mut self.report);
            self.report.rekeys += fold.keyed as u64;
            let start_us = VirtualTime::from(epoch)
                .saturating_mul(VirtualTime::from(self.config.rekey.max_age_secs))
                .saturating_mul(1_000_000);
            self.report.epoch_end_us = start_us.saturating_add(fold.end_us);
            first_failure = first_failure.or(fold.first_failure);
        }
        first_failure.map_or(Ok(()), Err)
    }

    /// Convenience driver: enrollment, the establishment sweep, then
    /// `epochs` rekey epochs, all with [`SweepOptions::default`].
    /// Returns the final report.
    ///
    /// # Errors
    ///
    /// Propagates any phase failure.
    pub fn run_lifecycle(&mut self, epochs: u32) -> Result<FleetReport, FleetError> {
        let opts = SweepOptions::default();
        self.enroll_all()?;
        self.interleaved_sweep(&opts)?;
        self.run_epochs(epochs, &opts)?;
        Ok(self.report.clone())
    }
}

/// The wire seed of a pair's epoch `epoch`: the pair seed itself for
/// establishment, a DRBG derivation of `(pair seed, epoch)` after.
fn epoch_seed(pair_seed: &[u8; 32], epoch: u32) -> [u8; 32] {
    if epoch == 0 {
        return *pair_seed;
    }
    let entropy = [pair_seed.as_slice(), &epoch.to_be_bytes()].concat();
    HmacDrbg::new(&entropy, b"fleet-epoch").bytes32()
}

/// The one report fold: sweep results enter in strict session-index
/// order and accumulate into the key digest, the makespan, the outcome
/// counters and the traffic totals. Establishment and rekey epochs
/// differ only in which report fields they write the fold into.
#[derive(Default)]
struct ReportFold {
    /// SHA-256 over every session's outcome (key bytes or failure
    /// marker) in session-index order.
    digest: Sha256,
    /// Latest session end, virtual µs from the sweep start.
    end_us: VirtualTime,
    /// Sessions that ended keyed.
    keyed: usize,
    denied_revoked: u64,
    timeouts: u64,
    poisoned: u64,
    messages: u64,
    wire_bytes: u64,
    can_frames: u64,
    faults: FaultCounters,
    /// The first non-denial failure, which the sweep reports.
    first_failure: Option<FleetError>,
}

impl ReportFold {
    /// Folds session `index`'s result; returns its key, or why it has
    /// none. Denial beats everything, then the sweep's typed failure,
    /// then the key; a "completed" session without a key lost its state
    /// somewhere and fails closed as poisoned instead of panicking.
    fn session(&mut self, index: usize, result: SessionResult) -> Result<SessionKey, FleetError> {
        self.digest.update(&(index as u64).to_be_bytes());
        self.end_us = self.end_us.max(result.end_us);
        self.messages += result.messages;
        self.wire_bytes += result.wire_bytes;
        self.can_frames += result.frames;
        if result.denied {
            self.denied_revoked += 1;
            self.digest.update(b"denied:revoked");
            return Err(FleetError::Protocol(ProtocolError::Cert(
                CertError::Revoked,
            )));
        }
        let err = match (result.failure, result.key) {
            (None, Some(key)) => {
                self.digest.update(key.as_bytes());
                self.keyed += 1;
                return Ok(key);
            }
            (Some(err), _) => err,
            (None, None) => ProtocolError::Poisoned,
        };
        self.timeouts += u64::from(err == ProtocolError::Timeout);
        self.poisoned += u64::from(err == ProtocolError::Poisoned);
        // The failure *mode* is part of the determinism witness: a run
        // that times out where another saw an authentication failure
        // must not digest equal.
        self.digest.update(b"failed:");
        self.digest.update(err.to_string().as_bytes());
        let err = FleetError::Protocol(err);
        self.first_failure.get_or_insert(err);
        Err(err)
    }

    /// Adds the counts every sweep contributes to `report`: handshakes,
    /// denials, failures, traffic and faults.
    fn add_counts(&self, report: &mut FleetReport) {
        report.handshakes += self.keyed;
        report.denied_revoked += self.denied_revoked;
        report.timeouts += self.timeouts;
        report.poisoned += self.poisoned;
        report.messages += self.messages;
        report.wire_bytes += self.wire_bytes;
        report.can_frames += self.can_frames;
        report.faults += self.faults;
    }
}

/// One enrolled device: roster index, board and credentials.
type Enrolled = (usize, DevicePreset, Credentials);

/// The one enrollment body, behind both [`FleetCoordinator::enroll_all`]
/// and the streaming [`PairProducer`]: shards are enrolled one after
/// the other, each as a chain of `issue_batch` calls on the virtual
/// timeline. Per-shard chains never interact (makespan is a max,
/// counts are sums, each shard draws only its own DRBG), so this
/// sequential order reproduces concurrently running shards exactly.
struct Enroller<'a> {
    config: FleetConfig,
    pool: &'a CaPool,
    devices: &'a [SimDevice],
    device_seeds: &'a [[u8; 32]],
    shard_rngs: &'a mut [HmacDrbg],
    /// Virtual CA time per issued certificate.
    per_cert_us: VirtualTime,
    /// Shard worklists in roster order.
    worklists: Vec<Vec<usize>>,
    shard: usize,
    cursor: usize,
    /// Virtual time the current shard's CA becomes free.
    shard_time: VirtualTime,
    enrolled: usize,
    batches: usize,
    makespan: VirtualTime,
}

impl<'a> Enroller<'a> {
    fn over(
        config: FleetConfig,
        pool: &'a CaPool,
        devices: &'a [SimDevice],
        device_seeds: &'a [[u8; 32]],
        shard_rngs: &'a mut [HmacDrbg],
        gateway: &DeviceProfile,
    ) -> Self {
        let per_cert_us = micros_from_ms(timing::ca_issue_ms(gateway));
        let mut worklists: Vec<Vec<usize>> = vec![Vec::new(); pool.shard_count()];
        for d in devices {
            if let Some(list) = worklists.get_mut(d.shard) {
                list.push(d.index);
            }
        }
        Enroller {
            config,
            pool,
            devices,
            device_seeds,
            shard_rngs,
            per_cert_us,
            worklists,
            shard: 0,
            cursor: 0,
            shard_time: 0,
            enrolled: 0,
            batches: 0,
            makespan: 0,
        }
    }

    /// Enrolls the next batch — device-side request generation,
    /// one amortized `issue_batch` on the CA, one shared-inversion
    /// batch reconstruction — and returns it with its shard, or `None`
    /// once every shard is done.
    fn next_batch(&mut self) -> Result<Option<(usize, Vec<Enrolled>)>, FleetError> {
        let list = loop {
            match self.worklists.get(self.shard) {
                None => return Ok(None),
                Some(list) if self.cursor < list.len() => break list,
                Some(_) => {
                    self.shard += 1;
                    self.cursor = 0;
                    self.shard_time = 0;
                }
            }
        };
        let shard = self.shard;
        let end = (self.cursor + self.config.enroll_batch.max(1)).min(list.len());
        let chunk = &list[self.cursor..end];
        self.cursor = end;

        // Device side: fresh request secrets from per-device DRBGs.
        let requesters: Vec<CertRequester> = chunk
            .iter()
            .map(|&i| {
                let mut rng = HmacDrbg::new(&self.device_seeds[i], b"fleet-requester");
                CertRequester::generate(self.devices[i].id, &mut rng)
            })
            .collect();
        let requests: Vec<_> = requesters.iter().map(|r| r.request()).collect();
        let ca = self.pool.shard(shard);
        let issued = ca.issue_batch(
            &requests,
            self.config.valid_from,
            self.config.valid_to,
            &mut self.shard_rngs[shard],
        )?;
        let ca_done = self.shard_time + self.per_cert_us * chunk.len() as VirtualTime;
        let keys = CertRequester::reconstruct_batch(&requesters, &issued, &ca.public_key())?;
        let mut batch = Vec::with_capacity(chunk.len());
        for ((&i, cert), keys) in chunk.iter().zip(&issued).zip(keys) {
            let device = &self.devices[i];
            let device_done =
                ca_done + micros_from_ms(timing::device_enrollment_ms(&device.preset.profile()));
            self.makespan = self.makespan.max(device_done);
            batch.push((
                i,
                device.preset,
                Credentials {
                    id: device.id,
                    cert: cert.certificate,
                    keys,
                    ca_public: ca.public_key(),
                },
            ));
        }
        self.enrolled += batch.len();
        self.batches += 1;
        self.shard_time = ca_done;
        Ok(Some((shard, batch)))
    }
}

/// Lazy pair-material source for [`FleetCoordinator::streaming_sweep`]:
/// each [`Iterator::next`] call emits the next session's work item,
/// batch-enrolling devices on demand and pairing consecutive devices of
/// a shard exactly as [`FleetCoordinator::interleaved_sweep`] pairs the
/// enrolled roster.
///
/// Peak resident state: one enrollment batch of credentials plus at
/// most one unpaired leftover — never the roster.
struct PairProducer<'a> {
    enroller: Enroller<'a>,
    crl: &'a RevocationList,
    session_rng: &'a mut HmacDrbg,
    now: u32,
    variant: StsVariant,
    /// Enrolled-but-unpaired devices of `queue_shard`, in roster order.
    queue: VecDeque<(DevicePreset, Credentials)>,
    queue_shard: usize,
    /// Next global session index to emit (pairs count in shard order).
    next_index: usize,
    /// First enrollment failure; the iterator fuses once set.
    error: Option<FleetError>,
}

impl Iterator for PairProducer<'_> {
    type Item = SessionWork;

    fn next(&mut self) -> Option<SessionWork> {
        while self.error.is_none() && self.queue.len() < 2 {
            match self.enroller.next_batch() {
                Ok(Some((shard, batch))) => {
                    if shard != self.queue_shard {
                        // A shard's odd leftover device stays enrolled
                        // but unpaired.
                        self.queue.clear();
                        self.queue_shard = shard;
                    }
                    self.queue
                        .extend(batch.into_iter().map(|(_, preset, creds)| (preset, creds)));
                }
                Ok(None) => return None,
                Err(e) => self.error = Some(e),
            }
        }
        if self.error.is_some() {
            return None;
        }
        let (preset_a, creds_a) = self.queue.pop_front()?;
        let (preset_b, creds_b) = self.queue.pop_front()?;
        let denied =
            self.crl.is_revoked(creds_a.cert.serial) || self.crl.is_revoked(creds_b.cert.serial);
        let index = self.next_index;
        self.next_index += 1;
        Some(SessionWork {
            index,
            creds_a,
            creds_b,
            preset_a,
            preset_b,
            wire_seed: self.session_rng.bytes32(),
            now: self.now,
            variant: self.variant,
            denied,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FleetConfig {
        FleetConfig::new()
            .devices(24)
            .ca_shards(3)
            .enroll_batch(5)
            .seed(0xABCD)
    }

    #[test]
    fn enrollment_covers_every_device() {
        let mut fleet = FleetCoordinator::new(small_config());
        fleet.enroll_all().unwrap();
        assert_eq!(fleet.report().enrolled, 24);
        assert!(fleet.devices().iter().all(|d| d.is_enrolled()));
        assert!(fleet.report().enroll_makespan_us > 0);
        // 24 devices over 3 shards in batches of ≤5 needs ≥ 5 batches.
        assert!(fleet.report().enroll_batches >= 5);
        for d in fleet.devices() {
            let creds = d.credentials.as_ref().unwrap();
            assert!(creds.keys.is_consistent());
            assert_eq!(creds.cert.subject, d.id);
            // Each device's certificate chains to its own shard's CA.
            assert_eq!(creds.ca_public, fleet.pool.shard(d.shard).public_key());
        }
    }

    #[test]
    fn handshakes_agree_within_shards_with_distinct_keys() {
        let mut fleet = FleetCoordinator::new(small_config());
        fleet.enroll_all().unwrap();
        fleet.interleaved_sweep(&SweepOptions::default()).unwrap();
        assert!(!fleet.sessions().is_empty());
        assert_eq!(fleet.report().handshakes, fleet.sessions().len());
        let mut keys: Vec<[u8; 32]> = fleet
            .sessions()
            .iter()
            .map(|s| *s.last_key().unwrap().as_bytes())
            .collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "every pair derives an independent key");
        for s in fleet.sessions() {
            assert_eq!(fleet.devices[s.a].shard, fleet.devices[s.b].shard);
            assert_eq!(s.rekey_count(), 0, "establishment is not a rekey");
        }
    }

    #[test]
    fn epochs_rekey_every_session() {
        let mut fleet = FleetCoordinator::new(small_config());
        let report = fleet.run_lifecycle(3).unwrap();
        let sessions = fleet.sessions().len();
        assert_eq!(report.rekeys, 3 * sessions as u64);
        assert_eq!(report.handshakes, 4 * sessions);
        for s in fleet.sessions() {
            assert_eq!(s.rekey_count(), 3); // one per aged epoch
        }
        assert!(report.epoch_end_us > report.handshake_makespan_us);
    }

    #[test]
    fn runs_are_reproducible_from_the_seed() {
        let run = |seed| {
            let mut fleet = FleetCoordinator::new(small_config().seed(seed));
            fleet.run_lifecycle(1).unwrap();
            let keys: Vec<[u8; 32]> = fleet
                .sessions()
                .iter()
                .map(|s| *s.last_key().unwrap().as_bytes())
                .collect();
            (fleet.report().enroll_makespan_us, keys)
        };
        let (t1, k1) = run(7);
        let (t2, k2) = run(7);
        assert_eq!(t1, t2);
        assert_eq!(k1, k2);
        let (_, k3) = run(8);
        assert_ne!(k1, k3, "different seed must derive different keys");
    }

    #[test]
    fn sharding_speeds_up_virtual_enrollment() {
        let run = |shards| {
            let mut fleet = FleetCoordinator::new(
                FleetConfig::new()
                    .devices(32)
                    .ca_shards(shards)
                    .enroll_batch(4)
                    .seed(1),
            );
            fleet.enroll_all().unwrap();
            fleet.report().enroll_makespan_us
        };
        // More gateways working concurrently ⇒ shorter virtual makespan.
        assert!(run(4) < run(1));
    }
}
