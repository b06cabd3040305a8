//! `service-rekey` and `service-join`: closed-loop clients against an
//! in-process `ServiceDaemon` on loopback TCP.
//!
//! * `service-rekey` — each client connects, greets and enrolls once
//!   during set-up, then loops fresh conventional STS handshakes on the
//!   same certificates (the per-session rekey the paper argues for).
//! * `service-join` — each client loops a whole device join: connect,
//!   hello, enroll a fresh identity, fetch and verify the CRL, one
//!   handshake, close.
//!
//! Latency is taken by the client from the start of each operation.

use crate::trace::Recorder;
use crate::{cpu_seconds, mix, threads_now, Workload};
use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;
use ecq_proto::Credentials;
use ecq_service::{ServiceAddr, ServiceClient, ServiceConfig, ServiceDaemon, StatsSnapshot};
use ecq_sts::StsVariant;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client connections, one thread each, in a closed loop.
pub const CLIENTS: usize = 2;
/// Deployment time the handshakes run at (inside every validity window).
const NOW: u32 = 1;

struct Client {
    index: usize,
    rng: HmacDrbg,
    /// Rekey only: the persistent connection and its credentials.
    session: Option<(ServiceClient, Credentials)>,
    /// Requests sent, by kind, in the daemon's own counter shape.
    sent: StatsSnapshot,
    /// Operations started so far, over every phase.
    started: u64,
}

struct Daemon {
    daemon: ServiceDaemon,
    addr: SocketAddr,
    clients: Vec<Client>,
}

impl Daemon {
    /// Closes the clients' connections, stops the daemon and returns
    /// its final counters.
    fn stop(mut self) -> StatsSnapshot {
        self.clients.clear();
        self.daemon.shutdown();
        self.daemon.stats()
    }
}

/// Daemon start plus, for rekey, each client's connect, hello and
/// enrollment. The clients set up one after the other on the calling
/// thread, so no set-up thread is spawned or woken inside the timed
/// region.
fn start_service(workload: Workload, seed: u64) -> Result<Daemon, String> {
    let daemon = ServiceDaemon::start(
        ServiceConfig::tcp("127.0.0.1:0")
            .seed(mix(seed, 0xDAE))
            .read_timeout(Duration::from_secs(10)),
    )
    .map_err(|e| format!("daemon start: {e}"))?;
    let addr = match daemon.addr() {
        ServiceAddr::Tcp(addr) => *addr,
        _ => return Err("daemon did not bind TCP".to_string()),
    };
    let clients = (0..CLIENTS)
        .map(|index| new_client(workload, seed, index, addr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Daemon {
        daemon,
        addr,
        clients,
    })
}

fn new_client(
    workload: Workload,
    seed: u64,
    index: usize,
    addr: SocketAddr,
) -> Result<Client, String> {
    let mut rng = HmacDrbg::from_seed(mix(seed, 0xC11E47 + index as u64));
    let mut sent = StatsSnapshot::default();
    let session = if workload == Workload::ServiceRekey {
        sent.connections += 1;
        sent.enrollments += 1;
        let mut conn = ServiceClient::connect_tcp(addr).map_err(|e| e.to_string())?;
        conn.hello(rng.bytes32()).map_err(|e| e.to_string())?;
        let id = DeviceId::from_label(&format!("rekey-{seed}-{index}"));
        let creds = conn.enroll(id, &mut rng).map_err(|e| e.to_string())?;
        Some((conn, creds))
    } else {
        None
    };
    Ok(Client {
        index,
        rng,
        session,
        sent,
        started: 0,
    })
}

/// Times one set-up of the service.
fn timed_setup(
    workload: Workload,
    seed: u64,
    rep: u64,
    rec: &mut Recorder,
) -> Result<(f64, Daemon), String> {
    let span = rec.enter("service.setup", rep);
    let t = Instant::now();
    let result = start_service(workload, seed);
    let seconds = t.elapsed().as_secs_f64();
    rec.exit(span);
    result
        .map(|d| (seconds, d))
        .map_err(|e| format!("service set-up: {e}"))
}

/// What one client thread saw in one phase.
#[derive(Default)]
struct ClientOut {
    /// Per operation: start (µs after the phase began) and latency (µs).
    ops: Vec<(u32, f32)>,
    /// First 8 bytes of every session key: distinct prefixes prove
    /// distinct keys, at a quarter of the memory.
    keys: Vec<u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    threads_peak: u64,
}

fn rekey_op(client: &mut Client, rec: &mut Recorder, op: u64) -> Result<[u8; 32], String> {
    let seed_a = client.rng.bytes32();
    let seed_b = client.rng.bytes32();
    let (conn, creds) = client
        .session
        .as_mut()
        .ok_or_else(|| "rekey client has no session".to_string())?;
    client.sent.handshakes += 1;
    let span = rec.enter("service.handshake", op);
    let hs = conn.handshake(creds, StsVariant::Conventional, NOW, &seed_a, &seed_b);
    rec.exit(span);
    Ok(*hs.map_err(|e| format!("handshake: {e}"))?.key.as_bytes())
}

fn join_op(
    client: &mut Client,
    addr: SocketAddr,
    seed: u64,
    n: u64,
    rec: &mut Recorder,
    op: u64,
    threads_peak: &mut u64,
) -> Result<[u8; 32], String> {
    let sent = &mut client.sent;
    let rng = &mut client.rng;
    sent.connections += 1;
    let span = rec.enter("service.connect", op);
    let conn = ServiceClient::connect_tcp(addr);
    rec.exit(span);
    let mut conn = conn.map_err(|e| format!("connect: {e}"))?;
    if rec.enabled() {
        *threads_peak = (*threads_peak).max(threads_now());
    }

    let span = rec.enter("service.hello", op);
    let hello = conn.hello(rng.bytes32());
    rec.exit(span);
    hello.map_err(|e| format!("hello: {e}"))?;

    sent.enrollments += 1;
    let id = DeviceId::from_label(&format!("join-{seed}-{}-{n}", client.index));
    let span = rec.enter("service.enroll", op);
    let creds = conn.enroll(id, rng);
    rec.exit(span);
    let creds = creds.map_err(|e| format!("enroll: {e}"))?;

    sent.crl_fetches += 1;
    let span = rec.enter("service.crl", op);
    let crl = conn.fetch_crl();
    rec.exit(span);
    crl.map_err(|e| format!("crl: {e}"))?
        .check(&creds.cert, NOW)
        .map_err(|e| format!("fresh certificate refused by the CRL: {e}"))?;

    let seed_a = rng.bytes32();
    let seed_b = rng.bytes32();
    sent.handshakes += 1;
    let span = rec.enter("service.handshake", op);
    let hs = conn.handshake(&creds, StsVariant::Conventional, NOW, &seed_a, &seed_b);
    rec.exit(span);
    let key = *hs.map_err(|e| format!("handshake: {e}"))?.key.as_bytes();
    drop(conn);
    Ok(key)
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    workload: Workload,
    client: &mut Client,
    addr: SocketAddr,
    seed: u64,
    barrier: &Barrier,
    base: Instant,
    end: Instant,
    mut rec: Recorder,
) -> (ClientOut, Recorder) {
    let mut out = ClientOut::default();
    barrier.wait();
    loop {
        let start = Instant::now();
        if start >= end {
            break;
        }
        let n = client.started;
        client.started += 1;
        let op = ((client.index as u64) << 32) | n;
        let rekey = workload == Workload::ServiceRekey;
        let name = if rekey {
            "service.rekey"
        } else {
            "service.join"
        };
        let root = rec.enter(name, op);
        let result = if rekey {
            rekey_op(client, &mut rec, op)
        } else {
            join_op(client, addr, seed, n, &mut rec, op, &mut out.threads_peak)
        };
        rec.exit(root);
        let done = Instant::now();
        out.attempted += 1;
        match result {
            Ok(key) => out.keys.push(u64::from_be_bytes(
                key[..8].try_into().expect("a session key has 32 bytes"),
            )),
            Err(e) => {
                // A broken client cannot go on meaningfully; the run is
                // already incorrect.
                out.failed += 1;
                out.errors.push(format!("client {}: {e}", client.index));
                break;
            }
        }
        let start_us = u32::try_from((start - base).as_micros()).unwrap_or(u32::MAX);
        out.ops
            .push((start_us, ((done - start).as_secs_f64() * 1e6) as f32));
    }
    (out, rec)
}

/// One phase of the closed loop on the kept daemon's clients: warm up
/// for `warm`, then measure for `window`.
fn run_phase(
    workload: Workload,
    service: &mut Daemon,
    seed: u64,
    warm: Duration,
    window: Duration,
    rec: &mut Recorder,
) -> Vec<Result<ClientOut, String>> {
    let addr = service.addr;
    let barrier = Barrier::new(CLIENTS + 1);
    let base = Instant::now();
    let end = base + warm + window;
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = service
            .clients
            .iter_mut()
            .map(|client| {
                let crec = rec.fork(client.index as u32 + 1);
                let barrier = &barrier;
                s.spawn(move || client_loop(workload, client, addr, seed, barrier, base, end, crec))
            })
            .collect();
        barrier.wait();
        handles.into_iter().map(|h| h.join()).collect()
    });
    joined
        .into_iter()
        .map(|j| match j {
            Ok((out, crec)) => {
                rec.absorb(crec);
                Ok(out)
            }
            Err(_) => Err("a client thread panicked".to_string()),
        })
        .collect()
}

/// One service run: set-ups interleaved with phases of the closed loop.
pub struct ServiceRun {
    /// Process CPU seconds per set-up and its teardown, one sample per
    /// round of set-ups.
    pub setup_cpu_s: Vec<f64>,
    /// Wall seconds of every set-up.
    pub setup_wall_s: Vec<f64>,
    /// Latency (µs) of every operation started inside a measured
    /// window, phase by phase in order of start.
    pub latency_us: Vec<f64>,
    /// Completions per second, one sample per whole-second slice of
    /// each measured window.
    pub rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub stats: StatsSnapshot,
    pub threads_peak: u64,
}

/// Sets the service up and keeps that daemon for the closed loop, which
/// runs for `measure` split into `phases` equal phases, each warmed up
/// for `warm` first. Before the first phase and after every phase, a
/// round of `setups` more set-ups is timed (each stopped again), so the
/// set-up samples see the same host conditions as the loop does.
///
/// A set-up is a chain of hand-offs between the client, the accept
/// thread and fresh connection threads, so its wall time on a virtual
/// machine is mostly how soon the hypervisor runs an idle vCPU again.
/// The work it costs is the process CPU time of a round, which
/// `/proc/self/stat` gives to a clock tick: rounds are sized to make
/// that tick small.
pub fn run_service(
    workload: Workload,
    seed: u64,
    setups: usize,
    phases: u32,
    warm: Duration,
    measure: Duration,
    rec: &mut Recorder,
) -> ServiceRun {
    let (mut setup_cpu_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut kept = match timed_setup(workload, seed, 0, rec) {
        Ok((seconds, d)) => {
            setup_wall_s.push(seconds);
            d
        }
        Err(e) => return failed_run(e),
    };
    let phases = phases.max(1);
    let window = measure / phases;
    let mut failures = Vec::new();
    let (mut latency_us, mut rates, mut keys) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut threads_peak) = (0, 0, 0);
    'run: for phase in 0..=phases {
        let cpu = cpu_seconds();
        for _ in 0..setups {
            match timed_setup(workload, seed, setup_wall_s.len() as u64, rec) {
                Ok((seconds, d)) => {
                    setup_wall_s.push(seconds);
                    d.stop();
                }
                Err(e) => {
                    failures.push(e);
                    break 'run;
                }
            }
        }
        if setups > 0 {
            setup_cpu_s.push((cpu_seconds() - cpu) / setups as f64);
        }
        if phase == phases {
            break;
        }
        let mut ops = Vec::new();
        for out in run_phase(workload, &mut kept, seed, warm, window, rec) {
            match out {
                Ok(out) => {
                    keys.extend(out.keys);
                    ops.extend(out.ops);
                    attempted += out.attempted;
                    failed += out.failed;
                    threads_peak = threads_peak.max(out.threads_peak);
                    failures.extend(out.errors);
                }
                Err(e) => failures.push(e),
            }
        }
        phase_samples(&mut ops, warm, window, &mut latency_us, &mut rates);
        if !failures.is_empty() {
            break;
        }
    }

    let mut sent = StatsSnapshot::default();
    for client in &kept.clients {
        sent.connections += client.sent.connections;
        sent.enrollments += client.sent.enrollments;
        sent.crl_fetches += client.sent.crl_fetches;
        sent.handshakes += client.sent.handshakes;
    }
    let stats = kept.stop();

    // Every request served once, and no connection ended in an error
    // (the clients' tally has `errors == 0`).
    if stats != sent {
        failures.push(format!(
            "daemon counters {stats:?} differ from the requests the clients sent {sent:?}"
        ));
    }
    let total_keys = keys.len();
    keys.sort_unstable();
    keys.dedup();
    if keys.len() != total_keys {
        failures.push(format!(
            "{} of {total_keys} session keys repeat an earlier session's key",
            total_keys - keys.len()
        ));
    }

    ServiceRun {
        setup_cpu_s,
        setup_wall_s,
        latency_us,
        rates,
        attempted,
        failed,
        failures,
        stats,
        threads_peak,
    }
}

/// Adds one phase's samples: the latency of each operation started in
/// the measured window, in start order, and the completions in each
/// whole-second slice of it.
fn phase_samples(
    ops: &mut [(u32, f32)],
    warm: Duration,
    window: Duration,
    latency_us: &mut Vec<f64>,
    rates: &mut Vec<f64>,
) {
    ops.sort_by_key(|(start, _)| *start);
    let warm_us = warm.as_secs_f64() * 1e6;
    latency_us.extend(
        ops.iter()
            .filter(|(start, _)| f64::from(*start) >= warm_us)
            .map(|(_, us)| f64::from(*us)),
    );
    let slices = window.as_secs().max(1);
    let slice_us = window.as_secs_f64() * 1e6 / slices as f64;
    let mut counts = vec![0u64; slices as usize];
    for (start, us) in ops.iter() {
        let done = f64::from(*start) + f64::from(*us) - warm_us;
        if done >= 0.0 {
            if let Some(c) = counts.get_mut((done / slice_us) as usize) {
                *c += 1;
            }
        }
    }
    rates.extend(counts.iter().map(|&c| c as f64 / slice_us * 1e6));
}

fn failed_run(failure: String) -> ServiceRun {
    ServiceRun {
        setup_cpu_s: Vec::new(),
        setup_wall_s: Vec::new(),
        latency_us: Vec::new(),
        rates: Vec::new(),
        attempted: 1,
        failed: 1,
        failures: vec![failure],
        stats: StatsSnapshot::default(),
        threads_peak: 0,
    }
}
