//! The repository's handshake-cost benchmark.
//!
//! ```sh
//! cargo run --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-stream|service-rekey|service-join> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs one workload with tracing off and reports its
//! end-to-end metrics. `--trace 1` is the separate traced run: the
//! per-layer rows, a traced slice of every workload, the attribution of
//! handshake time to the layers, and the tracing overhead of the chosen
//! workload; its spans are written to `perfbench/out/` at exit.
//!
//! Every run checks its outputs. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`; the
//! exit code is non-zero when any check failed.

mod fleet;
mod layers;
mod service;
mod stats;
mod trace;

use stats::{median, percentile, sliced_percentile, spread};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    FleetStream,
    ServiceRekey,
    ServiceJoin,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FleetStream,
        Workload::ServiceRekey,
        Workload::ServiceJoin,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FleetStream => "fleet-stream",
            Workload::ServiceRekey => "service-rekey",
            Workload::ServiceJoin => "service-join",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64 of `seed` and a stream index: every generated input of a
/// run derives from `--seed` through this.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn proc_status(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(key))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> f64 {
    proc_status("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Threads this process has right now (the in-process daemon's
/// connection workers included).
pub fn threads_now() -> u64 {
    proc_status("Threads:").unwrap_or(0)
}

/// User plus system CPU time of the whole process (threads that have
/// exited included), seconds; 100 ticks per second.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => (user + system) as f64 / 100.0,
        _ => f64::NAN,
    }
}

/// The result of one run, printed as human lines and the final JSON.
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// (name, value, unit, samples behind the value)
    metrics: Vec<(&'static str, f64, &'static str, usize)>,
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((name, value, unit, samples));
    }

    fn correct(&self) -> bool {
        self.failures.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.1.is_finite())
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit, _)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Operations per slice of the p99 (ten beyond the percentile each).
const P99_SLICE: usize = 1000;
/// Phases of a service run's closed loop.
const SERVICE_PHASES: u32 = 4;
/// Service set-ups per round, timed before the first phase and after
/// every phase: about half a CPU second, so that the clock tick of the
/// round's CPU time is 2% of it.
const SERVICE_SETUPS: usize = 200;
/// Service warm-up before each phase's measured window.
const SERVICE_WARM: Duration = Duration::from_millis(250);

/// The untraced run: one workload, end-to-end metrics.
fn timed(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let measure = Duration::from_secs(args.seconds);
    let (rates, latency_us, setup_s) = match args.workload {
        Workload::FleetStream => {
            let run = fleet::sweep_timed_cohorts(args.seed, measure, &mut Recorder::disabled());
            out.failures.extend(run.failures.iter().cloned());
            out.failures
                .extend(fleet::check_repeat(args.seed, &run.reference));
            out.attempted = run.attempted();
            out.failed = run.failed();
            let r = &run.reference.report;
            out.notes.push(format!(
                "virtual_makespan_s = {} s (n=1: cohort 0, repeats exactly for the seed)",
                r.handshake_makespan_us as f64 / 1e6
            ));
            out.notes.push(format!(
                "key_digest = {} (cohort 0, repeated on one thread)",
                fleet::hex(r.key_digest)
            ));
            out.notes.push(format!(
                "cohorts = {} timed x {} devices, window {} sessions, {} threads; \
                 latency is host time per keyed pair handshake of each cohort",
                run.timed.len(),
                fleet::DEVICES,
                fleet::WINDOW,
                fleet::THREADS
            ));
            let setup: Vec<f64> = std::iter::once(&run.reference)
                .chain(&run.timed)
                .map(|c| c.setup_s)
                .collect();
            (run.rates(), run.per_hs_us(), setup)
        }
        Workload::ServiceRekey | Workload::ServiceJoin => {
            let run = service::run_service(
                args.workload,
                args.seed,
                SERVICE_SETUPS,
                SERVICE_PHASES,
                SERVICE_WARM,
                measure,
                &mut Recorder::disabled(),
            );
            out.failures.extend(run.failures.iter().cloned());
            out.attempted = run.attempted;
            out.failed = run.failed;
            out.notes.push(format!(
                "daemon: connections {} enrollments {} crl_fetches {} handshakes {} errors {}",
                run.stats.connections,
                run.stats.enrollments,
                run.stats.crl_fetches,
                run.stats.handshakes,
                run.stats.errors
            ));
            out.notes.push(format!(
                "{} closed-loop clients; latency per operation from its start",
                service::CLIENTS
            ));
            out.notes.push(format!(
                "setup_s is process CPU time per set-up and teardown, one sample per round \
                 of {SERVICE_SETUPS}; set-up wall time: median {} s (n={})",
                median(&run.setup_wall_s),
                run.setup_wall_s.len()
            ));
            (run.rates, run.latency_us, run.setup_cpu_s)
        }
    };
    out.notes.push(format!(
        "error_rate = {} (n={}: {} failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
        out.failed
    ));
    out.notes.push(format!("ops_per_s samples: {rates:.1?}"));
    out.metric("ops_per_s", median(&rates), "1/s", rates.len());
    out.metric(
        "latency_p50_us",
        percentile(&latency_us, 50.0),
        "us",
        latency_us.len(),
    );
    // Host preemption sets the tail on a shared machine, so the p99 is
    // shown beside the metrics rather than reported as one.
    let (p99, slices) = sliced_percentile(&latency_us, 99.0, P99_SLICE);
    out.notes.push(format!(
        "latency_p99_us = {p99} us (n={}: median of the p99s of {slices} slice(s) of up to \
         {P99_SLICE} operations)",
        latency_us.len()
    ));
    out.metric("setup_s", median(&setup_s), "s", setup_s.len());
    out.notes.push(format!(
        "setup_s samples: quartile spread {:.3} of the median",
        spread(&setup_s)
    ));
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    out
}

/// What one slice of a workload measured.
struct Slice {
    rate: f64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn fleet_slice(seed: u64, measure: Duration, rec: &mut Recorder) -> (Slice, fleet::FleetRun) {
    let run = fleet::sweep_timed_cohorts(seed, measure, rec);
    let handshakes: usize = run.timed.iter().map(|c| c.report.handshakes).sum();
    let seconds: f64 = run.timed.iter().map(|c| c.sweep_s).sum();
    let slice = Slice {
        rate: handshakes as f64 / seconds,
        attempted: run.attempted(),
        failed: run.failed(),
        failures: run.failures.clone(),
    };
    (slice, run)
}

fn service_slice(
    workload: Workload,
    seed: u64,
    measure: Duration,
    rec: &mut Recorder,
) -> (Slice, service::ServiceRun) {
    // One set-up (the daemon the loop runs on) and one phase.
    let run = service::run_service(
        workload,
        seed,
        0,
        1,
        Duration::from_millis(200),
        measure,
        rec,
    );
    let slice = Slice {
        rate: run.rates.iter().sum::<f64>() / run.rates.len().max(1) as f64,
        attempted: run.attempted,
        failed: run.failed,
        failures: run.failures.clone(),
    };
    (slice, run)
}

/// The traced run: layer rows, a traced slice of every workload, the
/// attribution, and the chosen workload's tracing overhead from
/// alternating untraced and traced slices.
fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let budget = Duration::from_secs(args.seconds);
    let slice = budget / 10;
    let mut rec = Recorder::new(true, Instant::now(), 0);
    let layers = layers::measure_rows(args.seed, budget * 2 / 5, &mut rec);
    out.failures.extend(layers.failures.iter().cloned());

    let mut fleet_run = None;
    let mut rekey_run = None;
    let mut join_run = None;
    let mut service_errors = 0;
    let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
    for workload in Workload::ALL {
        // The chosen workload alternates untraced and traced slices, two
        // of each; every other workload runs one traced slice for its
        // rows.
        let plan: &[bool] = if workload == args.workload {
            &[false, true, false, true]
        } else {
            &[true]
        };
        for &traced_slice in plan {
            let mut off = Recorder::disabled();
            let r = if traced_slice { &mut rec } else { &mut off };
            let s = match workload {
                Workload::FleetStream => {
                    let (s, run) = fleet_slice(args.seed, slice, r);
                    if traced_slice {
                        fleet_run = Some(run);
                    }
                    s
                }
                Workload::ServiceRekey | Workload::ServiceJoin => {
                    let (s, run) = service_slice(workload, args.seed, slice, r);
                    service_errors += run.stats.errors;
                    if traced_slice {
                        if workload == Workload::ServiceRekey {
                            rekey_run = Some(run);
                        } else {
                            join_run = Some(run);
                        }
                    }
                    s
                }
            };
            out.attempted += s.attempted;
            out.failed += s.failed;
            out.failures.extend(s.failures);
            if workload == args.workload {
                if traced_slice {
                    with_trace.push(s.rate);
                } else {
                    plain.push(s.rate);
                }
            }
        }
    }

    // ecq_p256, ecq_crypto, ecq_cert: measured rows.
    for name in [
        "p256.keygen_us",
        "p256.ecdh_us",
        "p256.sign_us",
        "p256.verify_us",
        "p256.mul_vartime_us",
        "p256.fe_invert_ns",
        "crypto.aes_block_ns",
        "crypto.mac_us",
        "crypto.kdf_us",
        "crypto.hash_block_ns",
        "crypto.rng32_ns",
        "cert.issue_us",
        "cert.issue_batch_per_cert_us",
        "cert.reconstruct_us",
        "cert.recon_eq1_us",
        "sts.establish_us.conventional",
        "sts.establish_us.opt1",
        "sts.establish_us.opt2",
    ] {
        layer_row(&mut out, &layers, name);
    }

    // ecq_sts: the conventional handshake predicted from the rows.
    let predicted = layers.predicted(ecq_sts::StsVariant::Conventional);
    let measured_sts = layers.median("sts.establish_us.conventional");
    out.metric("sts.op1_us", predicted.op1, "us", 1);
    out.metric("sts.op2_us", predicted.op2, "us", 1);
    out.metric("sts.op3_us", predicted.op3, "us", 1);
    out.metric("sts.op4_us", predicted.op4, "us", 1);
    out.metric("sts.predicted_us", predicted.total(), "us", 1);
    out.metric(
        "sts.residual_pct",
        (measured_sts - predicted.total()) / measured_sts * 100.0,
        "%",
        1,
    );
    out.metric("sts.prims_per_hs", layers.prims_per_hs() as f64, "count", 1);

    // ecq_baselines: the paper's comparison, as interleaved pairs.
    layer_row(&mut out, &layers, "baselines.s_ecdsa_us");
    let rounds = layers.rows.get("baselines.s_ecdsa_us").map_or(0, |r| r.2);
    out.metric("sts.vs_s_ecdsa_pct", layers.vs_s_ecdsa_pct, "%", rounds);

    // ecq_proto.
    layer_row(&mut out, &layers, "proto.encode_ns");
    layer_row(&mut out, &layers, "proto.decode_ns");
    out.metric(
        "proto.wire_bytes_per_hs",
        layers.wire_bytes_per_hs as f64,
        "count",
        1,
    );

    // ecq_simnet and ecq_fleet, from the traced fleet slice.
    if let Some(run) = &fleet_run {
        let handshakes: usize = run.timed.iter().map(|c| c.report.handshakes).sum();
        let per = |total: u64| total as f64 / handshakes.max(1) as f64;
        let messages = run.timed.iter().map(|c| c.report.messages).sum();
        let frames = run.timed.iter().map(|c| c.report.can_frames).sum();
        out.metric("simnet.messages_per_hs", per(messages), "count", handshakes);
        out.metric("simnet.can_frames_per_hs", per(frames), "count", handshakes);
        let cpu_s: f64 = run.timed.iter().map(|c| c.cpu_s).sum();
        let per_hs = cpu_s * 1e6 / handshakes.max(1) as f64;
        // Host work per keyed pair: both sides of the handshake, plus
        // enrolling both devices (request keygen, batched issuance,
        // reconstruction).
        let opt2 = layers
            .predicted(ecq_sts::StsVariant::OptimizationII)
            .total();
        let enroll = layers.median("p256.keygen_us")
            + layers.median("cert.issue_batch_per_cert_us")
            + layers.median("cert.reconstruct_us");
        let predicted_fleet = opt2 + 2.0 * enroll;
        out.metric("fleet.per_hs_us", per_hs, "us", handshakes);
        out.metric("fleet.predicted_per_hs_us", predicted_fleet, "us", 1);
        out.metric(
            "fleet.residual_pct",
            (per_hs - predicted_fleet) / per_hs * 100.0,
            "%",
            1,
        );
        out.metric(
            "fleet.enroll_batches",
            run.reference.report.enroll_batches as f64,
            "count",
            1,
        );
        // Simulated time is the same for every seed (the cost models do
        // not depend on key material), so it is shown, not reported.
        out.notes.push(format!(
            "fleet.virtual_makespan_s = {} s (cohort 0)",
            run.reference.report.handshake_makespan_us as f64 / 1e6
        ));
        out.notes.push(format!(
            "fleet: per-handshake CPU {per_hs:.1} us measured, {predicted_fleet:.1} us predicted \
             (handshake {opt2:.1} + 2 x enrollment {enroll:.1})"
        ));
    }

    // ecq_service, from the traced service slices.
    if let (Some(rekey), Some(join)) = (&rekey_run, &join_run) {
        let span_metric = |out: &mut Outcome, metric, name| {
            let d = rec.durations_us(name, "service.join");
            out.metric(metric, median(&d), "us", d.len());
        };
        span_metric(&mut out, "service.connect_us", "service.connect");
        span_metric(&mut out, "service.hello_us", "service.hello");
        span_metric(&mut out, "service.enroll_us", "service.enroll");
        span_metric(&mut out, "service.crl_us", "service.crl");
        // The rekey loop's handshakes: the same certificates every time.
        let rekey_hs = rec.durations_us("service.handshake", "service.rekey");
        let handshake_us = median(&rekey_hs);
        out.metric("service.handshake_us", handshake_us, "us", rekey_hs.len());
        out.metric(
            "service.hs_residual_us",
            handshake_us - measured_sts,
            "us",
            1,
        );
        out.metric("service.threads_peak", join.threads_peak as f64, "count", 1);
        out.metric("service.daemon_errors", service_errors as f64, "count", 1);
        let served =
            |f: fn(&ecq_service::StatsSnapshot) -> u64| (f(&rekey.stats) + f(&join.stats)) as f64;
        out.metric(
            "service.served_connections",
            served(|s| s.connections),
            "count",
            1,
        );
        out.metric(
            "service.served_enrollments",
            served(|s| s.enrollments),
            "count",
            1,
        );
        out.metric(
            "service.served_crl_fetches",
            served(|s| s.crl_fetches),
            "count",
            1,
        );
        out.metric(
            "service.served_handshakes",
            served(|s| s.handshakes),
            "count",
            1,
        );
        out.notes.push(format!(
            "daemon: handshake span {handshake_us:.1} us against bare establish {measured_sts:.1} us \
             and {:.1} us predicted from the primitives",
            predicted.total()
        ));
    }

    let overhead = (median(&plain) / median(&with_trace) - 1.0) * 100.0;
    out.metric(
        "trace.overhead_pct",
        overhead,
        "%",
        plain.len() + with_trace.len(),
    );

    for (name, (count, total, own)) in rec.summary() {
        out.notes.push(format!(
            "span {name}: {count} spans, {:.3} ms total, {:.3} ms self",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    for (name, (m, s, n)) in &layers.rows {
        out.notes.push(format!(
            "row {name}: median {m:.4}, spread {s:.4}, {n} samples"
        ));
    }
    match write_spans(args, &rec) {
        Ok(path) => out.notes.push(format!("spans written to {path}")),
        Err(e) => out.failures.push(format!("writing spans: {e}")),
    }
    out
}

fn layer_row(out: &mut Outcome, layers: &layers::Layers, name: &'static str) {
    let (median, _, samples) = layers.rows.get(name).copied().unwrap_or((f64::NAN, 0.0, 0));
    let unit = if name.ends_with("_ns") { "ns" } else { "us" };
    out.metric(name, median, unit, samples);
}

fn write_spans(args: &Args, rec: &Recorder) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, rec.to_jsonl())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ecq_perfbench: {e}");
            eprintln!(
                "usage: ecq_perfbench --workload <fleet-stream|service-rekey|service-join> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (name, value, unit, samples) in &out.metrics {
        println!("  {name} = {value} {unit} (n={samples})");
    }
    for note in &out.notes {
        println!("  {note}");
    }
    for failure in &out.failures {
        println!("  CHECK FAILED: {failure}");
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
