//! `fleet-stream`: streaming establishment sweeps over cohorts of
//! simulated devices.
//!
//! Each cohort is one `FleetCoordinator::streaming_sweep`: devices are
//! enrolled lazily in batches inside the sweep and admitted through a
//! bounded window several times smaller than the cohort, then keyed by
//! STS optimization II over shared CAN-FD buses on two worker threads.
//! Cohort `k` of a run draws its fleet seed from `(--seed, k)`.

use crate::trace::Recorder;
use crate::{cpu_seconds, mix};
use ecq_fleet::{FleetConfig, FleetCoordinator, FleetReport, SweepOptions, TransportKind};
use ecq_simnet::FaultSpec;
use ecq_sts::StsVariant;
use std::time::{Duration, Instant};

/// Devices per cohort.
pub const DEVICES: usize = 1024;
/// Admission window, in pair sessions: a quarter of the cohort's 512.
pub const WINDOW: usize = 128;
/// Sweep worker threads.
pub const THREADS: usize = 2;
const BUS_GROUP: usize = 8;

pub fn cohort_config(seed: u64, cohort: u64) -> FleetConfig {
    FleetConfig::new()
        .devices(DEVICES)
        .variant(StsVariant::OptimizationII)
        .seed(mix(seed, cohort))
}

pub fn sweep_options(threads: usize) -> SweepOptions {
    SweepOptions::new()
        .threads(threads)
        .transport(TransportKind::SharedBus { group: BUS_GROUP })
        .faults(FaultSpec::none())
        .max_inflight(WINDOW)
}

/// One swept cohort.
pub struct Cohort {
    pub report: FleetReport,
    /// Coordinator construction, seconds.
    pub setup_s: f64,
    /// The sweep itself (lazy enrollment included), seconds.
    pub sweep_s: f64,
    /// Process CPU time the sweep used, seconds.
    pub cpu_s: f64,
    /// Typed sweep error, if the sweep failed.
    pub error: Option<String>,
}

impl Cohort {
    /// Pair sessions planned for the cohort.
    pub fn attempted(&self) -> u64 {
        (DEVICES / 2) as u64
    }

    /// Planned sessions that did not end keyed: timeouts, poisoned or
    /// denied sessions, and sessions never reached.
    pub fn failed(&self) -> u64 {
        self.attempted()
            .saturating_sub(self.report.handshakes as u64)
    }

    /// What is wrong with this cohort's outcome, if anything.
    pub fn check(&self) -> Option<String> {
        let r = &self.report;
        if let Some(e) = &self.error {
            return Some(format!("fleet sweep failed: {e}"));
        }
        if r.enrolled != DEVICES
            || r.sessions != DEVICES / 2
            || r.handshakes != r.sessions
            || r.timeouts + r.poisoned + r.denied_revoked != 0
            || r.key_digest.is_none()
        {
            return Some(format!(
                "fleet cohort not fully keyed: enrolled {} sessions {} handshakes {} \
                 timeouts {} poisoned {} denied {}",
                r.enrolled, r.sessions, r.handshakes, r.timeouts, r.poisoned, r.denied_revoked
            ));
        }
        None
    }
}

pub fn sweep_cohort(seed: u64, cohort: u64, threads: usize, rec: &mut Recorder) -> Cohort {
    let root = rec.enter("fleet.cohort", cohort);
    let span = rec.enter("fleet.new", cohort);
    let t = Instant::now();
    let mut fleet = FleetCoordinator::new(cohort_config(seed, cohort));
    let setup_s = t.elapsed().as_secs_f64();
    rec.exit(span);

    let span = rec.enter("fleet.streaming_sweep", cohort);
    let cpu = cpu_seconds();
    let t = Instant::now();
    let error = fleet
        .streaming_sweep(&sweep_options(threads))
        .err()
        .map(|e| e.to_string());
    let sweep_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu;
    rec.exit(span);
    rec.exit(root);
    Cohort {
        report: fleet.report().clone(),
        setup_s,
        sweep_s,
        cpu_s,
        error,
    }
}

/// Every cohort of one run, in order. Cohort 0 is the warm-up: it is
/// checked but not timed, and its report is the run's reference for
/// the makespan and the key digest.
pub struct FleetRun {
    pub reference: Cohort,
    pub timed: Vec<Cohort>,
    pub failures: Vec<String>,
}

impl FleetRun {
    pub fn attempted(&self) -> u64 {
        self.timed.iter().map(Cohort::attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.timed.iter().map(Cohort::failed).sum()
    }

    /// Keyed pair handshakes per second of sweep time, one sample per
    /// timed cohort.
    pub fn rates(&self) -> Vec<f64> {
        self.timed
            .iter()
            .map(|c| c.report.handshakes as f64 / c.sweep_s)
            .collect()
    }

    /// Host time per keyed pair handshake (µs), one sample per timed
    /// cohort.
    pub fn per_hs_us(&self) -> Vec<f64> {
        self.timed
            .iter()
            .map(|c| c.sweep_s * 1e6 / c.report.handshakes.max(1) as f64)
            .collect()
    }
}

/// Sweeps cohorts for `measure` after the warm-up cohort (always at
/// least one timed cohort).
pub fn sweep_timed_cohorts(seed: u64, measure: Duration, rec: &mut Recorder) -> FleetRun {
    let reference = sweep_cohort(seed, 0, THREADS, rec);
    let mut failures: Vec<String> = reference.check().into_iter().collect();
    let mut timed = Vec::new();
    let start = Instant::now();
    let mut cohort = 1;
    while timed.is_empty() || start.elapsed() < measure {
        let c = sweep_cohort(seed, cohort, THREADS, rec);
        failures.extend(c.check());
        timed.push(c);
        cohort += 1;
    }
    FleetRun {
        reference,
        timed,
        failures,
    }
}

/// Re-sweeps cohort 0 on one worker thread and demands the identical
/// report — key digest and virtual makespan included — as the run's
/// own cohort 0: the digest is a function of `--seed` alone.
pub fn check_repeat(seed: u64, reference: &Cohort) -> Option<String> {
    let again = sweep_cohort(seed, 0, 1, &mut Recorder::disabled());
    (again.report != reference.report).then(|| {
        format!(
            "fleet cohort 0 did not repeat: digest {} vs {}, makespan {} vs {} µs",
            hex(reference.report.key_digest),
            hex(again.report.key_digest),
            reference.report.handshake_makespan_us,
            again.report.handshake_makespan_us
        )
    })
}

pub fn hex(digest: Option<[u8; 32]>) -> String {
    digest.map_or_else(
        || "none".to_string(),
        |d| d.iter().map(|b| format!("{b:02x}")).collect(),
    )
}
