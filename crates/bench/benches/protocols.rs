//! Full-handshake host benchmarks for all seven protocol variants —
//! the host-hardware analogue of the paper's Table I. The expected
//! *shape* (SCIANC < PORAMB < S-ECDSA < STS) carries over from the
//! embedded boards because the EC operation counts dominate on both.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecq_baselines::establish;
use ecq_bench::deployment;
use ecq_proto::ProtocolKind;
use std::hint::black_box;

fn bench_handshakes(c: &mut Criterion) {
    let mut g = c.benchmark_group("handshake");
    g.sample_size(10);
    for kind in ProtocolKind::WIRE_DISTINCT {
        let (alice, bob, mut rng) = deployment(kind as u64 + 100);
        g.bench_with_input(BenchmarkId::from_parameter(kind.label()), &kind, |b, k| {
            b.iter(|| {
                let out = establish(*k, &alice, &bob, 0, &mut rng).expect("handshake");
                black_box((out.transcript.total_bytes(), out.initiator_key));
            })
        });
    }
    g.finish();
}

fn bench_provisioning(c: &mut Criterion) {
    let mut g = c.benchmark_group("deployment");
    g.sample_size(10);
    g.bench_function("provision_two_devices", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(deployment(seed));
        })
    });
    g.finish();
}

criterion_group!(benches, bench_handshakes, bench_provisioning);
criterion_main!(benches);
