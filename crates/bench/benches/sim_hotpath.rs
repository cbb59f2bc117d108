//! Experiment P1: simulation hot-path throughput — a full TUTMAC run
//! (events/sec), log rendering, and log parsing, as calibrated per-case
//! numbers.

use tut_bench::microbench::{criterion_group, criterion_main, Criterion, Throughput};
use tut_sim::{SimConfig, Simulation};

fn bench_sim_hotpath(c: &mut Criterion) {
    let system = tut_bench::paper_system();
    let horizon_ns = 5_000_000u64;
    let reference = Simulation::from_system(&system, SimConfig::with_horizon_ns(horizon_ns))
        .expect("build")
        .run()
        .expect("run");
    let records = reference.log.len() as u64;
    let text = reference.log.to_text();

    let mut group = c.benchmark_group("sim_hotpath");
    group.sample_size(10);

    group.throughput(Throughput::Elements(records));
    group.bench_function("tutmac_run_5ms", |b| {
        b.iter(|| {
            Simulation::from_system(&system, SimConfig::with_horizon_ns(horizon_ns))
                .expect("build")
                .run()
                .expect("run")
        })
    });

    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("log_to_text_5ms", |b| b.iter(|| reference.log.to_text()));
    group.bench_function("log_parse_5ms", |b| {
        b.iter(|| tut_sim::SimLog::parse(&text).expect("parse"))
    });
    group.finish();
}

criterion_group!(benches, bench_sim_hotpath);
criterion_main!(benches);
