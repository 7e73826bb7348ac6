//! Criterion micro-benchmarks for the substrate primitives (the CUB /
//! moderngpu stand-ins): radix sort, merge, scan, compaction and
//! multisplit.  These are the building blocks whose rates bound every
//! number in the paper's tables (e.g. the 770 M elements/s radix sort quoted
//! in §V-B).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gpu_primitives::{
    compact::compact_by_flag, merge::merge_by, multisplit::multisplit_in_place,
    radix_sort::sort_pairs, scan::exclusive_scan,
};
use lsm_bench::experiments::experiment_device;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 1 << 18;

fn bench_radix_sort(c: &mut Criterion) {
    let device = experiment_device();
    let mut rng = StdRng::seed_from_u64(1);
    let keys: Vec<u32> = (0..N).map(|_| rng.gen()).collect();
    let values: Vec<u32> = (0..N as u32).collect();
    let mut group = c.benchmark_group("radix_sort");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("sort_pairs", |b| {
        b.iter_batched(
            || (keys.clone(), values.clone()),
            |(mut k, mut v)| sort_pairs(&device, &mut k, &mut v),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let device = experiment_device();
    let mut rng = StdRng::seed_from_u64(2);
    let mut a: Vec<u32> = (0..N).map(|_| rng.gen()).collect();
    let mut b_side: Vec<u32> = (0..N).map(|_| rng.gen()).collect();
    a.sort_unstable();
    b_side.sort_unstable();
    let mut group = c.benchmark_group("merge");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(2 * N as u64));
    group.bench_function("merge_keys", |bench| {
        bench.iter(|| merge_by(&device, &a, &b_side, |x, y| x < y))
    });
    group.finish();
}

fn bench_scan_compact_multisplit(c: &mut Criterion) {
    let device = experiment_device();
    let data: Vec<u64> = (0..N as u64).collect();
    let keys: Vec<u32> = (0..N as u32).collect();
    let flags: Vec<bool> = (0..N).map(|i| i % 3 == 0).collect();
    let mut group = c.benchmark_group("scan_compact_multisplit");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("exclusive_scan", |b| {
        b.iter(|| exclusive_scan(&device, &data))
    });
    group.bench_function("compact_by_flag", |b| {
        b.iter(|| compact_by_flag(&device, &keys, &flags))
    });
    group.bench_function("multisplit", |b| {
        b.iter_batched(
            || keys.clone(),
            |mut k| multisplit_in_place(&device, &mut k, |x| x % 2 == 0),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_radix_sort,
    bench_merge,
    bench_scan_compact_multisplit
);
criterion_main!(benches);
