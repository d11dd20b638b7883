"""Performance benchmarking: the ``condor bench`` regression harness."""

from repro.perf.bench import (
    SCHEMA,
    SUITE,
    BenchResult,
    bench_dse,
    bench_sim,
    compare_benchmarks,
    load_benchmarks,
    run_bench,
    write_benchmarks,
)

__all__ = [
    "SCHEMA",
    "SUITE",
    "BenchResult",
    "bench_dse",
    "bench_sim",
    "compare_benchmarks",
    "load_benchmarks",
    "run_bench",
    "write_benchmarks",
]
