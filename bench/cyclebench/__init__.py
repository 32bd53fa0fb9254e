"""Benchmark harness for cyclesynth: seeded workload generators, an
in-memory span tracer and the measurement runner behind bench/run.py."""
