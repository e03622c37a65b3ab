"""Benchmark of the opineq package: workloads, correctness checks and tracing."""
