"""Benchmark of the Monte Carlo sweeps (see README.md)."""
