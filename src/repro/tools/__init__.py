"""Operator tooling: profiling and the documentation checks."""
