"""B0: the repo's noise-calibrated end-to-end benchmark.

``python3 -m perf`` (from the repo root) builds five DES workloads through
the public ``repro`` API, drains each one in fresh child interpreters,
checks the result and prints every metric of ``BENCHMARK.json`` by name.
See ``perf/README.md`` for the catalogue and the noise evidence.
"""
