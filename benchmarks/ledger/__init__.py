"""The perf ledger: this repo's one benchmark (see README.md here).

``python3 -m benchmarks.ledger --workload W --seed N --seconds S --trace 0|1``
runs one workload (the ``BENCHMARK.json`` contract); without
``--workload`` it runs all seven, untraced then traced;
``--compare A.json B.json`` judges two result files.
"""
