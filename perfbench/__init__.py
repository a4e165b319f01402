"""The repository benchmark: three served workloads over the public ``repro`` API.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload from the repository root and prints one JSON result line.
See ``perfbench/README.md`` for the workloads, the metrics and what each
per-layer metric is predicted to move.
"""
