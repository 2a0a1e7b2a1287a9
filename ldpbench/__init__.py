"""End-to-end and per-layer benchmark of the batch engine and serving tier.

Run one workload with ``python3 ldpbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; ``README.md`` in this
directory describes the workloads, the metrics and the layer table.
"""
