"""Repository benchmark: three steady workloads over the hierarchical stack.

Run one workload with ``python3 streambench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the repository root; see README.md in
this directory for the workloads, the metrics and how to cite them.
"""
