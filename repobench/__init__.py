"""Host-normalized end-to-end benchmark of the MPC tree-DP reproduction.

Run ``python3 repobench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``repobench/README.md``.
"""
