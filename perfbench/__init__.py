"""Round benchmark for the load balancer (see ``perfbench/run.py``).

Four closed-loop workloads drive one balancing round after another —
the next round starts only once the previous ``BalanceReport`` and the
inter-round churn step are done — over the configurations operators
run: clean, durable, defended, and proximity-aware under faults.
"""
