"""pecstep benchmark: workloads, independent output checks and tracing."""
