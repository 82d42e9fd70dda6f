"""The repository benchmark: workloads, metrics and tracing."""
