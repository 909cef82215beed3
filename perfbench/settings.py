"""Constants of the benchmark that BENCHMARK.json has no field for."""

# typical duration of one drift.kernel_slice() on the reference host
# (2-core Xeon at 2.1 GHz, Python 3.11.7); corrected times are expressed
# at this speed
KERNEL_NOMINAL_S = 0.000105

# the highest percentile with at least 10 samples beyond it, fixed per
# workload for the unit count of one repetition
TAIL_PERCENTILE = {
    "quadric-sweep": 99.9,     # 16,506 units: 16 beyond
    "solution-sweep": 95.0,    # 200 units: 10 beyond
    "lemma-sweep": 99.9,       # 22,892 units: 22 beyond
    "cli-oneshot": 65.0,       # 29 requests: 10 beyond
}

# approximate length of one cold repetition (one sweep, or one round of
# requests); a run makes seconds // RUN_S of them, at least one
RUN_S = {"quadric-sweep": 10, "solution-sweep": 10, "lemma-sweep": 8,
         "cli-oneshot": 10}

# fresh interpreters importing metric_affine.cli for setup_s, after one
# untimed import that compiles the bytecode
SETUP_CHILDREN = 11

# a child that runs longer than this is killed and its units count as failed
CHILD_TIMEOUT_S = 150
