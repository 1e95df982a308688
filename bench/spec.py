"""Workload definitions shared by run.py and its child process, workload.py.

Plain constants only: run.py imports this module before it has checked that
the ``uwbagsim`` sources exist, so nothing here may import the package.
"""

# The README's cell: LOS link, so every scan carries a deterministic direct path.
CELL = {"scenario": "hovering-open", "rx": "RX1", "orient": "VV", "x": 15.0, "h": 10.0}

# Workload -> realizations (or scans) per repetition.
N = {"roundtrip-all": 1000, "generate-waveforms": 1000, "inverse-scans": 300}

# inverse-scans reads files written with a seed distinct from the workload seed
INPUT_SEED_OFFSET = 1_000_003


def generate_argv(seed: int, n: int, out: str) -> list[str]:
    return [
        "generate",
        "--scenario", CELL["scenario"],
        "--rx", CELL["rx"],
        "--orient", CELL["orient"],
        "--x", f"{CELL['x']:g}",
        "--h", f"{CELL['h']:g}",
        "--n", str(n),
        "--fading", "rayleigh",
        "--snr-db", "20",
        "--waveforms",
        "--seed", str(seed),
        "--out", out,
    ]


def roundtrip_argv(seed: int, n: int, out: str) -> list[str]:
    return ["roundtrip", "--all", "--n", str(n), "--seed", str(seed), "--out", out]
