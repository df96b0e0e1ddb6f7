"""Cold-start guards: a sweep imports only the code it runs.

``scipy.signal`` costs more to import than a whole adaptive table2
sweep takes.  The receive chain's channelizer is plain numpy, so SciPy
is imported only by helpers no sweep calls.  A fresh interpreter
imports the package and the CLI, runs tiny fixed and adaptive table2
sweeps, a tiny fig13, and tiny table4 and table5 sweeps (whose
receivers channel-filter a 20 Msps capture), and must end with no
``scipy`` module loaded.

A second fresh interpreter follows the benchmark's set-up path: it
imports the experiment registry, lists the ids, and runs tiny table2
(fixed and adaptive) and table5 sweeps through ``get_experiment``.
Listing must load only the registry, its package and ``repro.errors``
(:data:`LISTING_MODULES`), and afterwards every loaded
``repro`` module must be on :data:`SWEEP_MODULES` and the process pool
(``concurrent.futures.process``) must not be loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
import repro, repro.cli
from repro.experiments import (
    fig13_rssi, table2_attack_awgn, table4_de2_snr, table5_de2_distance,
)
table2_attack_awgn.run(snrs_db=(17,), trials=2, rng=1)
table2_attack_awgn.run(snrs_db=(17,), trials=8, rng=1, adaptive=True)
fig13_rssi.run(distances_m=(1,), packets_per_point=2, rng=1)
table4_de2_snr.run(snrs_db=(17,), waveforms_per_point=2, rng=1)
table5_de2_distance.run(distances_m=(1,), waveforms_per_point=2, rng=1)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


_SWEEP_PROBE = """
import json, sys
from repro.experiments.registry import experiment_ids, get_experiment

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "repro")

listed = experiment_ids()
after_list = loaded()
get_experiment("table2").run(snrs_db=(17,), trials=2, rng=1)
get_experiment("table2").run(snrs_db=(17,), trials=8, rng=1, adaptive=True)
get_experiment("table5").run(distances_m=(1,), waveforms_per_point=2, rng=1)
print(json.dumps({
    "listed": len(listed),
    "after_list": after_list,
    "repro": loaded(),
    "pool": "concurrent.futures.process" in sys.modules,
}))
"""

#: The ``repro`` modules listing the experiments loads.
LISTING_MODULES = [
    "repro", "repro.errors", "repro.experiments", "repro.experiments.registry",
]

#: Every ``repro`` module a table2 or table5 sweep may load.
SWEEP_MODULES = frozenset(
    ["repro", "repro.errors"]
    + [f"repro.attack{m}" for m in (
        "", ".allocation", ".emulator", ".interpolate", ".quantize",
        ".selection",
    )]
    + [f"repro.channel{m}" for m in (
        "", ".awgn", ".base", ".environment", ".fading", ".offsets",
        ".pathloss",
    )]
    + [f"repro.defense{m}" for m in (
        "", ".constellation", ".detector", ".moments",
    )]
    + [f"repro.experiments{m}" for m in (
        "", ".adaptive", ".checkpoint", ".common", ".defense_common",
        ".engine", ".registry", ".sweep", ".table2_attack_awgn",
        ".table5_de2_distance",
    )]
    + [f"repro.hardware{m}" for m in ("", ".cc26x2", ".frontend", ".usrp")]
    + [f"repro.telemetry{m}" for m in (
        "", ".core", ".events", ".metrics", ".registry",
    )]
    + [f"repro.utils{m}" for m in (
        "", ".bitops", ".crc", ".io", ".rng", ".signal_ops",
    )]
    + [f"repro.wifi{m}" for m in (
        "", ".constants", ".ofdm", ".qam", ".scrambler",
    )]
    + [f"repro.zigbee{m}" for m in (
        "", ".chips", ".constants", ".frame", ".halfsine", ".msk", ".oqpsk",
        ".quadrature", ".receiver", ".spreading", ".synchronizer",
        ".transmitter",
    )]
)


def _probe(source):
    """The JSON document ``source`` prints last, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True, text=True, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_no_scipy_after_import_and_sweeps():
    loaded = _probe(_PROBE)
    assert loaded == [], f"SciPy modules loaded on a cold start: {loaded[:10]}"


def test_a_sweep_imports_only_the_modules_it_runs():
    report = _probe(_SWEEP_PROBE)
    assert report["listed"] == 15
    assert report["after_list"] == LISTING_MODULES, (
        "listing imported more than the registry and its package"
    )
    extra = sorted(set(report["repro"]) - SWEEP_MODULES)
    assert extra == [], f"modules no table2/table5 sweep runs: {extra}"
    assert not report["pool"], "a serial sweep imported the process pool"
