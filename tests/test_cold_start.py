"""Cold-start guard: no sweep imports SciPy.

``scipy.signal`` costs more to import than a whole adaptive table2
sweep takes.  The receive chain's channelizer is plain numpy, so SciPy
is imported only by helpers no sweep calls.  A fresh interpreter
imports the package and the CLI, runs tiny fixed and adaptive table2
sweeps, a tiny fig13, and tiny table4 and table5 sweeps (whose
receivers channel-filter a 20 Msps capture), and must end with no
``scipy`` module loaded.
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


def test_no_scipy_after_import_and_sweeps():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    loaded = json.loads(completed.stdout.strip().splitlines()[-1])
    assert loaded == [], f"SciPy modules loaded on a cold start: {loaded[:10]}"
