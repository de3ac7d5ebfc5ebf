"""The program needs numpy only.

scipy is a test dependency (the reference for the chi-square table and
the assignment solver); importing ``scipy.optimize`` alone more than
doubles a run's memory, so no run may load it.
"""

import json
import os
import subprocess
import sys

RUN_EACH_MODE = """
import json, sys
from fusionsim.scenario import apply_overrides, load_scenario
from fusionsim.scenario.engine import Engine

doc = json.loads(open(sys.argv[1]).read())
doc["duration"] = 1.0
for mode in ("cr", "cr-covi", "cr-dist"):
    Engine(apply_overrides(load_scenario(json.dumps(doc)), mode=mode)).run()
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_runs_load_no_scipy(scenario_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(scenario_dir.parent / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", RUN_EACH_MODE, str(scenario_dir / "urban.json")],
                         env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []
