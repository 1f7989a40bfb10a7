"""Values that cache their hash are pickled so that the loading process
recomputes it: string hashes differ between processes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BUILD = f"""
import pickle, sys
sys.path.insert(0, {str(ROOT / "src")!r})
from npnconf.model_io import load_model
from npnconf.multiset import Multiset
from npnconf.projection import project_marking_system
np = load_model({str(ROOT / "tests" / "fixtures" / "assistant_model.json")!r})
values = [Multiset(["a", "b", "b", ("dom", 3)]), np.initial_marking,
          project_marking_system(np.initial_marking)]
"""

DUMP = BUILD + "sys.stdout.buffer.write(pickle.dumps(values))\n"

LOAD = BUILD + """
loaded = pickle.loads(sys.stdin.buffer.read())
for old, new in zip(loaded, values):
    print(type(new).__name__, old == new, hash(old) == hash(new), old in {new})
"""


def _run(script: str, seed: str, data: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    done = subprocess.run([sys.executable, "-c", script], input=data, env=env,
                          capture_output=True, check=True)
    return done.stdout


def test_pickled_values_rehash_in_another_process():
    out = _run(LOAD, "2", _run(DUMP, "1")).decode().split("\n")
    assert out[:3] == ["Multiset True True True",
                       "NpMarking True True True",
                       "ColoredMarking True True True"]
