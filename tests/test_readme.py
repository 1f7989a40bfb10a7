import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(monkeypatch):
    # the example's paths are relative to the repository root
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_commands_run_as_module():
    # the Command line section's validate and check commands, run the way
    # the section gives for a checkout without an installed script
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(c) for c in block.replace("\\\n", " ").splitlines() if c.strip()]
    run = [c for c in commands if c[1] == "validate" or (c[1] == "check" and "both" in c)]
    assert [c[1] for c in run] == ["validate", "check"]
    env = dict(os.environ, PYTHONPATH="src")
    for argv in run:
        assert argv[0] == "npnconf"
        done = subprocess.run([sys.executable, "-m", "npnconf"] + argv[1:], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
