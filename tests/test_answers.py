"""tools/answers.py, the digest of what every benchmark argv answers."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "answers.py"


def test_digest_diffed_against_itself_is_empty(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    r = subprocess.run([sys.executable, str(TOOL), "--workloads", "identities",
                        "--seeds", "101"], capture_output=True, text=True, env=env,
                       cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    entries = json.loads(r.stdout)
    # every slot of the cycle, each with its report as an artifact
    assert len(entries) == 14
    assert all(e["exit"] == 0 and e["artifacts"] for e in entries.values())
    digest = tmp_path / "digest.json"
    digest.write_text(r.stdout)
    r = subprocess.run([sys.executable, str(TOOL), "--diff", str(digest), str(digest)],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, ""), r.stderr
