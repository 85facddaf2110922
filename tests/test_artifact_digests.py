"""The 80 hashed entries of the bundled scenarios, pinned: the sha256 of
every artifact that each of the 14 scenarios writes under ``--format csv``
and under ``--format json``, and the exit code of each of those runs.

``artifact_digests.json`` beside this file holds them; running this module
as a script (``PYTHONPATH=src python tests/test_artifact_digests.py``)
rewrites it.  Like the golden verdicts, the digests pin the bits of the
default OpenBLAS kernel: under a forced core type some of them differ.  A
change that makes the arithmetic kernel-independent (ROADMAP item 2)
regenerates the goldens and this file together.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from raikit.cli import run_scenario

DIGESTS = Path(__file__).with_name("artifact_digests.json")
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "raikit" / "scenarios"


def artifact_digests(out_dir: Path) -> dict:
    """``"<scenario> <format> exit"`` to the exit code, and
    ``"<scenario> <format> <file>"`` to the sha256 of each artifact."""
    entries = {}
    for name in sorted(p.stem for p in SCENARIO_DIR.glob("*.json")):
        for fmt in ("csv", "json"):
            out = out_dir / fmt / name
            entries[f"{name} {fmt} exit"] = run_scenario(name, out_dir=out, fmt=fmt)
            for path in sorted(out.iterdir()):
                entries[f"{name} {fmt} {path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return entries


def test_bundled_artifacts_and_exit_codes_match_their_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    assert len(pinned) == 80
    assert artifact_digests(tmp_path) == pinned


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entries = artifact_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(entries, sort_keys=True, indent=2) + "\n")
    print(f"{len(entries)} entries written to {DIGESTS}", file=sys.stderr)
