"""The pipeline's outputs against the golden digest in tests/golden/ (see
update.py there, which also rewrites it).

On the build the digest was recorded on, every output file but the manifest
must hash the same.  On another build the last bits of a float may move, so
the CSV outputs are compared cell by cell: every non-float cell exactly and
every float cell within a relative 1e-6.  The test prints which comparison
ran, and it never skips.
"""
import hashlib
import json
import math
import sys
from pathlib import Path

from wsganlab.data import read_csv

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
import update  # noqa: E402

REL_TOL = 1e-6


def _float_cell(cell: str) -> float | None:
    """The cell's value if it is a float (not an int, a bool or a name)."""
    if cell.lstrip("-").isdigit():
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def csv_differences(got: Path, want: Path, rel: str) -> list[str]:
    got_header, got_rows = read_csv(got)
    want_header, want_rows = read_csv(want)
    if got_header != want_header or len(got_rows) != len(want_rows):
        return [f"{rel}: header or row count differs"]
    out = []
    for i, (got_row, want_row) in enumerate(zip(got_rows, want_rows)):
        for column, g, w in zip(want_header, got_row, want_row):
            gf, wf = _float_cell(g), _float_cell(w)
            if gf is None or wf is None:
                same = g == w
            else:
                same = (math.isnan(gf) and math.isnan(wf)) or math.isclose(gf, wf, rel_tol=REL_TOL)
            if not same:
                out.append(f"{rel} row {i} {column}: {g} != {w}")
    return out


def test_golden_csv_copies_match_the_digest():
    digest = json.loads((GOLDEN / "digest.json").read_text())["sha256"]
    copies = sorted(p.relative_to(GOLDEN / "csv").as_posix() for p in (GOLDEN / "csv").rglob("*.csv"))
    assert copies == sorted(rel for rel in digest if rel.endswith(".csv"))
    assert all(hashlib.sha256((GOLDEN / "csv" / rel).read_bytes()).hexdigest() == digest[rel] for rel in copies)


def test_pipeline_outputs_match_the_golden_digest(tmp_path):
    recorded = json.loads((GOLDEN / "digest.json").read_text())
    hashes = update.run_pipeline(tmp_path)
    assert sorted(hashes) == sorted(recorded["sha256"])  # the same files on any build
    if update.build() == recorded["build"]:
        print(f"golden: sha256 of {len(hashes)} files on the recorded build {recorded['build']}")
        assert [rel for rel, h in hashes.items() if h != recorded["sha256"][rel]] == []
    else:
        csvs = [rel for rel in hashes if rel.endswith(".csv")]
        print(f"golden: cells of {len(csvs)} CSV files within rel {REL_TOL} on {update.build()}, "
              f"recorded on {recorded['build']}")
        assert [d for rel in csvs for d in csv_differences(tmp_path / rel, GOLDEN / "csv" / rel, rel)] == []
