import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public `src/` names that no `src/` module reads, each kept for a caller
# outside `src/` (ROADMAP items 10 and 11 remove them). The list should only
# shrink: a new public name that no `src/` module reads fails this test.
UNUSED = {
    ("src/cps_sentinel/detectors.py", "function rbf_kernel"),
    ("src/cps_sentinel/forecaster/model.py", "method CnnModel.copy_params"),
    ("src/cps_sentinel/plantsim.py", "function load_plant_config"),
    ("src/cps_sentinel/rng.py", "method Rng.gauss"),
}


def test_unused_lists_only_the_known_public_names():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "unused.py")],
                          capture_output=True, text=True, check=True)
    *rows, total = proc.stdout.splitlines()
    listed = set()
    for row in rows:
        path, _line, definition = row.split(":", 2)
        listed.add((path, definition.strip()))
    assert listed == UNUSED
    assert total.startswith(f"{len(UNUSED)} of ")


def test_memory_prints_a_peak_for_each_detect_stage():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "memory.py"),
                           "--rows", "300", "--channels", "2"],
                          capture_output=True, text=True, check=True)
    title, columns, *rows = proc.stdout.splitlines()
    assert title.startswith("300 rows x 2 channels, ")
    assert columns.split() == ["stage", "peak_mb", "returned_mb", "seconds"]
    assert [row.split()[0] for row in rows] == [
        "load_csv", "detect_frame", "verdict_csv", "error_series_csv"]
    for row in rows:
        assert all(float(cell) >= 0 for cell in row.split()[1:])
