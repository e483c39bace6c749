"""Regenerate tests/golden/goldens.json from the enumeration oracles.

Every number in the golden file comes out of the oracle module's
brute-force enumerations; nothing is typed in by hand.  Run from the
repository root:

    python3 scripts/make_golden.py
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the package of this checkout, not an installed one
sys.path.insert(0, str(ROOT / "src"))

from cisolver import serialize  # noqa: E402
from cisolver.oracle import (  # noqa: E402
    enumerate_basic_strategies,
    enumerate_coordinator_strategies,
)

SUBJECTS = ["delayed_sharing_2x2", "static_team", "acceptance_seed1"]


def main():
    golden = {}
    for name in SUBJECTS:
        spec, report = serialize.load_problem(str(ROOT / "problems" / f"{name}.json"))
        assert spec is not None and report.ok, f"{name}: {report}"
        basic = enumerate_basic_strategies(spec)
        coordinator = enumerate_coordinator_strategies(spec)
        golden[name] = {
            "basic_count": basic.count,
            "basic_minimum": basic.minimum,
            "coordinator_count": coordinator.count,
            "coordinator_minimum": coordinator.minimum,
        }
        print(f"{name}: basic {basic.count} -> {basic.minimum!r}, "
              f"coordinator {coordinator.count} -> {coordinator.minimum!r}")
    out = ROOT / "tests" / "golden"
    out.mkdir(exist_ok=True)
    (out / "goldens.json").write_text(serialize.dumps(golden), encoding="utf-8")
    print(f"wrote {out / 'goldens.json'}")


if __name__ == "__main__":
    main()
