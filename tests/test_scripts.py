"""Smoke runs of the experiment scripts under scripts/."""

import importlib.util
import sys
from pathlib import Path

from q3series.verifier import class_members

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_class_exponents_one_row_per_point(monkeypatch, capsys):
    scan = _load("scan_class_exponents")
    monkeypatch.setattr(sys, "argv", ["scan_class_exponents.py", "3"])
    assert scan.main() == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["case", "a", "b", "ell", "nominal", "observed"]
    points = [tuple(row.split()[:4]) for row in rows]
    expected = [(case, str(alpha), str(beta), str(ell))
                for case in scan.CASES for alpha in (0, 1) for beta in (0, 1)
                for ell in class_members(3 ** (2 * alpha + (2 if case in scan.EVEN_BASE else 1)), 2)]
    assert points == expected and len(points) == 11 * 2 * 2 * 4
    for row in rows:
        nominal, observed = row.split()[4:6]
        assert int(nominal) > 0 and (observed == "inf" or observed.lstrip(">=").isdigit())
