"""Smoke runs of the experiment scripts under scripts/."""

import importlib.util
import sys
from pathlib import Path

from q3series.verifier import class_members

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# the residue-class cases without a prime, in catalog order: class base 3^(2 alpha + shift)
CLASS_SHIFTS = {"MR7": 1, "MR8": 1, "MR9": 1, "MR10": 1, "MR12": 2, "MR13": 2, "MR14": 2,
                "MR21": 1, "MR22": 1, "MR23": 1, "MR24": 1}


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
                for case, shift in CLASS_SHIFTS.items() for alpha in (0, 1) for beta in (0, 1)
                for ell in class_members(3 ** (2 * alpha + shift), 2)]
    assert points == expected and len(points) == 11 * 2 * 2 * 4
    for row in rows:
        nominal, observed = row.split()[4:6]
        assert int(nominal) > 0 and (observed == "inf" or observed.lstrip(">=").isdigit())
