from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import spencerkit
from spencerkit import (
    ACStructure,
    Box,
    parse_polynomial,
    standard_structure,
)
from spencerkit.poly import Polynomial


def poly_matmul(a, b):
    """Product of two matrices with Polynomial entries (lists of rows)."""
    rows, inner, cols = len(a), len(b), len(b[0])
    if any(len(r) != inner for r in a):
        raise ValueError("matrix shapes do not match")
    nvars = a[0][0].nvars
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = Polynomial.zero(nvars)
            for k in range(inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def poly_identity_matrix(size, nvars):
    return [[Polynomial.constant(nvars, 1.0 if i == j else 0.0)
             for j in range(size)] for i in range(size)]


def _poly_matrix(rows, nvars):
    return [[parse_polynomial(entry, nvars) for entry in row] for row in rows]


TWISTED_ROWS = [
    ["0", "-1", "-x1", "0"],
    ["1", "0", "0", "x1"],
    ["0", "0", "0", "-1"],
    ["0", "0", "1", "0"],
]


@pytest.fixture(scope="session")
def std1():
    return standard_structure(1)


@pytest.fixture(scope="session")
def std2():
    return standard_structure(2)


@pytest.fixture(scope="session")
def twisted():
    box = Box((-0.5,) * 4, (0.5,) * 4)
    return ACStructure(2, box, _poly_matrix(TWISTED_ROWS, 4))


@pytest.fixture(scope="session")
def conjugated_integrable():
    """Standard structure conjugated by the shear S = I + x1*E(3,2).

    The shear acts on the second column, which mixes the complex pairs but
    keeps the structure integrable; the Nijenhuis tensor vanishes identically.
    """
    nvars = 4
    x1 = Polynomial.variable(nvars, 0)
    shear = poly_identity_matrix(4, nvars)
    shear_inv = poly_identity_matrix(4, nvars)
    shear[2][1] = shear[2][1] + x1
    shear_inv[2][1] = shear_inv[2][1] - x1
    base = standard_structure(2)
    twisted_matrix = poly_matmul(poly_matmul(shear_inv, base.matrix), shear)
    return ACStructure(2, base.box, twisted_matrix)


@pytest.fixture(scope="session")
def z_field():
    return parse_polynomial("x1 + (0+1i)*x2", 2)


@pytest.fixture(scope="session")
def zbar_field():
    return parse_polynomial("x1 - (0+1i)*x2", 2)


@pytest.fixture(scope="session")
def w_field():
    return parse_polynomial("x3 + (0+1i)*x4", 4)


@pytest.fixture()
def scenario_file(tmp_path):
    def write(data, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def minimal_scenario(**overrides):
    """A tiny valid scenario dictionary the tests can mutate."""
    data = {
        "name": "mini",
        "n": 1,
        "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "functions": {"z": "x1 + (0+1i)*x2"},
        "tasks": [{"task": "cr_check", "function": "z"}],
    }
    data.update(overrides)
    return data


def cli_env():
    """Environment for a ``python -m spencerkit`` child process that imports
    the same package as this test session."""
    env = dict(os.environ)
    src = str(Path(spencerkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
