"""Pinned experiment outputs: every file three small seeded runs write.

Each config runs with dump_trials on, and every file it writes is pinned
twice in `data/pinned_outputs.json`: by its SHA-256 digest, and by its
parsed values. The values are compared to 10 significant digits, so a
change that only moves last printed digits (a reordered sum, say) fails
the digest test alone and shows as one digest update, while any larger
change fails both.

The data path ahead of any Poisson draw is pinned to the last bit under
`data_path`: SHA-256 digests of the raw little-endian float64 bytes of
the phantom, its 2-D blur and a column blur, and `float.hex` of the
phantom's SSIM against its blur. Printed outputs round those arrays
away, so a reordered sum in the blur shows only here.

After an intended output change, rewrite the pins with

    PYTHONPATH=src python tests/test_pinned_outputs.py

and record the change and its largest relative difference in CHANGES.md.
"""

import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

from poisson_deconv.experiments import build_config, run_experiment
from poisson_deconv.io import save_atoms
from poisson_deconv.metrics import ssim
from poisson_deconv.operators import conv_forward, gaussian_kernel_1d, inverse_quadratic_kernel
from poisson_deconv.simulate import make_phantom

PINS = os.path.join(os.path.dirname(__file__), "data", "pinned_outputs.json")

CONFIGS = {
    "oned_high": {
        "experiment": "oned_high", "n_trials": "3", "seed": "11", "max_iters": "60",
    },
    "twod_splines": {
        "experiment": "twod_splines", "rows": "64", "cols": "64", "n_trials": "1",
        "seed": "11", "max_iters": "30", "max_iters_srl": "40",
    },
    "twod_patches": {
        "experiment": "twod_patches", "rows": "48", "cols": "48", "n_trials": "1",
        "seed": "11", "max_iters": "30", "max_iters_srl": "40",
    },
}


def write_outputs(root, name: str) -> str:
    """Run config `name` under `root` with dump_trials on; return its output directory."""
    mapping = {**CONFIGS[name], "dump_trials": "true", "out_dir": os.path.join(root, name)}
    if name == "twod_patches":
        # 6 atoms of 5x7 at stride 3: overlap counts vary over the image.
        atoms = os.path.join(root, "atoms.txt")
        save_atoms(atoms, np.random.default_rng(3).random((6, 5, 7)), stride=3)
        mapping["atoms_file"] = atoms
    run_experiment(build_config(mapping))
    return mapping["out_dir"]


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def parse_values(path) -> list:
    """A file's fields in order: numbers as floats, anything else as text.

    A PGM is its header fields followed by its raw pixel values.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.startswith(b"P5\n"):
        header = raw.split(b"\n", 3)
        cols, rows = (int(v) for v in header[1].split())
        dtype = ">u2" if int(header[2]) > 255 else "u1"
        pixels = np.frombuffer(header[3], dtype=dtype, count=rows * cols)
        return ["P5", float(cols), float(rows), float(header[2])] + pixels.astype(float).tolist()
    return [_number(t) for t in re.split(r"[,\s]+", raw.decode("ascii").strip())]


def _stored(v):
    """A field as the pins store it: text as is, numbers to 10 significant digits."""
    if isinstance(v, str):
        return v
    v = float(f"{v:.10g}")
    return int(v) if v.is_integer() else v


def pin_directory(out_dir, values: dict) -> dict:
    """Digest of every file in `out_dir`; their parsed values go into `values` by digest."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        with open(path, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
        values[digests[name]] = [_stored(v) for v in parse_values(path)]
    return digests


def _array_digest(x) -> str:
    return hashlib.sha256(np.asarray(x, dtype="<f8").tobytes()).hexdigest()


def data_path_pins() -> dict:
    phantom = make_phantom(64, 64)
    blurred = conv_forward(inverse_quadratic_kernel(), phantom)
    column = np.random.default_rng(5).random((128, 1)) * 64.0
    return {
        "make_phantom_64x64": _array_digest(phantom),
        "conv_forward_inverse_quadratic_64x64": _array_digest(blurred),
        "conv_forward_gaussian_128x1": _array_digest(
            conv_forward(gaussian_kernel_1d(0.2 * math.pi), column)
        ),
        "ssim_phantom_blurred_hex": ssim(phantom, blurred).hex(),
    }


def make_pins(root) -> dict:
    values = {}
    files = {name: pin_directory(write_outputs(root, name), values) for name in CONFIGS}
    return {"files": files, "data_path": data_path_pins(), "values": values}


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return math.isclose(a, b, rel_tol=1e-10, abs_tol=0.0)


@pytest.fixture(scope="module")
def pinned():
    with open(PINS) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return make_pins(str(tmp_path_factory.mktemp("pinned")))


def test_data_path_matches_to_the_last_bit(pinned):
    assert data_path_pins() == pinned["data_path"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_values_match_to_10_digits(outputs, pinned, name):
    got, want = outputs["files"][name], pinned["files"][name]
    assert sorted(got) == sorted(want), "a different set of files was written"
    for fname in want:
        actual = outputs["values"][got[fname]]
        expected = pinned["values"][want[fname]]
        assert len(actual) == len(expected), f"{fname}: field count changed"
        bad = [i for i, (a, b) in enumerate(zip(actual, expected)) if not _same(a, b)]
        assert not bad, (
            f"{fname}: {len(bad)} fields differ, first at {bad[0]}: "
            f"{actual[bad[0]]!r} against pinned {expected[bad[0]]!r}"
        )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_digests_match(outputs, pinned, name):
    got, want = outputs["files"][name], pinned["files"][name]
    changed = sorted(f for f in want if got.get(f) != want[f])
    assert not changed, f"{name}: files whose bytes changed: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = make_pins(tmp)
    # One line per file's values, so a changed file shows as a changed line.
    rows = [f"{json.dumps(h)}: {json.dumps(v, separators=(',', ':'))}"
            for h, v in sorted(pins["values"].items())]
    with open(PINS, "w") as fh:
        fh.write('{"files": ' + json.dumps(pins["files"], indent=1, sort_keys=True))
        fh.write(',\n"data_path": ' + json.dumps(pins["data_path"], indent=1, sort_keys=True))
        fh.write(',\n"values": {\n' + ",\n".join(rows) + "\n}}\n")
