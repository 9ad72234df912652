"""Output checks for benchmark jobs, run outside the timed interval.

Products are compared with a reference ``X @ A`` in which X comes from the
benchmark's own digit arithmetic on the net file, not from the library's
point generation.  Quality reports and the exact discrepancy are exact
integers or integer ratios, so they are compared for equality with values
recorded from the library.  Each check returns ``None`` when the output is
right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import struct
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np

# Criterion 5's relative tolerance.  It is applied against |X| @ |A|, the
# scale of the rounding error of any summation order of X @ A, so entries
# that cancel to near zero are judged fairly.
PRODUCT_RTOL = 1e-12


def read_net_digits(path) -> tuple[int, int, np.ndarray]:
    """Parse a net file into (base, m, (s, m, m) digit array)."""
    with open(path) as fh:
        base, m, s = (int(x) for x in fh.readline().split())
        digits = np.loadtxt(fh, dtype=np.int64, ndmin=2)
    if digits.shape != (s * m, m):
        raise ValueError(f"net file has shape {digits.shape}, expected {(s * m, m)}")
    return base, m, digits.reshape(s, m, m)


def point_numerators(base: int, m: int, mats: np.ndarray, chunk: int = 64) -> np.ndarray:
    """(b^m, s) numerators over b^m: digit vector of k (least significant
    first) times each generating matrix, mod b, read as a b-adic fraction.

    The digit products are small integers, exact in float64, so BLAS does the
    inner products; the modulus and weighting are integer operations.
    """
    n = base**m
    ks = np.arange(n, dtype=np.int64)
    digs = np.stack([(ks // base**i) % base for i in range(m)], axis=1).astype(np.float64)
    weights = base ** np.arange(m - 1, -1, -1, dtype=np.int64)
    s = mats.shape[0]
    out = np.empty((n, s), dtype=np.int64)
    for lo in range(0, s, chunk):
        block = mats[lo : lo + chunk]
        # cm[c, j*m + r] = C_j[r, c]
        cm = block.transpose(2, 0, 1).reshape(m, -1).astype(np.float64)
        y = np.rint(digs @ cm).astype(np.int64) % base
        out[:, lo : lo + block.shape[0]] = y.reshape(n, -1, m) @ weights
    return out


def check_norm_inverse(norm_inverse) -> None:
    """The product reference applies the library's norminv transform; make
    sure it is the normal quantile within the transform's 1.5e-7 tolerance."""
    p = np.linspace(1e-6, 1 - 1e-6, 2001)
    exact = np.array([NormalDist().inv_cdf(float(v)) for v in p])
    worst = float(np.max(np.abs(norm_inverse(p) - exact)))
    if not worst <= 1.5e-7:
        raise ValueError(f"norm_inverse is {worst} away from the normal quantile")


class ProductReference:
    """Reference product ``x @ a`` and its error scale ``|x| @ |a|``."""

    def __init__(self, value: np.ndarray, scale: np.ndarray) -> None:
        self.value = value
        self.scale = scale

    @classmethod
    def of(cls, x: np.ndarray, a: np.ndarray) -> ProductReference:
        return cls(x @ a, np.abs(x) @ np.abs(a))

    def save(self, directory) -> None:
        np.save(Path(directory) / "ref_value.npy", self.value)
        np.save(Path(directory) / "ref_scale.npy", self.scale)

    @classmethod
    def load(cls, directory) -> ProductReference:
        return cls(np.load(Path(directory) / "ref_value.npy"),
                   np.load(Path(directory) / "ref_scale.npy"))

    def compare(self, p: np.ndarray) -> str | None:
        if p.shape != self.value.shape:
            return f"product shape {p.shape} != {self.value.shape}"
        err = np.abs(p - self.value)
        bad = ~(err <= PRODUCT_RTOL * self.scale)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            return (
                f"product entry ({i}, {j}) = {p[i, j]!r}, reference {self.value[i, j]!r}, "
                f"{int(bad.sum())} entries outside {PRODUCT_RTOL} relative"
            )
        return None


def read_product_csv(path, tau: int) -> np.ndarray:
    with open(path) as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    if header != ",".join(f"y{j + 1}" for j in range(tau)):
        raise ValueError(f"bad product header {header[:60]!r}")
    vals = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=np.float64)
    if vals.size % tau:
        raise ValueError("ragged product CSV")
    return vals.reshape(-1, tau)


def read_product_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise ValueError("truncated product header")
    n, tau = struct.unpack("<QQ", data[:16])
    vals = np.frombuffer(data, dtype="<f8", offset=16)
    if vals.size != n * tau:
        raise ValueError("product payload does not match its header")
    return vals.reshape(n, tau)


def check_report(text: str, expected: dict) -> str | None:
    """Compare a ``rednets report`` JSON output with the recorded report."""
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if got == expected:
        return None
    got_proj, want_proj = got.get("projections"), expected.get("projections", {})
    if isinstance(got_proj, dict):
        for u in sorted(set(got_proj) | set(want_proj)):
            if got_proj.get(u) != want_proj.get(u):
                return f"report projection {u}: {got_proj.get(u)} != {want_proj.get(u)}"
    for key in sorted(set(got) | set(expected)):
        if got.get(key) != expected.get(key):
            return f"report {key}: {got.get(key)!r} != {expected.get(key)!r}"
    return "report differs"


def check_discrepancy(value: float, expected: str) -> str | None:
    """``expected`` is the exact value as ``"num/den"``."""
    if value != float(Fraction(expected)):
        return f"discrepancy {value!r} != {expected}"
    return None
