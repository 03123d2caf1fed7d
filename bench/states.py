"""Seeded states for the two state workloads, written out with their references.

    python3 bench/states.py <state_files|state_matrices> <seed> <directory>

``run.py`` runs this in a process of its own before it measures.  Making the
states and their references takes index loops and SVDs as large as rfunc's
own work on them, so doing it apart keeps that work out of the measuring
process's peak resident set.  The directory receives one file per state,
a JSON state document for ``state_files`` or a ``.npy`` array for
``state_matrices``, and ``inputs.json``, which lists every state with its
reference Lambda, EOF bound and norms.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

import reference as ref


def _unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian_unit_trace(mat):
    mat = 0.5 * (mat + mat.conj().T)
    return mat / np.trace(mat).real


def _random_density(rng, size, rank):
    g = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
    return _hermitian_unit_trace(g @ g.conj().T)


def make_state(rng, kind, m, n):
    """(matrix, closed-form Lambda or None, fidelity or None) for one seeded state."""
    if kind == "isotropic":
        fid = rng.uniform(0.0, 1.0)
        phi = np.eye(m, dtype=complex).reshape(m * m) / math.sqrt(m)
        proj = np.outer(phi, phi.conj())
        rest = (np.eye(m * m) - proj) / (m * m - 1.0)
        mat = _hermitian_unit_trace(fid * proj + (1.0 - fid) * rest)
        return mat, max(1.0, m * fid), fid
    if kind == "pure":
        k = min(m, n)
        p = rng.exponential(size=k)
        p /= p.sum()
        ua, ub = _unitary(rng, m), _unitary(rng, n)
        psi = sum(math.sqrt(p[i]) * np.kron(ua[:, i], ub[:, i]) for i in range(k))
        return _hermitian_unit_trace(np.outer(psi, psi.conj())), float(np.sqrt(p).sum() ** 2), None
    if kind == "product":
        mat = np.kron(_random_density(rng, m, m), _random_density(rng, n, n))
        return _hermitian_unit_trace(mat), 1.0, None
    if kind == "mixed":
        return _random_density(rng, m * n, 2), None, None
    raise ValueError(kind)


SMALL_DIMS = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]


def small_states():
    """(kind, m, n) for every 2x2..4x4 shape: four kinds when m = n, three otherwise."""
    out = []
    for m, n in SMALL_DIMS:
        kinds = ("isotropic", "pure", "product", "mixed") if m == n else ("pure", "product", "mixed")
        out += [(kind, m, n) for kind in kinds]
    return out


MEDIUM = [("mixed", 6, 6), ("pure", 5, 7), ("isotropic", 8, 8), ("mixed", 12, 12)]
MIXES = {
    # many small documents, so argparse and JSON parsing both weigh
    "state_files": small_states() * 3 + MEDIUM,
    # the same kinds in memory, up to 576 x 576
    "state_matrices": small_states() + MEDIUM + [("isotropic", 24, 24), ("mixed", 16, 36)],
}


def record(rng, kind, m, n):
    """(matrix, reference record) of one seeded state."""
    matrix, closed, fidelity = make_state(rng, kind, m, n)
    norms = ref.norms_ref(matrix, m, n)
    own = min(float(min(m, n)), max(1.0, *norms))
    lam = own if closed is None else closed
    return matrix, {
        "kind": kind, "dims": [m, n], "fidelity": fidelity, "norms": list(norms),
        # the closed form, where there is one, must agree with our own norms
        "closed_ok": closed is None or abs(own - closed) <= ref.NORM_TOL * closed,
        "lam": lam, "bound": ref.bound_ref(lam, min(m, n)),
    }


def write(workload, seed, directory: Path, mix=None):
    """Write the states of ``workload`` for ``seed`` into ``directory``."""
    rng = np.random.default_rng(seed)
    records = []
    for i, (kind, m, n) in enumerate(mix or MIXES[workload]):
        matrix, rec = record(rng, kind, m, n)
        if workload == "state_files":
            rec["file"] = f"state{i:03d}.json"
            doc = {"dims": [m, n],
                   "matrix": [[[z.real, z.imag] for z in row] for row in matrix.tolist()]}
            (directory / rec["file"]).write_text(json.dumps(doc))
        else:
            rec["file"] = f"state{i:03d}.npy"
            np.save(directory / rec["file"], matrix)
        records.append(rec)
    (directory / "inputs.json").write_text(json.dumps(records))


if __name__ == "__main__":
    name, seed, out = sys.argv[1:]
    write(name, int(seed), Path(out))
