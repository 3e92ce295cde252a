"""Experiment configs of the three benchmark workloads, generated from a seed.

Pure standard library, so the set-up probe can time the cold import of
thermodual (and of NumPy/SciPy with it) without this module importing them
first.

Every built-in model is symmetric under rotations of its target vector: the
Heisenberg exchange commutes with global spin rotations, which rotate the
total magnetizations (X, Y, Z) as a vector, and the logical Paulis of each
encoded qubit rotate as a vector under logical unitaries, which commute with
the stabilizer Hamiltonian.  The seed therefore draws a random direction for
each target vector at a fixed length.  Inputs differ from seed to seed while
the solver does the same amount of work up to rounding (first-order
iteration counts swing by tens of percent under small changes of the target
length).  The seed also sets each experiment's shot-noise master seed.
`second_classical` is the exception, see `_exact`.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("exact", "hqc-gradient", "hqc-hessian")

# target-vector lengths; the directions come from the seed
_HEISENBERG_NORM = {"grid": math.sqrt(0.75), "line": math.sqrt(2.0)}
_CODE_NORMS = {"repetition3": (0.55,), "perfect5": (0.55,), "detect422": (0.5, 0.4)}
CODES = tuple(_CODE_NORMS)

# delta of the sampled runs: never reached, so each solve runs exactly max_iter iterations
_NEVER_CONVERGE = 1e-12


def _direction(rng: random.Random, norm: float) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        length = math.sqrt(sum(x * x for x in v))
        if length > 1e-6:
            return [norm * x / length for x in v]


def _heisenberg(rng, geometry: str, n: int | None = None) -> dict:
    model = {
        "kind": "heisenberg",
        "geometry": geometry,
        "nnn": True,
        "lambda": 0.5,
        "targets": _direction(rng, _HEISENBERG_NORM[geometry]),
    }
    if geometry == "grid":
        model.update(rows=2, cols=3)
    else:
        model["n"] = n
    return model


def _code(rng, name: str) -> dict:
    charges = []
    norms = _CODE_NORMS[name]
    for qubit, norm in enumerate(norms):
        for axis, target in enumerate(_direction(rng, norm), start=1):
            word = ["0"] * len(norms)
            word[qubit] = str(axis)
            charges.append({"word": "".join(word), "target": target})
    return {"kind": "stabilizer", "code": name, "charges": charges}


def _experiment(name, model, solver, oracle_iterations, repetitions, seed) -> dict:
    solver = {"epsilon": 0.1, **solver}
    return {
        "name": name,
        "config": {
            "label": name,
            "model": model,
            "solver": solver,
            "oracle": {"enable": True, "iterations": oracle_iterations},
            "repetitions": repetitions,
            "seed": seed,
        },
    }


def _exact(rng, tiny: bool) -> list[dict]:
    out = []
    for variant in ("first_classical", "second_classical"):
        # Second-order backtracking is sensitive to rounding: rotating the
        # targets flips whether a 30-step backtrack runs out (31 vs 62
        # evaluations on line 8).  Its targets stay fixed so every seed does
        # the same work.
        source = rng if variant == "first_classical" else random.Random(variant)
        solver = {"variant": variant, "max_iter": 20000}
        if not tiny:
            out.append(_experiment(f"grid2x3-{variant}", _heisenberg(source, "grid"), solver, 300, 1, 0))
            out.append(_experiment(f"line6-{variant}", _heisenberg(source, "line", 6), solver, 300, 1, 0))
        for code in CODES:
            out.append(_experiment(f"{code}-{variant}", _code(source, code), solver, 500, 1, 0))
        if variant == "second_classical" and not tiny:
            # first_classical on line 8 takes ~2k iterations at 13 ms each: left out
            out.append(_experiment(
                "line8-second_classical", _heisenberg(source, "line", 8),
                {"variant": variant, "max_iter": 2000}, 100, 1, 0,
            ))
    return out


def _hqc_gradient(rng, tiny: bool) -> list[dict]:
    out = []
    solver = {"variant": "first_hqc", "delta": _NEVER_CONVERGE, "shots_per_iteration": 10_000}
    if not tiny:
        out.append(_experiment(
            "grid2x3-first_hqc", _heisenberg(rng, "grid"),
            {**solver, "max_iter": 60}, 100, 3, rng.getrandbits(32),
        ))
        out.append(_experiment(
            "line8-first_hqc", _heisenberg(rng, "line", 8),
            {**solver, "max_iter": 15}, 20, 2, rng.getrandbits(32),
        ))
    for code in CODES:
        out.append(_experiment(
            f"{code}-first_hqc", _code(rng, code),
            {**solver, "max_iter": 10 if tiny else 150}, 200, 2 if tiny else 5,
            rng.getrandbits(32),
        ))
    return out


def _hqc_hessian(rng, tiny: bool) -> list[dict]:
    out = []
    solver = {"variant": "second_hqc", "delta": _NEVER_CONVERGE, "shots_per_iteration": 100_000}
    for code in CODES:
        out.append(_experiment(
            f"{code}-second_hqc", _code(rng, code),
            {**solver, "max_iter": 1 if tiny else 2,
             "hessian_samples_per_iteration": 10_000 if tiny else 1_000_000},
            200, 2, rng.getrandbits(32),
        ))
    if not tiny:
        # Heisenberg at 1e5 Hessian samples: the CLI default of 1e7 cannot run.
        # A generic-mode Hessian costs in proportion to the number of distinct
        # frequencies at the current mu, which the noise path moves by +-30%:
        # two repetitions average two paths.
        for mode, max_iter, repetitions in (("generic", 2, 2), ("extensive", 6, 1)):
            out.append(_experiment(
                f"grid2x3-second_hqc-{mode}", _heisenberg(rng, "grid"),
                {**solver, "max_iter": max_iter, "hessian_samples_per_iteration": 100_000,
                 "estimator_mode": mode},
                100, repetitions, rng.getrandbits(32),
            ))
    return out


_BUILDERS = {"exact": _exact, "hqc-gradient": _hqc_gradient, "hqc-hessian": _hqc_hessian}


def experiments(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The workload's experiments as [{"name", "config"}], the same for the same seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, tiny)


def determinism_config(seed: int) -> dict:
    """Small sampled config whose CSVs must not depend on the worker count."""
    rng = random.Random(f"determinism:{seed}")
    return _experiment(
        "repetition3-workers", _code(rng, "repetition3"),
        {"variant": "first_hqc", "max_iter": 15, "shots_per_iteration": 2000},
        50, 3, rng.getrandbits(32),
    )["config"]
