"""Fingerprints of the package's multistart searches, of its
outcome-table route, of its command line and of its exact classical
bounds and strategy values, for showing that a change to the optimizer,
its kernels, the table readers, the CLI or the LHV scan and valuation
leaves every result bit-identical.

Run from the repository root:

    PYTHONPATH=src python -W error tools/search_fingerprints.py

The suite is the 30 searches of the bench's angles_dsweep workload, at
the states of tests/helpers.py angles_dsweep_states (8 restarts, seed
0), the seven searches that build_reproduction_report(50, 7) runs,
joint searches at d = 2..8, 12 and 16 in both directions (10 restarts,
seed 1) and the d = 16 joint minimum (20 restarts, seed 0).  The
report's searches are the runs it records in report.runs, each labelled
with the row it backs, in call order.

For each search one line gives its label and a SHA-256 digest over the
hex of every per-restart value, gradient norm, mu and eigengap, the
iterations, rejected steps, hessians and best_restart, and the best
value, state and settings.  Two trees give identical lines only if
every one of these is identical.

Then one line per dimension d = 2..24, 32, 48 and 64 covers the
outcome-table route on 29 seeded cases each (754 in all; states from
tests/helpers.py random_state, signed, and settings from
random_settings): a SHA-256 digest over the hex of bell_value,
bell_value_noisy and the four correlation_q values of the table and of
its noise-mixed table, the bytes of both tables, and the counts,
value_estimate and std_error of sample_experiment at 1, 7, 200 000 and
10^12 shots and at the int64 limit (2^63 - 1) // (d - 1).

Then one line per command of CLI_COMMANDS, run in-process through
bellmp.cli.main: its exit code and a SHA-256 digest over the exit
code, stdout and stderr.  The commands cover every subcommand and
the error cases of a short angle-file row, an angle file of the wrong
d, an all-zero state and a dimension above the enumeration limit, and
one out-of-range value of each integer the model checks from the
command line (the integer rule, model._as_int): a dimension, restarts
(optimize), a seed and shots (sample), scan steps and an angle file's
float d, three flags optimize refuses (--d beside --state,
--export-angles and the abbreviation --rest), scan's removed --json,
an unknown flag after eval, and an analytic state whose Imax is so
small that its threshold noise would overflow.  reproduce takes no
integer: it runs build_reproduction_report at its defaults, text and
--json.  They run in a temporary working directory that holds the
angle files of ANGLE_FILES under fixed relative names, so no message
depends on where the checkout lies.

Then one line per dimension d = 2..12, labelled with KernelVariant's
one member (plus): a SHA-256 digest over lhv_bounds' exact max_value
and min_value and the outcomes of its argmax and argmin witnesses.
Then one line per dimension d = 2..6, labelled the same way: a SHA-256
digest over repr(lhv_value(...)) of every deterministic strategy, in
row-major order over (A1, A2, B1, B2), so the exact value of each of
the d^4 strategies is covered.

After the fingerprints come the calls per pass of three searches: the
Python-level ("call") and C-level ("c_call") events sys.setprofile sees
during the search, divided by its batched objective evaluations
(Evaluations.calls).  An operator such as a + b is not an event, and
neither is a call of a numpy ufunc such as np.abs or of a dispatched
numpy function such as np.copyto: the C-level count sees builtin
functions and methods such as len and np.asarray.  Each search runs
once untimed first, so that the counts leave out the first-call caches,
and they repeat exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from bellmp import (
    DeterministicStrategy,
    Dimension,
    Direction,
    KernelVariant,
    OptimizerConfig,
    bell_value,
    bell_value_noisy,
    build_reproduction_report,
    correlation_q,
    joint_probabilities,
    lhv_bounds,
    lhv_value,
    maximally_entangled_state,
    optimize_angles,
    optimize_joint,
    sample_experiment,
)
from bellmp.cli import main as cli_main
from bellmp.engine import mix_uniform_noise
from bellmp.model import SETTING_PAIRS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from helpers import angles_dsweep_states, random_settings, random_state  # noqa: E402

TABLE_DIMENSIONS = (*range(2, 25), 32, 48, 64)
TABLE_CASES = 29
LHV_DIMENSIONS = range(2, 13)
LHV_VALUE_DIMENSIONS = range(2, 7)

_ANGLES4 = {"d": 4, "A1": [0, 0.5, 1, 1.5], "A2": [0.25, 0, 0, 0],
            "B1": [0, 0, 0, 0], "B2": [-0.25, 0, 0.75, 0]}
ANGLE_FILES = {"angles4.json": _ANGLES4, "short_a1.json": {**_ANGLES4, "A1": [0, 0.5, 1]},
               "float_d.json": {**_ANGLES4, "d": 4.0}}
CLI_COMMANDS = (
    "reproduce",
    "reproduce --json",
    "analytic",
    "analytic --state 1,0.2,0.9,0.1",
    "eval --state 1,0.9,0.2,0.1 --noise 0.1",
    "eval --state 1,0.9,0.2,0.1 --angles angles4.json",
    "sample --state 1,1,1,1 --shots 5000 --seed 3",
    "sample --state 1,0.9,0.2,0.1 --angles angles4.json --shots 200000",
    "scan --from 0 --to 1 --steps 11",
    "lhv --d 4",
    "optimize --state 1,0.9,0.2,0.1 --restarts 10",
    "optimize --free-state 4 --restarts 10",
    "eval --state 1,1,1,1 --angles short_a1.json",
    "eval --state 1,1,1 --angles angles4.json",
    "eval --state 0,0,0,0",
    "lhv --d 13",
    "lhv --d 1",
    "optimize --state 1,1,1,1 --restarts 0",
    "sample --state 1,1 --shots 10 --seed -1",
    "sample --state 1,1 --shots 0",
    "scan --steps 1",
    "eval --state 1,1,1,1 --angles float_d.json",
    "optimize --state 1,1,1,1 --d 4",
    "optimize --state 1,1,1,1 --export-angles f.json",
    "optimize --state 1,1,1,1 --rest 2",
    "scan --steps 3 --json",
    "analytic --state 1,1e-320,0,0",
    "eval --state 1,1 --bogus",
)


def _flat(d):
    return maximally_entangled_state(Dimension(d))


def _angles(state, restarts, seed, direction):
    config = OptimizerConfig(restarts=restarts, seed=seed, direction=direction)
    return lambda: optimize_angles(state, config)


def _joint(d, restarts, seed, direction):
    config = OptimizerConfig(restarts=restarts, seed=seed, direction=direction)
    return lambda: optimize_joint(Dimension(d), config)


def angles_dsweep_searches():
    for (d, k), state in angles_dsweep_states().items():
        name = "flat" if k == 0 else f"random{k}"
        for direction in Direction:
            yield (f"angles_dsweep d={d} {name} {direction.value}",
                   _angles(state, 8, 0, direction))


def report_searches(restarts=50, seed=7):
    for i, (label, run) in enumerate(build_reproduction_report(restarts, seed).runs, 1):
        yield f"report({restarts}, {seed}) search {i}: {label}", lambda run=run: run


def joint_searches():
    for d in (2, 3, 4, 5, 6, 7, 8, 12, 16):
        for direction in Direction:
            yield (f"joint d={d} {direction.value} restarts=10 seed=1",
                   _joint(d, 10, 1, direction))
    yield "joint d=16 min restarts=20 seed=0", _joint(16, 20, 0, Direction.MINIMIZE)


def hexes(values):
    return [float(v).hex() for v in values]


def fingerprint(run) -> str:
    best = run.best
    fields = [
        hexes(run.per_restart_values),
        hexes(run.per_restart_gradient_norms),
        hexes(run.per_restart_mu),
        hexes(run.per_restart_eigengaps),
        list(run.per_restart_iterations),
        list(run.per_restart_rejected),
        [run.hessians, run.best_restart],
        hexes([best.value]),
        hexes(best.state.coefficients),
        [hexes(row) for row in best.settings.phases],
    ]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def table_route_fingerprint(d: int) -> str:
    # TABLE_CASES seeded (state, settings, noise fraction, sample seed)
    # cases at dimension d, through every reader of the outcome table.
    rng = np.random.default_rng(d)
    shot_counts = (1, 7, 200_000, 10**12, (2**63 - 1) // (d - 1))
    digest = hashlib.sha256()
    for _ in range(TABLE_CASES):
        state, settings = random_state(rng, d, signed=True), random_settings(rng, d)
        noise, seed = float(rng.uniform()), int(rng.integers(2**32))
        table = joint_probabilities(state, settings)
        mixed = mix_uniform_noise(table, noise)
        values = [bell_value(state, settings), bell_value_noisy(state, settings, noise)]
        values += [correlation_q(t, i, j) for t in (table, mixed) for i, j in SETTING_PAIRS]
        digest.update(repr(hexes(values)).encode())
        digest.update(table.probabilities.tobytes())
        digest.update(mixed.probabilities.tobytes())
        for shots in shot_counts:
            sample = sample_experiment(state, settings, shots, seed)
            digest.update(sample.counts.tobytes())
            digest.update(repr(hexes([sample.value_estimate, sample.std_error])).encode())
    return digest.hexdigest()


def cli_fingerprints():
    # (command, exit code, digest) for each of CLI_COMMANDS, run in a
    # temporary directory holding ANGLE_FILES.
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, content in ANGLE_FILES.items():
                Path(name).write_text(json.dumps(content), encoding="utf-8")
            for command in CLI_COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main(command.split())
                text = repr((code, out.getvalue(), err.getvalue()))
                yield command, code, hashlib.sha256(text.encode()).hexdigest()
        finally:
            os.chdir(home)


def lhv_fingerprint(d: int, variant: KernelVariant) -> str:
    report = lhv_bounds(Dimension(d), variant)
    fields = (report.max_value, report.min_value,
              report.argmax.outcomes, report.argmin.outcomes)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def lhv_value_fingerprint(d: int, variant: KernelVariant) -> str:
    # The exact value of every strategy at d, in row-major order.
    digest = hashlib.sha256()
    for outcomes in itertools.product(range(d), repeat=4):
        strategy = DeterministicStrategy(Dimension(d), outcomes)
        digest.update(repr(lhv_value(strategy, variant)).encode())
    return digest.hexdigest()


def calls_per_pass(search) -> tuple[float, float]:
    search()
    counts = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(count)
    try:
        run = search()
    finally:
        sys.setprofile(None)
    calls = run.evaluations.calls
    return counts["call"] / calls, counts["c_call"] / calls


def main() -> None:
    for searches in (angles_dsweep_searches(), report_searches(), joint_searches()):
        for label, search in searches:
            print(f"{label}  {fingerprint(search())}")
    for d in TABLE_DIMENSIONS:
        print(f"table route d={d} cases={TABLE_CASES}  {table_route_fingerprint(d)}")
    for command, code, digest in cli_fingerprints():
        print(f"cli {command}  exit={code}  {digest}")
    for d in LHV_DIMENSIONS:
        for variant in KernelVariant:
            print(f"lhv d={d} {variant.value}  {lhv_fingerprint(d, variant)}")
    for d in LHV_VALUE_DIMENSIONS:
        for variant in KernelVariant:
            print(f"lhv_value d={d} {variant.value}  {lhv_value_fingerprint(d, variant)}")
    counted = (
        ("angle d=4 flat max restarts=8 seed=0", _angles(_flat(4), 8, 0, Direction.MAXIMIZE)),
        ("angle d=8 flat max restarts=8 seed=0", _angles(_flat(8), 8, 0, Direction.MAXIMIZE)),
        ("joint d=4 max restarts=50 seed=7", _joint(4, 50, 7, Direction.MAXIMIZE)),
    )
    for label, search in counted:
        python, c = calls_per_pass(search)
        print(f"calls per pass, {label}: {python:.1f} Python-level, {c:.1f} C-level")


if __name__ == "__main__":
    main()
