"""Workload definitions: the `paraferm` command lines each pass runs.

A pass is one fresh interpreter that calls ``paraferm.cli.main(argv)`` once
per command, in order, each call starting when the previous verdict has been
returned (a closed loop with one caller).  The seed fixes a command order,
which the n-th pass of a run rotates by n places, and, in ``suite``, the
``--seed`` of ``singular-vector``: seed + n mod ``SINGULAR_SEEDS``.  Command
order changes what the module caches save.  The singular-vector seed picks
its random test vectors, and the cost of the check varies by a sixth from
one seed to the next, so a suite run makes at least ``SINGULAR_SEEDS``
passes and every run covers the same singular-vector inputs.

A run makes at least ``min_passes`` passes.  ``tail_pct`` is the percentile
reported as ``check_tail_s``: the highest percentile that keeps at least
ten of the run's calls beyond it.  ``suite`` makes too few calls in a run
for any percentile to have ten beyond it; its ``tail_pct`` is None, and its
tail is the median over the run's passes of each pass's slowest call.
"""

from __future__ import annotations

import random

SINGULAR_SEEDS = 4


def _fock_dual_route(singular_seed: int) -> list[list[str]]:
    return [
        ["string-dual-route", "--k", "3", "--i", str(i), "--max-weight", "4"]
        for i in range(4)
    ]


def _suite(singular_seed: int) -> list[list[str]]:
    return [
        ["all", "--kmax", "3", "--max-weight", "5"],
        ["singular-vector", "--k", "3", "--seed", str(singular_seed)],
        ["singular-vector", "--k", "4", "--seed", str(singular_seed)],
    ]


def _character_route(singular_seed: int) -> list[list[str]]:
    cmds = [
        ["lki-decomposition", "--k", str(k), "--max-weight", "10"] for k in range(3, 7)
    ]
    cmds += [["identify", "--k", str(k)] for k in range(3, 41)]
    cmds.append(["top-weight-match", "--k", "40"])
    cmds.append(["w1inf-generation", "--max", "100"])
    return cmds


WORKLOADS = {
    # 4 calls a pass: 40 calls put ten beyond p75
    "fock-dual-route": {"build": _fock_dual_route, "tail_pct": 75, "min_passes": 10},
    "suite": {"build": _suite, "tail_pct": None, "min_passes": SINGULAR_SEEDS},
    # 44 calls a pass: 220 calls put eleven beyond p95
    "character-route": {"build": _character_route, "tail_pct": 95, "min_passes": 5},
}


def commands(workload: str, seed: int, n: int) -> list[list[str]]:
    """The command lines of the n-th pass of a run with this seed."""
    cmds = WORKLOADS[workload]["build"]((seed + n) % SINGULAR_SEEDS)
    random.Random(f"{workload}:{seed}").shuffle(cmds)
    n %= len(cmds)
    return cmds[n:] + cmds[:n]


def all_commands() -> list[list[str]]:
    """Every distinct command line any seed can produce."""
    seen: dict[str, list[str]] = {}
    for spec in WORKLOADS.values():
        for s in range(SINGULAR_SEEDS):
            for cmd in spec["build"](s):
                seen.setdefault(" ".join(cmd), cmd)
    return list(seen.values())
