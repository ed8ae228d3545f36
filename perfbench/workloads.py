"""Workload definitions: the CLI commands each workload runs, built from a seed.

The program sees only what is built here: the CLI's ``--seed`` and the
generator documents handed to ``expand``. The same (workload, seed) pair
always yields the same commands and the same document bytes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

#: The stock grid: n 0..3 x six alphas x four betas.
STOCK_NS = (0, 1, 2, 3)
STOCK_POINTS = 96


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the correctness gate expects of it.

    ``check`` names the gate rule (see :mod:`gate`); ``points`` x ``trials``
    is the work the command does, counted as generator trials (one per grid
    point for the deterministic commands); ``expect`` carries rule-specific
    data such as the expand document and its class parameters.
    """

    label: str
    argv: tuple
    expect_code: int
    check: str
    points: int
    trials: int = 1
    expect: dict | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple
    files: dict  # path -> text, written before the first pass

    @property
    def trials(self) -> int:
        return sum(c.points * c.trials for c in self.commands)

    def write_inputs(self):
        for path, text in self.files.items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text, encoding="utf-8")


def _rng(name: str, seed: int) -> random.Random:
    # String seeds hash through sha512, so this is stable across Python builds.
    return random.Random(f"{name}|{seed}")


# Both sweep workloads run one command per n. The commands do exactly the
# work of one command over all four n (trial seeds do not depend on the
# command, and each grid point is swept on its own either way), but each
# lasts two seconds or less, so calibration brackets it closely.


def dominance_wide(seed: int, input_dir: Path) -> Workload:
    """``verify random --trials 1000`` on the stock grid, one command per n."""
    cli_seed = _rng("dominance-wide", seed).getrandbits(32)
    commands = tuple(
        Command(f"verify-random-n{n}",
                ("verify", "random", "--n", str(n), "--trials", "1000", "--seed", str(cli_seed)),
                0, "random", STOCK_POINTS // len(STOCK_NS), 1000)
        for n in STOCK_NS
    )
    return Workload("dominance-wide", seed, commands, {})


def nehari_deep(seed: int, input_dir: Path) -> Workload:
    """``verify nehari --alpha 2 --beta 0 --trials 20000`` at n = 0..3, one command per n."""
    cli_seed = _rng("nehari-deep", seed).getrandbits(32)
    commands = tuple(
        Command(f"verify-nehari-n{n}",
                ("verify", "nehari", "--n", str(n), "--alpha", "2", "--beta", "0",
                 "--trials", "20000", "--seed", str(cli_seed)),
                0 if n == 0 else 1, "nehari", 1, 20000)
        for n in STOCK_NS
    )
    return Workload("nehari-deep", seed, commands, {})


EXPAND_ORDER = 16
EXPAND_KMAX = 8
_EXPAND_ALPHAS = ("3/2", "2", "3", "5")
_EXPAND_BETAS = ("0", "1/4", "1/2")
_HK_ALPHAS = 6  # the stock alpha list
_DOCS_PER_BACKEND = 2


def _float_doc(rng: random.Random) -> dict:
    count = rng.randint(1, 4)
    raw = [rng.uniform(0.1, 1.0) for _ in range(count)]
    total = sum(raw)
    weights = [w / total for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(count)]
    atoms = [{"weight": w, "angle_radians": a} for w, a in zip(weights, angles)]
    return {"backend": "float", "atoms": atoms}


def _rational_doc(rng: random.Random) -> dict:
    count = rng.randint(1, 3)
    raw = [rng.randint(1, 9) for _ in range(count)]
    total = sum(raw)
    atoms = [
        {"weight": str(Fraction(w, total)), "t": str(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))}
        for w in raw
    ]
    return {"backend": "rational", "atoms": atoms}


def scalar_mixed(seed: int, input_dir: Path) -> Workload:
    rng = _rng("scalar-mixed", seed)
    commands = []
    for backend in ("float", "rational"):
        flag = () if backend == "float" else ("--backend", "rational")
        commands.append(
            Command(f"bounds-{backend}", ("bounds", *flag), 0, "bounds", STOCK_POINTS,
                    expect={"backend": backend})
        )
        commands.append(
            Command(f"extremal-{backend}", ("verify", "extremal", *flag), 0, "extremal",
                    STOCK_POINTS, expect={"backend": backend})
        )
        commands.append(Command(f"hk-{backend}", ("verify", "hk", *flag), 0, "hk", _HK_ALPHAS))
    files = {}
    for backend, make in (("float", _float_doc), ("rational", _rational_doc)):
        for i in range(1, _DOCS_PER_BACKEND + 1):
            doc = make(rng)
            params = {
                "n": rng.randrange(4),
                "alpha": rng.choice(_EXPAND_ALPHAS),
                "beta": rng.choice(_EXPAND_BETAS),
            }
            path = str(Path(input_dir) / f"scalar-mixed-{seed}-{backend}-{i}.json")
            files[path] = json.dumps(doc, sort_keys=True) + "\n"
            argv = (
                "expand", "--pspec", path,
                "--n", str(params["n"]), "--alpha", params["alpha"], "--beta", params["beta"],
                "--order", str(EXPAND_ORDER), "--kmax", str(EXPAND_KMAX),
            )
            commands.append(
                Command(f"expand-{backend}-{i}", argv, 0, "expand", 1,
                        expect={"doc": doc, **params})
            )
    return Workload("scalar-mixed", seed, tuple(commands), files)


WORKLOADS = {
    "dominance-wide": dominance_wide,
    "nehari-deep": nehari_deep,
    "scalar-mixed": scalar_mixed,
}


def build(name: str, seed: int, input_dir: Path) -> Workload:
    return WORKLOADS[name](seed, Path(input_dir))
