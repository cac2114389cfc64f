"""Seeded inputs and operations of the three workloads.

Every workload turns a seed into a fixed cycle of operations at set-up; the
timed phase runs the cycle over and over. An operation has a ``call`` (the
timed part: one call into the package) and a ``collect`` (untimed: turns the
return value into the record the oracle checks). The program receives only
the generated inputs; the seed never reaches it.

Sizes come from fixed grids, so that every seed gives a cycle of the same
composition and nearly the same cost; the seed draws the remaining
parameters and the order of the cycle:

- curve: n, orders and figure lengths from fixed grids; the seed draws p,
  eps, the output format and --per-use.
- extend: classes with a closed-form verdict at a fixed distance from the
  boundary; the seed draws the Haar-random local unitaries that conjugate
  half of the states, which are read from matrix-JSON files written at
  set-up. Local unitaries leave extendibility (and the solver's iteration
  count) unchanged.
- divergence: sizes from a fixed grid; the seed draws the state parameters.

The timed cycles hold no input on which the seed program is known to give a
wrong answer, so that no timed operation fails: no reference state at the
isotropic k = 3 table entry, which is not 3-extendible (explicit k = 3 on the
depolarizing channel, interleaved and distillation rows at k = 3, and the
depolarizing ``--k opt`` and ``figure`` calls, which can pick k = 3), and no
erasure row whose type-I budget eps equals the all-erased mass p^n exactly
(p has four decimals with a nonzero last one and eps three, so p^n != eps).
Both defects are run and reported on every curve run by ``defect_probes``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import unext
from unext import bounds, cli, extendibility, linalg, states

INF = float("inf")
WORKLOADS = ("curve", "extend", "divergence")


@dataclass
class Op:
    kind: str
    params: dict
    call: Callable[[], Any]
    collect: Callable[[Any], Any] = lambda ret: ret
    rows: int = 0  # bound rows the op produces, for bounds.useful_frac


def t_star_closed_form(d: int, k: float) -> float:
    """Largest k-extendible isotropic parameter, (1 + (d-1)/k)/d; 1/d at k = inf."""
    return 1.0 / d if k == INF else (1.0 + (d - 1) / k) / d


# --- curve ---


def _parse_cell(raw: str) -> Optional[float]:
    if raw == "":
        return None
    if raw == "inf":
        return INF
    return float(raw)


def parse_rows(text: str, fmt: str) -> list[dict]:
    """Rows of a bound or figure output file, with inf for vacuous rates."""
    if fmt == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != cli.CSV_VERSION_HEADER:
            raise ValueError("missing CSV version header")
        cols = lines[1].split(",")
        rows = []
        for line in lines[2:]:
            cells = line.split(",")
            rows.append(
                {c: (v if c == "method" else _parse_cell(v)) for c, v in zip(cols, cells)}
            )
        return rows
    rows = []
    for r in json.loads(text)["rows"]:
        row = dict(r)
        vacuous_flags = (("rate_bound", "vacuous"), ("rate_primary", "vacuous"), ("rate_limit", "limit_vacuous"))
        for key, flag in vacuous_flags:
            if key in row and row[key] is None and row.get(flag):
                row[key] = INF
        if "divergence" in row and row["divergence"] is None:
            row["divergence"] = INF
        row["k_used"] = INF if row["k_used"] == "inf" else float(row["k_used"])
        rows.append(row)
    return rows


def _result_row(r) -> dict:
    return {
        "n": r.n,
        "rate_bound": r.rate_bound,
        "k_used": r.k_used,
        "sigma_param_used": r.sigma_param_used,
        "method": r.method,
        "divergence": r.divergence,
    }


def _draw_p(rng: random.Random, lo: float, hi: float) -> float:
    """A probability in [lo, hi] with exactly four decimals, the last one nonzero."""
    while True:
        m = rng.randint(round(lo * 10**4), round(hi * 10**4))
        if m % 10:
            return m / 10**4


def _draw_eps(rng: random.Random) -> float:
    """A type-I budget in [0.01, 0.2] with three decimals, so never a power of a drawn p."""
    return rng.randint(10, 200) / 1000


P_RANGE = {"depolarizing": (0.01, 0.25), "erasure": (0.05, 0.45)}
# sizes of every curve cycle; the orders exclude k = 3 on the isotropic reference
OPT_NS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 512)
OPT_RANGES = ((4, 7), (30, 33), (150, 154))
ORDER_NS = (3, 21, 144, 512)
ERASURE_ORDERS = ("2", "3", "4", "5", "inf")
DEPOLARIZING_ORDERS = ("2", "4", "5", "inf")
FIGURE_N_MAX = (4, 8, 12, 16, 20, 24)
ROW_ORDERS = (2, 4, 5, INF)  # interleaved and distillation rows
ROW_NS = (5, 40, 300)


def _cli_op(workdir: Path, index: int, kind: str, argv: list[str], params: dict, fmt: str, rows: int) -> Op:
    out = workdir / f"curve-{index}.{fmt}"
    argv = argv + ["--format", fmt, "--output", str(out)]

    def collect(code):
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return parse_rows(out.read_text(encoding="utf-8"), fmt)

    return Op(kind, dict(params, argv=argv), lambda: unext.cli.main(argv), collect, rows)


def bound_op(rng: random.Random, workdir: Path, index: int, channel: str, k: str, ns: list[int]) -> Op:
    p, eps = _draw_p(rng, *P_RANGE[channel]), _draw_eps(rng)
    per_use = rng.random() < 0.5
    fmt = rng.choice(["csv", "json"])
    n_arg = ["--n", str(ns[0])] if len(ns) == 1 else ["--n-range", f"{ns[0]}:{ns[-1]}"]
    argv = ["bound", "--channel", channel, "--p", repr(p), "--eps", repr(eps), *n_arg, "--k", k]
    if per_use:
        argv.append("--per-use")
    params = {"channel": channel, "p": p, "eps": eps, "ns": ns, "k": k, "per_use": per_use}
    return _cli_op(workdir, index, "bound", argv, params, fmt, len(ns))


def figure_op(rng: random.Random, workdir: Path, index: int, channel: str, n_max: int) -> Op:
    p, eps = _draw_p(rng, *P_RANGE[channel]), _draw_eps(rng)
    argv = ["figure", channel, "--p", repr(p), "--eps", repr(eps), "--n-max", str(n_max)]
    params = {"channel": channel, "p": p, "eps": eps, "ns": list(range(1, n_max + 1))}
    return _cli_op(workdir, index, "figure", argv, params, rng.choice(["csv", "json"]), 2 * n_max)


def row_op(rng: random.Random, kind: str, k: float, n: int) -> Op:
    """One interleaved_bound or distillation_bound_bell_diagonal row (depolarizing, per use)."""
    p, eps = _draw_p(rng, *P_RANGE["depolarizing"]), _draw_eps(rng)
    params = {"channel": "depolarizing", "p": p, "eps": eps, "ns": [n], "k": k, "per_use": True}
    if kind == "interleaved":
        def call():
            query = bounds.BoundQuery(states.ChannelSpec("depolarizing", p), n, eps, k)
            return [_result_row(unext.bounds.interleaved_bound(query))]
    else:
        spectrum = (1.0 - p, p / 3.0, p / 3.0, p / 3.0)

        def call():
            return [_result_row(unext.bounds.distillation_bound_bell_diagonal(spectrum, n, eps, k))]
    return Op(kind, params, call, rows=1)


def curve_ops(seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []

    def add_cli(make, *args):
        ops.append(make(rng, workdir, len(ops), *args))

    opt_ns = OPT_NS[:5] if tiny else OPT_NS
    order_ns = ORDER_NS[:2] if tiny else ORDER_NS
    for n in opt_ns:
        add_cli(bound_op, "erasure", "opt", [n])
    for lo, hi in OPT_RANGES[:1] if tiny else OPT_RANGES:
        add_cli(bound_op, "erasure", "opt", list(range(lo, hi + 1)))
    for channel, orders in (("erasure", ERASURE_ORDERS), ("depolarizing", DEPOLARIZING_ORDERS)):
        for k in orders:
            for n in order_ns:
                add_cli(bound_op, channel, k, [n])
    for n_max in FIGURE_N_MAX[:2] if tiny else FIGURE_N_MAX:
        add_cli(figure_op, "erasure", n_max)
    for kind in ("interleaved", "distillation"):
        for k in ROW_ORDERS:
            for n in ROW_NS:
                ops.append(row_op(rng, kind, k, n))
    rng.shuffle(ops)
    return ops


def defect_probes(workdir: Path) -> list[Op]:
    """Inputs the timed cycles leave out because the seed program answers them wrongly.

    ``bound --k 3`` and the interleaved and distillation rows at k = 3 rest
    on the isotropic k = 3 table entry; the README depolarizing figure takes
    the depolarizing ``--k opt`` path, which can pick it. The erasure limit
    row at p = 0.3, eps = 0.09 = p^2 ties the type-I budget with the
    all-erased mass exactly.
    """
    rng = random.Random(0)
    workdir = workdir / "probes"
    workdir.mkdir(exist_ok=True)
    return [
        _cli_op(workdir, 0, "figure", ["figure", "depolarizing", "--p", "0.15", "--eps", "0.05", "--n-max", "50"],
                {"channel": "depolarizing", "p": 0.15, "eps": 0.05, "ns": list(range(1, 51))}, "csv", 100),
        _cli_op(workdir, 1, "bound", ["bound", "--channel", "depolarizing", "--p", "0.15", "--eps", "0.05",
                                      "--n", "20", "--k", "3"],
                {"channel": "depolarizing", "p": 0.15, "eps": 0.05, "ns": [20], "k": "3", "per_use": False},
                "json", 1),
        row_op(rng, "interleaved", 3, 20),
        row_op(rng, "distillation", 3, 20),
        _cli_op(workdir, 2, "bound", ["bound", "--channel", "erasure", "--p", "0.3", "--eps", "0.09",
                                      "--n", "2", "--k", "inf"],
                {"channel": "erasure", "p": 0.3, "eps": 0.09, "ns": [2], "k": "inf", "per_use": False},
                "csv", 1),
    ]


def curve_warm_up(workdir: Path) -> None:
    """First calls pay for argparse construction and module-level lazies."""
    out = workdir / "warm-up.csv"
    unext.cli.main(["bound", "--channel", "erasure", "--p", "0.1", "--eps", "0.05",
                    "--n", "3", "--k", "opt", "--output", str(out)])
    unext.bounds.interleaved_bound(
        bounds.BoundQuery(states.ChannelSpec("depolarizing", 0.1), 2, 0.05, 2)
    )


# --- extend ---

# (family, local dimension of the isotropic family, k, expected feasible?,
# distance to the closed-form boundary, input forms). The solver's iteration
# count changes steeply with the distance, so it is fixed and the seed draws
# only the local unitaries. The erased family's 2500 iterations do not depend
# on it. k = 5 (4-8 s a query) and the erased family at k = 3 (12-20 s) are
# left out: a run could not repeat them often enough for a median.
EXTEND_CLASSES = [
    ("isotropic", 2, 2, True, 0.04, ("spec", "json")),
    ("isotropic", 2, 2, False, 0.04, ("spec", "json")),
    ("depolarizing-choi", 2, 2, True, 0.04, ("spec", "json")),
    ("depolarizing-choi", 2, 2, False, 0.04, ("spec", "json")),
    ("isotropic", 2, 3, True, 0.04, ("spec", "json")),
    ("isotropic", 2, 3, False, 0.04, ("spec", "json")),
    ("isotropic", 3, 2, True, 0.04, ("spec", "json")),
    ("isotropic", 3, 2, False, 0.04, ("spec", "json")),
    ("isotropic", 2, 4, True, 0.04, ("json",)),
    ("erasure", 2, 2, True, 0.04, ("spec", "json")),
    ("erasure", 2, 2, True, 0.08, ("json",)),
]


def haar_unitary(gen: np.random.Generator, d: int) -> np.ndarray:
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _extend_state(family: str, d: int, k: int, feasible: bool, margin: float):
    """Spec string and closed-form verdict of one extend input."""
    if family == "erasure":
        return f"erasure:{round(1.0 - 1.0 / k + margin, 6)!r}", True
    t = round(t_star_closed_form(d, k) + (-margin if feasible else margin), 6)
    if family == "isotropic":
        return f"isotropic:{t!r}:{d}", feasible
    return f"depolarizing-choi:{round(1.0 - t, 6)!r}", feasible


def extend_ops(seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    gen = np.random.default_rng(seed)
    ops: list[Op] = []

    def add(family, d, k, feasible, margin, as_json):
        spec, expect = _extend_state(family, d, k, feasible, margin)
        params = {"k": k, "expect_feasible": expect, "spec": spec}
        if as_json:
            rho = states.parse_state_spec(spec)
            d_a, d_b = rho.dims
            u = np.kron(haar_unitary(gen, d_a), haar_unitary(gen, d_b))
            path = workdir / f"extend-{len(ops)}.json"
            linalg.save_matrix_json(str(path), linalg.hermitize(u @ rho.matrix @ u.conj().T), rho.dims)
            params["path"] = str(path)

            def load():
                matrix, dims = unext.linalg.load_matrix_json(str(path))
                return unext.states.DensityMatrix(matrix, dims)
        else:
            def load():
                return unext.states.parse_state_spec(spec)

        def call():
            return unext.extendibility.check_k_extendible(
                extendibility.ExtensionProblem(load(), k)
            )

        ops.append(Op("check", params, call))

    for family, d, k, feasible, margin, forms in EXTEND_CLASSES:
        if tiny and (k > 2 or d > 2 or family == "erasure"):
            continue
        for form in forms:
            add(family, d, k, feasible, margin, form == "json")
    random.Random(seed).shuffle(ops)
    return ops


def extend_warm_up(workdir: Path) -> None:
    """Fill the permutation-index caches the solver builds lazily per (d_a, d_b, k)."""
    for d_a, d_b, k in ((2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 3, 2), (2, 3, 2)):
        dim = d_a * d_b**k
        unext.extendibility.symmetrize(np.eye(dim, dtype=complex) / dim, d_a, d_b, k)
    np.linalg.eigh(np.eye(8, dtype=complex))


# --- divergence ---

# n-fold powers as (channel, n, functions). 6^4 is left out: one
# commuting_dh evaluation takes 4 s on an idle machine.
DH, DMAX = "commuting_dh", "d_max_commuting"
POWERS = (
    ("depolarizing", 2, (DH, DMAX)),
    ("depolarizing", 3, (DH, DMAX)),
    ("depolarizing", 4, (DH, DMAX)),
    ("depolarizing", 5, (DH,)),
    ("erasure", 2, (DH, DMAX)),
    ("erasure", 3, (DH, DMAX)),
)
# The largest size comes twice, so that the slowest tenth of a run's
# latencies (op_tail_ms) falls among ops whose cost does not depend on the
# seed, and the cycle has 23 ops, the middle one (op_p50_ms) among three of
# about the same cost (d_max_commuting at 4^3 and 6^3, commuting_dh at 6^3).
NP_NS = (1500, 5000, 10000, 20000, 60000, 150000, 150000)
EXACT_NS = (200, 500, 1000)
FIDELITY_POWERS = (3, 4)
# the exact engine's cost grows with the size of the denominators, so the
# Bernoulli inputs are fractions over a fixed denominator whatever the seed
EXACT_DENOMINATOR = 40


def _pair_params(rng: random.Random, lo_p: float, hi_p: float, lo_t: float, hi_t: float):
    """Two probabilities at least 0.02 apart, rounded to three decimals."""
    while True:
        a = round(rng.uniform(lo_p, hi_p), 3)
        b = round(rng.uniform(lo_t, hi_t), 3)
        if abs(a - b) >= 0.02:
            return a, b


def _exact_fraction(rng: random.Random, lo: float, hi: float) -> Fraction:
    """A fraction in [lo, hi] whose reduced denominator is EXACT_DENOMINATOR."""
    nums = [
        m for m in range(math.ceil(lo * EXACT_DENOMINATOR), math.floor(hi * EXACT_DENOMINATOR) + 1)
        if math.gcd(m, EXACT_DENOMINATOR) == 1
    ]
    return Fraction(rng.choice(nums), EXACT_DENOMINATOR)


def _exact_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Distinct Bernoulli parameters (true, alternative) of a np op."""
    fp = _exact_fraction(rng, 0.6, 0.95)
    ft = _exact_fraction(rng, 0.5, 0.9)
    while ft == fp:
        ft = _exact_fraction(rng, 0.5, 0.9)
    return fp, ft


def divergence_ops(seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []

    def commuting(channel: str, fn_name: str, n: int) -> Op:
        eps = round(rng.uniform(0.01, 0.2), 3)
        if channel == "depolarizing":
            p, t = _pair_params(rng, 0.05, 0.3, 0.5, 0.8)
            while abs((1.0 - p) - t) < 0.02:
                p, t = _pair_params(rng, 0.05, 0.3, 0.5, 0.8)

            def pair():
                s = unext.states
                return s.tensor_power(s.depolarizing_choi(p), n), s.tensor_power(s.isotropic(t, 2), n)
        else:
            p, t = _pair_params(rng, 0.1, 0.5, 0.5, 0.8)

            def pair():
                s = unext.states
                return s.tensor_power(s.erasure_output(p), n), s.tensor_power(s.erasure_family(t), n)

        if fn_name == DH:
            def call():
                return unext.hypothesis_testing.commuting_dh(*pair(), eps)
        else:
            def call():
                return unext.hypothesis_testing.d_max_commuting(*pair())
        params = {"channel": channel, "p": p, "sigma": t, "n": n, "eps": eps}
        return Op(fn_name, params, call)

    def np_op(n: int) -> Op:
        p, t, eps = (float(x) for x in (*_exact_pair(rng), _exact_fraction(rng, 0.01, 0.2)))

        def call():
            ht = unext.hypothesis_testing
            return ht.np_divergence(ht.BinaryHypothesisPair(p, t, n), eps)

        return Op("np_divergence", {"p": p, "t": t, "n": n, "eps": eps}, call)

    def exact_op(n: int) -> Op:
        fp, ft = _exact_pair(rng)
        feps = _exact_fraction(rng, 0.01, 0.2)

        def call():
            return unext.hypothesis_testing.np_divergence_exact(fp, ft, n, feps)

        params = {"p": float(fp), "t": float(ft), "n": n, "eps": float(feps)}
        return Op("np_divergence_exact", params, call)

    def fidelity_op(n: int) -> Op:
        p, t = _pair_params(rng, 0.05, 0.3, 0.5, 0.8)

        def call():
            s = unext.states
            return s.fidelity(s.tensor_power(s.depolarizing_choi(p), n), s.tensor_power(s.isotropic(t, 2), n))

        return Op("fidelity", {"p": p, "t": t, "n": n}, call)

    if tiny:
        powers, np_ns, exact_ns, fidelity_powers = POWERS[:1] + POWERS[4:5], (300, 1500), (60,), (2,)
    else:
        powers, np_ns, exact_ns, fidelity_powers = POWERS, NP_NS, EXACT_NS, FIDELITY_POWERS
    ops += [commuting(ch, fn, n) for ch, n, fns in powers for fn in fns]
    ops += [np_op(n) for n in np_ns]
    ops += [exact_op(n) for n in exact_ns]
    ops += [fidelity_op(n) for n in fidelity_powers]
    rng.shuffle(ops)
    return ops


def divergence_warm_up(workdir: Path) -> None:
    a = unext.states.tensor_power(unext.states.depolarizing_choi(0.1), 2)
    b = unext.states.tensor_power(unext.states.isotropic(0.7, 2), 2)
    unext.hypothesis_testing.commuting_dh(a, b, 0.05)
    unext.states.fidelity(a, b)


BUILDERS = {"curve": curve_ops, "extend": extend_ops, "divergence": divergence_ops}
WARM_UPS = {"curve": curve_warm_up, "extend": extend_warm_up, "divergence": divergence_warm_up}


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """The cycle of one workload, with every lazy cache the program fills on first use warmed."""
    ops = BUILDERS[workload](seed, workdir, tiny)
    WARM_UPS[workload](workdir)
    return ops
