"""Operation counts of the coefficient kernels on a logging scalar.

Each kernel runs on ``Op`` values, complex numbers that log every
arithmetic operation they take part in. The counts are exact: a sum starts
from its first product (no addition to a zero), the atom series forms one
running product per atom and order and none past its last order, the
gamma ladder forms no term for a d that is the caller's zero, and the
Nehari sum forms (1 - beta) alpha^n once, subtracts the even weighted tails
and negates nothing. The h(z)_k audit runs on ``Tally`` scalars, reals
that log the same way, and forms one running product of weight factors and
one of target factors per alpha, in Fractions on either backend.
"""

from collections import Counter
from fractions import Fraction

from coeffbounds import FLOAT, RATIONAL, harness, schemes
from coeffbounds.caratheodory import atom_coefficients
from coeffbounds.harness import run_hk_audit
from coeffbounds.schemes import gamma_value, hk_schemes, nehari_coefficients
from coeffbounds.series import cauchy_coefficients
from oracles import gamma_ladder

_MUL = ("__mul__", "__rmul__")
_ADD = ("__add__", "__radd__")


class Op(complex):
    """A complex whose operations append (name, self, *operands) to ``Op.log`` and return an Op."""

    log = []


def _logged(name):
    method = getattr(complex, name)

    def op(self, *operands):
        Op.log.append((name, self, *operands))
        return Op(method(self, *operands))

    op.__name__ = name
    return op


for _name in (*_MUL, *_ADD, "__sub__", "__rsub__", "__truediv__", "__rtruediv__", "__pow__", "__neg__"):
    setattr(Op, _name, _logged(_name))


def ops(run) -> Counter:
    """The names of the operations ``run()`` makes, counted."""
    Op.log = []
    run()
    return Counter(entry[0] for entry in Op.log)


def values(count: int, start: float = 0.5) -> list:
    """``count`` distinct Op values."""
    return [Op(complex(start + 0.25 * i, 0.125 * i - 1)) for i in range(count)]


def test_cauchy_product_counts():
    for length in range(8):
        a, b = values(length), values(length, 1.5)
        got = ops(lambda: cauchy_coefficients(a, b))
        want = Counter({"__mul__": length * (length + 1) // 2, "__add__": length * (length - 1) // 2})
        assert got == +want, length


def test_atom_series_forms_no_power_past_its_last_order():
    atoms = 3
    for order in range(6):
        weights, points = values(atoms, 0.25), values(atoms, 0.75)
        got = ops(lambda: atom_coefficients(weights, points, order, Op(1)))
        # 2 w_j once per atom, then b_k: one running product per atom and atoms - 1 additions
        assert got["__add__"] == atoms + (atoms - 1) * order, order
        assert got["__mul__"] == atoms * order, order
        # every product carries a running power forward by one point: none at order 0
        products = [entry for entry in Op.log if entry[0] == "__mul__"]
        assert all(any(entry[2] is x for x in points) for entry in products)
        assert set(got) <= {"__add__", "__mul__"}


def test_gamma_ladder_sums_start_from_their_first_product():
    m_max = 6
    ds, half = values(m_max), Op(0.5)
    got = ops(lambda: gamma_ladder(ds, m_max, half, Op(0)))
    # m - 1 additions in the sum of gamma_m, then + 1
    assert sum(got[name] for name in _ADD) == sum(m - 1 for m in range(1, m_max + 1)) + m_max + 1
    # no sum starts at the int 0 that the empty sum of gamma_0 is
    assert not [entry for entry in Op.log if entry[0] in _ADD and any(type(x) is int and x == 0 for x in entry[2:])]


def test_gamma_ladder_forms_no_term_for_a_structural_zero():
    m_max = 7
    zero = Op(0)
    for zeros in ((2, 3, 5, 7), (1, 2), (1, 2, 3, 4, 5, 6, 7)):  # as hk_schemes' k = 4 and k >= 6, k = 5, and all
        ds = [zero if mu in zeros else d for mu, d in enumerate(values(m_max), start=1)]
        got = ops(lambda: gamma_ladder(ds, m_max, Op(0.5), zero))
        live = [[mu for mu in range(1, m + 1) if mu not in zeros] for m in range(m_max + 1)]
        # one product C(m, mu) d_mu per live mu <= m, and none with the zero
        terms = [entry for entry in Op.log if entry[0] == "__rmul__" and any(entry[1] is d for d in ds)]
        assert not [entry for entry in terms if entry[1] is zero]
        assert len(terms) == sum(map(len, live)), zeros
        # each sum starts from its first term; then + 1 at every m
        assert sum(got[name] for name in _ADD) == sum(max(len(mus) - 1, 0) for mus in live) + m_max + 1


def test_gamma_value_forms_one_product_per_distinct_d():
    # h(z)_217's d holds d_1, the one even coefficient sigma at every even index and zero at the odd
    # ones: one product for d_1 and one for sigma's binomials summed, where a term per copy formed 108
    k = 217
    *_, scheme = hk_schemes(k, Fraction(2**64 - 1, 2**64 - 2))
    tallied, zero = {}, Tally(0)
    ds = [zero if d is scheme.d[2] else tallied.setdefault(id(d), Tally(d)) for d in scheme.d]
    assert len(tallied) == 2 and sum(d is zero for d in ds) == (k - 3) // 2
    Tally.log = []
    gamma = gamma_value(ds, k - 2, Tally(1, 2), zero)
    live = tallied.values()
    products = [entry for entry in Tally.log if entry[0] in _MUL and any(x is d for x in entry[1:3] for d in live)]
    assert len(products) == 2
    assert gamma == scheme.gamma == scheme.target


def test_nehari_sum_counts():
    order = 7
    gammas, G, zero = values(order, 1.0), values(order + 1, 0.1), Op(0)
    got = ops(lambda: nehari_coefficients(gammas, G, 2, 2.5, 0.25, zero))
    tails = range(1, order + 1)  # T_m has order - m + 1 entries
    cauchy = [order - m for m in range(1, order)]  # the length of each Cauchy product in power_tails
    assert got["__neg__"] == 0
    # A_1..A_K start from the m = 1 products; odd m >= 3 add and even m subtract
    assert got["__sub__"] == sum(order - m + 1 for m in tails if m % 2 == 0)
    assert got["__add__"] == (sum(order - m + 1 for m in tails if m % 2 and m > 1)
                              + sum(n * (n - 1) // 2 for n in cauchy))
    # each weight is one product and one quotient; then one product per tail entry
    assert got["__rmul__"] == order and got["__truediv__"] == order
    assert got["__mul__"] == sum(order - m + 1 for m in tails) + sum(n * (n + 1) // 2 for n in cauchy)
    assert not [entry for entry in Op.log if any(x is zero for x in entry[1:])]


def test_nehari_sum_forms_the_weight_head_once():
    order = 6
    alpha, beta = Op(2.5), Op(0.25)
    ops(lambda: nehari_coefficients(values(order, 1.0), values(order + 1, 0.1), 3, alpha, beta, Op(0)))
    assert sum(1 for name, x, *_ in Op.log if name == "__rsub__" and x is beta) == 1
    assert sum(1 for name, x, *_ in Op.log if name == "__pow__" and x is alpha) == 1
    assert not [entry for entry in Op.log if entry[0] == "__neg__"]


class Tally(Fraction):
    """A Fraction whose arithmetic appends (name, self, operand, result) to ``Tally.log``."""

    log = []


class FloatTally(float):
    """The float counterpart of `Tally`, logging to the same list."""


def _tallied(cls, base, name):
    method = getattr(base, name)

    def op(self, *operands):
        result = method(self, *operands)
        if isinstance(result, base):
            result = cls(result)
        Tally.log.append((name, self, *operands, result))
        return result

    op.__name__ = name
    return op


for _cls, _base in ((Tally, Fraction), (FloatTally, float)):
    for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__pow__"):
        setattr(_cls, _name, _tallied(_cls, _base, _name))


def running_product_factors() -> Counter:
    """Factors multiplied into the running products of ``Tally.log``, by (kind, scalar type).

    A running product starts at alpha^0 and takes one factor per product;
    the kind is the operation that formed the factor: a quotient
    (j alpha - 1) / (j alpha) for the weights, a difference j alpha - 1 for
    the targets. The log holds every value, so no id is reused.
    """
    made_by = {id(entry[-1]): entry[0] for entry in Tally.log}
    running = {id(result) for name, _, operand, result in Tally.log if name == "__pow__" and operand == 0}
    counts = Counter()
    for name, prod, *operands, result in Tally.log:
        if name == "__mul__" and id(prod) in running:
            running.add(id(result))
            counts[made_by.get(id(operands[0])), type(prod)] += 1
    return counts


def test_hk_audit_forms_one_running_product_per_row(monkeypatch):
    ladders = []

    def recording(ds, m, half, zero):
        ladders.append((m, {type(half), *map(type, ds)}))
        return gamma_value(ds, m, half, zero)

    monkeypatch.setattr(schemes, "gamma_value", recording)
    # the schemes build on Ratio(alpha); Tally in its place keeps a tallied alpha tallied
    monkeypatch.setattr(schemes, "Ratio", Tally)
    runs = ((FLOAT, FloatTally, (2.0, 3.5)), (RATIONAL, Tally, (Fraction(2), Fraction(7, 2))))
    for backend, tally, alphas in runs:
        scalar = backend.scalar
        monkeypatch.setattr(backend, "scalar", lambda x, tally=tally, scalar=scalar:
                            x if isinstance(x, tally) else scalar(x))
        for alpha in alphas:
            Tally.log = []
            ladders.clear()
            assert run_hk_audit((tally(alpha),), 12, backend)[0].passed
            # k_max - 2 = 10 factors per row, where one product per k formed 4 + 5 + ... + 10 = 49
            # weight factors and one per defining order 0 + 1 + ... + 10 = 55 target factors;
            # both backends build once, in Fractions
            assert running_product_factors() == {("__truediv__", Tally): 10, ("__sub__", Tally): 10}, alpha
            # one ladder value per k = 2..12, at its defining order m = k - 1 (gamma_(k-2))
            assert [m for m, _ in ladders] == list(range(11))
            assert all(issubclass(t, Fraction) for _, types in ladders for t in types)
