import pytest

from borel_rees import borel_closure, order_view
from borel_rees.monomial import parse_monomial
from borel_rees.orders import build_head_and_tail_basis, build_G1
from borel_rees.presentation import Alphabet
from reference import banned_pure_fibers


def mono(text, n):
    return parse_monomial(text, n)


@pytest.fixture(scope="session")
def quadric_pair_ideal():
    """The 10-generator ideal with Borel generators x3^2 and x2*x5 in n=5."""
    return borel_closure([mono("x3^2", 5), mono("x2*x5", 5)], 5)


@pytest.fixture(scope="session")
def quadric_pair_G1(quadric_pair_ideal):
    return build_G1(quadric_pair_ideal)


@pytest.fixture(scope="session")
def running_pair():
    """The two-ideal collection B(x4x5, x2x6), B(x4^2, x3x6) in n=6."""
    i1 = borel_closure([mono("x4*x5", 6), mono("x2*x6", 6)], 6)
    i2 = borel_closure([mono("x4^2", 6), mono("x3*x6", 6)], 6)
    return i1, i2


@pytest.fixture(scope="session")
def running_pair_basis(running_pair):
    i1, i2 = running_pair
    return build_head_and_tail_basis(order_view(i1), order_view(i2))


@pytest.fixture(scope="session")
def standard_monomials():
    """listed(rules, ideals, budget): the (multidegree, standard monomial)
    of every fiber within budget under a quadratic marking that a term
    order orients, from banned_pure_fibers with the encoded lead pairs
    forbidden. Each fiber must hold exactly one member: the sink of its
    graph when the marking certifies."""

    def listed(rules, ideals, budget):
        encode = Alphabet.of(ideals).encode
        pairs = [encode(g.lead) for g in rules]
        out = []
        for mu, fiber in banned_pure_fibers(ideals, budget, pairs):
            assert len(fiber) == 1, (mu, [v.label() for v in fiber])
            out.append((mu, fiber[0]))
        return out

    return listed
