import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from contactlab.boolean import BooleanHom, FiniteBooleanAlgebra
from contactlab.duality import PcsMorphism
from contactlab.errors import PreconditionError
from contactlab.precontact import PcaMorphism, is_pca_morphism, pca_from_pairs
from contactlab.structures import mereocompactness_report
from contactlab.topology import FiniteSpace, discrete_space, rc_algebra, space_from_closed_base


@pytest.fixture
def b2():
    return FiniteBooleanAlgebra(1)


@pytest.fixture
def b4():
    return FiniteBooleanAlgebra(2)


@pytest.fixture
def b8():
    return FiniteBooleanAlgebra(3)


@pytest.fixture
def path_pca():
    """Three atoms, kernel {(0,1), (1,2)}: not symmetric, not transitive."""
    return pca_from_pairs(3, {(0, 1), (1, 2)})


@pytest.fixture
def xl_space():
    """Three points g1, g2, g3 with closed sets {}, {g3}, {g1,g3},
    {g2,g3} and the whole space."""
    return space_from_closed_base(("g1", "g2", "g3"), [0b101, 0b110])


@pytest.fixture
def disc2():
    return discrete_space(("a", "b"))


def indiscrete_space(point_names):
    """The space whose only closed sets are the empty set and the whole
    space: the smallest space that is not T0, as (PCS1) and (CS1)
    require."""
    names = tuple(point_names)
    full = (1 << len(names)) - 1
    return FiniteSpace(names, tuple(full for _ in names))


def c_semiregular(space):
    """C-semiregularity as the package decides it: the space is T0 and
    (X, RC(X)) is mereocompact, so RC(X) is a closed base and every clan
    of it is the sigma trace of a point."""
    report = mereocompactness_report(rc_algebra(space))
    return report.is_t0 and report.is_mereocompact


@pytest.fixture
def sierpinski():
    # closed sets: {}, {s0}, whole space
    return space_from_closed_base(("s0", "s1"), [0b01])


def all_kernels(n):
    pairs = [(p, q) for p in range(n) for q in range(n)]
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            yield frozenset(chosen)


@pytest.fixture(scope="session")
def kernels_upto_2():
    return [(n, k) for n in (1, 2) for k in all_kernels(n)]


@pytest.fixture(scope="session")
def kernels_3():
    return list(all_kernels(3))


# Hom-sets by literal search, for the hom-set experiments: every atom map
# and every point map is tried.


def enumerate_boolean_homs(source, target):
    """Every Boolean homomorphism from source to target, one per map of
    the target's atoms to the source's."""
    maps = itertools.product(range(source.atom_count), repeat=target.atom_count)
    return [BooleanHom(source, target, m) for m in maps]


def enumerate_pca_morphisms(source_pca, target_pca):
    """Every PCA-morphism, among all Boolean homomorphisms."""
    return [
        PcaMorphism(hom, source_pca, target_pca)
        for hom in enumerate_boolean_homs(source_pca.algebra, target_pca.algebra)
        if is_pca_morphism(hom, source_pca, target_pca)
    ]


def enumerate_pcs_morphisms(source, target):
    """Every PCS-morphism, among all point maps: each is checked once, as
    the morphism is built."""
    out = []
    for pm in itertools.product(range(target.space.point_count), repeat=source.space.point_count):
        try:
            out.append(PcsMorphism(source, target, pm))
        except PreconditionError:
            continue
    return out
