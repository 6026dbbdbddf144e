"""Deterministic seeded generation of random instances.

The same seed and spec always produce the same instance: child seeds are
derived arithmetically and fed to ``random.Random``, whose output is
stable across platforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .boolean import BooleanHom, FiniteBooleanAlgebra
from .errors import PreconditionError
from .precontact import PcaMorphism, PrecontactAlgebra, RelationKernel

CONSTRAINTS = ("none", "contact", "connected")
_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def child_seed(seed, index):
    return ((seed * 1000003) ^ (index * _MIX)) & _MASK64


@dataclass(frozen=True)
class RandomSpec:
    """Shape of a random instance: atom budget, kernel density, seed and
    an optional constraint tag."""

    atoms: int
    density: float
    seed: int
    constraint: str = "none"

    def __post_init__(self):
        if not 0.0 <= self.density <= 1.0:
            raise PreconditionError("density must be in [0, 1]")
        if self.constraint not in CONSTRAINTS:
            raise PreconditionError(f"unknown constraint {self.constraint!r}")


def _raw_pairs(n, density, rng):
    return {
        (p, q) for p in range(n) for q in range(n) if rng.random() < density
    }


def random_pca(spec):
    """A random kernel: each atom pair included independently with the
    given density, then post-processed by the constraint tag.

    ``contact`` symmetrizes and reflexivizes; ``connected`` rejection
    samples until the connectedness axiom holds.  There is no tag for
    complete contact algebras: at finite scale every algebra is
    complete, so they are the contact algebras.
    """
    algebra = FiniteBooleanAlgebra(spec.atoms)
    rng = random.Random(child_seed(spec.seed, 0))
    attempts = 0
    while True:
        pairs = _raw_pairs(spec.atoms, spec.density, rng)
        if spec.constraint == "contact":
            pairs |= {(q, p) for p, q in pairs}
            pairs |= {(p, p) for p in range(spec.atoms)}
        pca = PrecontactAlgebra(algebra, RelationKernel.of_pairs(algebra, pairs))
        if spec.constraint != "connected":
            return pca
        if pca.axioms.ccon:
            return pca
        attempts += 1
        if attempts >= 1000:
            raise PreconditionError(
                "could not sample a connected kernel with the given density"
            )


def random_pca_morphism(atoms_source, atoms_target, density, seed):
    """A seeded valid morphism: draw the target kernel and the atom map,
    then force the source kernel to contain the pullback of the target
    one (plus independent extra pairs).

    Refused before the first draw: a density outside [0, 1], and target
    atoms with no source atom to map them to."""
    if not 0.0 <= density <= 1.0:
        raise PreconditionError("density must be in [0, 1]")
    if atoms_target > 0 and atoms_source == 0:
        raise PreconditionError(f"no atom map sends {atoms_target} target atoms to no source atom")
    rng = random.Random(child_seed(seed, 1))
    source_algebra = FiniteBooleanAlgebra(atoms_source)
    target_algebra = FiniteBooleanAlgebra(atoms_target)
    target_pairs = _raw_pairs(atoms_target, density, rng)
    atom_map = tuple(rng.randrange(atoms_source) for _ in range(atoms_target))
    pulled = {(atom_map[p], atom_map[q]) for p, q in target_pairs}
    extra = _raw_pairs(atoms_source, density, rng)
    source = PrecontactAlgebra(
        source_algebra, RelationKernel.of_pairs(source_algebra, pulled | extra)
    )
    target = PrecontactAlgebra(
        target_algebra, RelationKernel.of_pairs(target_algebra, target_pairs)
    )
    hom = BooleanHom(source_algebra, target_algebra, atom_map)
    return PcaMorphism(hom, source, target)
