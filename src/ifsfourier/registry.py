"""Built-in example systems with their known (golden) answers.

Seven entries: five affine Hadamard-duality systems, the deliberate
non-example cantor3 (scale 3 admits at most two orthogonal Fourier
frequencies, so no ONB), and riesz3, a weighted walk given by its view
and weight alone: the scale-3 Riesz-product weight on the circle, on the
1-d view x = t / 2 pi.  Golden values recorded here are the ones the
test suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measure import Weight
from .system import AffineSystem, IfsView

__all__ = ["ExampleEntry", "EXAMPLES", "get_system", "example_names"]


@dataclass(frozen=True)
class ExampleEntry:
    name: str
    kind: str  # "affine": a duality triple (R, B, L); "circle": a view and weight
    description: str
    R: tuple = ()
    B: tuple = ()
    L: tuple = ()
    p_max: int = 6
    lambda_levels: int = 5
    golden: dict = field(default_factory=dict)
    view: IfsView | None = None
    weight: Weight | None = None

    def system(self) -> AffineSystem:
        return AffineSystem.create(self.R, self.B, self.L, name=self.name)


EXAMPLES = {
    e.name: e
    for e in [
        ExampleEntry(
            name="cantor4",
            kind="affine",
            description="quarter Cantor set: scale 4, digits {0,2}, dual digits {0,1}",
            R=((4,),),
            B=((0,), (2,)),
            L=((0,), (1,)),
            p_max=6,
            golden={
                # the single W-cycle and the level-3 spectrum window
                "w_cycle_point_sets": [[(0,)]],
                "spectrum_level3": [0, 1, 4, 5, 16, 17, 20, 21],
            },
        ),
        ExampleEntry(
            name="cantor3",
            kind="affine",
            description="middle-third-type system, scale 3: no Fourier ONB",
            R=((3,),),
            B=((0,), (2,)),
            L=((0,), (1,)),
            p_max=6,
            golden={"max_orthogonal_clique": 2},
        ),
        ExampleEntry(
            name="lambda15",
            kind="affine",
            description="scale 4, L={0,15}: first dual family member with a W-two-cycle",
            R=((4,),),
            B=((0,), (2,)),
            L=((0,), (15,)),
            p_max=6,
            golden={"w_cycle_point_sets": [[(0,)], [(5,)], [(1,), (4,)]]},
        ),
        ExampleEntry(
            name="lambda63",
            kind="affine",
            description="scale 4, L={0,63}: first dual family member with a W-three-cycle",
            R=((4,),),
            B=((0,), (2,)),
            L=((0,), (63,)),
            p_max=3,
            golden={"includes_three_cycle": [(16,), (4,), (1,)]},
        ),
        ExampleEntry(
            name="planar-shear",
            kind="affine",
            description="planar shear tile, det 4: Lebesgue measure, TZ fails",
            R=((2, 1), (0, 2)),
            B=((0, 0), (3, 0), (0, 1), (3, 1)),
            L=((0, 0), (1, 0), (0, 1), (1, 1)),
            p_max=4,
            golden={
                "w_cycle_point_sets": [
                    [(0, 0)],
                    [(1, -1)],
                    [(0, 1)],
                    [(1, 0)],
                ],
                # verified basin memberships of the lattice endomorphism
                "basin_examples": {(-3, -2): (0, 0), (2, -3): (1, -1)},
            },
        ),
        ExampleEntry(
            name="twindragon",
            kind="affine",
            description="twin dragon tile, det 2: Lebesgue measure, spectrum (1/5)Z^2",
            R=((1, 1), (-1, 1)),
            B=((0, 0), (5, 0)),
            L=((0, 0), (1, 0)),
            p_max=4,
            golden={
                # exact census at periods <= 4: the third four-cycle (word
                # 0011) is substitution-verified in the test suite
                "w_cycle_period_counts": {1: 2, 2: 1, 4: 3},
                "lattice_denominator": 5,
            },
        ),
        ExampleEntry(
            name="riesz3",
            kind="circle",
            description="scale-3 stretched-Haar weight on the circle; invariant "
            "measure is the Riesz product prod(1+cos(2*3^k t))/2pi",
            # x = t / 2 pi: the cube map on the circle as the 1-d IFS x -> (x + j)/3
            view=IfsView("riesz3", np.array([[3.0]]), np.arange(3.0).reshape(3, 1)),
            # W(e^{it}) = (2/3) cos^2 t = 1/3 + (1/3) cos(2 pi 2x), QMF for the cube map
            weight=Weight(1.0 / 3.0, [1.0 / 3.0], [[2.0]], "(2/3) cos^2(2 pi x)"),
            golden={"nu_hat_1": 0.0, "nu_hat_6": 0.5},
        ),
    ]
}


def example_names() -> list:
    return sorted(EXAMPLES)


def get_system(name: str) -> AffineSystem:
    if name not in EXAMPLES:
        raise KeyError("unknown example %r; known: %s" % (name, ", ".join(example_names())))
    return EXAMPLES[name].system()
