"""Static data for the supported Cartan types and parameter validation.

Only the simply laced rank <= 2 types A1 and A2 ship.  Every quantity the
rest of the package needs is tabulated here: the Cartan matrix (a_ij),
the number of positive roots, and the weight of each PBW root vector
under conjugation by the group generators.

The root-of-unity parameter n must be an odd integer >= 3 that is coprime
to det(a_ij).  (For non simply laced types one would additionally forbid
small torsion primes, e.g. 3 for G2; that clause is vacuous here.)
Since det = 3 for A2, the smallest admissible n for A2 is 5.
"""

from __future__ import annotations

import math
from typing import NamedTuple

SUPPORTED_TYPES = ("A1", "A2")


class LieDatum(NamedTuple):
    tag: str
    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_root_count: int
    dim_g: int
    # weight of each PBW root vector E under g_i E g_i^(-1) = q^(w_i) E,
    # listed in the global PBW order
    root_weights: tuple[tuple[int, ...], ...]

    def determinant(self) -> int:
        m = self.cartan_matrix
        if self.rank == 1:
            return m[0][0]
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]


_DATA = {
    "A1": LieDatum(
        tag="A1",
        rank=1,
        cartan_matrix=((2,),),
        positive_root_count=1,
        dim_g=3,
        root_weights=((1,),),
    ),
    "A2": LieDatum(
        tag="A2",
        rank=2,
        cartan_matrix=((2, -1), (-1, 2)),
        positive_root_count=3,
        dim_g=8,
        # PBW order: e_1 < e_12 < e_2, with e_12 of weight (1, 1)
        root_weights=((1, 0), (1, 1), (0, 1)),
    ),
}


def lie_datum(cartan_type: str) -> LieDatum:
    """Standard datum for the type; raises on unsupported tags."""
    if cartan_type not in _DATA:
        raise ValueError(f"unsupported Cartan type {cartan_type!r}")
    return _DATA[cartan_type]


def validate_params(cartan_type: str, n: int) -> list[str]:
    """List of violated admissibility conditions; empty means ok.

    Never raises: an unsupported type is itself reported as a violation.
    """
    violations = []
    if cartan_type not in _DATA:
        violations.append(f"unsupported Cartan type {cartan_type!r}")
        return violations
    datum = _DATA[cartan_type]
    if not isinstance(n, int) or n < 3:
        violations.append(f"n={n} must be an integer >= 3")
    if isinstance(n, int):
        if n % 2 == 0:
            violations.append(f"n={n} must be odd")
        d = datum.determinant()
        if n >= 1 and math.gcd(n, d) != 1:
            violations.append(
                f"gcd(n, det)={math.gcd(n, d)} for n={n}, det={d}: must be 1"
            )
    return violations
