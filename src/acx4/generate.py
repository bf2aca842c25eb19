"""Seeded random families, grown from unit fans by random blow-ups.

Only blow-ups are applied: families reachable this way are always valid
with no search, and every component keeps winding number one.  Each
blow-up goes through the in-place multifan kernel on per-fan lists, so a
family of n blow-ups costs O(n) arithmetic plus the list insertions.
The fan and the position are drawn inline as Random.randrange(n) draws
them (n >= 1, CPython 3.10 to 3.13), so a family is tied to the seed's
getrandbits stream, not to randrange's private helper.
"""

from __future__ import annotations

import random

from .errors import DomainError
from .classify import make_minimal_family
from .multifan import MultiFan, MultiFanFamily, as_int, blow_up_inplace


def gen_random_family(seed, components: int = 1, blowups: int = 0,
                      signs=None) -> MultiFanFamily:
    """Reproducible family: `components` unit fans plus `blowups` random
    insertions at a uniformly chosen fan and position each."""
    as_int(components, "components")
    as_int(blowups, "blowups")
    if components < 1:
        raise DomainError(f"components must be >= 1, got {components}")
    if blowups < 0:
        raise DomainError(f"blowups must be >= 0, got {blowups}")
    if signs is None:
        signs = [1] * components
    # make_minimal_family reads the signs once and refuses a bad list
    fans = [list(fan.vectors) for fan in make_minimal_family(signs).fans]
    if len(fans) != components:
        raise DomainError("signs, when given, must have one entry per component")
    bits = random.Random(seed).getrandbits
    for _ in range(blowups):
        # randrange(n): n.bit_length() bits at a time until a value is below n
        j = bits(components.bit_length())
        while j >= components:
            j = bits(components.bit_length())
        vs = fans[j]
        i = bits(len(vs).bit_length())
        while i >= len(vs):
            i = bits(len(vs).bit_length())
        blow_up_inplace(vs, i)
    return MultiFanFamily(tuple(MultiFan(tuple(vs)) for vs in fans))
