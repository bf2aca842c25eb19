"""Combinatorial calculus for fixed-point data of torus actions on
four-manifolds.

The objects are families of multi-fans (cyclic integer-vector sequences)
and the equivalent 2-regular labeled directed graphs.  The package
validates them, converts between the two presentations, rewrites them by
blow-up and blow-down, reduces any family to a minimal all-unit-vector
model with a replayable move log, and computes the invariants a family
determines: winding numbers, the count triple (a0, a1, a2), Euler
characteristic, Todd genus, signature, and Chern numbers.
"""

from types import ModuleType as _ModuleType

from .classify import (
    HirzebruchForm,
    PlumbingPiece,
    make_cp2_fan,
    make_hirzebruch_fan,
    make_minimal_family,
    make_todd_fan,
    plumbing_description,
    realize_chern,
    realize_chi_y,
    recognize_four,
    recognize_three,
)
from .generate import gen_random_family
from .invariants import (
    ChiYReport,
    chi_y_report,
    choose_generic_direction,
    fixed_point_count,
    kosniowski_counts,
    todd_genus,
)
from .lattice import det2, is_basis, norm_sq, reduction_choice
from .multifan import (
    CCW,
    CW,
    ROTATIONS,
    ROTATIONS_AND_REVERSAL,
    MultiFan,
    MultiFanFamily,
    blow_down_fan,
    blow_down_in_family,
    blow_down_inplace,
    blow_up_fan,
    blow_up_in_family,
    blow_up_inplace,
    canonical_form,
    family_union,
    fans_equivalent,
    fixed_point_weights,
    is_minimal_fan,
    orientation,
    self_intersections,
    validate_family,
    validate_multifan,
    winding_number,
)
from .reduction import (
    BLOW_DOWN,
    BLOW_UP,
    ComplexModel,
    Move,
    MoveLog,
    normalize_complex,
    reduce_to_minimal,
    replay,
)
from .render import render_fan_svg, render_graph_dot, render_graph_tikz
from .serialize import (
    FORMAT_FAMILY,
    FORMAT_GRAPH,
    FORMAT_LOG,
    FORMAT_REPORT,
    Document,
    document_for,
    emit_document,
    parse_document,
)
from .torusgraph import (
    Edge,
    TorusGraph,
    blow_down_graph,
    blow_up_graph,
    family_to_graph,
    graph_to_family,
    is_minimal_graph,
    normalize_orientation,
    validate_graph,
    weights_at,
)

__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
