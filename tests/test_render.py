import random
import sys

import pytest

import oracles
import acx4
from acx4.errors import DomainError
from acx4.serialize import document_for, emit_document


def cp2_family():
    return acx4.MultiFanFamily((acx4.make_cp2_fan((1, 0), (-1, 1)),))


def cp2_graph():
    return acx4.family_to_graph(cp2_family())


def test_fan_svg_has_one_arrow_per_vector():
    svg = acx4.render_fan_svg(cp2_family())
    assert svg.count('class="arrow"') == 3
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    two = acx4.family_union(cp2_family(), acx4.make_minimal_family([1]))
    assert acx4.render_fan_svg(two).count('class="arrow"') == 7


def test_graph_dot_lists_nodes_and_labeled_edges():
    dot = acx4.render_graph_dot(cp2_graph())
    assert dot.count(" -> ") == 3
    for v in cp2_graph().vertices:
        assert f'"{v}";' in dot
    assert 'label="(1,0)"' in dot and 'label="(-1,1)"' in dot


def test_graph_tikz_shape():
    tikz = acx4.render_graph_tikz(cp2_graph())
    assert tikz.count("\\node[state]") == 3
    assert tikz.count("edge node") == 3
    assert tikz.startswith("\\begin{tikzpicture}")
    assert tikz.rstrip().endswith("\\end{tikzpicture}")


def test_renders_deterministic():
    fam = acx4.gen_random_family(9, 2, 5)
    g = acx4.family_to_graph(fam)
    assert acx4.render_fan_svg(fam) == acx4.render_fan_svg(fam)
    assert acx4.render_graph_dot(g) == acx4.render_graph_dot(g)
    assert acx4.render_graph_tikz(g) == acx4.render_graph_tikz(g)


def test_fan_svg_handles_coordinates_beyond_float_range():
    n = 10 ** 400
    fam = acx4.validate_family([[(1, 0), (0, 1), (-1, n), (0, -1)]])
    svg = acx4.render_fan_svg(fam)
    assert svg.count('class="arrow"') == 4
    assert acx4.render_fan_svg(fam) == svg


def test_fan_svg_matches_the_exact_ratio_scaling():
    rng = random.Random(5)
    fams = [acx4.gen_random_family(rng.randrange(1 << 30), rng.randint(1, 3),
                                   rng.randint(0, 60)) for _ in range(200)]
    fams += [acx4.validate_family([[(1, 0), (0, 1), (-1, n), (0, -1)],
                                   [(1, 0), (n - 1, 1), (-n, -1)]])
             for n in (10 ** 20, 10 ** 300, 10 ** 400, 10 ** 1000)]
    for fam in fams:
        assert acx4.render_fan_svg(fam) == oracles.reference_render_fan_svg(fam)


@pytest.mark.parametrize("render, of", [
    (acx4.render_fan_svg, lambda fam: fam),
    (acx4.render_graph_dot, acx4.family_to_graph),
    (acx4.render_graph_tikz, acx4.family_to_graph),
], ids=["svg", "dot", "tikz"])
def test_renderers_refuse_integers_past_the_digit_limit(render, of):
    # (-1, 10**4400) has 4401 digits, past the interpreter's default limit
    fam = acx4.MultiFanFamily((acx4.make_hirzebruch_fan((1, 0), (0, 1), 10**4400),))
    limit = sys.get_int_max_str_digits()
    with pytest.raises(DomainError) as exc:
        render(of(fam))
    assert str(exc.value) == f"an integer exceeds the int/str limit of {limit} digits"
    with pytest.raises(DomainError) as exc:
        emit_document(document_for(fam))
    assert str(exc.value) == f"an integer exceeds the int/str limit of {limit} digits"
