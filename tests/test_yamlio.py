import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmeas.yamlio import dump_yaml, load_yaml

DUMPERS = [yaml.SafeDumper] + ([yaml.CSafeDumper] if hasattr(yaml, "CSafeDumper") else [])

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e17, 1e-5, 1e300, 0.1, 2.5,
                     math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# Text the writer may write plain, and text it must pass to PyYAML: reserved
# words, numbers, dates, indicators, spaces, long keys, arbitrary unicode.
SAFE_LABELS = st.one_of(
    st.sampled_from(["a=0,b=1", "e=fourier-1,f=basis-0", "random(seed=3,rank=2)",
                     "werner-0.3", "0.1.0", "explicit-pure", "1e5", "x" * 200]),
    st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_.,=()+/-]{0,12}", fullmatch=True),
)
OTHER_TEXT = st.one_of(
    st.sampled_from(["yes", "null", "true", "1_000", "0x1F", "2001-12-14", "1.0",
                     ".inf", "-x", "~", "", "a b", "a: b", "#c", "k" * 123]),
    st.text(max_size=20),
)
SAFE_SCALARS = st.one_of(
    FLOATS,
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.none(),
    SAFE_LABELS,
)
SAFE_KEYS = st.one_of(SAFE_LABELS, st.sampled_from(["k" * 122]))


def documents(leaves=SAFE_SCALARS, keys=SAFE_KEYS):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(keys, inner, max_size=4),
        ),
        max_leaves=30,
    )


# Mostly documents the writer handles itself, and some it must pass on.
ANY_DOCUMENT = st.one_of(
    documents(),
    st.dictionaries(SAFE_KEYS, documents(), max_size=5),
    documents(st.one_of(SAFE_SCALARS, OTHER_TEXT), st.one_of(SAFE_KEYS, OTHER_TEXT)),
)


def pyyaml(doc, dumper):
    return yaml.dump(doc, Dumper=dumper, sort_keys=False)


def writer(doc, dumper):
    """dump_yaml(doc), falling back to dumper: without libyaml for SafeDumper."""
    with pytest.MonkeyPatch.context() as patch:
        if dumper is yaml.SafeDumper:
            patch.delattr(yaml, "CSafeDumper", raising=False)
        return dump_yaml(doc)


@pytest.mark.parametrize("dumper", DUMPERS, ids=lambda d: d.__name__)
@given(doc=ANY_DOCUMENT)
@settings(max_examples=300, deadline=None)
def test_matches_pyyaml_safe_dump(dumper, doc):
    assert writer(doc, dumper) == pyyaml(doc, dumper)


@pytest.mark.parametrize("dumper", DUMPERS, ids=lambda d: d.__name__)
@given(shared=documents(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_shared_containers_are_anchored_like_pyyaml(dumper, shared, data):
    shared = [shared] if not isinstance(shared, list) else shared
    doc = {"x": shared, "y": [shared, data.draw(documents())], "z": []}
    doc["w"] = doc["z"]
    text = writer(doc, dumper)
    assert text == pyyaml(doc, dumper)
    assert "&id001" in text


@pytest.mark.parametrize("dumper", DUMPERS, ids=lambda d: d.__name__)
def test_cli_shaped_document(dumper):
    doc = {
        "version": "0.1.0",
        "state_density": [[[0.25, -0.0], [1e-17, 5e-324]], [[1e16, math.nan], [-math.inf, 1.5]]],
        "pointer": {"points": 256, "half_width": 16.0, "sigma": 1.0},
        "kappa_by_gt": [{"gt": 0.08, "kappa": 625.0}],
        "nested": [[[[1.0]]], [], {}, [{}], {"a": []}],
        "product": None,
        "flags": [True, False, 2**70],
        "reconstructions": [{"gt": 0.02, "entries": [[[1.0, 0.0]]]}],
    }
    assert writer(doc, dumper) == pyyaml(doc, dumper)
    assert load_yaml(dump_yaml(doc))["state_density"][0][1] == [1e-17, 5e-324]


PAIR = (1.0, 2.0)


@pytest.mark.parametrize("dumper", DUMPERS, ids=lambda d: d.__name__)
@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": ()}, [[]], 1.0, "x", None,
    # the emitters write a key as `? key` from different lengths on
    {"k" * 122: 1.0}, {"k" * 123: 1.0}, {"k" * 128: [1.0]}, {"k" * 129: {}},
    # PyYAML anchors a shared tuple, but never the empty one
    {"a": PAIR, "b": [PAIR]}, {"a": (), "b": [()]},
])
def test_edge_documents(dumper, doc):
    assert writer(doc, dumper) == pyyaml(doc, dumper)


@given(doc=documents(st.one_of(SAFE_SCALARS, st.builds(np.float64, FLOATS))))
@settings(max_examples=100, deadline=None)
def test_numpy_scalars_raise_pyyaml_error(doc):
    numpy_doc = {"rows": [doc, np.float64(0.5)]}
    with pytest.raises(yaml.representer.RepresenterError) as expected:
        pyyaml(numpy_doc, DUMPERS[-1])
    with pytest.raises(yaml.representer.RepresenterError) as raised:
        dump_yaml(numpy_doc)
    assert str(raised.value) == str(expected.value)
