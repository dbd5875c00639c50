"""Fuzz the two spec parsers the CLI reads: any JSON value either
parses (and a parsed campaign graph schedules) or fails with a
ValidationError, never another exception."""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignGraph
from repro.core.errors import ValidationError
from repro.serve import load_requests

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)


def _objects(fields, values):
    """JSON objects keyed mostly by the parser's own field names, so the
    draws reach past the top-level shape checks."""
    return st.dictionaries(
        st.sampled_from(fields) | st.text(max_size=4), values, max_size=6
    )


_request = _objects(
    ["workload", "config", "seed", "impl", "priority", "timeout_s"],
    _json | st.sampled_from(["hls", "high", "low", 0.5, -1, 3]),
)
_node_field = _json | st.sampled_from(
    ["eval", "reduce", "argmin", "mean", "n0", "hls", ["n0"], {"metric": "m"}]
)
_node = _objects(
    ["name", "workload", "kind", "config", "seed", "impl", "deps", "op",
     "params", "capture_errors", "allow_failed_deps"],
    _node_field,
) | st.fixed_dictionaries(
    {"name": st.sampled_from(["n0", "n1"]), "workload": st.just("hls")},
    optional={
        "gate": _objects(
            ["expect_metrics", "predicates", "require_ok"], _node_field
        ),
        "resilience": _objects(
            ["backoff", "max_backtracks", "seed_step", "fallback_impl"],
            _node_field,
        ),
        "seed": _node_field,
        "config": _node_field,
    },
)
_spec = _objects(["name", "nodes"], _json | st.lists(_node, max_size=3))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=_json | st.lists(_request | _json, max_size=3))
@example(value=[{}])
@example(value=[{"workload": 3}])
@example(value=[{"workload": "hls", "timeout_s": "x"}])
def test_load_requests_raises_only_validation_errors(value):
    try:
        requests = load_requests(json.dumps(value))
    except ValidationError:
        return
    assert all(isinstance(r.workload, str) for r in requests)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=_json | _spec)
@example(value=[])
@example(value="x")
@example(value=3)
@example(value={"nodes": 3})
@example(value={"nodes": [{"name": "n", "workload": "w", "gate": 1}]})
@example(value={"nodes": [{"name": "n", "workload": "w", "deps": [[1]]}]})
def test_campaign_spec_raises_only_validation_errors(value):
    try:
        CampaignGraph.from_json(value).schedule()
    except ValidationError:
        pass
