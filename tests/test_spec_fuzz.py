"""Fuzz the spec parsers and run-artifact readers the CLI reads: any
JSON value either parses (and a parsed campaign graph schedules) or
fails with a ValidationError, never another exception."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignGraph
from repro.cli import DEFAULT_SLO_SPECS, main
from repro.obs import (
    SLOSpec,
    canonical_spans,
    chrome_trace,
    critical_path_report,
    evaluate_slos,
    load_flight_jsonl,
    load_ledger_jsonl,
    load_trace_jsonl,
    render_summary,
    render_top,
    render_trace,
)
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


def test_deeply_nested_input_is_a_validation_error(tmp_path):
    deep = "[" * 100_000
    with pytest.raises(ValidationError):
        load_requests(deep)
    # Parses, but the config is too deep to digest.
    nested = "[" * 900 + "]" * 900
    with pytest.raises(ValidationError):
        load_requests(f'[{{"workload": "hls", "config": {{"x": {nested}}}}}]')
    with pytest.raises(ValidationError):
        CampaignGraph.from_json(json.loads(
            f'{{"nodes": [{{"name": "a", "workload": "hls", '
            f'"config": {{"x": {nested}}}}}]}}'
        ))
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for argv in (["serve", "--requests", str(path)],
                 ["campaign", "run", str(path)]):
        assert main(argv) == 1


#: The three run-artifact readers.
_ARTIFACT_LOADERS = {
    "trace": load_trace_jsonl,
    "ledger": load_ledger_jsonl,
    "flight": load_flight_jsonl,
}
_record = _objects(
    ["name", "trace_id", "span_id", "parent_id", "order", "start_s",
     "end_s", "duration_s", "status", "attributes", "volatile", "event",
     "ts", "seq", "kind", "counters", "gauges", "histograms", "reason",
     "samples", "fields"],
    _json | st.sampled_from(["dump", "sample", 0.5, {"bounds": []}]),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(reader=st.sampled_from(sorted(_ARTIFACT_LOADERS)),
       value=_json | _record)
@example(reader="flight",
         value={"kind": "dump", "ts": 1.0, "reason": "x", "samples": [3]})
@example(reader="trace", value={"name": "n", "trace_id": "t",
                                "span_id": "s", "start_s": True,
                                "end_s": 1})
def test_artifact_loaders_raise_only_validation_errors(
    tmp_path, reader, value
):
    path = tmp_path / f"{reader}.jsonl"
    path.write_text(json.dumps(value) + "\n", encoding="utf-8")
    try:
        loaded = _ARTIFACT_LOADERS[reader](path)
    except ValidationError as exc:
        assert f"{path}, line 1: " in str(exc)
        return
    # What loads, every ``repro obs`` view of it reads.
    if reader == "trace":
        canonical_spans(loaded)
        chrome_trace(loaded)
        render_summary(loaded)
        render_top(critical_path_report(loaded))
    elif reader == "ledger":
        render_summary([], loaded)
        render_trace([], loaded)
    else:
        specs = [SLOSpec.from_json(d) for d in DEFAULT_SLO_SPECS]
        try:
            evaluate_slos(specs, loaded["samples"])
        except ValidationError:
            pass  # a histogram whose counts do not fit its bounds
        render_top(critical_path_report([]), loaded["samples"])
