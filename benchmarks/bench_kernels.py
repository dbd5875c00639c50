"""Experiment KERNELS: scalar-vs-numpy regression baselines per kernel.

Every hot inner kernel in the suite ships two implementations -- a
scalar reference oracle and the production numpy path (selected with
``impl=``).  This bench times both on the same seeded workload, checks
the equivalence contract (bit-exact for the integer/discrete kernels
and the crossbar; ``rtol=atol=1e-12`` for the float-reduction HTCONV),
and emits the JSON artifact CI uploads, so a kernel that silently slows
down or diverges fails the build instead of a future campaign.

Run standalone to emit the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_kernels.py --quick \
        --out BENCH_kernels.json

Acceptance targets (asserted with ``--check``, reported always):

- scalar/numpy equivalence on every kernel (asserted unconditionally
  by ``--check`` at any size);
- no numpy kernel slower than ``0.8x`` its scalar reference at the
  bench size (the guard against vectorization that stops paying).

At the full (default) sizes the edit-distance, HTCONV, and SPARTA
kernels are expected to clear 5x; the crossbar MVM is bounded by the
shared RNG stream (the noise draw dominates both paths) and the list
scheduler by its sequential resource arbitration, so they are held to
the no-regression bar only.

A jit tier rides along: the edit-distance band kernel and the SPARTA
cycle loop also ship a numba-compiled ``impl="jit"``.  Equivalence
against the scalar oracle is verified *always* (the ``@njit`` shim runs
the kernels as plain Python when numba is absent); the >=2x-over-numpy
speed gate is timed only when numba is installed and reported as a
``skip`` -- not a failure -- otherwise.

The ``check`` block (``passed`` + prefixed ``messages``) lands in the
JSON artifact so ``benchmarks/summarize.py`` can render gate rows.
"""

import argparse
import hashlib
import json
import os
import random
import sys
import time

import numpy as np

from repro.core.jit import numba_available
from repro.dna.ecc import ReedSolomonCodec
from repro.dna.editdistance import CellUpdateCounter, levenshtein_banded
from repro.axc.htconv import FovealRegion, htconv_x2
from repro.hls.ir import DataflowGraph, OpKind, Operation
from repro.hls.scheduling import schedule_list
from repro.imc.crossbar import AnalogCrossbar, CrossbarConfig
from repro.sparta.kernels import bfs_tasks, random_graph
from repro.sparta.simulator import simulate

FULL = {
    "crossbar": {"rows": 128, "cols": 128, "batch": 192},
    "editdistance": {"length": 4000, "band": 128, "pairs": 2},
    "htconv": {"channels": 8, "height": 48, "width": 48, "kernel": 3},
    "sparta": {"nodes": 512, "memory_latency": 200},
    "hls": {"ops": 1500},
    "ecc": {"n": 255, "k": 223, "messages": 40},
}
QUICK = {
    "crossbar": {"rows": 32, "cols": 32, "batch": 24},
    "editdistance": {"length": 600, "band": 48, "pairs": 2},
    "htconv": {"channels": 4, "height": 20, "width": 20, "kernel": 3},
    "sparta": {"nodes": 128, "memory_latency": 200},
    "hls": {"ops": 300},
    "ecc": {"n": 255, "k": 223, "messages": 6},
}

EXACT = "exact"
HTCONV_POLICY = "rtol=1e-12,atol=1e-12"


def _digest(payload) -> str:
    """Short stable checksum of a result payload."""
    if isinstance(payload, np.ndarray):
        blob = payload.tobytes()
    else:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# ------------------------------------------------------------------ kernels


def _run_crossbar(size, impl):
    xbar = AnalogCrossbar(
        CrossbarConfig(rows=size["rows"], cols=size["cols"]), seed=1234
    )
    rng = np.random.default_rng(1234)
    xbar.program_weights(
        rng.uniform(-1, 1, (size["rows"], size["cols"]))
    )
    xs = rng.uniform(-1, 1, (size["batch"], size["rows"]))
    start = time.perf_counter()
    out = xbar.mvm_batch(xs, impl=impl)
    return time.perf_counter() - start, out


def _random_sequence(rng, length):
    return "".join("ACGT"[i] for i in rng.integers(0, 4, length))


def _editdistance_pairs(size):
    rng = np.random.default_rng(99)
    pairs = []
    for _ in range(size["pairs"]):
        a = _random_sequence(rng, size["length"])
        # A near-duplicate read: a few scattered substitutions.
        b = list(a)
        for pos in rng.integers(0, size["length"], 10):
            b[pos] = "ACGT"[rng.integers(0, 4)]
        pairs.append((a, "".join(b)))
        # And one unrelated read (exercises the early exit).
        pairs.append((a, _random_sequence(rng, size["length"])))
    return pairs


def _run_editdistance(size, impl):
    pairs = _editdistance_pairs(size)
    counter = CellUpdateCounter()
    start = time.perf_counter()
    distances = [
        levenshtein_banded(a, b, band=size["band"], counter=counter,
                           impl=impl)
        for a, b in pairs
    ]
    elapsed = time.perf_counter() - start
    return elapsed, {"distances": distances, "cells": counter.cells}


def _run_htconv(size, impl):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(size["channels"], size["height"], size["width"]))
    kernel = rng.normal(
        size=(size["channels"], size["kernel"], size["kernel"])
    )
    fovea = FovealRegion.centered(size["height"], size["width"], 0.25)
    start = time.perf_counter()
    out = htconv_x2(x, kernel, fovea, impl=impl)
    return time.perf_counter() - start, out


def _run_sparta(size, impl):
    region = bfs_tasks(random_graph(size["nodes"], seed=5), seed=5)
    start = time.perf_counter()
    stats = simulate(
        region,
        enable_cache=False,
        memory_latency=size["memory_latency"],
        impl=impl,
    )
    elapsed = time.perf_counter() - start
    import dataclasses

    return elapsed, dataclasses.asdict(stats)


def _hls_graph(num_ops):
    """Deterministic random-ish DAG in the shape of an unrolled body."""
    rng = random.Random(17)
    kinds = [
        OpKind.ADD, OpKind.MUL, OpKind.MAC, OpKind.LOAD, OpKind.STORE,
        OpKind.DIV, OpKind.CMP,
    ]
    graph = DataflowGraph(f"bench{num_ops}")
    for i in range(num_ops):
        deps = tuple(
            f"op{j}"
            for j in rng.sample(range(i), min(i, rng.randint(0, 3)))
        )
        graph.add(
            Operation(name=f"op{i}", kind=rng.choice(kinds), inputs=deps)
        )
    return graph


def _run_hls(size, impl):
    graph = _hls_graph(size["ops"])
    resources = {
        OpKind.MUL: 2,
        OpKind.MAC: 1,
        OpKind.DIV: 1,
        OpKind.LOAD: 2,
    }
    start = time.perf_counter()
    schedule = schedule_list(graph, resources, impl=impl)
    return time.perf_counter() - start, schedule.start_cycle


def _run_ecc(size, impl):
    codec = ReedSolomonCodec(size["n"], size["k"], impl=impl)
    rng = np.random.default_rng(21)
    messages = [
        bytes(int(v) for v in rng.integers(0, 256, size["k"]))
        for _ in range(size["messages"])
    ]
    corrupted = []
    for message in messages:
        codeword = bytearray(codec.encode(message))
        for pos in rng.integers(0, size["n"], 6):
            codeword[int(pos)] ^= int(rng.integers(1, 256))
        corrupted.append(bytes(codeword))
    start = time.perf_counter()
    encoded = [codec.encode(m) for m in messages]
    decoded = [codec.decode(c) for c in corrupted]
    elapsed = time.perf_counter() - start
    payload = {
        "encoded": [c.hex() for c in encoded],
        "decoded": [None if d is None else d.hex() for d in decoded],
    }
    return elapsed, payload


KERNELS = [
    ("crossbar_mvm", _run_crossbar, "crossbar", EXACT),
    ("editdistance_banded", _run_editdistance, "editdistance", EXACT),
    ("htconv_x2", _run_htconv, "htconv", HTCONV_POLICY),
    ("sparta_cycle_sim", _run_sparta, "sparta", EXACT),
    ("hls_list_schedule", _run_hls, "hls", EXACT),
    ("rs_codec", _run_ecc, "ecc", EXACT),
]


# ------------------------------------------------------------- jit tier
#
# Going through the public impl="jit" API would silently test numpy on
# numba-free installs (resolve_impl degrades), so equivalence runs the
# compiled-tier kernels *directly*: the @njit shim executes them as
# plain Python when numba is absent, same code path, just uncompiled.


def _jit_editdistance_payload(size):
    from repro.dna.jitkernels import banded_kernel

    band = size["band"]
    distances = []
    cells = 0
    for a, b in _editdistance_pairs(size):
        # Mirror the levenshtein_banded pre-steps around the kernel.
        if abs(len(a) - len(b)) > band:
            distances.append(None)
            continue
        if len(a) < len(b):
            a, b = b, a
        a_codes = np.frombuffer(a.encode("utf-8"), dtype=np.uint8)
        b_codes = np.frombuffer(b.encode("utf-8"), dtype=np.uint8)
        distance, pair_cells = banded_kernel(a_codes, b_codes, band)
        cells += int(pair_cells)
        distances.append(None if distance < 0 else int(distance))
    return {"distances": distances, "cells": cells}


def _jit_sparta_payload(size):
    import dataclasses

    from repro.sparta.accelerator import LaneConfig
    from repro.sparta.jitsim import run_jit
    from repro.sparta.noc import NocConfig
    from repro.sparta.simulator import SpartaSystem

    region = bfs_tasks(random_graph(size["nodes"], seed=5), seed=5)
    # Same system simulate() builds for _run_sparta's arguments.
    system = SpartaSystem(
        num_lanes=4,
        lane_config=LaneConfig(num_contexts=4, switch_penalty=1),
        noc_config=NocConfig(
            num_channels=4,
            memory_latency=size["memory_latency"],
            enable_cache=False,
        ),
    )
    timed_out, now = run_jit(system, region, 5_000_000)
    assert not timed_out, "jit sparta bench run hit the cycle budget"
    return dataclasses.asdict(system._stats(region, now))


JIT_PAYLOADS = {
    "editdistance_banded": _jit_editdistance_payload,
    "sparta_cycle_sim": _jit_sparta_payload,
}


def _equivalent(policy, scalar_payload, numpy_payload) -> bool:
    if policy == EXACT:
        if isinstance(scalar_payload, np.ndarray):
            return bool(np.array_equal(scalar_payload, numpy_payload))
        return scalar_payload == numpy_payload
    return bool(
        np.allclose(scalar_payload, numpy_payload, rtol=1e-12, atol=1e-12)
    )


def run_kernel_study(sizes, repeats: int = 2):
    """Time scalar vs numpy per kernel; returns the JSON-able study."""
    kernels = []
    for name, runner, size_key, policy in KERNELS:
        size = sizes[size_key]
        runner(size, "numpy")  # warm-up: imports, allocator, caches
        scalar_s = min(
            runner(size, "scalar")[0] for _ in range(repeats)
        )
        numpy_s, numpy_payload = runner(size, "numpy")
        for _ in range(repeats - 1):
            numpy_s = min(numpy_s, runner(size, "numpy")[0])
        _, scalar_payload = runner(size, "scalar")
        row = {
            "name": name,
            "size": size,
            "scalar_s": scalar_s,
            "numpy_s": numpy_s,
            "speedup": scalar_s / numpy_s if numpy_s else float("inf"),
            "scalar_checksum": _digest(scalar_payload),
            "numpy_checksum": _digest(numpy_payload),
            "equivalence_policy": policy,
            "equivalent": _equivalent(
                policy, scalar_payload, numpy_payload
            ),
        }
        if name in JIT_PAYLOADS:
            jit_payload = JIT_PAYLOADS[name](size)
            row["jit_checksum"] = _digest(jit_payload)
            row["jit_equivalent"] = _equivalent(
                policy, scalar_payload, jit_payload
            )
            row["jit_s"] = None
            row["jit_speedup"] = None
            if numba_available():
                runner(size, "jit")  # warm-up: the numba compile
                jit_s = min(
                    runner(size, "jit")[0] for _ in range(repeats)
                )
                row["jit_s"] = jit_s
                row["jit_speedup"] = (
                    numpy_s / jit_s if jit_s else float("inf")
                )
        kernels.append(row)
    return {
        "hardware": {"cpu_count": os.cpu_count()},
        "repeats": repeats,
        "numba": numba_available(),
        "kernels": kernels,
    }


def render(study) -> str:
    from repro.core.tables import Table

    table = Table(
        ["kernel", "scalar (s)", "numpy (s)", "speedup", "jit",
         "equivalent", "policy"],
        title="bench_kernels -- scalar reference vs numpy/jit kernels",
    )
    for row in study["kernels"]:
        jit = "-"
        if "jit_equivalent" in row:
            if row["jit_speedup"] is not None:
                jit = f"{row['jit_speedup']:.2f}x"
            else:
                jit = "eq-only" if row["jit_equivalent"] else "DIVERGED"
        table.add_row(
            [row["name"], round(row["scalar_s"], 4),
             round(row["numpy_s"], 4), round(row["speedup"], 2), jit,
             row["equivalent"], row["equivalence_policy"]]
        )
    return table.render()


def build_check(
    study,
    min_speedup: float = 0.8,
    jit_min_speedup: float = 2.0,
) -> dict:
    """Evaluate every gate into the JSON ``check`` block.

    ``messages`` follow the summarize.py convention: ``FAIL ...`` marks
    a failed gate, ``skip ...`` a gate that could not run here (e.g.
    jit timing without numba), anything else is informational.
    """
    messages = []
    failures = 0

    def gate(ok, fail_msg, ok_msg):
        nonlocal failures
        if not ok:
            failures += 1
        messages.append(ok_msg if ok else fail_msg)

    for row in study["kernels"]:
        name = row["name"]
        gate(
            row["equivalent"],
            f"FAIL equivalence {name}: scalar/numpy diverged "
            f"({row['scalar_checksum']} vs {row['numpy_checksum']})",
            f"ok equivalence {name}",
        )
        gate(
            row["speedup"] >= min_speedup,
            f"FAIL speed {name}: numpy at {row['speedup']:.2f}x scalar "
            f"(< {min_speedup:.1f}x no-regression gate)",
            f"ok speed {name} ({row['speedup']:.2f}x)",
        )
        if "jit_equivalent" in row:
            gate(
                row["jit_equivalent"],
                f"FAIL equivalence {name}: jit diverged from scalar "
                f"({row['jit_checksum']} vs {row['scalar_checksum']})",
                f"ok equivalence {name} jit",
            )
            if row["jit_s"] is not None:
                gate(
                    row["jit_speedup"] >= jit_min_speedup,
                    f"FAIL speed {name}: jit at {row['jit_speedup']:.2f}x"
                    f" numpy (< {jit_min_speedup:.1f}x compiled-tier "
                    "gate)",
                    f"ok speed {name} jit ({row['jit_speedup']:.2f}x)",
                )
            else:
                messages.append(
                    f"skip jit speed {name} (numba not installed)"
                )
    return {"passed": failures == 0, "messages": messages}


def check(study, min_speedup: float = 0.8) -> None:
    """Assert the regression contract at the measured size."""
    block = study.get("check")
    if block is None:
        block = build_check(study, min_speedup=min_speedup)
    bad = [m for m in block["messages"] if m.startswith("FAIL")]
    assert not bad, "; ".join(bad)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repetitions per implementation "
                        "(min is kept)")
    parser.add_argument("--out", default=None,
                        help="write the study JSON here")
    parser.add_argument("--check", action="store_true",
                        help="assert equivalence, the >=0.8x numpy "
                        "no-regression gate, and the >=2x jit gate "
                        "(when numba is installed)")
    args = parser.parse_args(argv)

    sizes = QUICK if args.quick else FULL
    study = run_kernel_study(sizes, repeats=args.repeats)
    study["quick"] = bool(args.quick)
    study["check"] = build_check(study)
    print(render(study))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(study, fh, indent=1, sort_keys=True)
        print(f"wrote {args.out}")
    if args.check:
        check(study)
    return 0


def test_kernel_bench_contract(benchmark):
    """Pytest-benchmark entry: quick sizes, equivalence always on."""
    study = benchmark(lambda: run_kernel_study(QUICK, repeats=1))
    print()
    print(render(study))
    for row in study["kernels"]:
        assert row["equivalent"], row["name"]
        assert row.get("jit_equivalent", True), f"{row['name']} jit"


if __name__ == "__main__":
    sys.exit(main())
