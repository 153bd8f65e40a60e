"""Measured vs accounted: the two round counts, side by side.

A :class:`RunReport` with ``accounted=True`` carries rounds computed from
the paper's complexity expression; an engine run carries the rounds the
engine measured. Elkin–Neiman reports both: its report keeps the
accounted ``phases*(cap+2)``, and ``extra`` holds the rounds and messages
its top-two flood actually took. This example prints:

* Elkin–Neiman's accounted rounds against its measured rounds and
  messages, and the per-message size against the CONGEST budget;
* the structural quality (colors, diameter, validity) of its output;
* the two round engines on one algorithm (Luby MIS): the per-node
  program on FastEngine (what ``luby_mis`` runs under an active fault
  plan) and the whole-round program on ArrayEngine (what it runs
  otherwise) — identical outputs and reports, different wall time.

    python examples/engine_vs_orchestrated.py
"""

import dataclasses
import time

from repro.core.decomposition import elkin_neiman, measure
from repro.core.mis import LubyMIS, luby_mis
from repro.graphs import assign, make
from repro.randomness import IndependentSource
from repro.sim.batch import FastEngine
from repro.sim.messages import CONGEST, congest_limit


def main() -> None:
    graph = assign(make("gnp-sparse", 120, seed=11), "random", seed=11)
    phases, cap = 30, 10
    print(f"network: {graph}; phases={phases}, cap={cap}\n")

    dec, report, extra = elkin_neiman(
        graph, IndependentSource(seed=1), phases=phases, cap=cap,
        finish="singletons")
    quality = measure(graph, dec)
    # A flood message is two (value <= cap, center UID) pairs.
    message_bits = 2 * (cap.bit_length() + graph.uid_bits())
    limit = congest_limit(graph.n)
    print("Elkin–Neiman:")
    print(f"  accounted rounds = {report.rounds}  "
          f"(formula: {phases}*({cap}+2))")
    print(f"  measured rounds  = {extra['rounds_measured']}, "
          f"messages = {extra['messages']}")
    print(f"  message size <= {message_bits} bits "
          f"(CONGEST budget {limit})")
    print(f"  colors={quality.colors} "
          f"strong_diam={quality.max_strong_diameter} valid={quality.valid}")
    print("  (the flood stops once no shifted value changes, and phases "
          "stop once everyone clusters)")
    assert quality.valid
    assert extra["rounds_measured"] <= report.rounds
    assert message_bits <= limit

    # ------------------------------------------------------------------
    # FastEngine vs ArrayEngine: same algorithm, same bits, less time.
    # ------------------------------------------------------------------
    print("\nround engines (Luby MIS, CONGEST):")
    runs = {
        "FastEngine": lambda source: FastEngine(
            graph, lambda _v: LubyMIS(), source=source, model=CONGEST).run(),
        "ArrayEngine": lambda source: luby_mis(graph, source),
    }
    results = {}
    for name, run in runs.items():
        start = time.perf_counter()
        results[name] = run(IndependentSource(seed=3))
        elapsed = time.perf_counter() - start
        rep = results[name].report
        print(f"  {name}: {elapsed * 1000:6.1f}ms  "
              f"rounds={rep.rounds} messages={rep.messages} "
              f"bits={rep.total_bits}")
    fast, array = results["FastEngine"], results["ArrayEngine"]
    assert fast.outputs == array.outputs
    assert dataclasses.asdict(fast.report) == dataclasses.asdict(array.report)
    print("  outputs and reports are bit-identical; only wall time differs")


if __name__ == "__main__":
    main()
