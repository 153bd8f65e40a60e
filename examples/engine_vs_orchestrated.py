"""Measured vs accounted: the two round counts, side by side.

A :class:`RunReport` with ``accounted=True`` carries rounds computed from
the paper's complexity expression; an engine run carries the rounds the
engine measured. Elkin–Neiman reports both: its report keeps the
accounted ``phases*(cap+2)``, and ``extra`` holds the rounds and messages
its top-two flood actually took. This example prints:

* Elkin–Neiman's accounted rounds against its measured rounds and
  messages, and the per-message size against the CONGEST budget;
* the structural quality (colors, diameter, validity) of its output.

    python examples/engine_vs_orchestrated.py
"""

from repro.core.decomposition import elkin_neiman, measure
from repro.graphs import assign, make
from repro.randomness import IndependentSource
from repro.sim.messages import congest_limit


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


if __name__ == "__main__":
    main()
