#!/usr/bin/env python3
"""Werner-family correlation table: E, S, D, N and class over a q grid.

Writes out/werner_table.csv.  ``werner_analytics`` checks each row's E
against the partial-transpose negativity of the explicit 4x4 Werner
matrix and its D against the closed-form geometric discord of that matrix.
"""

from pathlib import Path

import numpy as np

from cvactivation.activation import werner_analytics

OUT = Path("out")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    lines = ["q,E,S,D,N,classification"]
    for q in np.linspace(-1.0 / 3.0, 1.0, 41):
        out = werner_analytics(float(q))
        lines.append(
            f"{q!r},{out.entanglement!r},{out.steering!r},"
            f"{out.discord!r},{out.chsh!r},{out.classification.value}"
        )
    path = OUT / "werner_table.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
