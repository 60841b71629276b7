#!/usr/bin/env python3
"""Plot the CSV artifacts the benchmarks emit.

Run any bench with TELEA_CSV_DIR set, then point this script at the
directory:

    mkdir -p results
    TELEA_CSV_DIR=results ./build/bench/bench_testbed
    python3 scripts/plot_results.py results

One PNG per known CSV lands next to its input. Requires matplotlib
(optional dependency; the library itself never needs Python).
"""

import csv
import pathlib
import sys

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:  # pragma: no cover
    sys.exit("matplotlib is required: pip install matplotlib")


def read_rows(path: pathlib.Path):
    with path.open() as f:
        reader = csv.reader(f)
        headers = next(reader)
        rows = [row for row in reader if row]
    return headers, rows


def numeric(value: str):
    value = value.strip().rstrip("%")
    try:
        return float(value)
    except ValueError:
        return None


def plot_series_csv(path: pathlib.Path) -> bool:
    """Generic: first column = x, every numeric column = one series."""
    headers, rows = read_rows(path)
    if len(headers) < 2 or not rows:
        return False
    xs = [numeric(r[0]) for r in rows]
    if any(x is None for x in xs):
        return False
    fig, ax = plt.subplots(figsize=(6, 4))
    plotted = False
    for col in range(1, len(headers)):
        ys = [numeric(r[col]) if col < len(r) else None for r in rows]
        pairs = [(x, y) for x, y in zip(xs, ys) if y is not None]
        if len(pairs) < 2:
            continue
        ax.plot([p[0] for p in pairs], [p[1] for p in pairs],
                marker="o", label=headers[col])
        plotted = True
    if not plotted:
        plt.close(fig)
        return False
    ax.set_xlabel(headers[0])
    ax.set_title(path.stem.replace("_", " "))
    ax.grid(True, alpha=0.3)
    ax.legend(fontsize=8)
    out = path.with_suffix(".png")
    fig.tight_layout()
    fig.savefig(out, dpi=140)
    plt.close(fig)
    print(f"wrote {out}")
    return True


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    directory = pathlib.Path(sys.argv[1])
    if not directory.is_dir():
        sys.exit(f"not a directory: {directory}")
    count = 0
    for path in sorted(directory.glob("*.csv")):
        if plot_series_csv(path):
            count += 1
        else:
            print(f"skipped {path} (no numeric series)")
    print(f"{count} plot(s) written")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
