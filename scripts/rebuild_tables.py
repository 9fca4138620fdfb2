#!/usr/bin/env python3
"""Rebuild the binary and ternary bounds grids from the bundled seeds.

Starts from lcdkit's bundled table (the published cell values; every
exact high-rate ternary value it also seeds is a published cell already),
adds the extra ternary seeds, propagates the inequality rules to a
fixpoint, renders both grids, and reports any cell where propagation
improves on the published value.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lcdkit import bounds
from lcdkit.corpus import data_dir


def rebuild(field, extra_seeds=None):
    """Propagate the bundled table and render it over the published grid's rows and columns."""
    table = bounds.bundled_table(field)
    grid = bounds.load_grid(bounds.grid_path(field))
    if extra_seeds:
        bounds.seed_from_csv(table, extra_seeds)
    updates = bounds.propagate(table)
    print(f"== {field}: {len(grid)} published cells, {updates} propagation updates ==")
    ns, ks = [n for n, _ in grid], [k for _, k in grid]
    print(bounds.render(table, range(min(ns), max(ns) + 1), range(min(ks), max(ks) + 1), fmt="md"))
    improved = []
    for (n, k), cell in sorted(grid.items()):
        got = bounds.cell_string(table, n, k)
        if got != cell:
            improved.append((n, k, cell, got))
    if improved:
        print("cells improved beyond the published values:")
        for n, k, cell, got in improved:
            print(f"  [{n},{k}]: published {cell}, derived {got}")
    print()


def main():
    rebuild("gf2")
    rebuild("gf3", extra_seeds=data_dir() / "seeds_extra_gf3.csv")


if __name__ == "__main__":
    main()
