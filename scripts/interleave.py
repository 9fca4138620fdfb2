"""The --trees mode of the bench scripts: one script run in several checkouts,
in alternating fresh processes.

Each round runs ``scripts/<script>`` of every tree (say a parent and a
changed checkout) in a fresh process, one per tree, and the order flips
from round to round, so a slow phase of the host hits every tree alike;
separate invocations of one tree can move by 2x.  The script must print
one JSON line per case.  Not run on its own: bench_linalg.py and
bench_search.py import it.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path


def interleaved(script: str, trees: list[Path], rounds: int, key: str, unit: str, answers: tuple[str, ...]) -> None:
    """Run each tree's ``scripts/<script>`` ``rounds`` times, alternating
    fresh processes, and print one JSON line per tree and case (the line's
    ``key``): the medians over rounds of the keys ending in ``unit``, and
    the first round's values of the ``answers`` keys a line has."""
    runs = {tree: [] for tree in trees}
    for r in range(rounds):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            path = tree / "scripts" / script
            out = subprocess.run([sys.executable, str(path)], cwd=tree, capture_output=True, text=True, check=True)
            runs[tree].append([json.loads(line) for line in out.stdout.splitlines()])
    for tree in trees:
        for lines in zip(*runs[tree]):
            line = {"tree": str(tree), key: lines[0][key], "rounds": rounds}
            for name in lines[0]:
                if name.endswith(unit):
                    line[name] = round(statistics.median(x[name] for x in lines), 3)
            line.update((name, lines[0][name]) for name in answers if name in lines[0])
            print(json.dumps(line), flush=True)
