"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records ``run.py`` writes to
``.perfbench/records/`` (copy them aside between commits).  Records are
grouped by workload and trace mode; for every metric the medians and
quartiles of both sides are printed with the verdict against the bound
in ``BENCHMARK.json``.  Records whose environment differs (cores,
parameter set, NTT path, offered rate, run length, interpreter) are not
compared: the command names the differing fields and exits 2.  It exits
1 when a metric is worse than its bound allows, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ENVIRONMENT  # noqa: E402


def _load(directory: str) -> dict:
    groups: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        prov = record["provenance"]
        groups.setdefault((prov["workload"], prov["trace"]), []).append(record)
    return groups


def _environment_diff(records: list) -> list[str]:
    first = records[0]["provenance"]
    return sorted({
        field for record in records[1:] for field in ENVIRONMENT
        if record["provenance"].get(field) != first.get(field)
    })


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = _load(argv[0]), _load(argv[1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    for key in sorted(set(base) & set(new)):
        differ = _environment_diff(base[key] + new[key])
        if differ:
            print(f"{key[0]} trace={key[1]}: environments differ in "
                  f"{', '.join(differ)}; refusing to compare", file=sys.stderr)
            return 2
        print(f"== {key[0]} (trace={key[1]}, {len(base[key])} base / "
              f"{len(new[key])} new runs)")
        for name in base[key][0]["metrics"]:
            old = [r["metrics"][name] for r in base[key]]
            cur = [r["metrics"][name] for r in new[key]]
            oq, cq = _quartiles(old), _quartiles(cur)
            verdict = ""
            spec_m = bounds.get(name)
            if spec_m and key[1] == 0 and oq[1]:
                change = (cq[1] - oq[1]) / abs(oq[1])
                worse = change if spec_m["better"] == "lower" else -change
                if worse > spec_m["bound"]:
                    verdict, regressed = "WORSE beyond bound", True
                elif -worse > (oq[2] - oq[0]) / abs(oq[1]):
                    verdict = "better beyond base spread"
                else:
                    verdict = "within bound"
            print(f"  {name:<26} base {oq[1]:>12.4f} [{oq[0]:.4f}, {oq[2]:.4f}]"
                  f"  new {cq[1]:>12.4f} [{cq[0]:.4f}, {cq[2]:.4f}]  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
