"""Run the reference experiments and emit the CSV, markdown, and SVG report.

The report directory mirrors the published tables: one CSV per channel,
one CSV of fused block counts, a markdown summary with the aggregate
accuracies, and a bar chart of per-operation error rates. Same seed, same
bytes.
"""

import sys
import tempfile
from pathlib import Path

from mmfuse import emit_chart, emit_report, run_reference_experiments


def main(out_dir: str) -> None:
    results = run_reference_experiments(seed=0)
    paths = emit_report(results, out_dir)
    chart = emit_chart(
        [(op.label, stats) for op, stats in results.fusion.items()],
        Path(out_dir) / "figure4_fused.svg",
    )
    print("wrote:")
    for p in [*paths, chart]:
        print(f"  {p}")

    summary = next(p for p in paths if p.suffix == ".md")
    print("\nsummary.md:")
    for line in summary.read_text().splitlines():
        print(f"  {line}")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(sys.argv[1])
    else:
        with tempfile.TemporaryDirectory(prefix="mmfuse-") as tmp:
            main(tmp)
