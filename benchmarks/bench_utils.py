"""Shared helpers for the benchmark scripts.

Separate from ``conftest.py`` so benchmark modules never import the
``conftest`` module name (two conftests in one pytest run shadow each
other; see ``pyproject.toml``).
"""

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def results_path():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir, name, text):
    """Print a table and persist it under benchmarks/results/."""
    print()
    print(text)
    (pathlib.Path(results_dir) / f"{name}.txt").write_text(text + "\n")


def campaign_spec(name, artifacts, **options):
    """Build a bench-scoped CampaignSpec rooted under benchmarks/results.

    ``REPRO_BENCH_WORKERS`` > 1 drains the cells on that many queue
    workers; the default 0 runs them in-process, which keeps
    pytest-benchmark timings comparable to the serial path.
    """
    import os

    from repro.experiments.campaign import CampaignSpec

    return CampaignSpec(
        name=name,
        artifacts=tuple(artifacts),
        options=options,
        workers=int(os.environ.get("REPRO_BENCH_WORKERS", "0")),
        results_root=str(RESULTS_DIR / "campaigns"),
    )
