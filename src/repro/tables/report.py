"""Run every table and concatenate the output (the ``repro-tables`` CLI)."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.tables.fig2 import table_fig2
from repro.tables.fig6 import table_fig6
from repro.tables.fig7 import table_fig7
from repro.tables.fig8 import table_fig8
from repro.tables.fig9 import table_fig9
from repro.tables.fig10 import table_fig10a, table_fig10b
from repro.tables.fig11 import table_fig11
from repro.tables.plots import chart_fig9, chart_fig10
from repro.tables.prediction import table_prediction
from repro.tables.reliability import table_fault_recovery, table_reliability
from repro.tables.sec1_exflow import table_sec1_exflow
from repro.tables.sec2_memory import table_sec2_memory
from repro.tables.sec3_tf import table_sec3_tf
from repro.tables.validation import table_validation

#: Registry of table generators, in paper order.
TABLES: Dict[str, Callable] = {
    "fig2": table_fig2,
    "fig6": table_fig6,
    "fig7": table_fig7,
    "fig8": table_fig8,
    "fig9": table_fig9,
    "fig9-chart": chart_fig9,
    "fig10a": table_fig10a,
    "fig10b": table_fig10b,
    "fig10-chart": lambda: chart_fig10("maximal"),
    "fig11": table_fig11,
    "exflow": table_sec1_exflow,
    "memory": table_sec2_memory,
    "tf": table_sec3_tf,
    "validation": table_validation,
    "prediction": table_prediction,
    "reliability": table_reliability,
    "fault-recovery": table_fault_recovery,
}


def generate(names: List[str] = None) -> str:
    """Generate the selected tables (default: all) as one text blob."""
    if names is None:
        names = list(TABLES)
    unknown = [n for n in names if n not in TABLES]
    if unknown:
        raise ValueError(f"unknown tables {unknown}; options: {sorted(TABLES)}")
    sections = [str(TABLES[name]()) for name in names]
    return "\n\n".join(sections) + "\n"
