#!/usr/bin/env python3
"""Checks EXPERIMENTS.md's E1-E6 model cells against the committed CSVs.

Each of the four paper-vs-model tables (E1, E2, E3/E4, E5/E6) quotes the
model's OpenMP, OpenCL and OpenCL Opt column for every benchmark. This
script reads those cells and compares each one, at the precision the table
prints it, with the matching section of results/fig{2,3,4}_*.csv. It exits
1 and lists every disagreement, or exits 0.

Usage: python3 tools/check_experiments.py [REPO_ROOT]
"""

import csv
import os
import sys
from decimal import Decimal

# Table heading prefix -> (CSV file, section index in that file).
TABLES = [
    ("## E1 ", "fig2_speedup.csv", 0),
    ("## E2 ", "fig2_speedup.csv", 1),
    ("## E3/E4 ", "fig3_power.csv", 0),
    ("## E5/E6 ", "fig4_energy.csv", 0),
]
# Model columns of the markdown table -> CSV column names.
MODEL_COLUMNS = {2: "OpenMP", 4: "OpenCL", 6: "OpenCL Opt"}


def csv_sections(path):
    """Splits a figure CSV into its '#'-headed sections of row dicts."""
    sections, lines = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                if lines:
                    sections.append(lines)
                lines = []
            elif line.strip():
                lines.append(line)
    if lines:
        sections.append(lines)
    return [{row["benchmark"]: row for row in csv.DictReader(s)}
            for s in sections]


def table_rows(markdown, heading):
    """Yields the cell lists of the first table after `heading`."""
    lines = markdown.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith(heading))
    in_table = False
    for line in lines[start + 1:]:
        if line.startswith("|"):
            in_table = True
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if cells[0] != "benchmark" and not cells[0].startswith("---"):
                yield cells
        elif in_table or line.startswith("## "):
            return


def decimals(text):
    return len(text.split(".")[1]) if "." in text else 0


def matches(cell, value):
    """True when some number that prints as the CSV text `value` also
    prints as `cell` at the cell's precision: the two half-open rounding
    intervals overlap. The CSV usually carries more decimals than the
    table, so CSV 1.235 fits a table's 1.23 or 1.24, but not 1.25."""
    cell = cell.replace("*", "").strip()
    if value == "n/a":
        return cell.startswith("n/a")
    c, v = Decimal(cell), Decimal(value)
    half_c = Decimal(5).scaleb(-decimals(cell) - 1)
    half_v = Decimal(5).scaleb(-decimals(value) - 1)
    return c - half_c < v + half_v and v - half_v < c + half_c


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    with open(os.path.join(root, "EXPERIMENTS.md")) as f:
        markdown = f.read()
    errors, checked = [], 0
    for heading, csv_name, section in TABLES:
        figure = csv_sections(os.path.join(root, "results", csv_name))[section]
        for cells in table_rows(markdown, heading):
            name = cells[0]
            for index, column in MODEL_COLUMNS.items():
                value = figure[name][column]
                checked += 1
                if not matches(cells[index], value):
                    errors.append(f"{heading.strip('# ')} {name} {column}: "
                                  f"EXPERIMENTS.md {cells[index]}, "
                                  f"{csv_name} {value}")
    for error in errors:
        print(error)
    print(f"{checked - len(errors)}/{checked} model cells match results/")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
