"""Shared argument handling for the CLI tools."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Iterable

from repro.topology import presets, serialize
from repro.topology.builder import from_spec
from repro.topology.discover import discover
from repro.topology.tree import Topology


def resolve_topology(source: str) -> Topology:
    """Turn a CLI topology argument into a :class:`Topology`.

    Accepted forms, tried in order:

    * ``host`` — discover the running machine (Linux sysfs);
    * a preset name (``paper-smp``, ``dual-xeon``, ...);
    * a path to a JSON file produced by :mod:`repro.topology.serialize`;
    * an hwloc-style synthetic spec string (``"numa:2 core:4 pu:1"``).
    """
    if source == "host":
        topo = discover()
        if topo is None:
            sys.exit("error: host topology not discoverable on this system")
        return topo
    if source in presets.PRESETS:
        return presets.by_name(source)
    path = Path(source)
    if path.is_file():
        if path.suffix.lower() == ".xml":
            from repro.topology.hwloc_xml import load_hwloc_xml

            return load_hwloc_xml(path)
        return serialize.load(path)
    try:
        return from_spec(source)
    except Exception as exc:
        sys.exit(
            f"error: {source!r} is not a preset, file, or synthetic spec ({exc})"
        )


def name_list(universe: Iterable[str], what: str) -> Callable[[str], list[str]]:
    """An argparse ``type`` for a comma list of names from *universe*.

    An empty list or a name outside *universe* is an argument error, so
    argparse prints the usage line and exits with status 2.
    """
    choices = tuple(universe)

    def parse(value: str) -> list[str]:
        names = [name.strip() for name in value.split(",") if name.strip()]
        if not names:
            raise argparse.ArgumentTypeError(f"need at least one {what}")
        for name in names:
            if name not in choices:
                raise argparse.ArgumentTypeError(
                    f"unknown {what} {name!r}; one of {','.join(choices)}"
                )
        return names

    return parse


def add_paired_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """The seed, replicate, significance and pool flags of the paired
    sweep CLIs (``repro.tools.scaling``, ``repro.tools.dag``)."""
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=1,
                        help="matched replicates per point (> 1 enables the "
                             "paired permutation tests and Holm correction)")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="family-wise significance level")
    parser.add_argument("--workers", type=int, default=0,
                        help="sweep worker processes (0 = all host cores, "
                             "1 = serial; results are identical either way)")


def write_json(path: "str | Path", doc: dict) -> None:
    """Write *doc* as indented, key-sorted JSON with a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
