"""SHA-256 digests of the benchmark's job results, one per job per seed.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/result_digest.py --workload stagewise --seeds 0 1 2 3

For each seed it builds the workload's batch with ``perfbench/workloads.py``
(which it only imports), runs every job once, untimed, and prints one line
per job: workload, seed, job position, job name, the digest of what
``Job.run`` returned, and the figures ``Job.check`` returns for it as
``key=value`` with floats by ``repr`` ("-" for none; a failed check prints
its message).  Two checkouts whose digests are equal produced the same job
results bit for bit, so an equivalence claim can quote them; where the
results differ, the figures say by how much.

The digest walks the result: dataclass fields in declaration order
(fields declared ``compare=False`` or named with a leading ``_`` hold
private state such as caches and are skipped, so a checkout that caches a
view in a field digests like one that caches it in a
``functools.cached_property``), arrays by dtype, shape and bytes (object
arrays element by element), sparse matrices by their CSR arrays, floats by
``repr``, ints, strings, dicts in key order, lists and tuples, and
exceptions by type and message.  Anything else raises
TypeError, so a result the walk cannot see is never digested as equal.

Two options compare two checkouts field by field.  ``--dump FILE`` writes
every leaf the walk hashes to one ``.npz``, keyed by job and path (such as
``stagewise 0 1 plateau|result.stages[0].points``).  ``--against FILE``,
run from the other checkout, prints under each job's digest line every
leaf path that differs from FILE, with its count of changed entries and
its largest absolute and relative change, and names each path found on
one side only.  From the root of the first checkout, then of the second:

    PYTHONPATH=src python tests/result_digest.py --workload certify --dump /tmp/first.npz
    PYTHONPATH=src python tests/result_digest.py --workload certify --against /tmp/first.npz

The digest lines are the same with or without either option.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import sys
import zipfile
from pathlib import Path

import numpy as np
from scipy import sparse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def _feed(h, obj, path: str = "result", leaf=None) -> None:
    """Feed `obj` into the hash `h`, tagged by kind so that no two walks
    of different values give one byte stream.  When `leaf` is given, it is
    called as ``leaf(path, array)`` on every leaf the walk hashes (None,
    bools, numbers, strings, arrays that are not object arrays, and
    exceptions as one ``"Type: message"`` string), with `path` the leaf's
    place in the result, such as ``result.stages[0].points``."""
    value = None
    if obj is None or isinstance(obj, (bool, np.bool_)):
        h.update(f"<{obj!r}>".encode())
        value = np.array(repr(obj))
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)};".encode())
        value = np.array(int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj)!r};".encode())
        value = np.array(float(obj))
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:{obj}".encode())
        value = np.array(obj)
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape};".encode())
        if obj.dtype == object:
            for i, item in enumerate(obj.ravel()):
                _feed(h, item, f"{path}.flat[{i}]", leaf)
        else:
            h.update(np.ascontiguousarray(obj).tobytes())
            value = obj
    elif sparse.issparse(obj):
        csr = sparse.csr_matrix(obj)
        h.update(f"csr{csr.shape};".encode())
        for name in ("data", "indices", "indptr"):
            _feed(h, getattr(csr, name), f"{path}.{name}", leaf)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"d{type(obj).__qualname__}{{".encode())
        for f in dataclasses.fields(obj):
            if f.compare and not f.name.startswith("_"):
                h.update(f"{f.name}=".encode())
                _feed(h, getattr(obj, f.name), f"{path}.{f.name}", leaf)
        h.update(b"}")
    elif isinstance(obj, dict):
        h.update(f"m{len(obj)}{{".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key], f"{path}[{key!r}]", leaf)
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}[".encode())
        for i, item in enumerate(obj):
            _feed(h, item, f"{path}[{i}]", leaf)
        h.update(b"]")
    elif isinstance(obj, BaseException):
        h.update(f"e{type(obj).__qualname__}:".encode())
        _feed(h, str(obj))
        value = np.array(f"{type(obj).__qualname__}: {obj}")
    else:
        raise TypeError(f"no digest rule for {type(obj).__qualname__}")
    if leaf is not None and value is not None:
        leaf(path, value)


def digest(obj, leaf=None) -> str:
    """Hex SHA-256 of the walk of `obj`; `leaf` as in `_feed`."""
    h = hashlib.sha256()
    _feed(h, obj, leaf=leaf)
    return h.hexdigest()


def leaf_changes(ref: np.ndarray, new: np.ndarray) -> str | None:
    """How leaf `new` differs from `ref`: None when they are equal (NaN
    equal to NaN), else the count of changed entries with, for numbers of
    one shape, the largest absolute change and the largest change relative
    to |ref| (inf where ref is 0)."""
    if ref.shape != new.shape or (ref.dtype.kind == "U") != (new.dtype.kind == "U"):
        return f"{ref.dtype}{ref.shape} -> {new.dtype}{new.shape}"
    if ref.dtype.kind == "U":
        changed = int((ref != new).sum())
        return f"{changed} of {ref.size} entries" if changed else None
    a, b = ref.astype(float), new.astype(float)
    diff = (a != b) & ~(np.isnan(a) & np.isnan(b))
    if not diff.any():
        return None
    with np.errstate(invalid="ignore", divide="ignore"):
        step = np.abs(b[diff] - a[diff])
        step[np.isnan(step)] = np.inf
        rel = step / np.abs(a[diff])
    return (
        f"{int(diff.sum())} of {ref.size} entries, largest abs change "
        f"{step.max():.3g}, largest rel change {rel.max():.3g}"
    )


def figures(job, result) -> str:
    """``Job.check``'s figures for `result`, as ``key=value`` in key order."""
    try:
        figs = job.check(result)
    except workloads.CheckFailed as exc:
        return f"CheckFailed: {exc}"
    pairs = (f"{key}={float(value)!r}" for key, value in sorted(figs.items()))
    return " ".join(pairs) or "-"


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    p.add_argument("--dump", metavar="FILE", help="write every leaf, by path, to one .npz")
    p.add_argument("--against", metavar="FILE", help="list the leaves that differ from a --dump")
    args = p.parse_args(argv)
    with contextlib.ExitStack() as stack:
        dump = ref = None
        if args.dump:
            dump = stack.enter_context(zipfile.ZipFile(args.dump, "w", zipfile.ZIP_DEFLATED))
        if args.against:
            ref = stack.enter_context(np.load(args.against))
        for seed in args.seeds:
            batch = workloads.WORKLOADS[args.workload](seed)
            for pos, job in enumerate(batch.jobs):
                result = job.run()
                leaves = {}
                # digest and leaves first: a check may fill a result's caches
                line = digest(result, leaf=leaves.__setitem__)
                prefix = f"{args.workload} {seed} {pos} {job.name}|"
                for path, value in leaves.items() if dump is not None else ():
                    with dump.open(f"{prefix}{path}.npy", "w", force_zip64=True) as f:
                        np.lib.format.write_array(f, value, allow_pickle=False)
                changes = _changed_leaves(ref, prefix, leaves, args.against) if ref is not None else []
                print(args.workload, seed, pos, job.name, line, figures(job, result), flush=True)
                for change in changes:
                    print(f"    {change}", flush=True)


def _changed_leaves(ref, prefix: str, leaves: dict, name: str) -> list[str]:
    """One line per leaf path of a job that differs between the --dump
    file `ref` and `leaves`, or that only one of them holds."""
    known = {key[len(prefix):] for key in ref.files if key.startswith(prefix)}
    lines = []
    for path in sorted(leaves.keys() | known):
        if path not in leaves:
            change = f"missing here, present in {name}"
        elif path not in known:
            change = f"missing from {name}"
        else:
            change = leaf_changes(ref[prefix + path], leaves[path])
        if change:
            lines.append(f"{path}: {change}")
    return lines


if __name__ == "__main__":
    main()
