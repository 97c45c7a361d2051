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
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np
from scipy import sparse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def _feed(h, obj) -> None:
    """Feed `obj` into the hash `h`, tagged by kind so that no two walks
    of different values give one byte stream."""
    if obj is None or isinstance(obj, (bool, np.bool_)):
        h.update(f"<{obj!r}>".encode())
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)};".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj)!r};".encode())
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:{obj}".encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape};".encode())
        if obj.dtype == object:
            for item in obj.ravel():
                _feed(h, item)
        else:
            h.update(np.ascontiguousarray(obj).tobytes())
    elif sparse.issparse(obj):
        csr = sparse.csr_matrix(obj)
        h.update(f"csr{csr.shape};".encode())
        for part in (csr.data, csr.indices, csr.indptr):
            _feed(h, part)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"d{type(obj).__qualname__}{{".encode())
        for f in dataclasses.fields(obj):
            if f.compare and not f.name.startswith("_"):
                h.update(f"{f.name}=".encode())
                _feed(h, getattr(obj, f.name))
        h.update(b"}")
    elif isinstance(obj, dict):
        h.update(f"m{len(obj)}{{".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}[".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, BaseException):
        h.update(f"e{type(obj).__qualname__}:".encode())
        _feed(h, str(obj))
    else:
        raise TypeError(f"no digest rule for {type(obj).__qualname__}")


def digest(obj) -> str:
    """Hex SHA-256 of the walk of `obj`."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


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
    args = p.parse_args(argv)
    for seed in args.seeds:
        batch = workloads.WORKLOADS[args.workload](seed)
        for pos, job in enumerate(batch.jobs):
            result = job.run()
            # digest first: a check may fill a result's caches
            line = digest(result)
            print(args.workload, seed, pos, job.name, line, figures(job, result), flush=True)


if __name__ == "__main__":
    main()
