"""Compare an op's summarized output with the seed commit's recorded output."""

from __future__ import annotations

import copy
import math


def mismatches(actual, expected, tol, path="$"):
    """Paths where ``actual`` differs from ``expected``.

    Floats agree within ``tol`` (relative or absolute, whichever is looser);
    counts, flags, strings and missing values must be equal.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r} "
                    f"!= {sorted(expected)}"]
        out = []
        for key in expected:
            out += mismatches(actual[key], expected[key], tol, f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs from the reference"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += mismatches(a, e, tol, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if math.isclose(actual, expected, rel_tol=tol, abs_tol=tol):
            return []
        return [f"{path}: {actual!r} != {expected!r} (tol {tol:g})"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    else:
        yield path, obj


def _perturbed(reference, kind, tol):
    for path, value in _leaves(reference):
        if kind == "float" and isinstance(value, float) and value != 0.0:
            bumped = value + 10.0 * tol * (abs(value) + 1.0)
        elif kind == "count" and isinstance(value, int) and not isinstance(value, bool):
            bumped = value + 1
        else:
            continue
        changed = copy.deepcopy(reference)
        target = changed
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bumped
        return changed
    return None


def self_check(reference_items, tol):
    """Problems found when the checker is shown unchanged and perturbed references.

    An unchanged copy must pass; a float moved by ten tolerances and a count
    moved by one must both be caught.
    """
    problems = []
    for item in reference_items:
        if mismatches(copy.deepcopy(item), item, tol):
            problems.append("an unchanged reference output was reported as different")
    sample = reference_items[0]
    for kind in ("float", "count"):
        changed = _perturbed(sample, kind, tol)
        if changed is None:
            problems.append(f"no {kind} field to perturb in the reference")
        elif not mismatches(changed, sample, tol):
            problems.append(f"a perturbed {kind} was not caught")
    return problems
