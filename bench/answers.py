"""Answer checks for every benchmark op.

An op is one ``pmmobility analyze`` call on one file.  Its outcome is
documented when it exits 0, or exits 1 (analysis error) or 3 (oracle
disagreement) with the CLI's own message on stderr.  It fails when it exits
2, lets an exception escape, prints a report that contradicts itself or the
fixture table below, or prints invalid JSON in structured format.
"""

from __future__ import annotations

import json
import re

# fixture stem -> (DOF, motion class, loop ranks xi), written out by hand so
# that a changed answer on any fixture counts as a failed op.
FIXTURES = {
    "tricept": (3, "1T2R", (6, 6, 6)),
    "three_rrc": (3, "3T0R", (5, 4)),
    "toy_hinge": (1, "0T1R", (1,)),
    "rigid_perp": (0, "0T0R", (2,)),
    "two_ups": (6, "3T3R", (6,)),
    "ups_up": (3, "1T2R", (6,)),
    "prrrr_pair": (4, "3T1R", (6,)),
    "rrc_pair": (3, "3T0R", (5,)),
    "ups_ups_up": (3, "1T2R", (6, 6)),
    "rrc_quad": (3, "3T0R", (5, 4, 4)),
}

# fixtures whose ``analyze --trace`` human report is stored byte for byte
GOLDEN = ("tricept", "three_rrc")

_CLASS = re.compile(r"\d+T\d+R")
_DOF = re.compile(r"^  DOF = (-?\d+)$", re.M)
_TOTALS = re.compile(r"^  joint dof (\d+), loop ranks (\d+)$", re.M)
_LOOP = re.compile(r"^  loop \d+  xi_t=(\d+)  xi_r=(\d+)  xi=(\d+)$", re.M)
_CLASS_LINE = re.compile(r"^  class = (\S+)$", re.M)
_ORACLE = re.compile(r"^oracle: (\d+)/(\d+) agree$", re.M)


def _human_answer(stdout: str) -> tuple[int, str, tuple[int, ...], int]:
    dof = _DOF.search(stdout)
    totals = _TOTALS.search(stdout)
    cls = _CLASS_LINE.search(stdout)
    if not (dof and totals and cls):
        raise ValueError("report lacks the DOF, joint total or class line")
    loops = []
    for xi_t, xi_r, xi in _LOOP.findall(stdout):
        if int(xi_t) + int(xi_r) != int(xi):
            raise ValueError(f"loop rank xi={xi} is not xi_t + xi_r")
        loops.append(int(xi))
    if sum(loops) != int(totals.group(2)):
        raise ValueError("loop ranks do not sum to the stated total")
    return int(dof.group(1)), cls.group(1), tuple(loops), int(totals.group(1))


def _structured_answer(stdout: str) -> tuple[int, str, tuple[int, ...], int]:
    try:
        doc = json.loads(stdout)
        loops = []
        for loop in doc["loops"]:
            if loop["xi_t"] + loop["xi_r"] != loop["xi"]:
                raise ValueError(f"loop rank xi={loop['xi']} is not xi_t + xi_r")
            loops.append(loop["xi"])
        return doc["dof"], doc["class"], tuple(loops), doc["joint_dof_total"]
    except (json.JSONDecodeError, KeyError, TypeError) as err:
        raise ValueError(f"invalid structured report: {err!r}") from None


def check_op(
    path: str,
    fixture: str | None,
    structured: bool,
    seeds: int | None,
    code: int,
    stdout: str,
    stderr: str,
) -> str | None:
    """Return why the op failed, or None for a documented outcome.

    ``fixture`` names the fixture the file is, if any; ``seeds`` is the
    oracle seed count, or None when the oracle is off.
    """
    if code == 1:
        if fixture is not None:
            return "fixture rejected with exit 1"
        if not any(line.startswith(f"{path}: error: ") for line in stderr.splitlines()):
            return "exit 1 without the CLI's error message"
        return None
    if code == 3 and seeds is None:
        return "exit 3 without --oracle"
    if code == 3 and f"{path}: oracle mismatch on " not in stderr:
        return "exit 3 without the CLI's mismatch message"
    if code not in (0, 3):
        return f"exit {code}"
    try:
        dof, cls, loops, total = (_structured_answer if structured else _human_answer)(stdout)
    except ValueError as err:
        return str(err)
    if not _CLASS.fullmatch(str(cls)):
        return f"class {cls!r} is not of the form xTyR"
    if dof != total - sum(loops):
        return f"DOF {dof} != joint dof {total} - loop ranks {sum(loops)}"
    if fixture is not None and (dof, cls, loops) != FIXTURES[fixture]:
        return f"fixture answer {(dof, cls, loops)} != expected {FIXTURES[fixture]}"
    if seeds is not None:
        verdict = _ORACLE.search(stdout)
        if verdict is None:
            return "no oracle line"
        agree, total_seeds = int(verdict.group(1)), int(verdict.group(2))
        if total_seeds != seeds:
            return f"oracle ran {total_seeds} seeds, asked for {seeds}"
        if (code == 0) != (agree == total_seeds):
            return f"exit {code} with oracle {agree}/{total_seeds}"
        if fixture is not None and code != 0:
            return "fixture disagrees with the oracle"
    return None
