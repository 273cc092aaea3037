"""End-to-end acceptance checks, one criterion per test.

Each test prints one PASS or FAIL line through the capture escape hatch,
so the lines stay visible in any run log.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

from helpers import REFERENCE_LEGS, leg_and_graph, random_mechanism
from pmmobility import (
    SubchainKind,
    analyze_leg,
    analyze_mechanism,
    catalogue_poc_matrices,
    normalize,
    parse_mechanism_file,
    verify_mechanism,
)
from pmmobility.cli import main as cli_main
from pmmobility.relations import InconsistentRelations, build_relation_graph
from test_poc_algebra import (
    CELLS,
    ROTATION_CELLS,
    TRANSLATION_CELLS,
    _cells_forms,
    _resolve_name,
    check_algebra_against_numeric,
)

CASE_STUDIES = ("tricept", "three_rrc")
CONSTRUCTED = (
    "toy_hinge",
    "rigid_perp",
    "two_ups",
    "ups_up",
    "prrrr_pair",
    "rrc_pair",
    "ups_ups_up",
    "rrc_quad",
)


@contextmanager
def criterion(capsys, number: int, description: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number}: {description}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {number}: {description}")


def test_criterion_1_tricept_case_study(capsys, fixtures_dir):
    with criterion(capsys, 1, "tricept: DOF 3, 1T2R, loops (6,6,6), P43 / R41 R42"):
        start = time.perf_counter()
        report = analyze_mechanism(parse_mechanism_file(fixtures_dir / "tricept.mech"))
        elapsed = time.perf_counter() - start
        assert report.dof == 3
        assert report.total_joint_dof == 21
        assert tuple(r.xi for r in report.loop_ranks) == (6, 6, 6)
        assert report.classification == "1T2R"
        assert report.translation_joints == ("P43",)
        assert report.rotation_joints == ("R41", "R42")
        assert elapsed < 1.0


def test_criterion_2_three_rrc_case_study(capsys, fixtures_dir):
    with criterion(capsys, 2, "3-RRC: DOF 3, 3T0R, loops (5,4)"):
        start = time.perf_counter()
        report = analyze_mechanism(parse_mechanism_file(fixtures_dir / "three_rrc.mech"))
        elapsed = time.perf_counter() - start
        assert report.dof == 3
        assert report.total_joint_dof == 12
        assert tuple(r.xi for r in report.loop_ranks) == (5, 4)
        assert report.classification == "3T0R"
        assert elapsed < 1.0


def test_criterion_3_reference_leg_matrices(capsys):
    with criterion(capsys, 3, "four reference leg matrices reduce to their POC rows"):
        for name, (matrix, poc) in REFERENCE_LEGS.items():
            leg, g = leg_and_graph(matrix)
            result = analyze_leg(leg, g)
            assert (result.matrix.t, result.matrix.r) == poc, name


def test_criterion_4_subchain_catalogue(capsys):
    with criterion(capsys, 4, "15 catalogued sub-chains collapse to 7 distinct POCs"):
        catalogue = catalogue_poc_matrices()
        multi = {
            kind: m
            for kind, m in catalogue.items()
            if kind not in (SubchainKind.SINGLE_R, SubchainKind.SINGLE_P)
        }
        assert len(multi) == 15
        assert len({(m.t, m.r) for m in multi.values()}) == 7


def test_criterion_5_rule_tables(capsys):
    with criterion(capsys, 5, "rule tables: all rank pairs, 200 randomized cases"):
        build_relation_graph(CELLS)  # the cell fixtures must stay satisfiable
        forms = _cells_forms()
        for table in (TRANSLATION_CELLS, ROTATION_CELLS):
            covered = set()
            for a_name, b_name, _, _ in table:
                pair = (_resolve_name(forms, a_name).rank, _resolve_name(forms, b_name).rank)
                covered.add(tuple(sorted(pair)))
            assert covered == {(i, j) for i in range(4) for j in range(i, 4)}
        assert check_algebra_against_numeric(200) >= 200


def test_criterion_6_oracle_equivalence(capsys, fixtures_dir):
    with criterion(capsys, 6, "oracle agrees 20/20 on case studies + 8 built mechanisms"):
        start = time.perf_counter()
        dofs = {}
        for name in CASE_STUDIES + CONSTRUCTED:
            mech = parse_mechanism_file(fixtures_dir / f"{name}.mech")
            report = analyze_mechanism(mech)
            dofs[name] = report.dof
            result = verify_mechanism(mech, report, seeds=range(20))
            assert result.all_agree, (name, [c.detail for c in result.comparisons if not c.agrees])
            assert result.agreement == 20
        assert dofs["toy_hinge"] == 1
        assert dofs["rigid_perp"] == 0
        assert time.perf_counter() - start < 30.0


def test_criterion_7_dof_identity(capsys, fixtures_dir):
    with criterion(capsys, 7, "dof + loop ranks = joint dof; normalize is a fixed point"):
        mechanisms = [
            parse_mechanism_file(fixtures_dir / f"{name}.mech")
            for name in CASE_STUDIES + CONSTRUCTED
        ]
        rng = random.Random(4242)
        generated = 0
        while generated < 100:
            mech = random_mechanism(rng)
            try:
                build_relation_graph(mech)
            except InconsistentRelations:
                continue
            mechanisms.append(mech)
            generated += 1
        for mech in mechanisms:
            report = analyze_mechanism(mech)
            g = build_relation_graph(mech)
            total = sum(leg.f for leg in mech.legs)
            assert report.dof + sum(r.xi for r in report.loop_ranks) == total
            for lp in report.legs:
                assert normalize(lp.matrix, g) == lp.matrix
            assert normalize(report.poc, g) == report.poc


def test_criterion_8_cli_round_trip(capsys, runner, fixtures_dir, golden_dir):
    with criterion(capsys, 8, "CLI structured round trip and byte-exact golden reports"):
        for name in CASE_STUDIES:
            path = fixtures_dir / f"{name}.mech"
            structured = runner.invoke(cli_main, ["analyze", "--format", "structured", str(path)])
            assert structured.exit_code == 0
            doc = json.loads(structured.output)
            assert json.loads(json.dumps(doc)) == doc
            report = analyze_mechanism(parse_mechanism_file(path))
            assert doc["dof"] == report.dof
            assert doc["class"] == report.classification
            assert doc["loops"] == [
                {"xi_t": r.xi_t, "xi_r": r.xi_r, "xi": r.xi} for r in report.loop_ranks
            ]
            assert doc["poc"]["t"] == list(report.poc.t)
            assert doc["poc"]["r"] == list(report.poc.r)
            assert doc["poc"]["owners"] == list(report.poc.owners)
            human = runner.invoke(cli_main, ["analyze", "--trace", str(path)])
            assert human.exit_code == 0
            assert human.output == (golden_dir / f"{name}.txt").read_text(encoding="utf-8")
