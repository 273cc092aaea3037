"""Command line behavior: output shapes, exit codes, seeds, batches."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from pmmobility import analyze_mechanism, parse_mechanism_file
from pmmobility.cli import main, run

SKEW_PAIR = """mechanism skew-pair

leg 1: R - R - R
rel 1 3 -

leg 2: R - R - R
rel 1 3 -

platform moving:
  8 -
  - 8

platform fixed:
  8 -
  - 8
"""


@pytest.fixture()
def runner():
    return CliRunner()


def test_analyze_tricept_success(runner, fixtures_dir):
    result = runner.invoke(main, ["analyze", str(fixtures_dir / "tricept.mech")])
    assert result.exit_code == 0
    assert "DOF = 3" in result.output
    assert "class = 1T2R" in result.output
    assert "translation along P43" in result.output
    assert "rotation about R41 and R42" in result.output


@pytest.mark.parametrize(
    "name, fmt",
    [
        # human cases keep the bare fixture name as their test id
        pytest.param(name, fmt, id=name if fmt == "human" else f"{name}-{fmt}")
        for name in ("tricept", "three_rrc")
        for fmt in ("human", "structured")
    ],
)
def test_trace_report_matches_golden(runner, fixtures_dir, golden_dir, name, fmt):
    suffix = "txt" if fmt == "human" else "json"
    result = runner.invoke(
        main, ["analyze", "--format", fmt, "--trace", str(fixtures_dir / f"{name}.mech")]
    )
    assert result.exit_code == 0
    assert result.output == (golden_dir / f"{name}.{suffix}").read_text(encoding="utf-8")


def test_structured_output_round_trips(runner, fixtures_dir):
    path = fixtures_dir / "tricept.mech"
    result = runner.invoke(main, ["analyze", "--format", "structured", str(path)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
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
    assert doc["poc"]["translation_joints"] == list(report.translation_joints)
    assert doc["poc"]["rotation_joints"] == list(report.rotation_joints)
    assert doc["format_version"] == 1
    assert "trace" not in doc


def test_structured_trace_included_when_asked(runner, fixtures_dir):
    result = runner.invoke(
        main,
        ["analyze", "--format", "structured", "--trace", str(fixtures_dir / "tricept.mech")],
    )
    doc = json.loads(result.output)
    assert [step["step"] for step in doc["trace"]] == list(range(1, len(doc["trace"]) + 1))


def test_batch_structured_is_an_array(runner, fixtures_dir):
    files = [str(fixtures_dir / "tricept.mech"), str(fixtures_dir / "three_rrc.mech")]
    result = runner.invoke(main, ["analyze", "--format", "structured", *files])
    assert result.exit_code == 0
    docs = json.loads(result.output)
    assert [d["mechanism"] for d in docs] == ["tricept", "three-rrc"]


def test_batch_structured_stays_an_array_when_one_file_fails(runner, fixtures_dir, tmp_path):
    files = [str(fixtures_dir / "tricept.mech"), str(tmp_path / "nope.mech")]
    result = runner.invoke(main, ["analyze", "--format", "structured", *files])
    assert result.exit_code == 2
    docs = json.loads(result.stdout)
    assert [d["mechanism"] for d in docs] == ["tricept"]


def test_batch_exit_code_is_the_worst(runner, fixtures_dir, tmp_path):
    missing = tmp_path / "nope.mech"
    result = runner.invoke(
        main, ["analyze", str(fixtures_dir / "tricept.mech"), str(missing)]
    )
    assert result.exit_code == 2
    assert "nope.mech" in result.stderr
    # the good file is still reported
    assert "mechanism tricept" in result.output


def test_non_utf8_file_is_a_parse_error_in_a_batch(runner, fixtures_dir, tmp_path):
    bad = tmp_path / "bad.mech"
    bad.write_bytes(b"mechanism x\n\xff\xfe\n")
    result = runner.invoke(
        main, ["analyze", str(bad), str(fixtures_dir / "tricept.mech")]
    )
    assert result.exit_code == 2
    assert f"{bad}: " in result.stderr
    assert "mechanism tricept" in result.stdout


def test_missing_file_exit_code(runner, tmp_path):
    result = runner.invoke(main, ["analyze", str(tmp_path / "absent.mech")])
    assert result.exit_code == 2
    assert "absent.mech" in result.stderr


def test_parse_error_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.mech"
    bad.write_text("mechanism broken\nleg 1: Q\n", encoding="utf-8")
    result = runner.invoke(main, ["analyze", str(bad)])
    assert result.exit_code == 2
    assert "line 2" in result.stderr


def test_strict_policy_analysis_error(runner, fixtures_dir):
    result = runner.invoke(
        main, ["analyze", "--policy", "strict", str(fixtures_dir / "rrc_pair.mech")]
    )
    assert result.exit_code == 1
    assert "error:" in result.stderr
    assert "cannot decide whether" in result.stderr


def test_oracle_agreement_line(runner, fixtures_dir):
    result = runner.invoke(
        main, ["analyze", "--oracle", str(fixtures_dir / "three_rrc.mech")]
    )
    assert result.exit_code == 0
    assert "oracle: 20/20 agree" in result.output


def test_oracle_disagreement_exit_code(runner, tmp_path):
    skew = tmp_path / "skew.mech"
    skew.write_text(SKEW_PAIR, encoding="utf-8")
    result = runner.invoke(main, ["analyze", "--oracle", "--seeds", "3", str(skew)])
    assert result.exit_code == 3
    assert "oracle mismatch on" in result.stderr
    assert "oracle: 0/3 agree" in result.output


def test_seed_env_variable(runner, fixtures_dir):
    result = runner.invoke(
        main,
        [
            "analyze",
            "--format",
            "structured",
            "--oracle",
            "--seeds",
            "2",
            str(fixtures_dir / "three_rrc.mech"),
        ],
        env={"POC_SEED": "7"},
    )
    doc = json.loads(result.output)
    assert doc["oracle"]["seeds"] == [7, 8]
    assert doc["oracle"]["all_agree"] is True


def test_seed_option_overrides_env(runner, fixtures_dir):
    result = runner.invoke(
        main,
        [
            "analyze",
            "--format",
            "structured",
            "--oracle",
            "--seeds",
            "2",
            "--seed",
            "3",
            str(fixtures_dir / "three_rrc.mech"),
        ],
        env={"POC_SEED": "7"},
    )
    doc = json.loads(result.output)
    assert doc["oracle"]["seeds"] == [3, 4]


def test_parser_warnings_go_to_stderr(runner, tmp_path):
    text = (
        "mechanism warny\n"
        "leg 1: R || R || P\n"
        "leg 2: R\n"
        "platform moving:\n  9 -\n  - 8\n"
        "platform fixed:\n  8 -\n  - 8\n"
    )
    path = tmp_path / "warny.mech"
    path.write_text(text, encoding="utf-8")
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 0
    assert "warning: leg 1: joint pairs (1,3) have no stated relation" in result.stderr
    assert "warning" not in result.stdout


def test_run_helper_exit_codes(fixtures_dir, capsys):
    assert run(["analyze", str(fixtures_dir / "toy_hinge.mech")]) == 0
    assert "DOF = 1" in capsys.readouterr().out
    assert run(["analyze", "--bogus"]) == 2
    assert run(["bogus-command"]) == 2
