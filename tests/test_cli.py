"""Command line behavior: output shapes, exit codes, seeds, batches."""

from __future__ import annotations

import dataclasses
import functools
import json
import random

import pytest

from helpers import (
    labeled_random_mechanism,
    random_mechanism,
    reference_structured,
    reference_trace_lines,
)
from pmmobility import (
    InconsistentRelations,
    analyze_mechanism,
    parse_mechanism_file,
    parse_mechanism_text,
    render_human,
    render_json,
    render_structured,
)
from pmmobility.cli import main, run
from pmmobility.report import _fmt_row, _leaf_list
from pmmobility.subchains import SubchainKind

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


def test_file_saved_with_a_byte_order_mark_is_analyzed(runner, fixtures_dir, tmp_path):
    hinge = fixtures_dir / "toy_hinge.mech"
    bom = tmp_path / "toy_hinge.mech"
    bom.write_bytes(b"\xef\xbb\xbf" + hinge.read_bytes())
    expected = runner.invoke(main, ["analyze", str(hinge)])
    result = runner.invoke(main, ["analyze", str(bom)])
    assert (result.exit_code, result.stdout, result.stderr) == (0, expected.stdout, "")
    assert "mechanism toy-hinge" in result.stdout


@pytest.mark.parametrize(
    "variant, encode",
    [
        ("crlf", lambda data: data.replace(b"\n", b"\r\n")),
        ("cr", lambda data: data.replace(b"\n", b"\r")),
        ("bom", lambda data: b"\xef\xbb\xbf" + data),
    ],
)
def test_line_ends_and_a_byte_order_mark_give_the_same_report(
    runner, fixtures_dir, tmp_path, variant, encode
):
    for path in sorted(fixtures_dir.glob("*.mech")):
        copy = tmp_path / path.name
        copy.write_bytes(encode(path.read_bytes()))
        for options in ([], ["--trace", "--format", "structured"]):
            expected = runner.invoke(main, ["analyze", *options, str(path)])
            result = runner.invoke(main, ["analyze", *options, str(copy)])
            assert result.exit_code == expected.exit_code == 0
            assert result.stdout == expected.stdout, (variant, path.name)
            assert result.stderr == expected.stderr.replace(str(path), str(copy))


def test_unreadable_file_messages_are_exact(runner, tmp_path):
    # a file that cannot be read or decoded is named with the reason the
    # operating system or the UTF-8 codec gave
    bad = tmp_path / "bad.mech"
    bad.write_bytes(b"mechanism x\n\xff\xfe\n")
    absent = tmp_path / "absent.mech"
    result = runner.invoke(main, ["analyze", str(bad), str(absent), str(tmp_path)])
    assert result.exit_code == 2
    assert result.stderr == (
        f"{bad}: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte\n"
        f"{absent}: No such file or directory\n"
        f"{tmp_path}: Is a directory\n"
    )
    assert result.stdout == ""


def test_a_file_longer_than_one_read_is_read_whole(runner, fixtures_dir, tmp_path):
    # the mechanism starts past the first 64 KiB read, and a two-byte
    # character straddles the boundary, so only the joined bytes decode
    tricept = fixtures_dir / "tricept.mech"
    long = tmp_path / "tricept.mech"
    comment = "# " + "x" * ((1 << 16) - 3) + "\u00e9" + "x" * (1 << 16) + "\n"
    long.write_text(comment + tricept.read_text(encoding="utf-8"), encoding="utf-8")
    assert long.read_bytes()[(1 << 16) - 1 : (1 << 16) + 1] == "\u00e9".encode()
    result = runner.invoke(main, ["analyze", str(long)])
    assert result.exit_code == 0, result.stderr
    assert result.stdout == runner.invoke(main, ["analyze", str(tricept)]).stdout


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


@pytest.mark.parametrize(
    "name, question",
    [
        (
            "tricept",
            "cannot decide whether the axis of joint 1.3 is parallel to a line normal "
            "to joint 1.5",
        ),
        (
            "rrc_pair",
            "loop 1 (adding leg 2): cannot decide whether the axis of joint 1.1 is "
            "parallel to the axis of joint 2.1",
        ),
    ],
)
def test_strict_policy_names_the_first_open_question(runner, fixtures_dir, name, question):
    path = fixtures_dir / f"{name}.mech"
    result = runner.invoke(main, ["analyze", "--policy", "strict", str(path)])
    assert result.exit_code == 1
    assert result.stderr == f"{path}: error: {question}\n"
    assert result.stdout == ""


def test_strict_policy_fails_before_the_oracle(runner, fixtures_dir):
    path = fixtures_dir / "rrc_pair.mech"
    result = runner.invoke(main, ["analyze", "--policy", "strict", "--oracle", str(path)])
    assert result.exit_code == 1
    assert result.stderr == (
        f"{path}: error: loop 1 (adding leg 2): cannot decide whether the axis of "
        "joint 1.1 is parallel to the axis of joint 2.1\n"
    )
    assert "oracle:" not in result.stdout


def test_strict_batch_still_reports_decided_files(runner, fixtures_dir):
    hinge, tricept = fixtures_dir / "toy_hinge.mech", fixtures_dir / "tricept.mech"
    result = runner.invoke(main, ["analyze", "--policy", "strict", str(hinge), str(tricept)])
    assert result.exit_code == 1
    assert result.stdout == runner.invoke(main, ["analyze", str(hinge)]).stdout
    assert result.stderr.startswith(f"{tricept}: error: cannot decide whether ")


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


def test_human_oracle_lines_list_each_disagreeing_seed(runner, fixtures_dir, tmp_path):
    skew = tmp_path / "skew.mech"
    skew.write_text(SKEW_PAIR, encoding="utf-8")
    result = runner.invoke(main, ["analyze", "--oracle", "--seeds", "3", str(skew)])
    lines = result.stdout.splitlines()
    seeds = [line.split(":")[0] for line in lines if line.startswith("  seed ")]
    assert seeds == ["  seed 0", "  seed 1", "  seed 2"]
    tricept = str(fixtures_dir / "tricept.mech")
    result = runner.invoke(main, ["analyze", "--oracle", "--seeds", "3", tricept])
    assert "oracle: 3/3 agree" in result.stdout
    assert "  seed " not in result.stdout


def test_reports_leave_the_walkthrough_out_unless_asked(fixtures_dir):
    report = analyze_mechanism(parse_mechanism_file(fixtures_dir / "tricept.mech"))
    assert "\ntrace\n" not in render_human(report)
    assert "\ntrace\n" in render_human(report, trace=True)
    assert "trace" not in render_structured(report)
    assert "trace" in render_structured(report, trace=True)


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


def test_negative_seed_option_is_a_usage_error(runner, fixtures_dir, capsys):
    args = ["analyze", "--oracle", "--seed", "-5", str(fixtures_dir / "three_rrc.mech")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Invalid value for '--seed': -5 is not in the range x>=0." in result.output
    assert run(args) == 2
    assert "-5 is not in the range x>=0." in capsys.readouterr().err


def test_negative_seed_env_variable_is_a_usage_error(runner, fixtures_dir):
    result = runner.invoke(
        main,
        ["analyze", "--oracle", str(fixtures_dir / "three_rrc.mech")],
        env={"POC_SEED": "-1"},
    )
    assert result.exit_code == 2
    assert "Invalid value for '--seed': -1 is not in the range x>=0." in result.output


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


# Four mutually perpendicular revolute axes: the symbolic analysis runs, but
# no direction is left for the fourth axis when the oracle samples geometry.
# two perpendicular triads, 1.1-1.2-1.3 and 1.4-1.5-1.6, linked by three
# cross perpendiculars: realizable (1.4 || 1.3, 1.5 || 1.1, 1.6 || 1.2),
# but with no generic instance, so the graph accepts it and the oracle's
# draw leaves 1.6 no direction
TWO_TRIADS = """mechanism imposs

leg 1:
  8 2 2 0 0 2
  2 8 2 2 0 0
  2 2 8 0 2 0
  0 2 0 8 2 2
  0 0 2 2 8 2
  2 0 0 2 2 8

leg 2:
  8

platform moving:
  8 0
  0 8

platform fixed:
  8 0
  0 8
"""


@pytest.fixture()
def two_triads(tmp_path):
    path = tmp_path / "imposs.mech"
    path.write_text(TWO_TRIADS, encoding="utf-8")
    return path


def test_unsatisfiable_oracle_is_an_analysis_error(runner, two_triads):
    result = runner.invoke(main, ["analyze", "--oracle", str(two_triads)])
    assert result.exit_code == 1
    assert result.stderr == (
        f"{two_triads}: error: parallel class 1.6 has no direction perpendicular "
        "to all of 1.1, 1.4, 1.5\n"
    )
    assert result.stdout == ""


def test_unsatisfiable_geometry_is_not_sampled_without_oracle(runner, two_triads):
    result = runner.invoke(main, ["analyze", str(two_triads)])
    assert result.exit_code == 0
    assert "mechanism imposs" in result.stdout


def test_unsatisfiable_batch_still_reports_the_other_file(runner, fixtures_dir, two_triads):
    hinge = fixtures_dir / "toy_hinge.mech"
    result = runner.invoke(main, ["analyze", "--oracle", str(two_triads), str(hinge)])
    assert result.exit_code == 1
    assert "class 1.6 has no direction perpendicular to all of 1.1, 1.4, 1.5" in result.stderr
    assert "mechanism toy-hinge" in result.stdout
    assert "oracle: 20/20 agree" in result.stdout
    assert "mechanism imposs" not in result.stdout


def _structured_inputs(fixtures_dir):
    """(report, render keyword arguments) for every shape of document the
    structured output writes."""
    from pmmobility.oracle import verify_mechanism

    inputs = []
    for path in sorted(fixtures_dir.glob("*.mech")):
        report = analyze_mechanism(parse_mechanism_file(path))
        inputs += [(report, {}), (report, {"trace": True})]
    for mech in (
        parse_mechanism_file(fixtures_dir / "tricept.mech"),
        parse_mechanism_file(fixtures_dir / "toy_hinge.mech"),
        parse_mechanism_text(SKEW_PAIR),  # with oracle mismatches
    ):
        report = analyze_mechanism(mech)
        oracle = verify_mechanism(mech, report, range(3))
        inputs += [(report, {"oracle": oracle}), (report, {"trace": True, "oracle": oracle})]
    # the mechanism format requires two legs; a one-leg report has no loops
    report = inputs[0][0]
    one_leg = dataclasses.replace(report, legs=report.legs[:1], loop_ranks=(), sub_pocs=())
    inputs += [(one_leg, {}), (one_leg, {"trace": True})]
    # quotes and a backslash, a control character, an astral-plane character
    for name in ('café "q" a\\b', "bell\x07ring", "p\U0001d52dq"):
        text = SKEW_PAIR.replace("mechanism skew-pair", f"mechanism {name}")
        report = analyze_mechanism(parse_mechanism_text(text))
        assert report.mechanism == name
        inputs.append((report, {"trace": True}))
    return inputs


def _assert_matches_reference(report, kwargs):
    expected = reference_structured(report, **kwargs)
    assert render_json(report, **kwargs) == json.dumps(expected, indent=2)
    assert render_structured(report, **kwargs) == expected


def test_render_json_matches_reference(fixtures_dir):
    inputs = _structured_inputs(fixtures_dir)
    assert any(kwargs["oracle"].agreement < 3 for _, kwargs in inputs if "oracle" in kwargs)
    for report, kwargs in inputs:
        _assert_matches_reference(report, kwargs)


def _assert_human_trace_matches_reference(report, oracle=None):
    # the trace block follows the rest of the text after one blank line
    trace = "\n".join(reference_trace_lines(report))
    expected = render_human(report, oracle=oracle) + "\n" + trace + "\n"
    assert render_human(report, trace=True, oracle=oracle) == expected


def test_render_human_trace_matches_reference(fixtures_dir):
    for report, kwargs in _structured_inputs(fixtures_dir):
        _assert_human_trace_matches_reference(report, kwargs.get("oracle"))


@functools.lru_cache(maxsize=None)
def _random_reports(generator, seed: int, count: int) -> tuple:
    """The analyzable reports of count topologies that generator draws from
    random.Random(seed)."""
    rng = random.Random(seed)
    reports = []
    for _ in range(count):
        try:
            reports.append(analyze_mechanism(generator(rng)))
        except InconsistentRelations:
            continue
    return tuple(reports)


def test_render_json_matches_reference_on_random_reports():
    reports = _random_reports(labeled_random_mechanism, 11, 500)
    assert len(reports) == 500
    for report in reports:
        for kwargs in ({}, {"trace": True}):
            _assert_matches_reference(report, kwargs)


def test_render_human_trace_matches_reference_on_random_reports():
    for report in _random_reports(labeled_random_mechanism, 11, 500):
        _assert_human_trace_matches_reference(report)


def test_writers_match_reference_on_raw_random_reports():
    reports = _random_reports(random_mechanism, 1, 300)
    # three-loop walkthroughs, which the labeled draw of at most three legs
    # never reaches, as well as one-joint legs and full rows
    assert len(reports) == 167
    assert max(len(report.loop_ranks) for report in reports) == 3
    assert any(lp.leg.f == 1 for report in reports for lp in report.legs)
    assert any(sub.t == (3, 0, 0, 0, 0, 0) for report in reports for sub in report.sub_pocs)
    for report in reports:
        for kwargs in ({}, {"trace": True}):
            _assert_matches_reference(report, kwargs)
        _assert_human_trace_matches_reference(report)


def test_subchain_kinds_need_no_json_escape():
    # the trace writer puts them between quotes as they are
    for kind in SubchainKind:
        assert json.dumps(kind.value) == f'"{kind.value}"'


def test_structured_batch_matches_reference(runner, fixtures_dir):
    paths = [fixtures_dir / "tricept.mech", fixtures_dir / "three_rrc.mech"]
    result = runner.invoke(
        main, ["analyze", "--format", "structured", "--trace", *map(str, paths)]
    )
    assert result.exit_code == 0
    docs = [
        reference_structured(analyze_mechanism(parse_mechanism_file(path)), trace=True)
        for path in paths
    ]
    assert result.stdout == json.dumps(docs, indent=2) + "\n"


@pytest.mark.parametrize(
    "first, second", [([1], [True]), ([0], [False]), ([1, None], [True, None])]
)
def test_json_writer_keeps_equal_leaves_of_other_types_apart(first, second):
    # 1 == True and hash(1) == hash(True), so a memo keyed by values alone
    # would write whichever of the two lists came second as the first
    for order in ((first, second), (second, first)):
        _leaf_list.cache_clear()
        for value in order:
            for indent in ("", "  ", "    "):
                expected = json.dumps(value, indent=2).replace("\n", "\n" + indent)
                assert _leaf_list(indent, *value) == expected


def test_row_text_keeps_equal_entries_of_other_types_apart():
    rows = [((1, 0), "[1 0]"), ((True, 0), "[True 0]")]
    for order in (rows, rows[::-1]):
        _fmt_row.cache_clear()
        assert [_fmt_row(*row) for row, _ in order] == [text for _, text in order]


def test_structured_batch_with_oracle_is_indented_json(runner, fixtures_dir, tmp_path):
    skew = tmp_path / "skew.mech"
    skew.write_text(SKEW_PAIR, encoding="utf-8")
    files = [str(fixtures_dir / "tricept.mech"), str(fixtures_dir / "three_rrc.mech"), str(skew)]
    result = runner.invoke(
        main, ["analyze", "--format", "structured", "--oracle", "--seeds", "3", "--trace", *files]
    )
    assert result.exit_code == 3
    assert result.stdout == json.dumps(json.loads(result.stdout), indent=2) + "\n"
