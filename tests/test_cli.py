from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixedsums
import mixedsums.cli as cli
import mixedsums.forms as forms
import mixedsums.survey as sv
from mixedsums.cli import main
from mixedsums.forms import Certificate, MixedForm
from mixedsums.oracle import MAX_ENUMERATED_N, spec_of
from mixedsums.survey import CATALOG
from mixedsums.three_squares import ThreeSquareRep

from test_survey import _free_pool


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ── represent ──────────────────────────────────────────────────────────────


def test_represent_json_golden(capsys):
    code, out, err = run(capsys, "represent", "4x2+2t+t", "2", "--json")
    assert code == 0
    assert out == '{"form":"4x2+2t+t","n":2,"x":0,"y":-2,"z":0}\n'
    assert err == ""


def test_represent_json_round_trips(capsys):
    code, out, _ = run(capsys, "represent", "x2+3t+t", "1234", "--json")
    assert code == 0
    cert = Certificate.from_json(out)
    assert cert.form is MixedForm.X2_3T_T and cert.n == 1234


def test_represent_human_zero(capsys):
    code, out, _ = run(capsys, "represent", "x2+3y2+t", "0")
    assert code == 0
    assert out == "x2+3y2+t: 0 = (0)^2 + 3*(0)^2 + T(0)\n"


def test_represent_csv(capsys):
    code, out, _ = run(capsys, "represent", "4x2+2t+t", "2", "--csv")
    assert code == 0
    assert out == "form,n,x,y,z\n4x2+2t+t,2,0,-2,0\n"


def test_verify_is_not_a_flag(capsys):
    # represent always re-evaluates its certificate, so there is nothing to ask for
    with pytest.raises(SystemExit) as exc:
        main(["represent", "3x2+2t+t", "77", "--verify", "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --verify" in capsys.readouterr().err


def test_represent_unknown_form(capsys):
    code, _, err = run(capsys, "represent", "bogus", "5")
    assert code == 2
    assert "unknown form" in err


def test_represent_negative_n(capsys):
    code, _, err = run(capsys, "represent", "x2+3y2+t", "-5")
    assert code == 2
    assert "natural" in err


def test_format_flags_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["represent", "x2+3y2+t", "1", "--json", "--csv"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_human_is_the_default_not_a_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["represent", "x2+3y2+t", "1", "--human"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --human" in capsys.readouterr().err


# ── verify-range ───────────────────────────────────────────────────────────

CSV_HEADER = "entry,lo,hi,verified,counterexamples,mode,wall_ms\n"


def test_verify_range_csv_golden(capsys):
    code, out, err = run(capsys, "verify-range", "0", "3", "--csv")
    assert code == 0
    assert err == ""
    assert out == CSV_HEADER + "".join(
        f"theorem2:{name},0,3,4,,constructive,0\n"
        for name in ("x2+3y2+t", "x2+3t+t", "x2+6t+t", "3x2+2t+t", "4x2+2t+t")
    )


def test_verify_range_json_fields(capsys):
    code, out, _ = run(capsys, "verify-range", "0", "20", "--mode", "oracle", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 5
    for r in reports:
        assert r["verified"] == 21
        assert r["counterexamples"] == []
        assert r["mode"] == "oracle"
        assert r["wall_ms"] == 0
        assert r["status"] == "constructive"


def test_verify_range_forms_subset(capsys):
    code, out, _ = run(capsys, "verify-range", "0", "10", "--forms", "x2+6t+t", "--json")
    assert code == 0
    reports = json.loads(out)
    assert [r["entry"] for r in reports] == ["theorem2:x2+6t+t"]


def test_verify_range_human_mentions_wall(capsys):
    code, out, _ = run(capsys, "verify-range", "0", "10")
    assert code == 0
    for line in out.strip().splitlines():
        assert "wall=" in line and "verified=11" in line


def test_verify_range_bad_bounds(capsys):
    code, _, err = run(capsys, "verify-range", "5", "2")
    assert code == 2
    assert "empty range" in err


def test_verify_range_bad_form_list(capsys):
    code, _, err = run(capsys, "verify-range", "0", "10", "--forms", "x9+t")
    assert code == 2
    assert "unknown form" in err


@pytest.mark.parametrize("forms", ["", ","])
def test_verify_range_empty_form_list(capsys, forms):
    code, out, err = run(capsys, "verify-range", "0", "3", "--forms", forms)
    assert (code, out) == (2, "")
    assert "no forms selected" in err


def test_jobs_do_not_change_bytes(capsys):
    outs = []
    for jobs in ("1", "4"):
        code, out, err = run(capsys, "verify-range", "0", "64", "--jobs", jobs, "--json")
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


def test_repeated_runs_identical(capsys):
    a = run(capsys, "survey", "0", "40", "--source", "theorem1_i", "--csv")
    b = run(capsys, "survey", "0", "40", "--source", "theorem1_i", "--csv")
    assert a == b


# ── survey ─────────────────────────────────────────────────────────────────


def test_survey_source_filter(capsys):
    code, out, _ = run(capsys, "survey", "0", "60", "--source", "theorem1_iii", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 15
    assert all(r["status"] == "empirical" for r in reports)
    assert all(r["counterexamples"] == [] for r in reports)


def test_survey_all_sources(capsys):
    code, out, _ = run(capsys, "survey", "0", "25", "--json")
    assert code == 0
    assert len(json.loads(out)) == 35


def test_survey_rejects_unknown_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "0", "10", "--source", "theorem9"])
    assert exc.value.code == 2
    capsys.readouterr()


# ── count and witnesses ────────────────────────────────────────────────────


def test_count_golden(capsys):
    assert run(capsys, "count", "1*sq+3*sq+1*tri", "0") == (0, "2\n", "")
    assert run(capsys, "count", "1*sq+3*sq+1*tri", "5") == (0, "12\n", "")


def test_count_accepts_form_names(capsys):
    code, out, _ = run(capsys, "count", "4x2+2t+t", "1")
    assert (code, out) == (0, "4\n")


def test_count_accepts_every_catalog_name(capsys):
    for e in CATALOG:
        if e.predicate is None:
            code, out, err = run(capsys, "count", e.name, "0", "--json")
            assert (code, err) == (0, ""), e.name
            assert json.loads(out)["form"] == str(spec_of(e.name))


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "1*sq+3*sq+1*tri", "5", "--json")
    assert code == 0
    assert out == '{"form":"1*sq+3*sq+1*tri","n":5,"count":12}\n'


def test_count_parse_error(capsys):
    code, _, err = run(capsys, "count", "1*sq+", "5")
    assert code == 2
    assert "expected three" in err


def test_count_bad_term_offset(capsys):
    code, _, err = run(capsys, "count", "1*sq+zz*sq+1*tri", "5")
    assert code == 2
    assert "offset 5" in err


@pytest.mark.parametrize("command", ["count", "witnesses"])
def test_enumeration_cap_exits_2(capsys, command):
    code, out, err = run(capsys, command, "1*sq+1*sq+1*sq", str(MAX_ENUMERATED_N + 1))
    assert (code, out) == (2, "")
    assert f"above {MAX_ENUMERATED_N}" in err


def test_witnesses_json_golden(capsys):
    code, out, _ = run(capsys, "witnesses", "1*sq+3*sq+1*tri", "0", "--json")
    assert code == 0
    assert out == (
        '{"form":"1*sq+3*sq+1*tri","n":0,"limit":10,'
        '"witnesses":[[0,0,-1],[0,0,0]],"truncated":false}\n'
    )


def test_witnesses_human_truncation(capsys):
    code, out, _ = run(capsys, "witnesses", "x2+3y2+t", "5", "--limit", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(-2, 0, -2)"
    assert lines[-1] == "... truncated at 3"


def test_witnesses_csv(capsys):
    code, out, _ = run(capsys, "witnesses", "1*sq+3*sq+1*tri", "0", "--csv")
    assert code == 0
    assert out == (
        "form,n,x,y,z\n"
        "1*sq+3*sq+1*tri,0,0,0,-1\n"
        "1*sq+3*sq+1*tri,0,0,0,0\n"
    )


# ── negative control and exit-code contract ────────────────────────────────


def test_negative_control_finds_exclusions(capsys):
    code, out, err = run(capsys, "negative-control", "0", "100", "--json")
    assert code == 1
    reports = json.loads(out)
    assert reports[0]["counterexamples"] == [
        7, 15, 23, 28, 31, 39, 47, 55, 60, 63, 71, 79, 87, 92, 95,
    ]
    assert reports[0]["verified"] == 86
    assert "counterexample: control:1*sq+1*sq+1*sq fails at n=7" in err


def test_negative_control_clean_prefix(capsys):
    code, out, err = run(capsys, "negative-control", "0", "6", "--csv")
    assert code == 0
    assert err == ""
    assert out == CSV_HEADER + "control:1*sq+1*sq+1*sq,0,6,7,,oracle,0\n"


def test_negative_control_counterexamples_joined_in_csv(capsys):
    code, out, _ = run(capsys, "negative-control", "0", "16", "--csv")
    assert code == 1
    assert "control:1*sq+1*sq+1*sq,0,16,15,7;15,oracle,0" in out


def test_negative_control_above_the_cap_exits_2(capsys):
    code, out, err = run(capsys, "negative-control", "0", str(MAX_ENUMERATED_N + 1))
    assert (code, out) == (2, "")
    assert f"above {MAX_ENUMERATED_N}" in err


def test_exit_codes_never_conflated(capsys):
    ok, _, _ = run(capsys, "represent", "x2+3y2+t", "5", "--json")
    counterexample, _, _ = run(capsys, "negative-control", "0", "10")
    usage, _, _ = run(capsys, "count", "1*sq+", "5")
    assert (ok, counterexample, usage) == (0, 1, 2)
    # a failed internal check exits 3, never 1, whether this process or a
    # pool worker raised it
    faults = []
    with pytest.MonkeyPatch.context() as mp:
        real = sv.representable_window
        mp.setattr(sv, "representable_window", lambda spec, lo, hi: real(spec, lo, hi) ^ 1 << 250)
        faults.append((run(capsys, "verify-range", "0", "500", "--mode", "oracle"), "n=250"))
        started = _free_pool(mp)
        faults.append((run(capsys, "survey", "0", "40000", "--jobs", "2"), "n=250"))
    assert started == [2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "is_three_square_feasible", lambda m: True)
        faults.append((run(capsys, "negative-control", "0", "20"), "control scan found"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "verify", lambda cert: False)
        faults.append((run(capsys, "represent", "x2+3y2+t", "5"), "failed re-verification"))
    # a bad triple from the three-square split is caught inside the
    # construction: a wrong one by the mod-3 alignment, and one whose
    # 3(x^2+y^2+z^2) is past 64 bits by an exact division
    for comps in ((1, 0, 0), (3 << 31, 3 << 31, 3 << 31)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forms, "three_squares", lambda m, c=comps: ThreeSquareRep(m, *c))
            faults.append((run(capsys, "represent", "x2+3y2+t", "5"), "construction broke"))
    # a certificate that does not verify is a fault of the program, never a
    # counterexample, whether the scan ran here or in a pool worker
    with pytest.MonkeyPatch.context() as mp:
        real = sv.verify
        mp.setattr(sv, "verify", lambda cert: cert.n != 250 and real(cert))
        faults.append((run(capsys, "verify-range", "0", "500"), "n=250"))
        started = _free_pool(mp)
        faults.append((run(capsys, "verify-range", "0", "1023", "--jobs", "2"), "n=250"))
    assert started == [2]
    for (code, out, err), message in faults:
        assert (code, out) == (3, "")
        assert "AssertionError" in err and message in err


def test_closed_pipe_exits_141_quietly():
    # the control's CSV row to 2*10^5 is about 215 KB, more than a pipe
    # holds, so writing it must fail once the reader has closed the pipe
    src = str(Path(mixedsums.__file__).parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "mixedsums.cli", "negative-control", "0", "200000", "--csv"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == CSV_HEADER.encode()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")
