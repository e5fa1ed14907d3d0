"""Command-line workbench: file format round-trips, commands, exit codes."""

import argparse
import json
import os

import pytest

from confspace import catalog
from confspace.algebra import TruncatedFreeCDGA
from confspace.cli import ParseError, parse_algebra_text, main, _load

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CATALOG_NAMES = ["point", "s2", "s3", "t2", "cp2", "s2xs2", "cs_s5",
                 "heis3", "heis3_s2", "cs_heis3_s2", "stb_s2xs2"]


def serialize_algebra(obj):
    """Render an Algebra or TruncatedFreeCDGA back to file text.

    Labels containing whitespace or '+' cannot be expressed in the
    line-oriented format and are rejected."""
    f = obj.field
    fieldname = f.name
    labels = (obj.gen_labels if isinstance(obj, TruncatedFreeCDGA)
              else obj.labels)
    for lab in labels:
        if any(ch in lab for ch in " \t+"):
            raise ValueError("label %r cannot be serialized" % lab)
    out = []

    def terms(el, labels):
        if not el:
            return "0"
        return " + ".join("%s*%s" % (c, labels[i])
                          for i, c in sorted(el.items()))

    if isinstance(obj, TruncatedFreeCDGA):
        out.append("cdga-free %s" % obj.name)
        out.append("field %s" % fieldname)
        for lab, d in zip(obj.gen_labels, obj.gen_degrees):
            out.append("generator %s degree %d" % (lab, d))
        for g, el in sorted(obj.d_on_gens.items()):
            if not el:
                continue
            parts = " + ".join("%s*%s" % (c, obj._mono_label(m))
                               for m, c in sorted(el.items()))
            out.append("d %s = %s" % (obj.gen_labels[g], parts))
        out.append("truncate %d" % obj.bound)
    else:
        out.append("algebra %s" % obj.name)
        out.append("field %s" % fieldname)
        for lab, d in zip(obj.labels, obj.degrees):
            out.append("basis %s degree %d" % (lab, d))
        out.append("unit %s" % obj.labels[obj.unit])
        if obj.top is not None:
            out.append("top %s" % obj.labels[obj.top])
        for i in range(obj.dim):
            for j in range(i, obj.dim):
                el = obj.mul_basis(i, j)
                if el and i != obj.unit and j != obj.unit:
                    out.append("product %s %s = %s"
                               % (obj.labels[i], obj.labels[j],
                                  terms(el, obj.labels)))
        if obj.differential:
            for i, el in sorted(obj.differential.items()):
                out.append("d %s = %s" % (obj.labels[i], terms(el, obj.labels)))
    out.append("end")
    return "\n".join(out) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- algebra file format -------------------------------------------------------

@pytest.mark.parametrize("nm", CATALOG_NAMES)
def test_round_trip_catalog(nm):
    a = catalog.load(nm)
    b = parse_algebra_text(serialize_algebra(a))
    assert type(b) is type(a)
    if isinstance(a, TruncatedFreeCDGA):
        assert b.gen_labels == a.gen_labels
        assert b.gen_degrees == a.gen_degrees
        assert b.bound == a.bound
        assert b.d_on_gens == a.d_on_gens
    assert b.labels == a.labels
    assert b.degrees == a.degrees
    assert b.unit == a.unit
    assert b.top == a.top
    from confspace.algebra import Overflow
    for i in range(a.dim):
        for j in range(a.dim):
            try:
                want = a.mul_basis(i, j)
            except Overflow:
                with pytest.raises(Overflow):
                    b.mul_basis(i, j)
                continue
            assert b.mul_basis(i, j) == want
        try:
            dwant = a.d_basis(i)
        except Overflow:
            with pytest.raises(Overflow):
                b.d_basis(i)
            continue
        assert b.d_basis(i) == dwant


def test_spaced_labels_cannot_be_serialized():
    # derived cohomology labels carry spaces; the format rejects them loudly
    with pytest.raises(ValueError):
        serialize_algebra(catalog.load("stb_s2xs2_h"))


def test_parse_minimal_algebra():
    a = parse_algebra_text("""
algebra two-sphere
field Q
basis 1 degree 0
basis w degree 2
unit 1
top w
product w w = 0
end
""")
    assert a.labels == ["1", "w"]
    assert a.mul_basis(1, 1) == {}


def test_parse_free_form_with_powers():
    c = parse_algebra_text("""
cdga-free model
field Q
generator x degree 2
generator u degree 3
d u = 1*x^2
truncate 6
end
""")
    assert isinstance(c, TruncatedFreeCDGA)
    assert "x^2" in c.labels


def test_comments_and_bare_coefficients():
    a = parse_algebra_text("""
# leading comment
algebra demo   # trailing comment
field Q
basis 1 degree 0
basis a#b degree 2
basis top degree 4
unit 1
product a#b a#b = top
end
""")
    # '#' inside a label is not a comment; a bare label means coefficient 1
    assert a.labels == ["1", "a#b", "top"]
    assert a.mul_basis(1, 1) == {2: a.field.one}


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as e:
        parse_algebra_text("algebra x\nfield Q\nbogus line\nend\n")
    assert e.value.line_no == 3


@pytest.mark.parametrize("text,fragment", [
    ("algebra x\nfield Z\nend\n", "field"),
    ("algebra x\nalgebra y\nend\n", "duplicate header"),
    ("field Q\nend\n", "must start"),
    ("algebra x\nbasis 1 degree 0\nunit 1\n", "missing end"),
    ("algebra x\nbasis 1 degree 0\nunit 1\nend\nmore\n", "after end"),
    ("algebra x\ngenerator y degree 2\nend\n", "other form"),
    ("algebra x\ntruncate 5\nend\n", "free form"),
    ("algebra x\nbasis 1 degree 0\nbasis a degree 2\nunit 1\n"
     "product a a = 3*zz\nend\n", "unknown label"),
    ("cdga-free x\ngenerator a degree 2\nend\n", "truncate"),
    ("cdga-free x\ngenerator a degree 2\nd b = 1*a\ntruncate 4\nend\n",
     "unknown generator"),
])
def test_parse_failures(text, fragment):
    with pytest.raises(ParseError) as e:
        parse_algebra_text(text)
    assert fragment in str(e.value)


@pytest.mark.parametrize("line,head", [("unit", "unit"), ("top", "top"),
                                       ("unit 1 extra", "unit")])
def test_unit_and_top_take_one_label_exit_two(tmp_path, capsys, line, head):
    path = tmp_path / "m.alg"
    path.write_text("algebra m\nbasis 1 degree 0\n%s\nend\n" % line)
    code, out, err = run(capsys, "total", "--input", str(path), "--n", "2")
    assert code == 2
    assert out == ""
    assert err == "error: line 3: expected: %s LABEL\n" % head


def test_huge_field_prime_refused_exit_two(capsys):
    code, out, err = run(capsys, "ct-e2", "--catalog", "s2", "--n", "2",
                         "--field", "F%d" % (10**400 + 7))
    assert code == 2
    assert out == ""
    assert err.startswith("error: p has 1329 bits")
    assert "Traceback" not in err


@pytest.mark.parametrize("field,coeff", [("F3", "1/3"), ("Q", "1/0"),
                                         ("F5", "-2/10")])
def test_coefficient_the_field_cannot_hold_exit_two(tmp_path, capsys, field,
                                                   coeff):
    # a number literal is never retried as a label: the error names the
    # coefficient and its line, not an unknown label
    path = tmp_path / "bad.alg"
    path.write_text("algebra bad\nfield %s\nbasis 1 degree 0\n"
                    "basis a degree 2\nbasis b degree 4\nunit 1\n"
                    "product a a = %s*b\nend\n" % (field, coeff))
    code, out, err = run(capsys, "total", "--input", str(path), "--n", "2",
                         "--kind", "bar", "--format", "json")
    assert code == 2
    assert out == ""
    assert "line 7: bad coefficient %r" % coeff in err
    assert "unknown label" not in err


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_free_model_file_over_any_field_exit_two(tmp_path, capsys, field):
    # the differential's coefficients are already field scalars when the
    # model is built; over F5 this once crashed with a TypeError
    path = tmp_path / "free.alg"
    path.write_text("cdga-free m\nfield %s\ngenerator x degree 2\n"
                    "generator u degree 3\nd u = 1*x^2\ntruncate 8\nend\n"
                    % field)
    code, out, err = run(capsys, "total", "--input", str(path), "--n", "2",
                         "--kind", "bar")
    assert code == 2
    assert out == ""
    assert err == ("error: nonzero component in degree 10 exceeds the "
                   "truncation bound\n")


def test_free_form_monomial_terms_still_parse():
    c = parse_algebra_text("cdga-free m\nfield Q\ngenerator y degree 2\n"
                           "generator u degree 3\nd u = y*y\ntruncate 6\n"
                           "end\n")
    y2 = c.labels.index("y^2")
    assert c.d_basis(c.labels.index("u")) == {y2: c.field.one}


def test_field_fp_round_trip():
    a = parse_algebra_text("""
algebra modfive
field F5
basis 1 degree 0
basis w degree 2
basis v degree 4
unit 1
product w w = 3*v
end
""")
    assert a.field.p == 5
    assert "field F5" in serialize_algebra(a)


# -- commands and exit codes -----------------------------------------------------

def test_check_collapse_passes(capsys):
    code, out, err = run(capsys, "check", "thm2", "--catalog", "s2", "--n", "3")
    assert code == 0
    assert "pass" in out


def test_point_guard_exit_two(capsys):
    code, out, err = run(capsys, "pages", "--catalog", "s2", "--n", "5")
    assert code == 2
    assert "error" in err


def test_missing_algebra_exit_two(capsys):
    code, out, err = run(capsys, "pages", "--n", "3")
    assert code == 2


def test_unknown_suite_exit_two(capsys):
    code, out, err = run(capsys, "check", "nope", "--catalog", "s2", "--n", "3")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["ct-e2", "--catalog", "s2", "--n", "2", "--page", "3"],
    ["pages", "--catalog", "s2", "--n", "2", "--seed", "1"],
    ["massey", "--catalog", "stb_s2xs2", "--n", "4", "x", "x", "y"],
    ["catalog", "--catalog", "s2"],
])
def test_options_a_command_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_undefined_massey_exit_one(capsys):
    code, out, err = run(capsys, "massey", "--catalog", "cp2",
                         "--format", "json", "h", "h", "h")
    assert code == 1
    assert json.loads(out)["defined"] is False


def test_massey_on_tangent_bundle(capsys):
    code, out, err = run(capsys, "massey", "--catalog", "stb_s2xs2",
                         "--format", "json", "x", "x", "y")
    assert code == 0
    data = json.loads(out)
    assert data["defined"] is True
    assert data["class"] == "[-1*x*t + y*u]"
    assert data["indeterminacy_dim"] == 0


def test_formal_negative_guard_exit_two(capsys):
    code, out, err = run(capsys, "check", "formal-negative",
                         "--catalog", "stb_s2xs2")
    assert code == 2


def test_json_output_is_byte_identical(capsys):
    args = ("check", "prop5", "--catalog", "t2", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "duration" not in out1 or json.loads(out1)["duration_ms"] == 0


def test_pages_reports_second_page(capsys):
    code, out, err = run(capsys, "pages", "--catalog", "s2", "--n", "3",
                         "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pages"]["E2"] == {"(0,6)": 1, "(1,2)": 1}
    assert data["pages"]["E3"] == data["pages"]["E2"]


def test_ct_e2_known_dims(capsys):
    code, out, err = run(capsys, "ct-e2", "--catalog", "t2", "--n", "2",
                         "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["total_by_degree"] == {"0": 1, "1": 4, "2": 5, "3": 2}


def test_ct_e2_rejects_differential_carrier(capsys):
    code, out, err = run(capsys, "ct-e2", "--catalog", "stb_s2xs2", "--n", "2")
    assert code == 2


def test_total_reduced_kind(capsys):
    code, out, err = run(capsys, "total", "--catalog", "s2", "--n", "2",
                         "--kind", "c", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["cohomology"] == {"2": 1, "4": 1}


def test_d2_command_detects_nonzero_differential(capsys):
    code, out, err = run(capsys, "d2", "--catalog", "stb_s2xs2", "--n", "4",
                         "--format", "json", "x", "x", "y", "y")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "nonzero in E2^{2,*}"
    assert data["zigzag_cross_validation"] == "agree"
    assert len(data["e23e34_component"]) == 3
    assert data["e23e24_component"] == {}
    assert any(k.startswith("Q") for k in data["residuals"]["e2334"])


def test_catalog_command(capsys):
    code, out, err = run(capsys, "catalog", "--format", "json")
    assert code == 0
    assert "stb_s2xs2" in json.loads(out)["names"]


def test_input_file_loading(tmp_path, capsys):
    path = tmp_path / "sphere.alg"
    path.write_text(serialize_algebra(catalog.load("s2")))
    code, out, err = run(capsys, "total", "--input", str(path), "--n", "2",
                         "--kind", "bar", "--format", "json")
    assert code == 0
    assert json.loads(out)["cohomology"] == {"2": 1, "4": 1}


def test_field_with_input_exit_two(tmp_path, capsys):
    # the file names its field; --field must not be silently ignored
    path = tmp_path / "sphere.alg"
    path.write_text(serialize_algebra(catalog.load("s2")))
    code, out, err = run(capsys, "pages", "--input", str(path),
                         "--field", "F3", "--n", "2")
    assert code == 2
    assert out == ""
    assert "--field" in err


def _free_model_file(tmp_path):
    path = tmp_path / "free.alg"
    path.write_text("cdga-free model\nfield Q\ngenerator x degree 2\n"
                    "generator u degree 3\nd u = 1*x^2\ntruncate 6\nend\n")
    return str(path)


def _load_args(**kw):
    return argparse.Namespace(**dict(
        dict(input=None, catalog=None, field=None, truncate=None), **kw))


def test_truncate_applies_to_free_model_file(tmp_path):
    path = _free_model_file(tmp_path)
    assert _load(_load_args(input=path)).bound == 6
    assert _load(_load_args(input=path, truncate=8)).bound == 8
    # 0 is a bound below the generator degrees, not an absent option
    with pytest.raises(ValueError, match="bound"):
        _load(_load_args(input=path, truncate=0))


@pytest.mark.parametrize("truncate", ["3", "0"])
def test_truncate_refused_where_it_does_not_apply(tmp_path, capsys, truncate):
    # it must not be silently ignored, like --field with --input
    path = tmp_path / "sphere.alg"
    path.write_text(serialize_algebra(catalog.load("s2")))
    for source in (["--catalog", "s2"], ["--input", str(path)]):
        code, out, err = run(capsys, "pages", *source, "--n", "2",
                             "--truncate", truncate, "--format", "json")
        assert code == 2
        assert out == ""
        assert "truncate" in err


def test_truncate_zero_refused_for_truncated_model(capsys):
    # refused while building the carrier, not read as the default bound
    code, out, err = run(capsys, "massey", "--catalog", "stb_s2xs2",
                         "--truncate", "0", "x", "x", "y")
    assert code == 2
    assert out == ""
    assert "bound" in err


@pytest.mark.parametrize("argv, option", [
    (["pages", "--page", "0"], "--page"),
    (["pages", "--page", "-1"], "--page"),
    (["pages", "--qmax", "-1"], "--qmax"),
    (["total", "--qmax", "-3"], "--qmax"),
])
def test_meaningless_page_and_window_refused(argv, option, capsys):
    # no page and no degree window select nothing: refuse, do not print a
    # misleading (all pages, or empty) answer
    code, out, err = run(capsys, *argv, "--catalog", "s2", "--n", "2",
                         "--format", "json")
    assert code == 2
    assert out == ""
    assert option in err


@pytest.mark.parametrize("argv, option", [
    (["formal-negative", "--catalog", "s2", "--n", "9"], "--n"),
    (["three-point-sequence", "--catalog", "s2", "--n", "3"], "--n"),
    (["four-point-corner", "--catalog", "s2", "--n", "4"], "--n"),
    (["prop5", "--catalog", "s2", "--n", "3"], "--n"),
    (["prop6", "--catalog", "s2", "--n", "4"], "--n"),
    (["anchors", "--catalog", "s2", "--n", "3"], "--n"),
    (["anchors", "--catalog", "s2"], "--catalog"),
    (["anchors", "--field", "F3"], "--field"),
    (["anchors", "--truncate", "4"], "--truncate"),
    (["anchors", "--input", "x.alg"], "--input"),
])
def test_check_refuses_options_the_suite_does_not_read(argv, option, capsys):
    code, out, err = run(capsys, "check", *argv, "--format", "json")
    assert code == 2
    assert out == ""
    assert option in err and argv[0] in err


def test_page_one_shows_only_the_first_page(capsys):
    code, out, err = run(capsys, "pages", "--catalog", "s2", "--n", "2",
                         "--page", "1", "--format", "json")
    assert code == 0
    assert list(json.loads(out)["pages"]) == ["E1"]


def test_input_and_catalog_conflict(capsys, tmp_path):
    path = tmp_path / "x.alg"
    path.write_text(serialize_algebra(catalog.load("s2")))
    code, out, err = run(capsys, "pages", "--input", str(path),
                         "--catalog", "s2", "--n", "2")
    assert code == 2


def test_table_format_prints_duration(capsys):
    code, out, err = run(capsys, "check", "anchors")
    assert code == 0
    assert "duration:" in out


# -- payloads recorded by the benchmark ----------------------------------------

def _recorded_payloads():
    with open(os.path.join(ROOT, "perfbench", "expected.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("job", ["d2 x x y y", "d2 x x x y", "d2 x x x x",
                                 "massey x x y", "massey x y y"])
def test_payload_matches_benchmark_record(job, capsys):
    command, *classes = job.split()
    argv = [command, "--catalog", "stb_s2xs2"]
    if command == "d2":
        argv += ["--n", "4"]
    code, out, err = run(capsys, *argv, *classes, "--format", "json")
    assert code == 0
    assert out == _recorded_payloads()[job]
