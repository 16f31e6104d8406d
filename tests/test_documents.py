import json

import numpy as np
import pytest

from oscontrol import ChainSpec, DocumentError, ModelDocument, ScheduleDocument, build_chain
from oscontrol import documents
from oscontrol.documents import data_digest, render_report


def _chain_doc(n=3, g=0.2):
    return {"chain": {"n": n, "omega": 1.0, "g1": g, "g2": g, "omega1": 1.0, "chi": 1.0}}


def _explicit_doc():
    return {
        "modes": 2,
        "hamiltonians": [
            {
                "name": "drift",
                "terms": [
                    {"kind": "number", "mode": 1, "coeff": 1.0},
                    {"kind": "number", "mode": 2, "coeff": 1.0},
                    {"kind": "hop", "modes": [1, 2], "coeff": 0.2},
                    {"kind": "pair", "modes": [1, 2], "coeff": 0.2},
                ],
            },
            {"name": "local_rotation", "terms": [{"kind": "number", "mode": 1, "coeff": 1.0}]},
            {"name": "local_squeeze", "terms": [{"kind": "squeeze", "mode": 1, "coeff": 1.0}]},
        ],
        "drift": "drift",
        "controls": ["local_rotation", "local_squeeze"],
    }


def test_chain_shorthand_matches_builder():
    # no field is at its default, so each one must reach the builder
    fields = {"n": 3, "omega": 1.5, "g1": 0.1, "g2": 0.3, "omega1": 2.0, "chi": 0.5}
    doc = ModelDocument.from_document({"chain": fields})
    model = build_chain(ChainSpec(**fields))
    assert np.array_equal(doc.hamiltonians["H0"].A, model.drift.A)
    assert np.array_equal(doc.hamiltonians["H1"].A, model.controls[0].A)
    assert np.array_equal(doc.hamiltonians["H2"].A, model.controls[1].A)
    assert doc.drift == "H0"
    assert doc.controls == ("H1", "H2")


def test_explicit_terms_match_builder():
    doc = ModelDocument.from_document(_explicit_doc())
    model = build_chain(ChainSpec(n=2, omega=1.0, g1=0.2, g2=0.2))
    assert np.array_equal(doc.hamiltonians["drift"].A, model.drift.A)
    cm = doc.control_model()
    assert cm.num_controls == 2
    assert np.array_equal(cm.controls[1].A, model.controls[1].A)


def test_explicit_matrix_entry():
    doc = ModelDocument.from_document(
        {
            "modes": 1,
            "hamiltonians": [{"name": "free", "matrix": [[0.0, 0.0], [0.0, 2.0]]}],
            "drift": "free",
            "controls": [],
        }
    )
    assert np.array_equal(doc.hamiltonians["free"].A, np.diag([0.0, 2.0]))


def test_round_trip_is_bit_exact():
    for raw in (_chain_doc(), _explicit_doc()):
        doc = ModelDocument.from_document(raw)
        text = json.dumps(doc.to_document())
        doc2 = ModelDocument.from_document(json.loads(text))
        assert set(doc.hamiltonians) == set(doc2.hamiltonians)
        for name, H in doc.hamiltonians.items():
            assert np.array_equal(H.A, doc2.hamiltonians[name].A)  # bit-equal


def test_unknown_term_kind_names_the_field():
    bad = _explicit_doc()
    bad["hamiltonians"][0]["terms"][2]["kind"] = "hopp"
    with pytest.raises(DocumentError, match=r"hamiltonians\[0\].terms\[2\].kind"):
        ModelDocument.from_document(bad)


def test_document_errors_carry_paths():
    with pytest.raises(DocumentError, match="modes"):
        ModelDocument.from_document({"hamiltonians": [], "drift": "x", "controls": []})
    with pytest.raises(DocumentError, match="drift"):
        bad = _explicit_doc()
        bad["drift"] = "nope"
        ModelDocument.from_document(bad)
    with pytest.raises(DocumentError, match=r"controls\[0\]"):
        bad = _explicit_doc()
        bad["controls"] = ["nope"]
        ModelDocument.from_document(bad)
    with pytest.raises(DocumentError, match="duplicate"):
        bad = _explicit_doc()
        bad["hamiltonians"][1]["name"] = "drift"
        ModelDocument.from_document(bad)
    with pytest.raises(DocumentError, match="chain"):
        ModelDocument.from_document({"chain": {"n": 2}, "modes": 2})
    with pytest.raises(DocumentError, match="matrix"):
        ModelDocument.from_document(
            {
                "modes": 1,
                "hamiltonians": [{"name": "bad", "matrix": [[0.0, 1.0], [0.0, 0.0]]}],
                "drift": "bad",
                "controls": [],
            }
        )
    with pytest.raises(DocumentError, match="terms.*matrix|exactly one"):
        ModelDocument.from_document(
            {
                "modes": 1,
                "hamiltonians": [{"name": "bad"}],
                "drift": "bad",
                "controls": [],
            }
        )


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"modes\": 1,\n")
    with pytest.raises(DocumentError, match="line"):
        ModelDocument.from_path(path)


def test_schedule_parsing_and_errors():
    doc = ScheduleDocument.from_document(
        {
            "segments": [
                {"duration": 0.5, "controls": [1.0, 2.0]},
                {"duration": 1.5, "controls": [0.0, -1.0]},
            ],
            "initial_covariance": [[0.5, 0.0], [0.0, 0.5]],
        }
    )
    assert doc.schedule.total_duration == pytest.approx(2.0)
    assert doc.initial_covariance.shape == (2, 2)

    with pytest.raises(DocumentError, match=r"segments\[0\]"):
        ScheduleDocument.from_document({"segments": [{"duration": -1.0, "controls": []}]})
    with pytest.raises(DocumentError, match=r"segments\[1\].controls\[0\]"):
        ScheduleDocument.from_document(
            {
                "segments": [
                    {"duration": 1.0, "controls": []},
                    {"duration": 1.0, "controls": ["x"]},
                ]
            }
        )
    with pytest.raises(DocumentError, match="segments"):
        ScheduleDocument.from_document({})


def test_schedule_round_trip():
    raw = {
        "segments": [
            {"duration": 0.7, "controls": [0.1, -0.9]},
            {"duration": 2, "controls": [1, 0]},
            {"duration": 1.0 / 3.0, "controls": [-1e-300, 7.25]},
            {"duration": 5e-324, "controls": [0.0, -0.0]},
        ],
        "initial_covariance": [[1.0, 0.25], [0.25, 1.0]],
    }
    doc = ScheduleDocument.from_document(raw)
    assert doc.schedule.segments.shape == (4, 3)
    assert doc.schedule.segments[1].tolist() == [2.0, 1.0, 0.0]
    doc2 = ScheduleDocument.from_document(json.loads(json.dumps(doc.to_document())))
    assert np.array_equal(doc2.schedule.segments, doc.schedule.segments)
    assert np.array_equal(doc2.initial_covariance, doc.initial_covariance)
    assert doc2.to_document() == doc.to_document()


def test_render_report_is_canonical_and_17_digits():
    report = {"x": 1.0 / 3.0, "flag": True, "none": None, "list": [1, 2.5], "s": "a\"b"}
    text = render_report(report)
    assert "0.33333333333333331" in text  # 17 significant digits
    assert render_report(report) == text  # deterministic
    parsed = json.loads(text)
    assert parsed["x"] == 1.0 / 3.0  # float survives the round trip
    assert parsed["s"] == 'a"b'


def test_render_report_rejects_non_finite():
    with pytest.raises(ValueError):
        render_report({"bad": float("nan")})


def test_data_digest_is_stable():
    a = data_digest({"n": 3, "omega": 1.0})
    b = data_digest({"n": 3, "omega": 1.0})
    assert a == b and a.startswith("sha256:")
    assert data_digest({"n": 4, "omega": 1.0}) != a


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"duration": 1.0, "controls": [0.5, True]},
         "segments[4999].controls[1]: expected a number, got bool"),
        ([1.0], "segments[4999]: expected an object"),
        ({"controls": [0.5, 0.5]}, "segments[4999]: missing required field 'duration'"),
        ({"duration": "1", "controls": [0.5, 0.5]},
         "segments[4999].duration: expected a number, got str"),
        ({"duration": 1.0}, "segments[4999]: missing required field 'controls'"),
        ({"duration": 1.0, "controls": 0.5},
         "segments[4999].controls: expected a list of numbers"),
        ({"duration": 0.0, "controls": [0.5, 0.5]},
         "segments[4999]: segment duration must be positive and finite, got 0.0"),
        ({"duration": 1.0, "controls": [0.5, float("nan")]},
         "segments[4999]: segment control values must be finite"),
        ({"duration": 1.0, "controls": [[0.5], 0.5]},
         "segments[4999].controls[0]: expected a number, got list"),
        ({"duration": 1.0, "controls": [0.5]},
         "segments[4999]: segment supplies 1 control values, segments[0] supplies 2"),
        ({"duration": 10 ** 400, "controls": [0.5, 0.5]},
         "segments[4999].duration: expected a number within the double range, "
         "got a larger integer"),
        ({"duration": 1.0, "controls": [0.5, -10 ** 400]},
         "segments[4999].controls[1]: expected a number within the double range, "
         "got a larger integer"),
    ],
)
def test_schedule_error_in_last_of_5000_segments_names_its_field(entry, message):
    # field paths are built only once a segment fails; the message must
    # still name the offending field, deep into a long schedule
    segments = [{"duration": 0.1, "controls": [0.5, -0.5]} for _ in range(4999)]
    with pytest.raises(DocumentError) as info:
        ScheduleDocument.from_document({"segments": segments + [entry]})
    assert str(info.value) == message


def _random_number(rng, positive=False):
    """An int or a float, some of them beyond int64 or 2^53, or past the 53-bit mantissa."""
    kind = rng.integers(5)
    sign = 1 if positive else int(rng.choice([-1, 1]))
    if kind == 0:
        return sign * int(rng.integers(1, 1000))
    if kind == 1:
        return sign * (2 ** int(rng.integers(53, 70)) + int(rng.integers(1, 1000)))
    if kind == 2:
        return sign * 10 ** int(rng.integers(19, 300)) + 1
    if kind == 3:
        return sign * float(rng.uniform(1e-3, 10.0))
    return sign * float(rng.uniform(0.5, 1.0)) * 10.0 ** int(rng.integers(-300, 300))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_column_parse_matches_the_per_entry_path(m, monkeypatch):
    # the column-wise array of a regular document, against the per-entry path
    # that builds one row per segment, bit for bit
    rng = np.random.default_rng(70 + m)
    for k in (0, 1, 5, 400):
        raw = [
            {"duration": _random_number(rng, positive=True),
             "controls": [_random_number(rng) for _ in range(m)]}
            for _ in range(k)
        ]
        assert documents._schedule_columns(raw) is not None
        columns = ScheduleDocument.from_document({"segments": raw}).schedule.segments
        with monkeypatch.context() as patch:
            patch.setattr(documents, "_schedule_columns", lambda raw: None)
            rows = ScheduleDocument.from_document({"segments": raw}).schedule.segments
        assert columns.shape == rows.shape == ((k, 1 + m) if k else (0, 1))
        assert columns.tobytes() == rows.tobytes()


@pytest.mark.parametrize(
    "document, kind, path",
    [
        ({"segments": [{"duration": 10 ** 400, "controls": [0.5]}]},
         ScheduleDocument, "segments[0].duration"),
        ({"segments": [{"duration": 1.0, "controls": [0.5]}],
          "initial_covariance": [[1.0, 0.0], [0.0, 10 ** 400]]},
         ScheduleDocument, "initial_covariance[1][1]"),
        ({"modes": 1, "hamiltonians": [{"name": "H0", "matrix": [[-10 ** 400, 0], [0, 1]]}],
          "drift": "H0", "controls": []},
         ModelDocument, "hamiltonians[0].matrix[0][0]"),
        ({"chain": {"n": 3, "omega": 10 ** 400}}, ModelDocument, "chain.omega"),
    ],
)
def test_an_integer_beyond_the_double_range_names_its_field(document, kind, path):
    # once an uncaught OverflowError from float(): a traceback, not a document error
    with pytest.raises(DocumentError) as info:
        kind.from_document(document)
    assert str(info.value) == (
        f"{path}: expected a number within the double range, got a larger integer"
    )
