"""The generated config schema: it is the committed file, and it accepts
exactly what ``parse_config`` accepts apart from the rules in PARSER_ONLY."""

import copy
import inspect
import json
import re
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paralift.coefficients import SCALAR_PRESETS
from paralift.config import FIELDS, PARSER_ONLY, config_schema, parse_config
from paralift.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_FILE = ROOT / "schemas" / "config.schema.json"
VALIDATOR = jsonschema.Draft202012Validator(
    json.loads(SCHEMA_FILE.read_text()))
PRESETS = [json.loads(path.read_text()) for path in
           sorted((ROOT / "src" / "paralift" / "presets").glob("*.json"))]
# A PARSER_ONLY line as a pattern: each "{...}" stands for a path or value.
PATTERNS = {key: re.compile(".+".join(
    re.escape(part) for part in re.split(r"\{[^}]*\}", line)))
    for key, line in PARSER_ONLY.items()}
BASE = {
    "manifold": {"model": "conformal_ball", "n": 3, "c": 1.0},
    "coefficients": {"a1": {"preset": "constant", "params": {"value": 1.0}}},
    "checks": ["almost_product"],
}
FAMILY = {"name": "rational",
          "u": {"preset": "constant", "params": {"value": 0.5}}}
# The property test's bases: the shipped presets, all natural_diagonal, and
# a Cruceanu structure, which reads no coefficient family.
CRUCEANU = {"manifold": {"model": "conformal_ball", "n": 3, "c": 1.0},
            "coefficients": {"kind": "cruceanu_p"},
            "checks": ["almost_product", "integrability"]}
BASES = PRESETS + [CRUCEANU]


def problems_of(doc):
    try:
        parse_config(doc)
    except ConfigError as exc:
        return exc.problems
    return []


def parser_only(problem):
    return [key for key, pattern in PATTERNS.items()
            if pattern.fullmatch(problem)]


def test_committed_schema_is_the_generated_one():
    # regenerate with: python3 tools/config_schema.py
    generated = json.dumps(config_schema(), indent=2) + "\n"
    assert SCHEMA_FILE.read_text() == generated


@pytest.mark.parametrize("name", sorted(SCALAR_PRESETS))
def test_preset_rows_are_the_factory_arguments(name):
    """A preset's FIELDS rows follow its factory's signature: the names in
    order, required exactly when there is no default, and equal defaults."""
    arguments = inspect.signature(SCALAR_PRESETS[name]).parameters.values()
    assert [f.name for f in FIELDS[name]] == [a.name for a in arguments]
    for f, a in zip(FIELDS[name], arguments):
        assert bool(f.required) is (a.default is inspect.Parameter.empty)
        assert f.default == (None if f.required else a.default)


def _edit(section, **fields):
    def edit(doc):
        doc.setdefault(section, {}).update(fields)
    return edit


def _family(**derive):
    def edit(doc):
        doc["coefficients"] = {"family": FAMILY, "derive": derive}
    return edit


def _drop_a1(doc):
    del doc["coefficients"]["a1"]


def _b1_without_completion(doc):
    doc["coefficients"].update(
        b1={"preset": "constant", "params": {"value": 0.5}},
        derive={"integrability": False, "product_completion": False})


def _cruceanu_compatibility(doc):
    doc["coefficients"] = {"kind": "cruceanu_p"}  # it reads no a1
    doc["checks"] = ["compatibility"]


def _unproportional(**fields):
    def edit(doc):
        doc["coefficients"].update(
            derive={"metric_proportionality": False}, **fields)
    return edit


# One document per PARSER_ONLY rule that breaks that rule and no other.
RULE_EDITS = {
    "finite": _edit("manifold", c=float("inf")),
    "integral": _edit("manifold", n=3.0),
    "strength": _edit("manifold", strength=0.2),
    "flat": _edit("manifold", model="flat"),
    "overflow": _edit("manifold", chart_radius=1e200),
    "radius": _edit("manifold", c=-5.0),
    "perturbed": _edit("manifold", model="perturbed_conformal", strength=-2.0),
    "factor": _edit("manifold", chart_radius=1e100),
    "family": lambda doc: doc["coefficients"].update(family=FAMILY),
    "cruceanu": _edit("coefficients", kind="cruceanu_q"),  # a1 is not read
    "family_b1": _family(integrability=True),
    "a1": _drop_a1,
    "b1_on": _edit("coefficients",
                   b1={"preset": "constant", "params": {"value": 0.5}}),
    "b1_off": _edit("coefficients", derive={"integrability": False}),
    "completion": _b1_without_completion,
    "curvature": _edit("coefficients", curvature=0.5),
    "metric": _unproportional(mu="derived"),
    "kind": _cruceanu_compatibility,
    "proportional": lambda doc: (_unproportional()(doc),
                                 doc.update(checks=["compatibility"])),
    "neutral": lambda doc: (doc["coefficients"].update(epsilon=1),
                            doc.update(checks=["closure"])),
}


def test_every_parser_only_rule_has_a_document():
    assert set(RULE_EDITS) == set(PARSER_ONLY)


@pytest.mark.parametrize("rule", sorted(RULE_EDITS))
def test_parser_only_rule_is_beyond_the_schema(rule):
    """The schema accepts the document; the parser refuses it by that rule."""
    doc = copy.deepcopy(BASE)
    assert not problems_of(doc) and VALIDATOR.is_valid(doc)
    RULE_EDITS[rule](doc)
    assert VALIDATOR.is_valid(doc)
    assert [parser_only(p) for p in problems_of(doc)] == [[rule]]


def test_schema_refuses_an_empty_output_path():
    """The nonempty rule of ``output`` is its row's, so the schema holds it
    (minLength) and the parser notes it by the row, null read as absent."""
    doc = copy.deepcopy(BASE)
    for output, problems in ((None, []), ("r.json", []), ("", [
            "output: expected a nonempty path"])):
        doc["output"] = output
        assert problems_of(doc) == problems
        assert VALIDATOR.is_valid(doc) == (not problems)


@pytest.mark.parametrize("coefficients", [
    {}, {"family": FAMILY}, {"kind": "cruceanu_p"}, {"kind": "cruceanu_q"},
], ids=["integrability", "family", "cruceanu_p", "cruceanu_q"])
def test_product_completion_stays_on_on_every_path(coefficients):
    """Switched off, the completion is refused on the paths beside RULE_EDITS'
    explicit b1, rather than echoed while the spec carries its result."""
    doc = copy.deepcopy(BASE)
    doc["coefficients"].update(coefficients)
    if "family" in coefficients or "kind" in coefficients:
        del doc["coefficients"]["a1"]
    doc["coefficients"].setdefault("derive", {})["product_completion"] = False
    assert VALIDATOR.is_valid(doc)
    assert problems_of(doc) == [PARSER_ONLY["completion"]]


# Values a field may be set to: every JSON type, bounds and their
# neighbours, non-finite and huge numbers, and scalar presets good and bad.
ODD = [None, True, False, "", "x", "derived", [], [1.0], {}, {"x": 1}, 0, -1,
       1, 2, 5.0, 2.5, -0.0, 5e-324, 10 ** 400, -10 ** 400]
SCALARS = [{"preset": "constant", "params": {"value": 2.0}},
           {"preset": "affine", "params": {"intercept": 1.0, "slope": 0.5}},
           {"preset": "exponential"},
           {"preset": "polynomial", "params": {"coeffs": [1.0, 0.0, 0.25]}},
           {"preset": "polynomial", "params": {"coeffs": []}},
           {"preset": "constant", "params": {}},
           {"preset": "constant", "params": {"value": float("nan")}},
           {"preset": "gauss", "params": {}},
           {"preset": "constant", "params": {"value": 1.0}, "x": 1}]
ANY = [st.sampled_from(ODD), st.integers(-40, 40), st.floats(),
       st.text(max_size=2), st.sampled_from(SCALARS)]
# Valid parameters of each preset, which a mutation then changes.
PARAMS = {"constant": {"value": 0.5}, "affine": {"intercept": 1.0, "slope": 2},
          "exponential": {}, "polynomial": {"coeffs": [1.0, 0.25]}}


def values(row):
    special = list(row.values) + [FAMILY, {"integrability": False}]
    for bound in (row.low, row.high):
        if bound is not None:
            special += [bound - 1, bound, bound + 1, float(bound)]
    lists = [st.lists(values(row.item), max_size=3)] if row.item else []
    return st.one_of(ANY + lists + [st.sampled_from(special)])


ROWS = [(path, row, values(row))
        for path, rows in FIELDS.items() for row in rows]


def scalars(section, path=""):
    """The paths of the scalar presets in ``section``."""
    return [p for key, value in section.items() if isinstance(value, dict)
            for p in ([f"{path}{key}"] if "preset" in value
                      else scalars(value, f"{path}{key}."))]


def section_at(doc, path):
    for key in filter(None, path.split(".")):
        if not isinstance(doc.get(key), dict):
            doc[key] = {}
        doc = doc[key]
    return doc


@st.composite
def mutated(draw):
    """A base document with one field of the table set, removed, or given an
    unknown neighbour key.  A preset's parameter is changed at one of the
    base's scalars, set to that preset first."""
    path, row, value = draw(st.sampled_from(ROWS))
    doc = copy.deepcopy(draw(st.sampled_from(
        PRESETS if path in PARAMS else BASES)))
    if path in PARAMS:
        scalar = draw(st.sampled_from(scalars(doc)))
        section_at(doc, scalar).update(preset=path,
                                       params=copy.deepcopy(PARAMS[path]))
        path = f"{scalar}.params"
    section = section_at(doc, path)
    change = draw(st.sampled_from(["set", "set", "set", "drop", "unknown"]))
    if change == "set":
        section[row.name] = draw(value)
    elif change == "drop":
        section.pop(row.name, None)
    else:
        target = section.get(row.name)
        (target if isinstance(target, dict) else section)["x"] = 1
    return doc


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_parser_and_schema_agree_on_single_field_mutations(doc):
    problems = problems_of(doc)
    if VALIDATOR.is_valid(doc):
        unexplained = [p for p in problems if not parser_only(p)]
        assert not unexplained, "schema accepts what the parser refuses"
    else:
        assert problems, "schema refuses what the parser accepts"


def test_shipped_presets_agree():
    for doc in BASES:
        assert not problems_of(doc) and VALIDATOR.is_valid(doc)
