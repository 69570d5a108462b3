"""Run configuration: one table of field rules, its parser and its schema.

``FIELDS`` declares each config field once, scalar-preset parameters
included.  ``parse_config`` reads a document in two stages and lists every
problem of the first stage that finds any, not just the first problem.
First every present value of every section is read by its row, in table
order, and the section's unknown keys after; a refused value is left out.
Only if no row noted a problem do the cross-field rules run, whose problem
lines ``PARSER_ONLY`` holds.  They read the typed values and which keys the
document gave, so no rule judges a value the document did not give.
``schemas/config.schema.json`` is the output of
:func:`config_schema`, never edited by hand: regenerate it with ``python3
tools/config_schema.py``.  The builders make the geometric objects.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from sys import float_info

from . import coefficients as co
from .errors import ConfigError
from .lifted import LiftedStructure
from .spaceform import CHART_RULES, SpaceForm, chart_problems
from .verify import CHECK_NAMES, CHECKS


@dataclass(frozen=True)
class Field:
    """One config field, as the parser and the schema both read it: ``type``
    is a JSON type, "enum" (of ``values``), "scalar" (a preset or one of
    ``values``), "list" (nonempty, each item read by the row ``item``) or
    "object" (the section at its path).  A bad value is noted as "expected
    <type>", for an enum "unknown <name> ...", or ``problem``, and left
    out.  Absent, the field is ``default``, after the problem ``required``
    if set; ``nullable`` reads null as absent."""

    name: str
    type: str
    default: object = None
    low: int | None = None
    high: int | None = None
    sign: str | None = None
    values: tuple = ()
    problem: str | None = None
    required: str | None = None
    nullable: bool = False
    item: Field | None = None


# The Python types of the JSON types a row may hold.
_TYPES = {"integer": int, "number": (int, float), "boolean": bool,
          "string": str, "object": dict}
# A row's sign rule (a number's sign, a path's length): its problem, its
# test and its schema keywords.
_SIGNS = {
    "positive": ("must be positive", lambda v: v > 0, {"exclusiveMinimum": 0}),
    "nonzero": ("must be nonzero", lambda v: v != 0, {"not": {"const": 0}}),
    "nonnegative": ("expected a nonnegative number", lambda v: v >= 0,
                    {"minimum": 0}),
    "nonempty": ("expected a nonempty path", lambda v: v != "",
                 {"minLength": 1}),
}
_MISSING = "required section missing"
_CHECKS = "required nonempty list of check names"
_ONLY_RATIONAL = "the only built-in family is 'rational'"
_NUMBER = Field("number", "number")
_TOLERANCE = Field("tolerance", "number", sign="nonnegative")
_CHECK = Field("check", "enum", values=tuple(sorted(CHECK_NAMES)))
_PRESET = Field("preset", "enum", values=tuple(sorted(co.SCALAR_PRESETS)))
_PARAMETER = "required parameter"

# Every config field, by the path of its section ("" is the document), and
# every parameter of a scalar preset, by the preset's name.
FIELDS = {
    "": (
        Field("manifold", "object", required=_MISSING, nullable=True),
        Field("coefficients", "object", required=_MISSING, nullable=True),
        Field("sampling", "object", nullable=True),
        Field("checks", "list", (), item=_CHECK, problem=_CHECKS,
              required=_CHECKS),
        Field("tolerances", "object", nullable=True,
              problem="expected an object of check -> number"),
        Field("output", "string", nullable=True, sign="nonempty",
              problem="expected a string path"),
    ),
    "manifold": (
        Field("model", "enum", "conformal_ball",
              values=("flat", "conformal_ball", "perturbed_conformal")),
        # At n = 32 the eight checks take about 0.5 s on 4 points, 77 MB peak.
        Field("n", "integer", 3, low=2, high=32),
        Field("c", "number", 1.0),
        Field("chart_radius", "number", 1.0, sign="positive"),
        Field("strength", "number", 0.1),
    ),
    "coefficients": (
        Field("kind", "enum", "natural_diagonal",
              values=("natural_diagonal", "cruceanu_p", "cruceanu_q")),
        Field("derive", "object", problem="expected an object of booleans"),
        Field("family", "object", nullable=True),
        Field("a1", "scalar"),
        Field("b1", "scalar"),
        Field("curvature", "number"),  # manifold.c unless given
        Field("allow_mismatched_c", "boolean", False),
        Field("epsilon", "enum", -1, values=(-1, 1),
              problem="must be -1 or +1"),
        Field("t_max", "number", 2.0, sign="positive"),
        Field("lambda", "scalar",
              {"preset": "constant", "params": {"value": 1.0}}),
        Field("mu", "scalar", "derived", values=("derived",)),
        Field("require_positive", "boolean", True),
    ),
    "coefficients.derive": tuple(Field(name, "boolean", True) for name in (
        "product_completion", "integrability", "metric_proportionality")),
    "coefficients.family": (
        Field("name", "enum", "rational", values=("rational",),
              problem=_ONLY_RATIONAL, required=_ONLY_RATIONAL),
        Field("alpha", "number", 1.0, sign="nonzero"),
        Field("beta", "number", 2.0, sign="nonzero"),
        Field("u", "scalar", {"preset": "constant", "params": {"value": 0.0}},
              required="required scalar preset"),
    ),
    "sampling": (
        # A drawn sample takes about 1.5 KB a point at n = 3 and 33 KB at
        # n = 32, and 2.9 KB and 169 KB once its stepped point is built:
        # 10,000 points hold about 29 MB at n = 3 and 1.7 GB at n = 32.
        Field("count", "integer", 100, low=1, high=10_000),
        Field("seed", "integer", 0, low=0),
        Field("p_max", "number", 2.0, sign="positive"),
    ),
    "tolerances": tuple(replace(_TOLERANCE, name=n) for n in CHECK_NAMES),
    # The factories' arguments, with their defaults.
    "constant": (Field("value", "number", required=_PARAMETER),),
    "affine": tuple(Field(name, "number", required=_PARAMETER)
                    for name in ("intercept", "slope")),
    "exponential": (Field("amplitude", "number", 1.0),
                    Field("rate", "number", 1.0)),
    "polynomial": (Field("coeffs", "list", item=_NUMBER, required=_PARAMETER,
                         problem="expected a nonempty list of numbers"),),
}
_ROWS = {(path, f.name): f for path, rows in FIELDS.items() for f in rows}
# The problem of an unknown key, by section where it is not "unknown field".
_UNKNOWN = {"coefficients.derive": "unknown flag; valid: "
            f"{sorted(f.name for f in FIELDS['coefficients.derive'])}",
            "tolerances": "unknown check name",
            **{name: f"unknown parameter for preset {name!r} (takes "
               f"{[f.name for f in FIELDS[name]]})"
               for name in co.SCALAR_PRESETS}}

# The problem lines of the rules the parser alone enforces, "{}" standing
# for a path or value; the schema's $comment lists them.
PARSER_ONLY = dict(
    finite="{}: must be finite",
    integral="{}: expected an integer",
    strength="manifold.strength: only valid for the perturbed_conformal model",
    flat="manifold.c: the flat model requires c = 0",
    **{key: f"manifold.{line}" for key, line in CHART_RULES.items()},
    family="coefficients.{}: not allowed together with a coefficient family",
    cruceanu="coefficients.{}: a Cruceanu structure builds from none of "
             "family, a1, b1 or the integrability and metric derivations",
    family_b1="coefficients.derive.integrability: the family already fixes "
              "b1; drop the flag or the family",
    a1="coefficients.a1: required (or give a family)",
    b1_on="coefficients.b1: not allowed when derive.integrability is set",
    b1_off="coefficients.b1: required when derive.integrability is off",
    completion="coefficients.derive.product_completion: must stay on; it is "
               "the only source of (a2, b2)",
    curvature="coefficients.curvature: integrability derivation uses {:g} but "
              "the manifold has c = {:g}; set allow_mismatched_c for negative "
              "tests",
    metric="coefficients.{}: only meaningful with "
           "derive.metric_proportionality on a natural_diagonal structure",
    kind="checks: {!r} needs the natural_diagonal structure (metric part)",
    proportional="checks: {!r} needs derive.metric_proportionality",
    neutral="checks: {!r} needs epsilon = -1",
)


@dataclass(frozen=True)
class RunConfig:
    """A validated, fully defaulted run description."""

    manifold: dict
    coefficients: dict
    sampling: dict
    checks: tuple
    tolerances: dict
    output: str | None

    def echo(self):
        """JSON-ready copy of the normalized config, for the report."""
        return copy.deepcopy({**vars(self), "checks": list(self.checks)})


def parse_config(document):
    """Validate a config document; raise :class:`ConfigError` with every
    problem of its rows or, if they have none, of the cross-field rules."""
    if not isinstance(document, dict):
        raise ConfigError(["config: expected a JSON object"])
    problems = [f"{key}: unknown top-level field" for key in document
                if ("", key) not in _ROWS]
    config = {f.name: _field(document, "", f.name, problems)
              for f in FIELDS[""]}
    if not problems:
        _rules(config, document, problems)
    if problems:
        raise ConfigError(problems)
    return RunConfig(**config)


def _field(section, path, name, problems, table=None):
    """Field ``name`` of the section at ``path`` by its row in ``FIELDS[table
    or path]``; when absent, the row's default, after its ``required``
    problem if it has one."""
    f, where = _ROWS[table or path, name], f"{path}.{name}".lstrip(".")
    if section.get(name) is not None or (name in section and not f.nullable):
        return _value(f, section[name], where, problems)
    if f.required:
        problems.append(f"{where}: {f.required}")
    return _defaults(where) if f.type == "object" else copy.deepcopy(f.default)


def _value(f, value, path, problems):
    """``value`` checked by row ``f``; on a problem, noted in ``problems``,
    None.  A section is walked by its rows."""
    if f.type == "scalar":
        if value in f.values:
            return value
        return _parse_scalar(value, path, problems)
    problem = None
    if f.type == "list":
        if not (isinstance(value, list) and value):
            problem = f.problem
        else:  # an item that fails its row is left out
            return [item for i, v in enumerate(value) if (item := _value(
                f.item, v, f"{path}[{i}]", problems)) is not None]
    elif f.type == "enum":
        if isinstance(value, bool) or value not in f.values:
            problem = f.problem or (f"unknown {f.name} {value!r}; valid: "
                                    f"{list(f.values)}")
    elif (isinstance(value, bool) is not (f.type == "boolean")
          or not isinstance(value, _TYPES[f.type])):
        article = "an" if f.type[0] in "aeiou" else "a"
        problem = f.problem or f"expected {article} {f.type}"
    # json.loads passes NaN and Infinity; huge integers overflow a float
    elif f.type == "number" and not abs(value) <= float_info.max:
        problem = "must be finite"
    elif f.low is not None and value < f.low:
        problem = f"must be at least {f.low}"
    elif f.high is not None and value > f.high:
        problem = f"must be at most {f.high}"
    elif f.sign and not _SIGNS[f.sign][1](value):
        problem = _SIGNS[f.sign][0]
    elif f.type == "object":
        return _walk(value, path, problems)
    if problem:
        problems.append(f"{path}: {problem}")
        return None
    if f.type == "enum":
        return f.values[f.values.index(value)]  # the number 1.0 is 1
    return float(value) if f.type == "number" else value


def _walk(section, path, problems, table=None):
    """The section at ``path`` read by the rows of ``FIELDS[table or path]``
    in table order, then unknown keys sorted.  A row with no value to give,
    refused or absent without a default, is left out."""
    table = table or path
    out = {f.name: value for f in FIELDS[table] if (value := _field(
        section, path, f.name, problems, table)) is not None}
    _unknown(section, path, [f.name for f in FIELDS[table]], problems,
             _UNKNOWN.get(table))
    return out


def _defaults(path):
    """An absent section: the defaults of its rows that have one."""
    return {f.name: (_defaults(f"{path}.{f.name}") if f.type == "object"
                     else copy.deepcopy(f.default)) for f in FIELDS[path]
            if f.default is not None or f.type == "object"}


def _unknown(section, path, names, problems, problem=None):
    for key in sorted(set(section) - set(names)):
        problems.append(f"{path}.{key}: {problem or 'unknown field'}")


def _rules(config, document, problems):
    """The cross-field rules, in order: the manifold's, then family, a1 and
    b1, the curvature, lambda and mu, then the checks.  They judge a config
    whose every row accepted its value, and read from ``document`` which
    keys were given.  They drop what the structure does not read: strength
    off the perturbed model; of family, a1 and b1, all but the source of
    a1 and b1 (a Cruceanu structure reads none of them, nor the
    integrability and metric derivations); lambda and mu without the metric
    derivation.  Every path needs the product completion."""
    mf, cf = config["manifold"], config["coefficients"]
    given = document["coefficients"]
    strength = mf.pop("strength")
    if mf["model"] == "perturbed_conformal":
        mf["strength"] = strength
    elif "strength" in document["manifold"]:
        problems.append(PARSER_ONLY["strength"])
    if mf["model"] == "flat" and mf["c"] != 0.0:
        problems.append(PARSER_ONLY["flat"])
    else:  # the chart rules of paralift.spaceform
        problems.extend(f"manifold.{line}"
                        for line in chart_problems(**_chart(mf)))
    derive, read = cf["derive"], ()
    if cf["kind"] != "natural_diagonal":
        problems.extend(PARSER_ONLY["cruceanu"].format(key) for key in (
            "family", "a1", "b1") if given.get(key) is not None)
        _derive_off(derive, given, ("integrability", "metric_proportionality"),
                    PARSER_ONLY["cruceanu"], problems)
    elif given.get("family") is not None:
        read = ("family",)
        _derive_off(derive, given, ("integrability",),
                    PARSER_ONLY["family_b1"], problems)
        problems.extend(PARSER_ONLY["family"].format(key)
                        for key in ("b1", "a1") if key in given)
    else:
        if "a1" not in given:
            problems.append(PARSER_ONLY["a1"])
        if derive["integrability"]:
            read = ("a1",)
            if "b1" in given:
                problems.append(PARSER_ONLY["b1_on"])
        else:
            read = ("a1", "b1")
            if "b1" not in given:
                problems.append(PARSER_ONLY["b1_off"])
    cf.update((key, cf.get(key) if key in read else None)
              for key in ("family", "a1", "b1"))
    if not derive["product_completion"]:
        problems.append(PARSER_ONLY["completion"])
    c = mf["c"]
    cf["curvature"] = cf.get("curvature", c)
    if (derive["integrability"] and cf["kind"] == "natural_diagonal"
            and cf["family"] is None and cf["curvature"] != c
            and not cf["allow_mismatched_c"]):
        problems.append(PARSER_ONLY["curvature"].format(cf["curvature"], c))
    if not derive["metric_proportionality"]:
        for key in ("lambda", "mu"):
            cf[key] = None
            if key in given:
                problems.append(PARSER_ONLY["metric"].format(key))
    for name in config["checks"]:
        needs = CHECKS[name].spec  # None, "metric" or "para_hermitian"
        if needs:
            if cf["kind"] != "natural_diagonal":
                problems.append(PARSER_ONLY["kind"].format(name))
            elif not derive["metric_proportionality"]:
                problems.append(PARSER_ONLY["proportional"].format(name))
        if needs == "para_hermitian" and cf["epsilon"] != -1:
            problems.append(PARSER_ONLY["neutral"].format(name))
    config["checks"] = tuple(dict.fromkeys(config["checks"]))


def _derive_off(derive, given, flags, problem, problems):
    """Each derive flag of ``flags`` off unless given; on, the ``problem``."""
    for flag in flags:
        if flag not in given.get("derive", {}):
            derive[flag] = False
        elif derive[flag]:
            problems.append(problem.format(f"derive.{flag}"))


def _chart(manifold):
    """The fields of the chart a manifold section names: all but its model."""
    return {key: v for key, v in manifold.items() if key != "model"}


def _parse_scalar(raw, path, problems):
    """A scalar preset as given: its name, then its params by the preset's
    rows, which fill in no default."""
    if not isinstance(raw, dict):
        problems.append(f"{path}: expected an object with 'preset' and "
                        "'params'")
        return None
    preset = _value(_PRESET, raw.get("preset"), f"{path}.preset", problems)
    params = raw.get("params", {})
    if preset and isinstance(params, dict):
        _walk(params, f"{path}.params", problems, preset)
    elif preset:
        problems.append(f"{path}.params: expected an object")
    _unknown(raw, path, ("preset", "params"), problems)
    return {"preset": preset, "params": copy.deepcopy(params)}


def read_flag(path, name, value, flag, problems):
    """The command line's ``value`` for field ``name`` of the section at
    ``path``, checked by its row, or None if refused; problems are noted
    under ``flag``."""
    return _value(_ROWS[path, name], value, flag, problems)


def config_schema():
    """The JSON Schema of a run config: the rows of ``FIELDS``, with the
    scalar presets' as ``$defs``, and ``PARSER_ONLY`` as its ``$comment``."""
    presets = [{"required": ["params"] if any(
        f.required for f in FIELDS[name]) else [], "properties": {
            "preset": {"const": name},
            "params": _row_schema(Field("params", "object"), name)}}
        for name in co.SCALAR_PRESETS]
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$id": "paralift/config.schema.json",
        "title": "paralift run configuration",
        "$comment": "Generated by paralift.config.config_schema.  Problems "
                    "only the parser finds ({} is a path or value; integer "
                    "admits 5.0): " + " | ".join(PARSER_ONLY.values()),
        "$defs": {"scalar_preset": {
            "type": "object", "required": ["preset"],
            "additionalProperties": False, "oneOf": presets,
            "properties": {"preset": {"enum": list(co.SCALAR_PRESETS)},
                           "params": {"type": "object"}}}},
        **_row_schema(Field("", "object"), ""),
    }


def _row_schema(f, where):
    """The schema of row ``f``, found at path ``where``."""
    if f.type == "object":
        rows = FIELDS[where]
        out = {"type": "object", "additionalProperties": False, "properties": {
            r.name: _row_schema(r, f"{where}.{r.name}".lstrip("."))
            for r in rows}, "required": [r.name for r in rows if r.required]}
    elif f.type == "scalar":
        out = {"$ref": "#/$defs/scalar_preset"}
        if f.values:
            out = {"oneOf": [{"const": v} for v in f.values] + [out]}
    elif f.type == "enum":
        out = {"enum": list(f.values)}
    elif f.type == "list":
        out = {"type": "array", "minItems": 1,
               "items": _row_schema(f.item, where)}
    else:
        out = {"type": f.type, **(_SIGNS[f.sign][2] if f.sign else {})}
    if f.nullable and not f.required:
        out["type"] = [out["type"], "null"]
    extra = {"minimum": f.low, "maximum": f.high,
             "default": None if f.required else f.default}
    out.update((key, v) for key, v in extra.items() if v is not None)
    return out


# ---------------------------------------------------------------------------
# Builders: validated config -> geometric objects.


def make_scalar(desc):
    """Build a :class:`ScalarFamily` from a normalized preset description."""
    return co.SCALAR_PRESETS[desc["preset"]](**desc["params"])


def build_structure(config):
    """The :class:`LiftedStructure` described by a validated config, on the
    space form of its ``manifold`` section."""
    mf, cf = config.manifold, config.coefficients
    m = SpaceForm(**_chart(mf))
    if cf["kind"] == "cruceanu_p":
        return LiftedStructure(m=m)
    shared = {key: cf[key] for key in ("epsilon", "t_max")}
    if cf["kind"] == "cruceanu_q":  # Cruceanu's Q: P1 = g, P2 = g^-1
        spec = co.almost_product_spec(co.constant(1.0), **shared)
    elif (fam := cf["family"]) is not None:
        spec = co.rational_spec(fam["alpha"], fam["beta"],
                                make_scalar(fam["u"]), **shared)
    elif cf["derive"]["integrability"]:
        spec = co.integrable_spec(make_scalar(cf["a1"]),
                                  curvature=cf["curvature"], **shared)
    else:
        spec = co.almost_product_spec(make_scalar(cf["a1"]),
                                      make_scalar(cf["b1"]), **shared)
    if cf["derive"]["metric_proportionality"]:
        mu = None if cf["mu"] == "derived" else make_scalar(cf["mu"])
        spec = co.with_metric(spec, make_scalar(cf["lambda"]), mu,
                              require_positive=cf["require_positive"])
    return LiftedStructure(m=m, spec=spec)
