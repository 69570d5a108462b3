"""Run configuration: one table of field rules, its parser and its schema.

``FIELDS`` declares each config field once, scalar-preset parameters
included.  ``parse_config`` walks it, adds the cross-field rules whose
problem lines ``PARSER_ONLY`` holds, and lists every problem, not just the
first.  ``schemas/config.schema.json`` is the output of
:func:`config_schema`, never edited by hand: regenerate it with ``python3
tools/config_schema.py``.  The builders make the geometric objects.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from functools import partial
from sys import float_info

from . import coefficients as co
from .errors import ConfigError
from .lifted import LiftedStructure
from .spaceform import CHART_RULES, ChartModel, SpaceForm, chart_problems
from .verify import CHECK_NAMES, CHECKS


@dataclass(frozen=True)
class Field:
    """One config field, as the parser and the schema both read it: ``type``
    is a JSON type, "enum" (of ``values``), "scalar" (a preset or one of
    ``values``), "list" (nonempty, each item read by the row ``item``) or
    "object" (the section at its path).  A bad value is noted as "expected
    <type>", for an enum "unknown <name> ...", or ``problem``, and
    ``default`` is kept.  Absent, the field is the problem ``required`` if
    set; ``nullable`` reads null as absent."""

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
# A number's sign rule: its problem, its test and its schema keywords.
_SIGNS = {
    "positive": ("must be positive", lambda v: v > 0, {"exclusiveMinimum": 0}),
    "nonzero": ("must be nonzero", lambda v: v != 0, {"not": {"const": 0}}),
    "nonnegative": ("expected a nonnegative number", lambda v: v >= 0,
                    {"minimum": 0}),
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
        Field("output", "string", nullable=True,
              problem="expected a string path"),
    ),
    "manifold": (
        Field("model", "enum", "conformal_ball",
              values=tuple(m.value for m in ChartModel)),
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
# Sections read in document order, noting an unknown key with this problem.
_IN_PLACE = {"coefficients.derive": "unknown flag; valid: "
             f"{sorted(f.name for f in FIELDS['coefficients.derive'])}",
             "tolerances": "unknown check name"}
# Presets note an unknown parameter with this problem.
_UNKNOWN = {name: f"unknown parameter for preset {name!r} (takes "
            f"{[f.name for f in FIELDS[name]]})" for name in co.SCALAR_PRESETS}

# The problem lines of the rules the parser alone enforces, "{}" standing
# for a path or value; the schema's $comment lists them.
PARSER_ONLY = dict(
    finite="{}: must be finite",
    integral="{}: expected an integer",
    strength="manifold.strength: only valid for the perturbed_conformal model",
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
    output="{}: expected a nonempty path",
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
    """Validate a config document; raise :class:`ConfigError` with all problems."""
    if not isinstance(document, dict):
        raise ConfigError(["config: expected a JSON object"])
    problems = [f"{key}: unknown top-level field" for key in document
                if ("", key) not in _ROWS]
    manifold = _field(document, "", "manifold", problems,
                      {"strength": _manifold_rule})
    coefficients = _field(document, "", "coefficients", problems, {
        "family": _family_rule, "a1": None, "b1": None,
        "allow_mismatched_c": partial(_curvature_rule, c=manifold["c"]),
        "lambda": partial(_metric_rule, key="lambda"),
        "mu": partial(_metric_rule, key="mu")})
    sampling = _field(document, "", "sampling", problems)
    checks = _parse_checks(_field(document, "", "checks", problems),
                           coefficients, problems)
    tolerances = _field(document, "", "tolerances", problems)
    output = _field(document, "", "output", problems)
    if output == "":
        problems.append(PARSER_ONLY["output"].format("output"))
    if problems:
        raise ConfigError(problems)
    return RunConfig(manifold, coefficients, sampling, checks, tolerances,
                     output)


def _field(section, path, name, problems, rules=None, missing=None,
           table=None):
    """Field ``name`` of the section at ``path`` by its row in ``FIELDS[table
    or path]``; when absent, the row's default, after the problem ``missing``
    or the row's ``required``."""
    f, where = _ROWS[table or path, name], f"{path}.{name}".lstrip(".")
    if section.get(name) is not None or (name in section and not f.nullable):
        return _value(f, section[name], where, problems, rules)
    if missing or f.required:
        problems.append(missing or f"{where}: {f.required}")
    return _defaults(where) if f.type == "object" else copy.deepcopy(f.default)


def _value(f, value, path, problems, rules=None):
    """``value`` checked by row ``f``; on a problem, noted in ``problems``,
    the row's default.  A section is walked with ``rules``."""
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
        return _walk(value, path, problems, rules or {})
    if problem:
        problems.append(f"{path}: {problem}")
        return _defaults(path) if f.type == "object" else f.default
    if f.type == "enum":
        return f.values[f.values.index(value)]  # the number 1.0 is 1
    return float(value) if f.type == "number" else value


def _walk(section, path, problems, rules, table=None):
    """The section at ``path`` read by the rows of ``FIELDS[table or path]``
    in table order, then unknown keys sorted (an in-place section: by its
    keys).  A row named in ``rules`` is read by that rule, called with
    (section, fields so far, problems), or by an earlier one if None."""
    table = table or path
    unknown = _IN_PLACE.get(table)
    out = _defaults(table) if unknown else {}
    for name in section if unknown else [f.name for f in FIELDS[table]]:
        if (table, name) not in _ROWS:
            problems.append(f"{path}.{name}: {unknown}")
        elif name not in rules:
            out[name] = _field(section, path, name, problems, table=table)
        elif rules[name]:
            rules[name](section, out, problems)
    if not unknown:
        _unknown(section, path, [f.name for f in FIELDS[table]], problems,
                 _UNKNOWN.get(table))
    return out


def _defaults(path):
    """An absent section: its rows' defaults (of an in-place one: the set)."""
    return {f.name: (_defaults(f"{path}.{f.name}") if f.type == "object"
                     else copy.deepcopy(f.default)) for f in FIELDS[path]
            if f.default is not None or path not in _IN_PLACE}


def _unknown(section, path, names, problems, problem=None):
    for key in sorted(set(section) - set(names)):
        problems.append(f"{path}.{key}: {problem or 'unknown field'}")


def _manifold_rule(section, out, problems):
    """strength, then the chart rules of :mod:`paralift.spaceform`."""
    if out["model"] == "perturbed_conformal":
        out["strength"] = _field(section, "manifold", "strength", problems)
    elif "strength" in section:
        problems.append(PARSER_ONLY["strength"])
    problems.extend(f"manifold.{line}" for line in chart_problems(
        **{**out, "model": ChartModel(out["model"])}))


def _family_rule(section, out, problems):
    """family, a1 and b1: which of them a structure reads.  A Cruceanu
    structure builds from none of them, nor from the integrability and
    metric derivations.  Every path needs the product completion."""
    out["family"] = out["a1"] = out["b1"] = None
    if out["kind"] != "natural_diagonal":
        problems.extend(PARSER_ONLY["cruceanu"].format(key)
                        for key in ("family", "a1", "b1") if key in section
                        and (key != "family" or section[key] is not None))
        _derive_off(section, out, ("integrability", "metric_proportionality"),
                    PARSER_ONLY["cruceanu"], problems)
    elif section.get("family") is not None:
        out["family"] = _field(section, "coefficients", "family", problems)
        _derive_off(section, out, ("integrability",), PARSER_ONLY["family_b1"],
                    problems)
        problems.extend(PARSER_ONLY["family"].format(key)
                        for key in ("b1", "a1") if key in section)
    else:
        out["a1"] = _field(section, "coefficients", "a1", problems,
                           missing=PARSER_ONLY["a1"])
        if not out["derive"]["integrability"]:
            out["b1"] = _field(section, "coefficients", "b1", problems,
                               missing=PARSER_ONLY["b1_off"])
        elif "b1" in section:
            problems.append(PARSER_ONLY["b1_on"])
    if not out["derive"]["product_completion"]:
        problems.append(PARSER_ONLY["completion"])


def _derive_off(section, out, flags, problem, problems):
    """Each derive flag of ``flags`` off unless given; on, the ``problem``."""
    derive = section.get("derive")
    for flag in flags:
        if flag not in (derive if isinstance(derive, dict) else {}):
            out["derive"][flag] = False
        elif out["derive"][flag]:
            problems.append(problem.format(f"derive.{flag}"))


def _curvature_rule(section, out, problems, c):
    """allow_mismatched_c, then curvature against the base's ``c``."""
    allow = _field(section, "coefficients", "allow_mismatched_c", problems)
    out["allow_mismatched_c"] = allow
    if out["curvature"] is None:
        out["curvature"] = c
    if (out["derive"]["integrability"] and out["kind"] == "natural_diagonal"
            and out["family"] is None and out["curvature"] != c and not allow):
        problems.append(PARSER_ONLY["curvature"].format(out["curvature"], c))


def _metric_rule(section, out, problems, key):
    """lambda or mu, read only for the metric proportionality derivation."""
    out[key] = None
    if out["derive"]["metric_proportionality"]:
        out[key] = _field(section, "coefficients", key, problems)
    elif key in section:
        problems.append(PARSER_ONLY["metric"].format(key))


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
        _walk(params, f"{path}.params", problems, {}, table=preset)
    elif preset:
        problems.append(f"{path}.params: expected an object")
    _unknown(raw, path, ("preset", "params"), problems)
    return {"preset": preset, "params": copy.deepcopy(params)}


def _parse_checks(checks, coefficients, problems):
    """Each check's spec requirement; the checks without repeats."""
    for name in checks:
        needs = CHECKS[name].spec  # None, "metric" or "para_hermitian"
        if needs:
            if coefficients["kind"] != "natural_diagonal":
                problems.append(PARSER_ONLY["kind"].format(name))
            elif not coefficients["derive"]["metric_proportionality"]:
                problems.append(PARSER_ONLY["proportional"].format(name))
        if needs == "para_hermitian" and coefficients["epsilon"] != -1:
            problems.append(PARSER_ONLY["neutral"].format(name))
    return tuple(dict.fromkeys(checks))


def parse_tolerance(value, path, problems):
    """A check tolerance, a finite number >= 0; else None, noted in ``problems``."""
    return _value(_TOLERANCE, value, path, problems)


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
    m = SpaceForm(**{**mf, "model": ChartModel(mf["model"])})
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


def sampling_overrides(seed, samples, problems):
    """The ``--seed`` and ``--samples`` values given, as sampling fields,
    checked by the file's rules for those fields into ``problems``."""
    given = {"seed": ("--seed", seed), "count": ("--samples", samples)}
    return {key: _value(_ROWS["sampling", key], value, flag, problems)
            for key, (flag, value) in given.items() if value is not None}

