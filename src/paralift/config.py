"""Run configuration: parsing with full error aggregation, plus builders.

Configs are JSON documents (see ``schemas/config.schema.json`` for the frozen
field list).  ``parse_config`` validates the whole document and reports every
problem it finds, not just the first; the builders then turn a validated
config into the space form, coefficient spec and lifted structure.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import dataclass, replace

from . import coefficients as co
from .errors import ConfigError
from .lifted import LiftedStructure, StructureKind
from .spaceform import ChartModel, SpaceForm
from .verify import CHECK_NAMES

MODELS = tuple(m.value for m in ChartModel)
KINDS = tuple(k.value for k in StructureKind)

# Checks that read the metric part of a spec, hence need the
# proportionality derivation, and those that need epsilon = -1.
_METRIC_CHECKS = frozenset(
    {"compatibility", "metric_signature", "closure", "closure_agreement",
     "para_kahler"})
_NEUTRAL_CHECKS = frozenset({"closure", "closure_agreement", "para_kahler"})


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
        return {
            "manifold": dict(self.manifold),
            "coefficients": copy.deepcopy(self.coefficients),
            "sampling": dict(self.sampling),
            "checks": list(self.checks),
            "tolerances": dict(self.tolerances),
            "output": self.output,
        }


def parse_config(document):
    """Validate a config document; raise :class:`ConfigError` with all problems."""
    problems = []
    if not isinstance(document, dict):
        raise ConfigError(["config: expected a JSON object"])
    known = {"manifold", "coefficients", "sampling", "checks", "tolerances",
             "output"}
    for key in document:
        if key not in known:
            problems.append(f"{key}: unknown top-level field")

    manifold = _parse_manifold(document.get("manifold"), problems)
    coefficients = _parse_coefficients(document.get("coefficients"), manifold,
                                       problems)
    sampling = _parse_sampling(document.get("sampling"), problems)
    checks = _parse_checks(document.get("checks"), coefficients, problems)
    tolerances = _parse_tolerances(document.get("tolerances"), problems)
    output = document.get("output")
    if output is not None and not isinstance(output, str):
        problems.append("output: expected a string path")
        output = None

    if problems:
        raise ConfigError(problems)
    return RunConfig(manifold=manifold, coefficients=coefficients,
                     sampling=sampling, checks=tuple(checks),
                     tolerances=tolerances, output=output)


def _parse_manifold(section, problems):
    out = {"model": "conformal_ball", "n": 3, "c": 1.0, "chart_radius": 1.0}
    if section is None:
        problems.append("manifold: required section missing")
        return out
    if not isinstance(section, dict):
        problems.append("manifold: expected an object")
        return out
    model = section.get("model", "conformal_ball")
    if model not in MODELS:
        problems.append(f"manifold.model: unknown model {model!r}; "
                        f"valid: {list(MODELS)}")
        model = "conformal_ball"
    out["model"] = model
    # At n = 32 the eight checks take about 0.5 s on 4 points, 77 MB peak.
    out["n"] = _int_field(section, "n", "manifold.n", problems, default=3,
                          minimum=2, maximum=32)
    out["c"] = _num_field(section, "c", "manifold.c", problems, default=1.0)
    out["chart_radius"] = _num_field(section, "chart_radius",
                                     "manifold.chart_radius", problems,
                                     default=1.0, positive=True)
    if model == "perturbed_conformal":
        out["strength"] = _num_field(section, "strength", "manifold.strength",
                                     problems, default=0.1)
    elif "strength" in section:
        problems.append("manifold.strength: only valid for the "
                        "perturbed_conformal model")
    if model == "flat" and out["c"] != 0.0:
        problems.append("manifold.c: the flat model requires c = 0")
    if out["c"] < 0 and out["chart_radius"] ** 2 >= -4.0 / out["c"]:
        problems.append("manifold.chart_radius: reaches the conformal-factor "
                        "singularity for this negative curvature")
    extra = set(section) - {"model", "n", "c", "chart_radius", "strength"}
    for key in sorted(extra):
        problems.append(f"manifold.{key}: unknown field")
    return out


def _parse_coefficients(section, manifold, problems):
    out = {
        "kind": "natural_diagonal",
        "a1": None,
        "b1": None,
        "family": None,
        "curvature": manifold["c"],
        "allow_mismatched_c": False,
        "epsilon": -1,
        "t_max": 2.0,
        "lambda": None,
        "mu": "derived",
        "derive": {"product_completion": True, "integrability": True,
                   "metric_proportionality": True},
        "require_positive": True,
    }
    if section is None:
        problems.append("coefficients: required section missing")
        return out
    if not isinstance(section, dict):
        problems.append("coefficients: expected an object")
        return out

    kind = section.get("kind", "natural_diagonal")
    if kind not in KINDS:
        problems.append(f"coefficients.kind: unknown kind {kind!r}; "
                        f"valid: {list(KINDS)}")
        kind = "natural_diagonal"
    out["kind"] = kind

    derive = dict(out["derive"])
    raw_derive = section.get("derive", {})
    if not isinstance(raw_derive, dict):
        problems.append("coefficients.derive: expected an object of booleans")
        raw_derive = {}
    for key, value in raw_derive.items():
        if key not in derive:
            problems.append(f"coefficients.derive.{key}: unknown flag; valid: "
                            f"{sorted(derive)}")
        elif not isinstance(value, bool):
            problems.append(f"coefficients.derive.{key}: expected a boolean")
        else:
            derive[key] = value

    family = section.get("family")
    if family is not None:
        out["family"] = _parse_family(family, problems)
        if "integrability" not in raw_derive:
            derive["integrability"] = False
        elif derive["integrability"]:
            problems.append("coefficients.derive.integrability: the family "
                            "already fixes b1; drop the flag or the family")
        if "b1" in section:
            problems.append("coefficients.b1: not allowed together with a "
                            "coefficient family")
        if "a1" in section:
            problems.append("coefficients.a1: not allowed together with a "
                            "coefficient family")
    out["derive"] = derive

    if kind == "natural_diagonal" and family is None:
        if "a1" in section:
            out["a1"] = _parse_scalar(section["a1"], "coefficients.a1",
                                      problems)
        else:
            problems.append("coefficients.a1: required (or give a family)")
        if derive["integrability"]:
            if "b1" in section:
                problems.append("coefficients.b1: not allowed when "
                                "derive.integrability is set")
        else:
            if "b1" in section:
                out["b1"] = _parse_scalar(section["b1"], "coefficients.b1",
                                          problems)
            else:
                problems.append("coefficients.b1: required when "
                                "derive.integrability is off")
            if not derive["product_completion"]:
                problems.append("coefficients.derive.product_completion: "
                                "must stay on; it is the only source of "
                                "(a2, b2)")

    out["curvature"] = _num_field(section, "curvature",
                                  "coefficients.curvature", problems,
                                  default=manifold["c"])
    allow = section.get("allow_mismatched_c", False)
    if not isinstance(allow, bool):
        problems.append("coefficients.allow_mismatched_c: expected a boolean")
        allow = False
    out["allow_mismatched_c"] = allow
    if (derive["integrability"] and kind == "natural_diagonal"
            and family is None and out["curvature"] != manifold["c"]
            and not allow):
        problems.append(
            "coefficients.curvature: integrability derivation uses "
            f"{out['curvature']:g} but the manifold has c = "
            f"{manifold['c']:g}; set allow_mismatched_c for negative tests")

    epsilon = section.get("epsilon", -1)
    if isinstance(epsilon, bool) or epsilon not in (-1, 1):
        problems.append("coefficients.epsilon: must be -1 or +1")
        epsilon = -1
    out["epsilon"] = int(epsilon)
    out["t_max"] = _num_field(section, "t_max", "coefficients.t_max",
                              problems, default=2.0, positive=True)

    if derive["metric_proportionality"] and kind == "natural_diagonal":
        if "lambda" in section:
            out["lambda"] = _parse_scalar(section["lambda"],
                                          "coefficients.lambda", problems)
        else:
            out["lambda"] = {"preset": "constant", "params": {"value": 1.0}}
        mu = section.get("mu", "derived")
        if mu == "derived":
            out["mu"] = "derived"
        else:
            out["mu"] = _parse_scalar(mu, "coefficients.mu", problems)
    else:
        for key in ("lambda", "mu"):
            if key in section:
                problems.append(f"coefficients.{key}: only meaningful with "
                                "derive.metric_proportionality on a "
                                "natural_diagonal structure")
        out["lambda"] = None
        out["mu"] = None

    rp = section.get("require_positive", True)
    if not isinstance(rp, bool):
        problems.append("coefficients.require_positive: expected a boolean")
        rp = True
    out["require_positive"] = rp

    extra = set(section) - {"kind", "a1", "b1", "family", "curvature",
                            "allow_mismatched_c", "epsilon", "t_max",
                            "lambda", "mu", "derive", "require_positive"}
    for key in sorted(extra):
        problems.append(f"coefficients.{key}: unknown field")
    return out


def _parse_family(raw, problems):
    out = {"name": "rational", "alpha": 1.0, "beta": 2.0,
           "u": {"preset": "constant", "params": {"value": 0.0}}}
    if not isinstance(raw, dict):
        problems.append("coefficients.family: expected an object")
        return out
    name = raw.get("name")
    if name != "rational":
        problems.append("coefficients.family.name: the only built-in family "
                        "is 'rational'")
    out["alpha"] = _num_field(raw, "alpha", "coefficients.family.alpha",
                              problems, default=1.0, nonzero=True)
    out["beta"] = _num_field(raw, "beta", "coefficients.family.beta",
                             problems, default=2.0, nonzero=True)
    if "u" in raw:
        out["u"] = _parse_scalar(raw["u"], "coefficients.family.u", problems)
    else:
        problems.append("coefficients.family.u: required scalar preset")
    extra = set(raw) - {"name", "alpha", "beta", "u"}
    for key in sorted(extra):
        problems.append(f"coefficients.family.{key}: unknown field")
    return out


def _parse_scalar(raw, path, problems):
    fallback = {"preset": "constant", "params": {"value": 1.0}}
    if not isinstance(raw, dict):
        problems.append(f"{path}: expected an object with 'preset' and "
                        "'params'")
        return fallback
    preset = raw.get("preset")
    if preset not in co.SCALAR_PRESETS:
        problems.append(f"{path}.preset: unknown preset {preset!r}; valid: "
                        f"{sorted(co.SCALAR_PRESETS)}")
        return fallback
    params = raw.get("params", {})
    if not isinstance(params, dict):
        problems.append(f"{path}.params: expected an object")
        return fallback
    _, names = co.SCALAR_PRESETS[preset]
    known = len(problems)
    for key, value in params.items():
        where = f"{path}.params.{key}"
        if key not in names:
            problems.append(f"{where}: unknown parameter for preset "
                            f"{preset!r} (takes {list(names)})")
        elif key != "coeffs":
            _number(value, where, problems)
        elif not isinstance(value, list):
            problems.append(f"{where}: expected a list of numbers")
        else:
            for i, c in enumerate(value):
                _number(c, f"{where}[{i}]", problems)
    valid = len(problems) == known
    if not (valid or set(params) <= set(names)):
        return fallback  # an unknown name's own line says enough
    # valid stand-ins for invalid numbers: a missing parameter shows too
    given = params if valid else {key: [0.0] if key == "coeffs" else 0.0
                                  for key in params}
    try:
        make_scalar({"preset": preset, "params": given})
    except (TypeError, ValueError) as exc:
        problems.append(f"{path}.params: {exc}")
        return fallback
    return {"preset": preset, "params": dict(params)} if valid else fallback


# Integer fields of "sampling" as (default, minimum), for --seed and
# --samples too.
_SAMPLING_INTS = {"count": (100, 1), "seed": (0, 0)}


def _parse_sampling(section, problems):
    out = {"count": 100, "seed": 0, "p_max": 2.0}
    if section is None:
        return out
    if not isinstance(section, dict):
        problems.append("sampling: expected an object")
        return out
    for key, (default, minimum) in _SAMPLING_INTS.items():
        out[key] = _int_field(section, key, f"sampling.{key}", problems,
                              default=default, minimum=minimum)
    out["p_max"] = _num_field(section, "p_max", "sampling.p_max", problems,
                              default=2.0, positive=True)
    extra = set(section) - {"count", "seed", "p_max"}
    for key in sorted(extra):
        problems.append(f"sampling.{key}: unknown field")
    return out


def _parse_checks(raw, coefficients, problems):
    if not isinstance(raw, list) or not raw:
        problems.append("checks: required nonempty list of check names")
        return ()
    checks = []
    for i, name in enumerate(raw):
        if name not in CHECK_NAMES:
            problems.append(f"checks[{i}]: unknown check {name!r}; valid: "
                            f"{sorted(CHECK_NAMES)}")
            continue
        checks.append(name)
    kind = coefficients["kind"]
    derive = coefficients["derive"]
    for name in checks:
        if name in _METRIC_CHECKS:
            if kind != "natural_diagonal":
                problems.append(f"checks: {name!r} needs the natural_diagonal "
                                "structure (metric part)")
            elif not derive["metric_proportionality"]:
                problems.append(f"checks: {name!r} needs "
                                "derive.metric_proportionality")
        if name in _NEUTRAL_CHECKS and coefficients["epsilon"] != -1:
            problems.append(f"checks: {name!r} needs epsilon = -1")
    return tuple(dict.fromkeys(checks))


def _parse_tolerances(raw, problems):
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        problems.append("tolerances: expected an object of check -> number")
        return {}
    out = {}
    for key, value in raw.items():
        if key not in CHECK_NAMES:
            problems.append(f"tolerances.{key}: unknown check name")
        else:
            out[key] = parse_tolerance(value, f"tolerances.{key}", problems)
    return out


def parse_tolerance(value, path, problems):
    """A check tolerance, a finite number >= 0; else None, noted in ``problems``."""
    value = _number(value, path, problems)
    if value is None or value >= 0:
        return value
    problems.append(f"{path}: expected a nonnegative number")
    return None


def _int_field(section, key, path, problems, *, default, minimum=None,
               maximum=None):
    value = section.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        problems.append(f"{path}: expected an integer")
        return default
    if minimum is not None and value < minimum:
        problems.append(f"{path}: must be at least {minimum}")
        return default
    if maximum is not None and value > maximum:
        problems.append(f"{path}: must be at most {maximum}")
        return default
    return value


def _num_field(section, key, path, problems, *, default, positive=False,
               nonzero=False):
    value = _number(section.get(key, default), path, problems)
    if value is None:
        return default
    if positive and value <= 0:
        problems.append(f"{path}: must be positive")
        return default
    if nonzero and value == 0:
        problems.append(f"{path}: must be nonzero")
        return default
    return value


def _number(value, path, problems):
    """``value`` as a finite float (``json.loads`` passes NaN and Infinity);
    else None, noted in ``problems``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        problems.append(f"{path}: expected a number")
    elif not abs(value) <= sys.float_info.max:  # NaN, +-inf, huge integers
        problems.append(f"{path}: must be finite")
    else:
        return float(value)
    return None


# ---------------------------------------------------------------------------
# Builders: validated config -> geometric objects.


def make_scalar(desc):
    """Build a :class:`ScalarFamily` from a normalized preset description."""
    factory, _ = co.SCALAR_PRESETS[desc["preset"]]
    return factory(**desc["params"])


def build_space_form(config):
    mf = config.manifold
    return SpaceForm(
        n=mf["n"],
        c=mf["c"],
        model=ChartModel(mf["model"]),
        chart_radius=mf["chart_radius"],
        strength=mf.get("strength", 0.0),
    )


def build_structure(config, m=None):
    """The :class:`LiftedStructure` described by a validated config."""
    if m is None:
        m = build_space_form(config)
    cf = config.coefficients
    kind = StructureKind(cf["kind"])
    if kind is not StructureKind.NATURAL_DIAGONAL:
        return LiftedStructure(m=m, kind=kind)

    t_max = cf["t_max"]
    epsilon = cf["epsilon"]
    curvature = cf["curvature"]
    if cf["family"] is not None:
        fam = cf["family"]
        spec = co.rational_spec(fam["alpha"], fam["beta"],
                                make_scalar(fam["u"]), curvature=curvature,
                                epsilon=epsilon, t_max=t_max)
    elif cf["derive"]["integrability"]:
        spec = co.integrable_spec(make_scalar(cf["a1"]), curvature=curvature,
                                  epsilon=epsilon, t_max=t_max)
    else:
        spec = co.almost_product_spec(make_scalar(cf["a1"]),
                                      make_scalar(cf["b1"]),
                                      curvature=curvature, epsilon=epsilon,
                                      t_max=t_max)
    if cf["derive"]["metric_proportionality"]:
        lam = make_scalar(cf["lambda"])
        mu = None if cf["mu"] == "derived" else make_scalar(cf["mu"])
        spec = co.with_metric(spec, lam, mu,
                              require_positive=cf["require_positive"])
    return LiftedStructure(m=m, kind=kind, spec=spec)


def sampling_overrides(seed, samples, problems):
    """The ``--seed`` and ``--samples`` values given, as sampling fields,
    checked by the file's rules for those fields into ``problems``."""
    out = {}
    for flag, key, value in (("--seed", "seed", seed),
                             ("--samples", "count", samples)):
        if value is not None:
            default, minimum = _SAMPLING_INTS[key]
            out[key] = _int_field({key: value}, key, flag, problems,
                                  default=default, minimum=minimum)
    return out


def apply_overrides(config, *, seed=None, samples=None, tolerances=None,
                    output=None):
    """CLI flags override the corresponding config fields, by their rules."""
    problems = []
    sampling = sampling_overrides(seed, samples, problems)
    if problems:
        raise ConfigError(problems)
    return replace(config, sampling={**config.sampling, **sampling},
                   tolerances={**config.tolerances, **(tolerances or {})},
                   output=output if output is not None else config.output)
