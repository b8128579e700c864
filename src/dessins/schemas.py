"""JSON Schemas for every CLI payload.

These are the published output contracts; the test suite validates each
command's stdout against the matching schema.  Draft-07 vocabulary.
"""

from __future__ import annotations

from .perms import CYCLES_PATTERN

_POSITIVE_INT = {"type": "integer", "minimum": 1}

_CYCLE_TYPE = {
    "type": "array",
    "items": _POSITIVE_INT,
    "minItems": 1,
}

_TRIPLE = {
    "type": "array",
    "items": {"type": "integer", "minimum": 1, "maximum": 12},
    "minItems": 3,
    "maxItems": 3,
}

_CYCLES_STRING = {"type": "string", "pattern": CYCLES_PATTERN}

_TRACKING_CONFIG = {
    "type": "object",
    "properties": {
        "newton_tol": {"type": "number", "exclusiveMinimum": 0},
        "max_newton_iters": _POSITIVE_INT,
        "initial_step": {"type": "number", "exclusiveMinimum": 0},
        "min_step": {"type": "number", "exclusiveMinimum": 0},
        "match_tol": {"type": "number", "exclusiveMinimum": 0},
        "separation_factor": {"type": "number", "exclusiveMinimum": 1},
    },
    "required": [
        "newton_tol", "max_newton_iters", "initial_step",
        "min_step", "match_tol", "separation_factor",
    ],
    "additionalProperties": False,
}

ROOTS_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "labeled roots",
    "type": "array",
    "minItems": 12,
    "maxItems": 12,
    "items": {
        "type": "object",
        "properties": {
            "label": {"type": "integer", "minimum": 1, "maximum": 12},
            "re": {"type": "number"},
            "im": {"type": "number"},
            "residual": {"type": "number", "minimum": 0},
        },
        "required": ["label", "re", "im", "residual"],
        "additionalProperties": False,
    },
}

MONODROMY_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "monodromy pair",
    "type": "object",
    "properties": {
        "degree": _POSITIVE_INT,
        "g0": _CYCLES_STRING,
        "g1": _CYCLES_STRING,
        "ginf": _CYCLES_STRING,
        "stability": {"type": ["boolean", "null"]},
        "config_echo": _TRACKING_CONFIG,
    },
    "required": ["degree", "g0", "g1", "ginf", "stability", "config_echo"],
    "additionalProperties": False,
}

_PASSPORT = {
    "type": "object",
    "properties": {
        "black": _CYCLE_TYPE,
        "white": _CYCLE_TYPE,
        "faces": _CYCLE_TYPE,
    },
    "required": ["black", "white", "faces"],
    "additionalProperties": False,
}

DESSIN_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "dessin invariants",
    "type": "object",
    "properties": {
        "triple": _TRIPLE,
        "map": {"type": "string"},
        "degree": _POSITIVE_INT,
        "genus": {"type": "integer", "minimum": 0},
        "passport": _PASSPORT,
        "clean": {"type": "boolean"},
        "bouquets": {
            "type": ["array", "null"],
            "items": {
                "type": "array",
                "items": _POSITIVE_INT,
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "canonical_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
    },
    "required": [
        "triple", "map", "degree", "genus", "passport",
        "clean", "bouquets", "canonical_hash",
    ],
    "additionalProperties": False,
}

ORBIT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "orbit report",
    "type": "object",
    "properties": {
        "subgroup": {"type": "string", "minLength": 1},
        "base_triple": _TRIPLE,
        "orbit": {"type": "array", "items": _TRIPLE, "minItems": 1},
        "passports": {"type": "array", "items": _PASSPORT, "minItems": 1},
        "genus": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "iso_classes": {
            "type": "array",
            "items": {"type": "array", "items": _TRIPLE, "minItems": 1},
            "minItems": 1,
        },
        "shared_passport": {"type": "boolean"},
    },
    "required": [
        "subgroup", "base_triple", "orbit", "passports",
        "genus", "iso_classes", "shared_passport",
    ],
    "additionalProperties": False,
}

_WITNESS = {
    "type": "object",
    "properties": {
        "prime": {"type": "integer", "minimum": 2},
        "pattern": _CYCLE_TYPE,
    },
    "required": ["prime", "pattern"],
    "additionalProperties": False,
}

EVIDENCE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "S12 evidence certificate",
    "type": "object",
    "properties": {
        "witness_transitive": _WITNESS,
        "witness_11cycle": _WITNESS,
        "witness_transposition": _WITNESS,
        "primes_scanned": _POSITIVE_INT,
    },
    "required": [
        "witness_transitive", "witness_11cycle",
        "witness_transposition", "primes_scanned",
    ],
    "additionalProperties": False,
}

RENDER_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "render summary",
    "type": "object",
    "properties": {
        "out": {"type": ["string", "null"]},
        "map": {"type": "string"},
        "arcs": _POSITIVE_INT,
        "black_dots": _POSITIVE_INT,
        "white_dots": _POSITIVE_INT,
        "vertices": _POSITIVE_INT,
    },
    "required": ["out", "map", "arcs", "black_dots", "white_dots", "vertices"],
    "additionalProperties": False,
}

ERROR_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "structured CLI error",
    "type": "object",
    "properties": {
        "error": {"type": "string", "minLength": 1},
        "message": {"type": "string"},
        "exit_code": {"type": "integer", "minimum": 1},
    },
    "required": ["error", "message", "exit_code"],
    "additionalProperties": False,
}

SCHEMAS_BY_COMMAND = {
    "roots": ROOTS_SCHEMA,
    "monodromy": MONODROMY_SCHEMA,
    "dessin": DESSIN_SCHEMA,
    "orbit": ORBIT_SCHEMA,
    "evidence": EVIDENCE_SCHEMA,
    "render": RENDER_SCHEMA,
}
