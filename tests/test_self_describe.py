"""Self-description conformance (reference README.md:106-112: "Yaschva is
flexible enough to describe itself").

SELF_SCHEMA is a yaschva schema that describes the yaschva schema language
itself — exercising $map (arbitrary-key schema objects with a key regex),
$array, ordered unions, escaped $-keys, and RECURSION through $types in one
fixture — and is used to validate the reference's own example schema
(examples/example1.json, transcribed to tests/fixtures/example1.json; where
the reference checkout is present, its copy is checked too and must equal the
fixture) plus this repo's pipeline schemas through BOTH evaluation paths (row
oracle and compiled closure tree), which must produce identical result trees.
"""

import json
import os

import pytest

from yaschva_ray import load_json, validate
from yaschva_ray.compiled import compile_validator

from test_oracle_validate import EXAMPLE1_PATH

_META = {"name": ["?", "string"], "description": ["?", "string"]}

SELF_SCHEMA = {
    "$types": {
        # a validation node: ordered union over every form the language has
        "$validation": [
            "string",  # simple type name or custom $type reference
            {"$array": "$validation", "minLength": 1},  # union (non-empty)
            "$specEnum", "$specString", "$specNumber", "$specArray",
            "$specMap", "$specAnd", "$specMeta",
            "$objectSchema",
        ],
        # plain object schema: arbitrary keys NOT starting with $ (escaped
        # keys start with a backslash and pass), values are validations
        "$objectSchema": {"$map": "$validation", "regex": "^[^$]"},
        # $enum is string[] in the reference's own types (empty allowed) —
        # and its generator emits [] past soft depth (generate.ts:121), so a
        # minLength here would break the generator round-trip
        "$specEnum": {"\\$enum": {"$array": "string"}, **_META},
        "$specString": {
            "\\$string": {"minLength": ["?", "number"],
                          "maxLength": ["?", "number"],
                          "regex": ["?", "string"]},
            "select": ["?", "string"], **_META},
        "$specNumber": {
            "\\$number": {"min": ["?", "number"], "max": ["?", "number"],
                          "step": ["?", "number"]},
            "postfix": ["?", "string"], **_META},
        # "$unique" is the ENGINE EXTENSION (oracle.py E_NOT_UNIQUE_*,
        # implementing the reference's own future-work constraint,
        # README.md:174-178) — the self-description admits it so
        # extension-using schemas still self-validate
        "$specArray": {"\\$array": "$validation",
                       "minLength": ["?", "number"],
                       "maxLength": ["?", "number"],
                       "\\$unique": ["?", "boolean"], **_META},
        "$specMap": {"\\$map": "$validation", "regex": ["?", "string"],
                     "minLength": ["?", "number"],
                     "maxLength": ["?", "number"],
                     "\\$unique": ["?", "boolean"], **_META},
        "$specAnd": {"\\$and": {"$array": ["$objectSchema", "string"]}, **_META},
        "$specMeta": {"\\$type": "$validation", **_META},
    },
    "$map": "$validation",
}

# the $types block of a schema document: $-named keys → validation
TYPES_BLOCK_SCHEMA = {
    "$types": SELF_SCHEMA["$types"],
    "$map": "$validation", "regex": "^\\$",
}


def _both(schema, value):
    a = validate(schema, value)
    b = compile_validator(schema)(value)
    assert a == b, f"oracle vs compiled diverge:\n{a}\n{b}"
    return a


REFERENCE_EXAMPLE1 = "/root/reference/examples/example1.json"


def test_validates_reference_example1():
    paths = [EXAMPLE1_PATH]
    if os.path.exists(REFERENCE_EXAMPLE1):
        paths.append(REFERENCE_EXAMPLE1)
    docs = []
    for path in paths:
        with open(path) as f:
            doc = load_json(f.read())  # strips $schema
        docs.append(dict(doc))
        types_block = doc.pop("$types")
        assert _both(SELF_SCHEMA, doc)["result"] == "pass", path
        assert _both(TYPES_BLOCK_SCHEMA, types_block)["result"] == "pass", path
    # the in-repo transcription must not drift from the reference's file
    assert all(d == docs[0] for d in docs)


def test_validates_own_pipeline_schemas():
    from yaschva_ray.pipelines.flagship import FLAGSHIP_SCHEMA
    from yaschva_ray.pipelines.ops import DOCS_CHECK_SCHEMA, LINEITEM_CHECK_SCHEMA

    for schema in (DOCS_CHECK_SCHEMA, LINEITEM_CHECK_SCHEMA):
        assert _both(SELF_SCHEMA, schema)["result"] == "pass"
    flag = dict(FLAGSHIP_SCHEMA)
    types_block = flag.pop("$types")
    assert _both(SELF_SCHEMA, flag)["result"] == "pass"
    assert _both(TYPES_BLOCK_SCHEMA, types_block)["result"] == "pass"


def test_validates_self():
    """The self-describing schema validates its own body and $types block."""
    body = {k: v for k, v in SELF_SCHEMA.items() if k != "$types"}
    # the root body has only $-keys ($map) — validate the $types block,
    # which is the recursive heart of the fixture
    assert _both(TYPES_BLOCK_SCHEMA, SELF_SCHEMA["$types"])["result"] == "pass"
    # each named type definition is itself a valid validation node
    for name, node in SELF_SCHEMA["$types"].items():
        r = _both({"$types": SELF_SCHEMA["$types"], "v": "$validation"},
                  {"v": node})
        assert r["result"] == "pass", (name, json.dumps(r["output"], default=str)[:400])
    del body


@pytest.mark.parametrize("bad", [
    {"a": 5},                                # number literal is not a schema
    {"a": {"$enum": [1, 2]}},                # enum members must be strings
    {"a": {"$array": "string", "minLength": "x"}},  # bounds must be numbers
    {"a": {"$number": {"min": "low"}}},      # constraint values not numbers
    # NOTE {"a": []} is NOT here: JS typeof [] is object, so an empty array
    # validates as an empty object schema — faithful reference semantics
    {"a": {"$and": [5]}},                    # $and members must be obj/name
    {"a": {"$map": 7}},                      # map value type not a validation
])
def test_rejects_invalid_schemas(bad):
    assert _both(SELF_SCHEMA, bad)["result"] == "fail"


def test_generator_roundtrip_through_self_schema():
    """Generated schema documents validate (README: 'This enables the
    generator to generate valid schema definitions')."""
    from yaschva_ray.generate import generate

    # shallow depth preference keeps the recursive expansion bounded (the
    # default soft depth lets a self-referential schema balloon to MBs)
    for seed in range(3):
        doc = generate(SELF_SCHEMA, options={"maxDepthSoft": 1}, seed=seed)
        r = _both(SELF_SCHEMA, doc)
        assert r["result"] == "pass", json.dumps(r["output"], default=str)[:400]
