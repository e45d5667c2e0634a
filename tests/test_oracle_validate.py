"""Port of the reference conformance corpus
(/root/reference/src/validate.spec.ts) to the row-level oracle.

Expected outputs are asserted structurally against the exact mirror trees
the reference builds, error strings byte-for-byte.
"""

import json
from pathlib import Path

import pytest

from yaschva_ray import UNDEFINED, SchemaError, load_json, validate

# examples/example1.json:1-25, transcribed to tests/fixtures/example1.json
# (conformance fixture, $schema stripped by load_json)
EXAMPLE1_PATH = Path(__file__).parent / "fixtures" / "example1.json"
EXAMPLE1 = json.loads(EXAMPLE1_PATH.read_text())


def test_example_schema_working():
    # validate.spec.ts:8-59
    example = load_json(EXAMPLE1)
    data = {
        "myString": "35p5Rx",
        "myOptionalString": "opts",
        "myObject": {
            "myNumberInsideAnObject": -1064355751952420,
            "myDetailedNumberInsideAnObject": 7.547970286391079,
        },
        "myArrayOfNumbers": [6021837145779515, -3586724423310628, 7654360694223995, -4591855572376372],
        "myEnum": "enum2",
        "myNumberRange": 5,
        "myKeyValuePairs": {
            "h5mRyKCL": "fq3aXU", "wff99z2e": "4D0Ptj", "h3VcecUx": "vmKmRU", "Ox3CN4Iq": "2FWzGw"
        },
        "myMultiType": -8508087912141643,
        "myNull": None,
        "myRegex": "work",
        "myAddress": {
            "name": "Homer Simpson",
            "street": "742 Evergreen Terrace",
            "city": "Springfield",
            "country": "USA",
        },
    }
    assert validate(example, data)["result"] == "pass"
    assert validate(example, {})["result"] == "fail"

    assert validate(example, {}) == {
        "result": "fail",
        "output": {
            "myAddress": {"error": "Value is not an Object", "value": UNDEFINED},
            "myString": {"error": "Value is not a string", "value": UNDEFINED},
            "myOptionalString": None,
            "myObject": {"error": "Value is not an Object", "value": UNDEFINED},
            "myArrayOfNumbers": {"error": "Value is not an Array", "value": UNDEFINED},
            "myEnum": {"error": "Value is not a string", "value": UNDEFINED},
            "myKeyValuePairs": {"error": "Value is not an Object", "value": UNDEFINED},
            "myMultiType": {
                "error": "Did not match any from the listed types",
                "value": UNDEFINED,
                "output": [
                    {"error": "Value is not a string", "value": UNDEFINED},
                    {"error": "Value is not a number", "value": UNDEFINED},
                ],
            },
            "myNull": {"error": "Value is not null", "value": UNDEFINED},
            "myNumberRange": {"error": "Value is not a number", "value": UNDEFINED},
            "myRegex": {"error": "Value is not a string", "value": UNDEFINED},
        },
    }


def test_passes_correct_simple_values():
    # validate.spec.ts:61-70
    assert validate("string", "hello")["result"] == "pass"
    assert validate("integer", 123)["result"] == "pass"
    assert validate("number", 123.3)["result"] == "pass"
    assert validate("boolean", True)["result"] == "pass"
    assert validate("?", UNDEFINED)["result"] == "pass"
    assert validate("null", None)["result"] == "pass"
    assert validate("any", 233)["result"] == "pass"
    assert validate({"$type": "string"}, "desert")["result"] == "pass"


def test_fails_incorrect_simple_values():
    # validate.spec.ts:72-86
    assert validate("string", 234)["result"] == "fail"
    assert validate("integer", 123.4)["result"] == "fail"
    assert validate("integer", "123")["result"] == "fail"
    assert validate("number", "123.4")["result"] == "fail"
    assert validate("boolean", "true")["result"] == "fail"
    assert validate("?", "yes")["result"] == "fail"
    assert validate("null", "no")["result"] == "fail"
    assert validate("null", UNDEFINED)["result"] == "fail"
    # non safe integer above 2^53 (validate.spec.ts:83)
    assert validate("integer", 12332323423445323)["result"] == "fail"


def test_nan_infinity_not_numbers():
    # validate.ts:56-57 — Number.isFinite
    assert validate("number", float("nan"))["result"] == "fail"
    assert validate("number", float("inf"))["result"] == "fail"
    assert validate("number", float("-inf"))["result"] == "fail"
    # booleans are not numbers (typeof check)
    assert validate("number", True)["result"] == "fail"
    assert validate("integer", False)["result"] == "fail"


def test_objects_with_correct_values():
    # validate.spec.ts:88-95
    assert validate({}, {})["result"] == "pass"
    assert validate({"myNumber": "number"}, {"myNumber": 12.3})["result"] == "pass"
    assert validate(
        {"num": "number", "int": "integer", "str": "string", "bool": "boolean"},
        {"num": 12.3, "int": 12, "str": "Hello", "bool": False},
    )["result"] == "pass"


def test_objects_with_missing_properties():
    # validate.spec.ts:97-101
    assert validate({"myNumber": "number"}, {})["result"] == "fail"
    assert validate(
        {"num": "number", "int": "integer", "str": "string", "bool": "boolean"}, {"num": 3}
    )["result"] == "fail"


def test_objects_with_incorrect_values():
    # validate.spec.ts:103-108
    assert validate({}, None)["result"] == "fail"
    assert validate(
        {"num": "number", "int": "integer", "str": "string", "bool": "boolean"},
        '{"num": 12.3, "int": 12, "str": "Hello", "bool": false}',
    )["result"] == "fail"


def test_multiple_types_single_value():
    # validate.spec.ts:110-114
    assert validate(["integer", "string"], "hello")["result"] == "pass"
    assert validate(["integer", "string"], 123)["result"] == "pass"
    assert validate(["integer", "string"], {})["result"] == "fail"


def test_optional_via_multi_types():
    # validate.spec.ts:116-127
    assert validate(["integer", "string", "?"], "hello")["result"] == "pass"
    assert validate(["integer", "string", "?"], 123)["result"] == "pass"
    assert validate(["integer", "string", "?"], UNDEFINED)["result"] == "pass"
    assert validate(["integer", "string", "?"], {})["result"] == "fail"

    t = {"myValue": ["integer", "string", "?"]}
    assert validate(t, {"myValue": 1233232342344532})["result"] == "pass"
    assert validate(t, {"myValue": "abc"})["result"] == "pass"
    assert validate(t, {})["result"] == "pass"
    assert validate(t, UNDEFINED)["result"] == "fail"


def test_arrays():
    # validate.spec.ts:129-138
    assert validate({"$array": "string"}, ["hello"])["result"] == "pass"
    assert validate({"$array": "string"}, ["hello", "abc"])["result"] == "pass"
    assert validate({"$array": "string"}, [])["result"] == "pass"
    assert validate({"$array": "string"}, [2])["result"] == "fail"
    assert validate({"$array": "string"}, "hello")["result"] == "fail"
    assert validate(["integer", {"$array": ["string"]}], ["true", "this"])["result"] == "pass"
    assert validate(["integer", {"$array": ["string"]}], [1])["result"] == "fail"


def test_enums():
    # validate.spec.ts:140-147
    t = {"$enum": ["ts", "typescript"]}
    assert validate(t, "ts")["result"] == "pass"
    assert validate(t, "typescript")["result"] == "pass"
    assert validate(t, "javascript")["result"] == "fail"
    assert validate(t, ["ts"])["result"] == "fail"
    assert validate(t, {"$enum": "ts"})["result"] == "fail"


def test_error_descriptions():
    # validate.spec.ts:149-181
    t = {
        "num": "number",
        "int": "integer",
        "str": "string",
        "bool": "boolean",
        "obj": {"member": "boolean", "memberId": ["string", "?"]},
    }
    result = validate(t, {"num": "abc"})
    assert result["result"] == "fail"
    assert result["output"] == {
        "num": {"error": "Value is not a number", "value": "abc"},
        "int": {"error": "Value is not an integer ", "value": UNDEFINED},
        "str": {"error": "Value is not a string", "value": UNDEFINED},
        "bool": {"error": "Value is not a boolean", "value": UNDEFINED},
        "obj": {"error": "Value is not an Object", "value": UNDEFINED},
    }

    result2 = validate(t, {"int": 123.3, "str": [], "bool": "true", "obj": {}})
    assert result2["result"] == "fail"
    assert result2["output"] == {
        "num": {"error": "Value is not a number", "value": UNDEFINED},
        "int": {"error": "Value is not an integer ", "value": 123.3},
        "str": {"error": "Value is not a string", "value": []},
        "bool": {"error": "Value is not a boolean", "value": "true"},
        "obj": {
            "member": {"error": "Value is not a boolean", "value": UNDEFINED},
            "memberId": None,
        },
    }


def test_null_signals_no_error():
    # validate.spec.ts:183-196
    t = {"obj": {"member": "boolean", "memberId": ["string", "?"], "nested": {"inside": "string"}}}
    result = validate(t, {"obj": {"member": False, "nested": {"inside": "hello"}}})
    assert result["result"] == "pass"
    assert result["output"] == {
        "obj": {"member": None, "nested": {"inside": None}, "memberId": None}
    }


def test_rejects_additional_keys():
    # validate.spec.ts:198-201
    res = validate({"myValue": "integer"}, {"myValue": 2, "ourValue": 3})
    assert res["result"] == "fail"
    assert res["output"]["ourValue"] == {"error": "Key does not exist on validator", "value": 3}


def test_throws_on_empty_union():
    # validate.spec.ts:203-206
    with pytest.raises(SchemaError):
        validate({"myValue": []}, {"myValue": 2})


def test_throws_on_unknown_type():
    # validate.spec.ts:208-217
    with pytest.raises(SchemaError, match='Unknown validator:"bigFlout"'):
        validate({"myValue": "bigFlout"}, {"myValue": 2})
    with pytest.raises(SchemaError, match='Unknown validator:\\{"\\$whatever":"bigFloat"\\}'):
        validate({"$whatever": "bigFloat"}, {"myValue": 2})
    with pytest.raises(SchemaError, match="Type for validation cannot be undefined"):
        validate(UNDEFINED, {})


def test_dollar_keys_reserved():
    # validate.spec.ts:219-221
    with pytest.raises(SchemaError):
        validate({"$whatever": "string"}, {"$whatever": 2})


def test_string_length():
    # validate.spec.ts:223-240
    schema = {"$string": {"minLength": 4, "maxLength": 6}}
    assert validate(schema, "abc") == {
        "result": "fail",
        "output": {"error": "String is shorter than the required minimum length", "value": "abc"},
    }
    assert validate(schema, "Lorem ipsum") == {
        "result": "fail",
        "output": {"error": "String is longer than the required maximum length", "value": "Lorem ipsum"},
    }
    assert validate(schema, "hello")["result"] == "pass"


def test_string_length_truthy_zero_quirk():
    # validate.ts:78-79 — minLength/maxLength of 0 are ignored (truthy guard)
    assert validate({"$string": {"minLength": 0}}, "")["result"] == "pass"
    assert validate({"$string": {"maxLength": 0}}, "long string")["result"] == "pass"


def test_string_length_utf16():
    # JS String.length counts UTF-16 code units: one emoji = 2
    assert validate({"$string": {"maxLength": 1}}, "\U0001F600")["result"] == "fail"
    assert validate({"$string": {"minLength": 2, "maxLength": 2}}, "\U0001F600")["result"] == "pass"


def test_string_regex():
    # validate.spec.ts:242-252
    schema = {"$string": {"regex": "hello \\w+"}}
    assert validate(schema, "abc") == {
        "result": "fail",
        "output": {"error": "String did not match required regex", "value": "abc"},
    }
    assert validate(schema, "hello world")["result"] == "pass"


def test_regex_dollar_anchor_excludes_trailing_newline():
    # JS '$' does not match before a trailing newline; Python's does — we translate.
    schema = {"$string": {"regex": "^abc$"}}
    assert validate(schema, "abc")["result"] == "pass"
    assert validate(schema, "abc\n")["result"] == "fail"


def test_number_min_max():
    # validate.spec.ts:254-272
    schema = {"$number": {"min": 1, "max": 66}}
    assert validate(schema, 0) == {
        "result": "fail",
        "output": {"error": "Value is smaller than the required minimum", "value": 0},
    }
    assert validate(schema, 67) == {
        "result": "fail",
        "output": {"error": "Value is bigger than the required maximum", "value": 67},
    }
    assert validate(schema, 44)["result"] == "pass"


def test_number_min_zero_enforced():
    # $number bounds use `!== undefined` — min 0 IS enforced (validate.ts:62)
    assert validate({"$number": {"min": 0}}, -1)["result"] == "fail"
    assert validate({"$number": {"min": 0}}, 0)["result"] == "pass"


def test_number_step_never_enforced():
    # $number.step exists in the type but the validator ignores it
    # (validationTypes.ts:17 vs validate.ts:241)
    assert validate({"$number": {"min": 0, "max": 10, "step": 2}}, 3)["result"] == "pass"


def test_map():
    # validate.spec.ts:274-279
    schema = {"$map": ["number"]}
    assert validate(schema, {"x": 3, "y": 4, "z": 99})["result"] == "pass"
    assert validate(schema, {"x": 3, "y": 4, "z": "99"})["result"] == "fail"
    assert validate(schema, {"x": 3, "y": "a string", "z": 34})["result"] == "fail"


def test_map_key_regex():
    # validate.spec.ts:281-286
    schema = {"$map": ["number"], "regex": "^ab[a-z]"}
    assert validate(schema, {"abx": 3, "aby": 4, "abz": 99})["result"] == "pass"
    assert validate(schema, {"x": 3, "y": 4, "z": 99})["result"] == "fail"
    assert validate(schema, {"abx": 3, "aby": "a string", "abz": 34})["result"] == "fail"
    # key-regex failure echoes the whole map (validate.ts:181-184)
    data = {"x": 3}
    res = validate(schema, data)
    assert res["output"]["x"] == {"error": "String did not match required regex", "value": data}


def test_missing_field_validates_as_undefined():
    # Arrow-world port of the prototype-injection specs (validate.spec.ts:288-318):
    # a field absent from the row validates against its type as `undefined`.
    schema = {"a": "number", "b": ["string", "?"]}
    result = validate(schema, {"a": 4})
    assert result["result"] == "pass"
    assert result["output"]["a"] is None
    assert result["output"]["b"] is None
    # but a wrong-typed present value still fails through the union
    result2 = validate(schema, {"a": 4, "b": 99})
    assert result2["output"]["b"]["error"] == "Did not match any from the listed types"


def test_type_definitions():
    # validate.spec.ts:320-330
    schema = {"$types": {"$range": {"$number": {"min": 1, "max": 99}}}, "a": "number", "b": "$range"}
    assert validate(schema, {"a": 2, "b": 43})["result"] == "pass"
    assert validate(schema, {"a": 2, "b": 101})["result"] == "fail"
    assert validate(schema, {"a": 2, "b": 0})["result"] == "fail"


def test_type_definitions_reference_each_other():
    # validate.spec.ts:332-346
    schema = {
        "$types": {
            "$myObject": {"itsRange": "$range", "name": "string"},
            "$range": {"$number": {"min": 1, "max": 99}},
        },
        "a": "$myObject",
        "b": "$range",
    }
    assert validate(schema, {"a": {"name": "abc", "itsRange": 22}, "b": 43})["result"] == "pass"
    assert validate(schema, {"a": {"name": "abc", "itsRange": 101}, "b": 43})["result"] == "fail"
    assert validate(schema, {"a": {"name": "abc", "itsRange": 22}, "b": 0})["result"] == "fail"
    assert validate(schema, {"a": 2, "b": 0})["result"] == "fail"


def test_escaped_dollar():
    # validate.spec.ts:348-356
    validated = validate(
        {"myNumber": "number", "\\$escapedDollar": "string"},
        {"myNumber": 12.3, "$escapedDollar": "value"},
    )
    assert validated["result"] == "pass"
    assert validated["output"]["$escapedDollar"] is None

    validated2 = validate(
        {"myNumber": "number", "\\$escapedDollar": "string"},
        {"myNumber": 12.3, "$escapedDollar": 234},
    )
    assert validated2["result"] == "fail"
    assert validated2["output"]["$escapedDollar"] == {"error": "Value is not a string", "value": 234}


def test_root_meta_type():
    # validate.spec.ts:358-361
    assert validate({"$type": {"$array": "string"}}, ["a", "b", "c"])["result"] == "pass"


def test_root_custom_type_via_meta():
    # validate.spec.ts:363-369
    validated = validate(
        {
            "$types": {"$customType": {"value": "string", "nodes": {"$array": "$customType"}}},
            "$type": "$customType",
        },
        {"value": "abc", "nodes": [{"value": "xyz", "nodes": []}]},
    )
    assert validated["result"] == "pass"


def test_recursive_data_structure():
    # validate.spec.ts:371-393
    schema = {
        "$types": {"$tree": {"value": "string", "left": ["?", "$tree"], "right": ["?", "$tree"]}},
        "root": "$tree",
    }
    validated = validate(
        schema,
        {
            "root": {
                "value": "Dcn819x2PCmJV",
                "left": {
                    "value": "mEiX0hq435IXt",
                    "left": {"value": "coGEB1xXQmsRS"},
                    "right": {"value": "6lBoBa"},
                },
                "right": {
                    "value": "mV9j2",
                    "left": {"value": "iL42zyiOv"},
                    "right": {"value": "Bx6FbX"},
                },
            }
        },
    )
    assert validated["result"] == "pass"


def test_and():
    # validate.spec.ts:395-416
    schema = {"$and": [{"valueA": "string"}, {"valueB": "number"}, {"$type": {"otherValue": "number"}}]}
    assert validate(schema, {"valueA": "someString", "valueB": 32, "otherValue": 9})["result"] == "pass"

    schema2 = {"$and": [{"valueA": "string"}, {"valueB": "number"}]}
    assert validate(schema2, {"valueA": "someString"})["result"] == "fail"

    schema3 = {"$and": [{"valueA": "string"}, "string"]}
    res = validate(schema3, {"valueA": "someString"})
    assert res["result"] == "fail"
    assert res["output"]["error"] == "SCHEMA error: $and must only contain objects"


def test_and_with_custom_types():
    # validate.spec.ts:418-434
    schema = {
        "$types": {
            "$myObject": {"value": "string"},
            "$otherObject": {"num": "number"},
            "$myMetaObject": {"$type": {"value2": "string"}},
        },
        "$and": [{"valueA": "string"}, "$myObject", "$myMetaObject", {"$type": "$otherObject"}],
    }
    validated = validate(
        schema, {"valueA": "someString", "value": "value", "value2": "value2", "num": 88}
    )
    assert validated["result"] == "pass"


def test_array_length_bounds():
    # validate.spec.ts:436-449
    assert validate({"$array": "string", "minLength": 3}, ["abc", "efg"])["result"] == "fail"
    assert validate({"$array": "string", "maxLength": 3}, ["abc", "efg", "some", "value"])["result"] == "fail"
    assert validate({"$array": "string", "minLength": 1, "maxLength": 3}, ["some", "value"])["result"] == "pass"
    # error payload: value = length, message interpolates bounds (validate.ts:109-114)
    res = validate({"$array": "string", "minLength": 3}, ["abc", "efg"])
    assert res["output"] == {
        "error": "Array length needs to be between 3 - 9007199254740991",
        "value": 2,
    }


def test_map_member_count_bounds():
    # validate.spec.ts:451-464
    assert validate({"$map": "string", "minLength": 3}, {"a": "abc", "b": "efg"})["result"] == "fail"
    assert validate(
        {"$map": "string", "maxLength": 3}, {"a": "abc", "e": "efg", "c": "some", "d": "value"}
    )["result"] == "fail"
    assert validate({"$map": "string", "minLength": 1, "maxLength": 3}, {"a": "some", "x": "value"})["result"] == "pass"
    # error payload: value = key count (validate.ts:173-176)
    res = validate({"$map": "string", "minLength": 3}, {"a": "abc", "b": "efg"})
    assert res["output"] == {
        "error": "Map needs to have member count to be between 3 - 9007199254740991",
        "value": 2,
    }


def test_union_output_flattening_in_arrays():
    # validate.ts:123 — one level of flattening of array outputs
    res = validate({"$array": ["string", "number"]}, [True])
    assert res["result"] == "fail"
    # the union failure object sits directly in the array output (flattened)
    assert isinstance(res["output"], list)
    assert res["output"][0]["error"] == "Did not match any from the listed types"
