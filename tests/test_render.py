import json

from signed_extremal._render import json_text


def test_nested_containers():
    value = {"a": [1, (2, 3), []], "b": {"c": {}, "d": ({"e": 4},)}}
    assert json_text(value) == '{"a":[1,[2,3],[]],"b":{"c":{},"d":[{"e":4}]}}'


def test_keys_keep_insertion_order():
    assert json_text({"z": 1, "a": 2, "m": 3}) == '{"z":1,"a":2,"m":3}'


def test_floats_at_15_significant_digits():
    assert json_text([0.1 + 0.2, 1 / 3, 2.0, -0.5, 1e-12, 37.949937343260004]) == (
        "[0.3,0.333333333333333,2,-0.5,1e-12,37.94993734326]")


def test_scalars_and_string_escaping():
    assert json_text([None, True, False, 0, -7]) == "[null,true,false,0,-7]"
    # output stays ASCII
    assert json_text('say "hi"\n\\ é') == r'"say \"hi\"\n\\ \u00e9"'
    assert json_text({"k\"ey": "v"}) == r'{"k\"ey":"v"}'


def test_value_with_to_json_renders_itself():
    class Report:
        def to_json(self):
            return '{"x":1}'

    assert json_text({"inner": Report(), "all": [Report()]}) == (
        '{"inner":{"x":1},"all":[{"x":1}]}')


def test_round_trip():
    value = {"n": 7, "rho": 4.5, "ok": True, "none": None, "text": "a\tb",
             "rows": [(1, 2.25), {"deep": ["x", False]}]}
    assert json.loads(json_text(value)) == {
        "n": 7, "rho": 4.5, "ok": True, "none": None, "text": "a\tb",
        "rows": [[1, 2.25], {"deep": ["x", False]}]}
