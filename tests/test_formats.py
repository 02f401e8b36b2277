"""Exact parsing and deterministic rendering at the tool boundary."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from elicit import Distribution, ReportProfile
from elicit.formats import (
    InputError,
    csv_text,
    decimal_str,
    decimal_value,
    dumps,
    fraction_str,
    parse_coalition,
    parse_inline_profile,
    parse_profile_json,
    parse_rational,
    profile_to_obj,
)

from conftest import profiles
from hypothesis import given


class TestParseRational:
    def test_fraction_decimal_and_integer_text(self):
        assert parse_rational("2/5") == Fraction(2, 5)
        assert parse_rational("0.4") == Fraction(2, 5)
        assert parse_rational(" -3 ") == Fraction(-3)

    def test_rejects_garbage(self):
        with pytest.raises(InputError, match="rational"):
            parse_rational("two fifths")
        with pytest.raises(InputError, match="rational"):
            parse_rational("1/0")

    @pytest.mark.parametrize(
        "text",
        [
            "1e10000000",
            "1e-10000000",
            " 2.5E+4301 ",
            "1e4_301",
            "-1e-0004301",
            "1e" + "9" * 5000,
        ],
    )
    def test_refuses_huge_exponents_before_building(self, text):
        # Fraction("1e10000000") alone takes seconds, and its digits
        # exceed the int-to-text limit.
        with pytest.raises(InputError) as info:
            parse_rational(text)
        assert str(info.value) == (
            f"refusing {text!r}: its exponent exceeds 4300 in magnitude"
        )

    def test_exponents_up_to_the_limit_parse(self):
        assert parse_rational("1e400") == 10**400
        assert parse_rational("1E+4299") == 10**4299
        assert parse_rational("-1e-0004299") == Fraction(-1, 10**4299)
        assert parse_rational("1.5e0_3") == 1500
        with pytest.raises(InputError, match="cannot parse"):
            parse_rational("1e99999x")

    @pytest.mark.parametrize(
        "text",
        [
            "1e4300",
            "1E+4300",
            "-1e-0004300",
            "12e4299",
            "0.5e-4300",
            pytest.param("1" * 4000 + "e301", id="4000-digits-e301"),
        ],
    )
    def test_refuses_values_too_long_to_print(self, text):
        # 10**4300 has 4301 digits: str() of it raises ValueError.
        with pytest.raises(InputError) as info:
            parse_rational(text)
        assert str(info.value) == (
            f"refusing {text!r}: its numerator or denominator has more "
            f"than 4300 digits"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "1e4290",
            "-9.99e4297",
            "1e-4299",
            # 5/10**4300 reduces to 1/(2 * 10**4299): 4300 digits.
            "5e-4300",
            pytest.param("1" * 4300, id="4300-digits"),
        ],
    )
    def test_values_that_print_parse(self, text):
        value = parse_rational(text)
        assert parse_rational(str(value)) == value


class TestParseProfileJson:
    def test_round_trip(self):
        text = '{"n": 2, "reports": [["2/5", "3/5"], ["1/2", "1/2"]]}'
        profile = parse_profile_json(text)
        assert profile == ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"))

    def test_n_is_optional_but_checked(self):
        assert parse_profile_json('{"reports": [["1/2", "1/2"]]}').n == 2
        with pytest.raises(InputError, match="expected n=3"):
            parse_profile_json('{"n": 3, "reports": [["1/2", "1/2"]]}')

    def test_bad_sum_names_the_row(self):
        text = '{"n": 2, "reports": [["49/100", "1/2"], ["1/2", "1/2"]]}'
        with pytest.raises(InputError, match=r"row 1 sums to 99/100"):
            parse_profile_json(text)
        # Each entry prints, but the row's sum has 8598 digits.
        long_sum = f"1/2,1/2; 1/{10**4299 - 1},1/{10**4299 - 3}"
        with pytest.raises(InputError) as info:
            parse_inline_profile(long_sum)
        assert str(info.value) == (
            "row 2 does not sum to 1 (its sum has more than 4300 digits)"
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ("3/5,3/5; 1/2,1/2", "row 1 sums to 6/5, not 1"),
            ("1/2,1/2; 3/5,3/5", "row 2 sums to 6/5, not 1"),
            ("1/2,1/2; 1/2,1/2; 1/3,1/3", "row 3 sums to 2/3, not 1"),
        ],
    )
    def test_refused_sum_names_the_row(self, text, message):
        # Inline and JSON rows share one parser and refuse with one text.
        rows = [row.split(",") for row in text.split("; ")]
        for parse, source in (
            (parse_inline_profile, text),
            (parse_profile_json, json.dumps({"reports": rows})),
        ):
            with pytest.raises(InputError) as info:
                parse(source)
            assert str(info.value) == message

    def test_json_floats_are_refused(self):
        text = '{"n": 2, "reports": [[0.4, 0.6]]}'
        with pytest.raises(InputError, match="JSON float"):
            parse_profile_json(text)

    def test_negative_entry_names_position(self):
        text = '{"n": 2, "reports": [["3/2", "-1/2"]]}'
        with pytest.raises(InputError, match="row 1 entry 2 is negative"):
            parse_profile_json(text)

    def test_ragged_rows_are_refused(self):
        text = '{"reports": [["1/2", "1/2"], ["1/3", "1/3", "1/3"]]}'
        with pytest.raises(InputError, match="disagree"):
            parse_profile_json(text)

    def test_structural_errors(self):
        with pytest.raises(InputError, match="invalid JSON"):
            parse_profile_json("{")
        with pytest.raises(InputError, match="object"):
            parse_profile_json("[1, 2]")
        with pytest.raises(InputError, match="reports"):
            parse_profile_json('{"n": 2}')
        with pytest.raises(InputError, match="list of lists"):
            parse_profile_json('{"reports": ["1/2"]}')
        with pytest.raises(InputError, match="no expert reports"):
            parse_profile_json('{"reports": []}')

    def test_json_integer_past_the_digit_limit_is_input_error(self):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for
        # an integer of more than 4300 digits.
        text = f'{{"n": 2, "reports": [[{"1" * 5000}, 0], ["1/2", "1/2"]]}}'
        with pytest.raises(InputError) as info:
            parse_profile_json(text)
        assert str(info.value) == (
            "invalid JSON: a number has more than 4300 digits"
        )

    def test_deep_nesting_is_input_error(self):
        text = '{"reports": ' + "[" * 100000 + "]" * 100000 + "}"
        with pytest.raises(InputError) as info:
            parse_profile_json(text)
        assert str(info.value) == (
            "invalid JSON: arrays or objects nest too deeply"
        )

    @given(profiles())
    def test_profile_to_obj_round_trips(self, profile):
        rebuilt = parse_profile_json(json.dumps(profile_to_obj(profile)))
        assert rebuilt == profile


class TestParseInlineProfile:
    def test_rows_and_entries(self):
        profile = parse_inline_profile("2/5,3/5; 1/2,1/2; 9/10,1/10")
        assert profile.m == 3
        assert profile.reports[2] == Distribution.of("9/10", "1/10")

    def test_bad_entry_is_positioned(self):
        with pytest.raises(InputError, match="row 2 entry 1"):
            parse_inline_profile("1/2,1/2; oops,1/2")


class TestParseCoalition:
    def test_one_based_labels(self):
        coalition = parse_coalition("1,3", m=3)
        assert tuple(coalition) == (0, 2)

    def test_range_errors(self):
        with pytest.raises(InputError, match="1-based"):
            parse_coalition("0,1", m=3)
        with pytest.raises(InputError, match="out of range"):
            parse_coalition("4", m=3)
        with pytest.raises(InputError, match="not an integer"):
            parse_coalition("1,x", m=3)
        with pytest.raises(InputError, match="empty"):
            parse_coalition(" , ", m=3)


class TestRendering:
    def test_fraction_and_decimal_str(self):
        assert fraction_str(Fraction(2, 5)) == "2/5"
        assert decimal_str(Fraction(2, 5)) == "0.4"
        assert decimal_str(Fraction(1, 3)) == "0.333333"
        assert decimal_str(Fraction(13, 2)) == "6.5"
        assert decimal_str(-math.inf) == "-inf"

    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(10**400), "1e+400"),
            (10**400, "1e+400"),
            (Fraction(-3 * 10**400, 7), "-4.28571e+399"),
            (Fraction(15 * 10**399), "1.5e+400"),
            (Fraction(1234565 * 10**394), "1.23456e+400"),
            (Fraction(1234575 * 10**394), "1.23458e+400"),
            (Fraction(1234565 * 10**394 + 1), "1.23457e+400"),
            (Fraction(-1234565 * 10**394), "-1.23456e+400"),
            (Fraction(9999995 * 10**394), "1e+401"),
            (Fraction(12 * 10**399), "1.2e+400"),
            (Fraction(10**4299 - 1), "1e+4299"),
            (Fraction(10**1000, 3), "3.33333e+999"),
        ],
    )
    def test_values_beyond_float_range_round_exactly(self, value, text):
        with pytest.raises(OverflowError):
            float(value)
        assert decimal_value(value) == text
        assert decimal_str(value) == text

    def test_values_in_float_range_keep_the_float_path(self):
        big = Fraction(10**300, 7)
        assert decimal_value(big) == float(big)
        assert decimal_str(big) == f"{float(big):.6g}" == "1.42857e+299"
        assert decimal_value(Fraction(1, 3)) == 1 / 3

    def test_dumps_is_sorted_and_exact(self):
        text = dumps({"b": Fraction(1, 3), "a": [Fraction(2), -math.inf]})
        assert text == '{\n  "a": [\n    "2",\n    "-inf"\n  ],\n  "b": "1/3"\n}\n'
        assert dumps({"x": 1}) == dumps({"x": 1})

    def test_csv_is_crlf_and_quoted(self):
        text = csv_text(("a", "b"), [(Fraction(1, 2), "x,y"), (None, 3)])
        assert text == 'a,b\r\n1/2,"x,y"\r\n,3\r\n'
