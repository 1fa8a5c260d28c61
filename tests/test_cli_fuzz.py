"""Fuzz the CLI contract: argv drawn from the command grammar, valid or not.

Whatever the input, `main` exits 0, 1 or 2; stdout is JSON on 0 and 1; exit 2
leaves one stderr line and no stdout; no other exception leaves `main`.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from radreduce.cli import main

# Small magnitudes keep the rational-root search of f short at p <= 13.
rationals = st.one_of(
    st.integers(min_value=-9, max_value=9).map(str),
    st.builds(
        lambda n, m: f"{n}/{m}",
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=4),
    ),
)
# int() or Fraction() accepts these; the text format does not.
non_canonical = ["\u0663", "5\n", "1_1"]
malformed = st.sampled_from(["", "1.5", "1/0", "+3", "2/-3", "abc", "0x10", "1/2/3", " 1", *non_canonical])


def mostly(valid, invalid):
    """Draw from `valid` about seven times in eight, so that most commands run."""
    return st.integers(min_value=0, max_value=7).flatmap(lambda i: valid if i else invalid)


literal = mostly(rationals, malformed)
p_values = mostly(
    st.sampled_from([3, 5, 7, 9, 11, 13]), st.sampled_from([-3, 0, 1, 2, 4, 12, 1003, "x", *non_canonical])
).map(str)
bits = mostly(
    st.sampled_from([57, 64, 128, 256]), st.sampled_from([-1, 0, 8, 56, 65537, 10**6, "x", *non_canonical])
).map(str)
tolerance_exp = mostly(st.sampled_from([0, 10, 200]), st.sampled_from([-1, -7, "x", *non_canonical])).map(str)
p_max = mostly(
    st.integers(min_value=3, max_value=21), st.sampled_from([-1, 0, 2, 202, 10**6, "x", *non_canonical])
).map(str)


def flag(name, values):
    """Optional flag: either absent or `name value`."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def switch(name):
    return st.sampled_from([[], [name]])


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for part in ps for a in part])


def required(name, values):
    return values.map(lambda v: [name, v])


argvs = st.one_of(
    command(
        "reduce",
        required("--p", p_values),
        required("--d", literal),
        required("--R", literal),
        switch("--numeric"),
        flag("--bits", bits),
        flag("--tolerance-exp", tolerance_exp),
    ),
    command("construct", required("--p", p_values), required("--D", literal), required("--u", literal)),
    command("euclid", required("--d", literal), required("--R", literal), switch("--fourth")),
    command("classify", required("--p", p_values), required("--d", literal), required("--R", literal)),
    command(
        "coeffs",
        required("--p", p_values),
        required("--family", st.sampled_from(["c", "a", "cprime", "C", "u", "b"])),
    ),
    command("verify", flag("--p-max", p_max)),
    command("selftest", flag("--bits", bits), flag("--tolerance-exp", tolerance_exp)),
    st.sampled_from([[], ["frobnicate"], ["reduce", "--frobnicate"]]),
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# The whole run takes a few seconds; the deadline flags any one input that hangs.
@given(argvs)
@settings(max_examples=500, deadline=5000)
def test_cli_contract_holds(argv):
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1, (argv, err)
    else:
        json.loads(out)
