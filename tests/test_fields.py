import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spweil import fields
from spweil.fields import (ExtensionFieldContext, FieldSpec, InvalidFieldSpec,
                           find_irreducible_polynomial, is_irreducible, legendre,
                           make_field, parse_field_spec)

ALL_CTXS = [
    FieldSpec("cyclotomic", 3),
    FieldSpec("cyclotomic", 5),
    FieldSpec("auto-prime", 3),
    FieldSpec("auto-prime", 5),
    FieldSpec("auto-prime", 7),
    FieldSpec("auto-char2", 3),
    FieldSpec("auto-char2", 5),
]


def _elements(ctx, draw_ints):
    """Build a deterministic element from a list of integers."""
    if ctx.kind == "prime":
        return draw_ints[0] % ctx.p
    if ctx.kind == "extension":
        return tuple(x % ctx.p for x in draw_ints[:ctx.k]) + (0,) * max(0, ctx.k - len(draw_ints))
    nums = [x % 19 - 9 for x in draw_ints[:ctx.r - 1]]
    nums += [0] * (ctx.r - 1 - len(nums))
    den = abs(draw_ints[-1]) % 6 + 1
    return ctx._norm(nums, den)


@pytest.mark.parametrize("spec", ALL_CTXS, ids=str)
@given(ints=st.lists(st.integers(-50, 50), min_size=13, max_size=13))
@settings(max_examples=60, deadline=None)
def test_field_axioms(spec, ints):
    ctx = make_field(spec)
    x = _elements(ctx, ints[:5])
    y = _elements(ctx, ints[4:9])
    z = _elements(ctx, ints[8:13])
    assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
    assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
    assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
    assert ctx.add(x, y) == ctx.add(y, x)
    assert ctx.mul(x, y) == ctx.mul(y, x)
    assert ctx.sub(x, x) == ctx.zero
    if x != ctx.zero:
        assert ctx.mul(x, ctx.inv(x)) == ctx.one


@pytest.mark.parametrize("spec", ALL_CTXS, ids=str)
@given(ints=st.lists(st.integers(-50, 50), min_size=20, max_size=20),
       pattern=st.lists(st.sampled_from(["xy", "x", "y", ""]), max_size=5))
@settings(max_examples=40, deadline=None)
def test_dot_matches_add_mul_fold(spec, ints, pattern):
    # pattern[i] names the operands that are nonzero at position i
    ctx = make_field(spec)
    xs = [_elements(ctx, ints[i:i + 5]) if "x" in keep else ctx.zero
          for i, keep in enumerate(pattern)]
    ys = [_elements(ctx, ints[i + 10:i + 15]) if "y" in keep else ctx.zero
          for i, keep in enumerate(pattern)]
    want = ctx.zero
    for x, y in zip(xs, ys):
        want = ctx.add(want, ctx.mul(x, y))
    assert ctx.dot(xs, ys) == want
    assert ctx.dot([], []) == ctx.zero


# Q(theta_3), Q(theta_5), GF(7), GF(11), GF(4), GF(16), GF(8), GF(25)
FAST_PATH_CTXS = [
    FieldSpec("cyclotomic", 3),
    FieldSpec("cyclotomic", 5),
    FieldSpec("auto-prime", 3),
    FieldSpec("auto-prime", 5),
    FieldSpec("auto-char2", 3),
    FieldSpec("auto-char2", 5),
    FieldSpec("auto-char2", 7),
    FieldSpec("extension", 3, p=5, k=2),
]


@pytest.mark.parametrize("spec", FAST_PATH_CTXS, ids=str)
@given(ints=st.lists(st.integers(-50, 50), min_size=5, max_size=5),
       e=st.integers(-40, 40))
@settings(max_examples=60, deadline=None)
def test_mul_theta_power_matches_mul(spec, ints, e):
    # cyclotomic elements from _elements carry denominators 1..6
    ctx = make_field(spec)
    a = _elements(ctx, ints)
    assert ctx.mul_theta_power(a, e) == ctx.mul(a, ctx.theta_pow[e % ctx.r])


# (r, p, k) for GF(4), GF(8), GF(16), GF(7^2), GF(3^4), with the theta that
# the search over encoding order gave before the fields had tables
TABLED_FIELDS = {
    (3, 2, 2): (0, 1),
    (7, 2, 3): (0, 1, 0),
    (5, 2, 4): (0, 0, 0, 1),
    (3, 7, 2): (4, 0),
    (5, 3, 4): (2, 1, 0, 2),
}


def _table_and_convolution(r, p, k):
    """The same field twice: with log and exp tables, and built with the table
    bound at 0, so that it multiplies by convolution."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "MAX_TABLE_ORDER", 0)
        conv = ExtensionFieldContext(r, p, k)
    return ExtensionFieldContext(r, p, k), conv


@pytest.mark.parametrize("rpk", TABLED_FIELDS, ids=str)
@given(ints=st.lists(st.integers(-50, 50), min_size=10, max_size=10),
       zeros=st.sets(st.sampled_from("ab")), e=st.integers(-40, 40))
@settings(max_examples=60, deadline=None)
def test_tables_match_convolution_route(rpk, ints, zeros, e):
    tab, conv = _table_and_convolution(*rpk)
    assert tab._log is not None and conv._log is None
    a = tab.zero if "a" in zeros else _elements(tab, ints[:5])
    b = tab.zero if "b" in zeros else _elements(tab, ints[5:])
    assert tab.mul(a, b) == conv.mul(a, b)
    assert tab.add(a, b) == conv.add(a, b)
    assert tab.add(a, tab.neg(a)) == tab.zero
    assert tab.add(b, tab.neg(b)) == tab.zero
    assert tab.mul_theta_power(a, e) == conv.mul_theta_power(a, e)
    assert tab.pow(a, abs(e)) == conv.pow(a, abs(e))
    if a != tab.zero:
        assert tab.inv(a) == conv.inv(a)
        assert tab.pow(a, e) == conv.pow(a, e)
    else:
        with pytest.raises(ZeroDivisionError):
            tab.inv(a)


@pytest.mark.parametrize("rpk,theta", TABLED_FIELDS.items(), ids=str)
def test_tables_keep_theta(rpk, theta):
    tab, conv = _table_and_convolution(*rpk)
    assert tab.theta == conv.theta == theta
    assert tab.theta_pow == conv.theta_pow


def test_field_above_table_bound_multiplies_by_convolution():
    ctx = ExtensionFieldContext(3, 2, 18)   # q = 2^18 > MAX_TABLE_ORDER
    assert ctx.q > fields.MAX_TABLE_ORDER and ctx._log is None
    x = ctx.theta
    assert ctx.pow(x, 3) == ctx.one and x != ctx.one
    y = ctx.add(x, ctx.from_int(1))
    assert ctx.mul(y, ctx.inv(y)) == ctx.one
    assert ctx.mul_theta_power(y, 2) == ctx.mul(y, ctx.theta_pow[2])


@pytest.mark.parametrize("spec", ALL_CTXS, ids=str)
def test_root_of_unity_invariants(spec):
    ctx = make_field(spec)
    r = ctx.r
    theta = ctx.theta
    assert ctx.pow(theta, r) == ctx.one
    for j in range(1, r):
        assert ctx.pow(theta, j) != ctx.one or j == 0
    total = ctx.zero
    for j in range(r):
        total = ctx.add(total, ctx.theta_pow[j])
    assert total == ctx.zero
    # theta^n reduces to theta^(n mod r)
    assert ctx.pow(theta, r + 2) == ctx.theta_pow[2]
    assert ctx.pow(theta, 5 * r + 1) == theta


@pytest.mark.parametrize("spec", ALL_CTXS, ids=str)
def test_make_field_deterministic(spec):
    a = make_field(spec)
    b = make_field(spec)
    assert a.theta == b.theta
    assert a.spec_json() == b.spec_json()


def test_auto_prime_resolution():
    # smallest p = 1 (mod r); theta = (smallest primitive root)^((p-1)/r)
    ctx = make_field(FieldSpec("auto-prime", 3))
    assert ctx.p == 7 and ctx.theta == 2  # 3^2 = 2 mod 7; 2^3 = 8 = 1
    assert pow(2, 3, 7) == 1 and 2 != 1
    ctx = make_field(FieldSpec("auto-prime", 5))
    assert ctx.p == 11 and ctx.theta == 4
    assert pow(4, 5, 11) == 1
    assert all(pow(4, j, 11) != 1 for j in range(1, 5))
    assert make_field(FieldSpec("auto-prime", 7)).p == 29
    assert make_field(FieldSpec("auto-prime", 11)).p == 23
    assert make_field(FieldSpec("auto-prime", 13)).p == 53


def test_auto_char2_resolution():
    ctx = make_field(FieldSpec("auto-char2", 3))
    assert (ctx.p, ctx.k) == (2, 2)
    assert ctx.modulus == (1, 1, 1)  # x^2 + x + 1
    assert ctx.theta == (0, 1)       # the adjoined root
    assert (2 ** 2 - 1) % 3 == 0
    ctx = make_field(FieldSpec("auto-char2", 5))
    assert (ctx.p, ctx.k) == (2, 4)
    ctx = make_field(FieldSpec("auto-char2", 7))
    assert (ctx.p, ctx.k) == (2, 3)


def test_invalid_specs():
    with pytest.raises(InvalidFieldSpec):
        make_field(FieldSpec("prime", 3, p=5))  # 3 does not divide 4
    with pytest.raises(InvalidFieldSpec):
        make_field(FieldSpec("cyclotomic", 4))  # not prime
    with pytest.raises(InvalidFieldSpec):
        make_field(FieldSpec("cyclotomic", 2))  # not odd
    with pytest.raises(InvalidFieldSpec):
        make_field(FieldSpec("extension", 3, p=3, k=2))  # char = r
    with pytest.raises(InvalidFieldSpec):
        # x^2 + 1 = (x+1)^2 over GF(2)
        make_field(FieldSpec("extension", 3, p=2, k=2, modulus=(1, 0, 1)))


@pytest.mark.parametrize("k", [0, -1])
def test_extension_degree_below_one(k):
    # rejected before p ** k is formed, with the degree named in the message
    with pytest.raises(InvalidFieldSpec, match=rf"extension degree k = {k} must be >= 1"):
        ExtensionFieldContext(3, 7, k)


@pytest.mark.parametrize("text,r", [("gf:2^80", 3), ("gf:3^2000", 5), ("gf:2^41", 3),
                                    ("gf:1099511627791", 3), ("gf:2^100000000000", 3)])
def test_field_order_limit_refuses_before_search(text, r, monkeypatch):
    # q = p^k above MAX_FIELD_ORDER is refused before any primality test,
    # factoring or polynomial search; p^k is not formed for a huge k
    import spweil.fields as fields

    def poisoned(*args):
        raise AssertionError("field set-up reached for an oversized field")

    for name in ("is_prime", "find_irreducible_polynomial", "prime_factors"):
        monkeypatch.setattr(fields, name, poisoned)
    with pytest.raises(InvalidFieldSpec, match="exceeds the limit 2\\^40"):
        make_field(parse_field_spec(text, r))


def test_field_order_limit_covers_auto_char2():
    # 2 has order 58 mod 59, so gf2-auto at r = 59 would need GF(2^58)
    with pytest.raises(InvalidFieldSpec, match="field order 2\\^58 exceeds"):
        make_field(FieldSpec("auto-char2", 59))
    with pytest.raises(InvalidFieldSpec, match="exceeds the limit"):
        ExtensionFieldContext(3, 2, 42)


def test_field_order_limit_admits_test_and_benchmark_fields():
    from spweil.fields import MAX_FIELD_ORDER
    assert 2 ** 12 <= MAX_FIELD_ORDER    # gf2-auto up to r = 13 (k = 12)
    assert make_field(parse_field_spec("gf:2^4", 5)).q == 16
    assert make_field(parse_field_spec("gf:5^2", 3)).q == 25


def test_find_irreducible_polynomial():
    assert find_irreducible_polynomial(2, 2) == (1, 1, 1)
    assert find_irreducible_polynomial(2, 1) == (0, 1)  # x, degree-1 convention
    assert find_irreducible_polynomial(2, 4) == (1, 1, 0, 0, 1)  # x^4 + x + 1
    for p, k in [(2, 3), (3, 2), (5, 2), (2, 8)]:
        f = find_irreducible_polynomial(p, k)
        assert len(f) == k + 1 and f[-1] == 1
        assert is_irreducible(f, p)


def test_legendre():
    assert legendre(2, 3) == -1
    assert legendre(2, 7) == 1
    assert legendre(0, 5) == 0
    # Euler criterion cross-check: count the squares mod 11
    squares = {(x * x) % 11 for x in range(1, 11)}
    for a in range(1, 11):
        assert legendre(a, 11) == (1 if a in squares else -1)


@pytest.mark.parametrize("spec", ALL_CTXS, ids=str)
def test_serialization_roundtrip(spec):
    ctx = make_field(spec)
    samples = [ctx.zero, ctx.one, ctx.theta, ctx.neg(ctx.theta),
               ctx.mul(ctx.theta, ctx.theta), ctx.inv(ctx.from_int(ctx.r))]
    for x in samples:
        assert ctx.parse_elem(ctx.serialize_elem(x)) == x


def test_cyclotomic_serialization_format(cyc3):
    lam = cyc3.mul(cyc3.sub(cyc3.mul(cyc3.theta, cyc3.theta), cyc3.theta),
                   cyc3.inv(cyc3.from_int(3)))
    assert cyc3.serialize_elem(lam) == ["-1/3", "-2/3"]
    assert cyc3.serialize_elem(cyc3.one) == ["1/1", "0/1"]


def test_extension_field_arithmetic(gf4):
    x = gf4.theta
    # GF(4): x^2 = x + 1, x^3 = 1
    assert gf4.mul(x, x) == (1, 1)
    assert gf4.pow(x, 3) == gf4.one
    assert gf4.inv(x) == gf4.mul(x, x)


def test_parse_field_spec():
    assert parse_field_spec("cyclotomic", 3).kind == "cyclotomic"
    assert parse_field_spec("auto-prime", 3).kind == "auto-prime"
    assert parse_field_spec("gf2-auto", 3).kind == "auto-char2"
    spec = parse_field_spec("gf:7", 3)
    assert spec.kind == "prime" and spec.p == 7
    spec = parse_field_spec("gf:4", 3)
    assert spec.kind == "extension" and (spec.p, spec.k) == (2, 2)
    spec = parse_field_spec("gf:2^4", 5)
    assert spec.kind == "extension" and (spec.p, spec.k) == (2, 4)
    with pytest.raises(InvalidFieldSpec):
        parse_field_spec("gf:12", 3)
    with pytest.raises(InvalidFieldSpec):
        parse_field_spec("nonsense", 3)
