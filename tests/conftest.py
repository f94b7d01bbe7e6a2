import pytest

from spweil.fields import FieldSpec, make_field
from spweil.linalg import DenseMatrix


def _kron(a, b):
    """Kronecker product of DenseMatrix a and b; a carries the more
    significant index."""
    ctx = a.ctx
    if b.ctx is not ctx:
        raise ValueError("mixed field contexts")
    return DenseMatrix(ctx, [[ctx.mul(x, y) for x in arow for y in brow]
                             for arow in a.rows for brow in b.rows])


@pytest.fixture(scope="session")
def kron():
    return _kron


@pytest.fixture(scope="session")
def gf7():
    return make_field(FieldSpec("auto-prime", 3))  # GF(7), theta = 2


@pytest.fixture(scope="session")
def gf11():
    return make_field(FieldSpec("auto-prime", 5))  # GF(11), theta = 4


@pytest.fixture(scope="session")
def gf4():
    return make_field(FieldSpec("auto-char2", 3))  # GF(4), theta = x


@pytest.fixture(scope="session")
def gf16():
    return make_field(FieldSpec("auto-char2", 5))


@pytest.fixture(scope="session")
def cyc3():
    return make_field(FieldSpec("cyclotomic", 3))


@pytest.fixture(scope="session")
def cyc5():
    return make_field(FieldSpec("cyclotomic", 5))


@pytest.fixture(scope="session")
def cyc7():
    return make_field(FieldSpec("cyclotomic", 7))
