import json
from pathlib import Path

import pytest

from agcodec import Code, Curve, Field, code_from_config, parse_vector

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def field9():
    return Field(3, 2)


@pytest.fixture(scope="session")
def field_65519():
    """The prime field of the largest prime order below ORDER_CAP = 2^16
    that is 3 mod 4."""
    return Field(65519)


@pytest.fixture(scope="session")
def curve_q3():
    return Curve.hermitian(3)


@pytest.fixture(scope="session")
def code_q3():
    """The q=3, u=16 Hermitian code with the bundled point order."""
    with open(FIXTURES / "hermitian_q3_u16.json", encoding="utf-8") as fh:
        return code_from_config(json.load(fh))


@pytest.fixture(scope="session")
def code_q2():
    return Code(Curve.hermitian(2), 4)


@pytest.fixture(scope="session")
def received_q3(code_q3):
    text = (FIXTURES / "received_vector_q3.txt").read_text(encoding="utf-8")
    return parse_vector(code_q3.field, text, expect_length=code_q3.n)
