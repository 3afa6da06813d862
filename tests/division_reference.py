"""Double-double division with its whole remainder formed.

closedform.DoubleDouble divides by the double quotient q = x.hi / y.hi,
corrected by the remainder x - y q, of which it forms only the high word.
This reference forms the remainder as a whole DoubleDouble, through the
type's own product and difference, and reads its hi: the quotient the
division must match bit for bit.
"""
from zmclab.closedform import DoubleDouble


def full_remainder_quotient(x, y):
    """x / y for a DoubleDouble x and a DoubleDouble or exact double y."""
    y = y if isinstance(y, DoubleDouble) else DoubleDouble(y)
    q = x.hi / y.hi
    r = x - y * q
    c = r.hi / y.hi
    s = q + c  # Dekker's quick two-sum of q and the correction
    return DoubleDouble(s, c - (s - q))
