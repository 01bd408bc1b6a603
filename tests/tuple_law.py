"""The group laws of Z^d and H3 on integer tuples, for the pure-Python
reference loops of the tests.

The library keeps one law per model, `multiply_rows` on int64 arrays; this
one is written out separately so the references do not share its code.
"""


def multiply(model, a, b):
    """a * b in `model` (Z^d or the Heisenberg group H3)."""
    if model.name == "H3(Z)":
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])
    return tuple(x + y for x, y in zip(a, b))
