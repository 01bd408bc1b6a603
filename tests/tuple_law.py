"""The group laws of Z^d and H3 on integer tuples, and the pure-Python
frontier loop the tests take as the reference for the expansion kernel.

The library keeps one law for every model, the product of unitriangular
matrices over a pattern; this one is written out per model so the
references do not share its code.
"""

from folnerlab.errors import BudgetExceededError


def multiply(model, a, b):
    """a * b in `model` (Z^d or the Heisenberg group H3)."""
    if model.name == "H3(Z)":
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])
    return tuple(x + y for x, y in zip(a, b))


def reference_layers(model, seeds, factors, budget=None, stage="reference"):
    """Birth layers of seeds * F_1 * ... (identity adjoined), each in
    discovery order, by the pure-Python frontier loop."""
    birth = dict.fromkeys(seeds, 0)
    layer = list(birth)
    yield layer
    previous = None
    for n, factor in enumerate(factors, start=1):
        steps = sorted(set(factor) | {model.identity})
        sources = layer if previous is None or set(steps) <= previous else list(birth)
        layer = []
        for g in sources:
            for s in steps:
                h = multiply(model, g, s)
                if h not in birth:
                    birth[h] = n
                    layer.append(h)
        if budget is not None and len(birth) > budget:
            raise BudgetExceededError(stage, len(birth), budget, layer=n)
        previous = set(steps)
        yield layer


def reference_birth(model, factors, budget=None, stage="reference"):
    birth = {}
    for n, layer in enumerate(reference_layers(model, [model.identity], factors, budget, stage)):
        birth.update(dict.fromkeys(layer, n))
    return birth
