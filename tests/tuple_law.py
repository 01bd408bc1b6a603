"""The group law of a pattern model on integer tuples, and the pure-Python
frontier loop the tests take as the reference for the expansion kernel.

The library keeps one law for every model, the entries of a product of
unitriangular matrices over a pattern, summed over the pattern's product
terms; this one multiplies the matrices out entry by entry, so the
references share none of its code.
"""

from functools import cache

from folnerlab.errors import BudgetExceededError


@cache
def _law(pattern):
    """a, b -> a * b over `pattern`: the matrices I + sum a_c E_ij and
    I + sum b_c E_ij, (i, j) = pattern[c], multiplied out once, entry (i, j)
    the sum over k of left[i][k] * right[k][j] without its zero terms, and
    compiled to one function, so the reference loops run as fast as a law
    written out by hand."""
    size = 1 + max(j for _, j in pattern)

    def entry(name, i, j):  # "1" on the diagonal, None where it is 0
        if i == j:
            return "1"
        return f"{name}[{pattern.index((i, j))}]" if (i, j) in pattern else None

    sums = [
        " + ".join(f"{left} * {right}" for k in range(size) if (left := entry("a", i, k)) and (right := entry("b", k, j)))
        for i, j in pattern
    ]
    return eval(f"lambda a, b: ({', '.join(sums)},)")


def multiply(model, a, b):
    """a * b in `model`, the product of its unitriangular matrices read at
    `model.pattern`, in Python ints."""
    return _law(model.pattern)(a, b)


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
