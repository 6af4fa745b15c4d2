"""The parameter count the README's anchors quote, from the layer sizes alone.

``param_count`` tallies a model configuration without building it; the
acceptance anchors and the built-model checks compare against it.
"""

from kgchains.neural import linear_dims, mlp_dims


def param_count(input_dim: int, arch: str, submodels: int = 3) -> int:
    """Trainable parameter count (weights and biases) for a model configuration.

    ``mlp``: ``submodels`` copies of the halving three-layer net. ``linear``:
    one such net (the selector) plus ``submodels - 1`` single-layer scorers.
    """

    def tally(dims: list[int]) -> int:
        return sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))

    if arch == "mlp":
        if input_dim < 4:
            raise ValueError("mlp architecture requires input_dim >= 4")
        return submodels * tally(mlp_dims(input_dim))
    if arch == "linear":
        if input_dim < 4:
            raise ValueError("linear configuration still uses an mlp selector; input_dim >= 4")
        return tally(mlp_dims(input_dim)) + (submodels - 1) * tally(linear_dims(input_dim))
    raise ValueError(f"unknown architecture: {arch!r}")
