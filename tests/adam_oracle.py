"""Adam on the whole buffer at once, as it ran before ``neural.adam_step`` went in chunks.

Kept as the reference that the chunked update must match bit for bit.
"""

import numpy as np

from kgchains.neural import BETA1, BETA2, EPSILON


def whole_buffer_adam_step(params, grads, state):
    state.step += 1
    bc1 = 1.0 - BETA1**state.step
    bc2 = 1.0 - BETA2**state.step
    a, b = np.empty_like(state.m), np.empty_like(state.m)
    state.m *= BETA1
    state.m += np.multiply(grads.flat, 1.0 - BETA1, out=a)
    state.v *= BETA2
    state.v += np.multiply(np.square(grads.flat, out=a), 1.0 - BETA2, out=a)
    np.multiply(np.divide(state.m, bc1, out=a), state.lr, out=a)
    np.add(np.sqrt(np.divide(state.v, bc2, out=b), out=b), EPSILON, out=b)
    params.flat -= np.divide(a, b, out=a)
