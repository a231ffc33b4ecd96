"""The weight correspondence the CGNP(radius=0) ≡ CNP identity is held to.

At radius 0 with distinct coordinates the CGNP's convolutions collapse to
pointwise affine maps, so a CGNP store maps onto a CNP that computes the
identical function. `cnp_weights_from_cgnp` builds that CNP store; the
model tests and acceptance criterion 4 hold the two forwards to 1e-9.
"""

from __future__ import annotations

from dataclasses import replace

from cgnp.models import ParameterStore, init_params


def cnp_weights_from_cgnp(store: ParameterStore) -> ParameterStore:
    """The weight correspondence under which CGNP(radius=0) equals a CNP:
    the CNP store, under the CGNP store's config with kind "cnp".

    Encoder blocks drop their weight's relative-position row (that column
    of the input is identically zero at radius 0); dec1 keeps the last
    1 + d rows of its weight, those of the self term (at radius 0 no target
    coincides with a context, so neighborhoods are empty and the mean
    reduces to the self message alone). Biases and batch-norm state carry
    over unchanged.
    """
    if store.cfg.kind != "cgnp":
        raise ValueError("expected a cgnp store")
    out = init_params(replace(store.cfg, kind="cnp"))
    for name, p in out.params.items():
        rows = store[name].value
        p.value[...] = rows[-p.value.shape[0]:] if name == "dec1.w" else rows[: p.value.shape[0]]
    out.running_mean[:] = store.running_mean
    out.running_var[:] = store.running_var
    return out
