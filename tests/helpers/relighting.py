"""Recomputing forms of a relighting plan's raw luminance, clip mask, light VJP and Jacobian,
as test oracles."""

import numpy as np

from advrelight.shading import BAND_GAINS, as_light


def raw(plan, new_light) -> np.ndarray:
    """Unclamped relit luminance over the masked pixels, by the quotient formula."""
    return plan.lum * (plan.basis @ (BAND_GAINS * as_light(new_light))) / plan.denom


def unclamped(plan, new_light) -> np.ndarray:
    """Masked pixels whose raw relit luminance under ``new_light`` lies in [0, 1]."""
    values = raw(plan, new_light)
    return (values >= 0.0) & (values <= 1.0)


def light_vjp(plan, grad_lum, new_light) -> np.ndarray:
    """``plan.light_vjp`` with the clip mask recomputed from ``new_light``."""
    g = np.asarray(grad_lum, dtype=np.float64)[plan.mask]
    return BAND_GAINS * (plan.basis.T @ (g * (plan.lum / plan.denom) * unclamped(plan, new_light)))


def jacobian(plan, new_light) -> np.ndarray:
    """Dense H x W x 9 Jacobian of the relit luminance; unmasked and clipped pixels are 0."""
    rows = (plan.basis * BAND_GAINS) * (plan.lum / plan.denom)[:, None]
    rows[~unclamped(plan, new_light)] = 0.0
    jac = np.zeros((*plan.mask.shape, 9), dtype=np.float64)
    jac[plan.mask] = rows
    return jac
