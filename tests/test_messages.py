"""Validation messages that no other test reaches, pinned exactly."""

import io
import struct

import numpy as np
import pytest

import rednets as rn
from rednets.nets import coordinate_numerators
from rednets.product import read_product_bin

EYE = np.eye(2, dtype=np.int64)[None]
POINTS = rn.generate_points(rn.pascal_net(2, 2, 2))
POLY2 = rn.WeightModel.polynomial(2)
TWO = rn.ReductionSchedule((0, 1))

MESSAGES = {
    # nets
    "netspec-m": (lambda: rn.NetSpec(2, 0, EYE), "m must be >= 1"),
    "schedule-empty": (lambda: rn.ReductionSchedule(()), "empty schedule"),
    "floor-log": (lambda: rn.ReductionSchedule.floor_log(3, 2, 4, num=-1),
                  "exponent must be a nonnegative rational"),
    "block-ndim": (lambda: rn.PointBlock(2, 2, np.zeros(3, dtype=np.int64)),
                   "numerators must be a 2-d array"),
    "block-range": (lambda: rn.PointBlock(2, 2, [[4]]), "numerators outside [0, b^m)"),
    "n-digits": (lambda: coordinate_numerators(EYE, 2, 3), "n_digits outside [0, m]"),
    # product
    "a-ndim": (lambda: rn.standard_product(rn.NetSpec(2, 2, EYE), np.zeros(1)), "A must be 2-d"),
    "op-count": (lambda: rn.op_count_model(4, TWO, 3, 3), "schedule length does not match s"),
    "bin-header": (lambda: read_product_bin(io.BytesIO(b"abc")), "truncated header"),
    "bin-payload": (lambda: read_product_bin(io.BytesIO(struct.pack("<QQ", 2, 2) + bytes(8))),
                    "payload size does not match header"),
    # discrepancy
    "weights-empty": (lambda: rn.WeightModel.explicit([]), "empty weight list"),
    "weights-kind": (lambda: rn.WeightModel("bogus"), "unknown weight kind 'bogus'"),
    "gamma-index": (lambda: POLY2.gamma(0), "coordinates are 1-based"),
    "local-x": (lambda: rn.local_discrepancy(POINTS, (1,), (0.5, 0.5)),
                "x must have one entry per coordinate in u"),
    "projection-t": (lambda: rn.projection_disc_bound(2, 4, 5, 2, True), "need 0 <= t <= m"),
    "global-s": (lambda: rn.global_disc_bound({}, TWO, POLY2, 2, 4, 3),
                 "schedule length does not match s"),
    "kappa": (lambda: rn.choose_reduction_indices(POLY2, 2, 4, 2, "kappa"),
              "kappa scheme needs weights.kappa"),
    "zeta-tau": (lambda: rn.choose_reduction_indices(POLY2, 2, 4, 2, "zeta"),
                 "zeta scheme needs weights.decay_tau"),
    "zeta-q": (lambda: rn.choose_reduction_indices(
        rn.WeightModel.polynomial(2, decay_tau=1.001), 2, 4, 2, "zeta"),
        "zeta scheme needs decay_tau = p/q with q <= 100"),
    "zeta-value": (lambda: rn.zeta_value(1.0), "zeta_value needs tau > 1"),
    "zeta-product-tau": (lambda: rn.zeta_product_check(POLY2, TWO, 2, 2),
                         "needs weights.decay_tau"),
    "zeta-product-s": (lambda: rn.zeta_product_check(
        rn.WeightModel.polynomial(2, decay_tau=1.5), TWO, 2, 3), "schedule shorter than s"),
    # quality
    "verify-t": (lambda: rn.verify_tms_net(POINTS, -1), "need 0 <= t <= m"),
}


@pytest.mark.parametrize("name", list(MESSAGES))
def test_validation_message(name):
    call, message = MESSAGES[name]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
