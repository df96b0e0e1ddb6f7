"""Hardware platform models: USRP N210, TI CC26x2R1, RSSI estimation.

RSSI estimation is imported from :mod:`repro.hardware.rssi`.
"""

from repro.hardware.cc26x2 import (
    CC26X2_CONFIG,
    CC26X2_IMPLEMENTATION_LOSS_DB,
    Cc26x2Receiver,
    cc26x2_receiver_config,
)
from repro.hardware.frontend import (
    FrontEnd,
    FrontEndConfig,
    apply_iq_imbalance,
    quantize_iq,
)
from repro.hardware.usrp import (
    USRP_IMPLEMENTATION_LOSS_DB,
    USRP_N210_CONFIG,
    UsrpN210,
    gnuradio_simulation_receiver_config,
    usrp_receiver_config,
)

__all__ = [
    "CC26X2_CONFIG",
    "CC26X2_IMPLEMENTATION_LOSS_DB",
    "Cc26x2Receiver",
    "FrontEnd",
    "FrontEndConfig",
    "USRP_IMPLEMENTATION_LOSS_DB",
    "USRP_N210_CONFIG",
    "UsrpN210",
    "apply_iq_imbalance",
    "cc26x2_receiver_config",
    "gnuradio_simulation_receiver_config",
    "quantize_iq",
    "usrp_receiver_config",
]
