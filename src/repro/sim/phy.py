"""PHY profiles: timing constants, airtimes and SINR reception thresholds.

Two profiles are provided:

``DOT11G``
    An 802.11g OFDM PHY matching the paper's large-scale evaluation
    (Sec. 4.2.1): 9 us slots, 12 Mbps data rate, 512 B packets.
    Reception is threshold-based: a frame is delivered iff its SINR
    stays above the rate's threshold for its entire airtime.  The
    threshold table is in the spirit of the ns-3 OFDM error model the
    paper cites (Pei & Henderson): about 5 dB for 6 Mbps BPSK-1/2 up
    to 25 dB for 54 Mbps.

``USRP``
    A deliberately slow profile reproducing the *shape* of the USRP
    prototype numbers in Table 2.  GNURadio USRP MACs are dominated by
    host-USB turnaround latency (tens of milliseconds per MAC
    operation), which is why the paper's testbed throughput is in the
    single-digit Kbps.  The profile scales every MAC timing constant
    by roughly the measured USRP turnaround so that contention /
    backoff overhead ratios — the quantity Table 2 actually probes —
    are preserved.

Signature (trigger) frames get a correlation-gain bonus on top of the
data threshold: a 127-chip Gold code correlator achieves a processing
gain of ``10*log10(127) ~= 21 dB``, which is what lets DOMINO detect a
trigger through a collision that destroys the packet itself (Sec. 3.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from .packet import Frame, FrameKind

# Paper constants (Sec. 3.1 / 3.2 / Table 1).
SIGNATURE_LENGTH_CHIPS = 127
SIGNATURE_US = 6.35            # 127 chips at 20 MHz, BPSK
ROP_SYMBOL_US = 16.0           # 256-subcarrier OFDM symbol
ROP_CP_US = 3.2
GOLD_FAMILY_SIZE = 129         # 2^7 + 1 codes of length 127
RESERVED_SIGNATURES = 2        # START and ROP signatures
MAX_NODES_PER_DOMAIN = GOLD_FAMILY_SIZE - RESERVED_SIGNATURES

# Correlation (processing) gain of a length-127 signature in dB.
SIGNATURE_CORRELATION_GAIN_DB = 10.0 * math.log10(SIGNATURE_LENGTH_CHIPS)


def dbm_to_mw(dbm: float) -> float:
    """Convert power in dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert power in milliwatts to dBm (any non-positive mW maps to
    -200 dBm)."""
    if mw <= 0.0:
        return -200.0
    return 10.0 * math.log10(mw)


@dataclass(frozen=True)
class PhyProfile:
    """Bundle of PHY/MAC timing and reception constants.

    All times are microseconds, powers dBm, rates Mbps.
    """

    name: str
    slot_us: float
    sifs_us: float
    preamble_us: float          # PLCP preamble + header airtime
    cw_min: int                 # DCF minimum contention window (slots)
    cw_max: int
    retry_limit: int
    noise_dbm: float            # thermal noise floor over the channel
    cs_threshold_dbm: float     # energy level that marks the channel busy
    sensitivity_dbm: float      # minimum RSS to lock onto a frame
    tx_power_dbm: float
    data_rate_mbps: float       # rate used for DATA frames
    basic_rate_mbps: float      # rate used for ACK / POLL / FAKE frames
    sinr_thresholds_db: Dict[float, float] = field(default_factory=dict)
    capture_margin_db: float = 10.0   # preamble capture: relock threshold
    signature_us: float = SIGNATURE_US
    rop_symbol_us: float = ROP_SYMBOL_US
    ack_timeout_extra_us: float = 20.0  # grace beyond SIFS+ACK airtime

    @property
    def difs_us(self) -> float:
        """DIFS = SIFS + 2 slots (802.11)."""
        return self.sifs_us + 2.0 * self.slot_us

    # ------------------------------------------------------------------
    # Airtimes
    # ------------------------------------------------------------------
    def bytes_airtime_us(self, nbytes: int, rate_mbps: float) -> float:
        """Airtime of ``nbytes`` at ``rate_mbps``, preamble included."""
        return self.preamble_us + (nbytes * 8.0) / rate_mbps

    def frame_rate_mbps(self, frame: Frame) -> float:
        """PHY rate a frame kind is sent at."""
        if frame.kind is FrameKind.DATA:
            return self.data_rate_mbps
        return self.basic_rate_mbps

    def frame_airtime_us(self, frame: Frame) -> float:
        """Total channel occupation of ``frame`` in microseconds."""
        if frame.kind is FrameKind.TRIGGER:
            # Combined signatures are *added* sample-wise, so a burst is
            # one signature duration followed by the START signature.
            return 2.0 * self.signature_us
        if frame.kind is FrameKind.QUEUE_REPORT:
            return self.rop_symbol_us
        return self.bytes_airtime_us(frame.mac_bytes(), self.frame_rate_mbps(frame))

    def ack_airtime_us(self) -> float:
        from .packet import ACK_BYTES
        return self.bytes_airtime_us(ACK_BYTES, self.basic_rate_mbps)

    def ack_timeout_us(self) -> float:
        """How long a sender waits for an ACK before declaring loss."""
        return self.sifs_us + self.ack_airtime_us() + self.ack_timeout_extra_us

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def sinr_threshold_db(self, rate_mbps: float) -> float:
        """Minimum SINR (dB) to decode a frame at ``rate_mbps``."""
        if rate_mbps in self.sinr_thresholds_db:
            return self.sinr_thresholds_db[rate_mbps]
        # Fall back to the nearest configured rate at or above the
        # requested one; conservative for unconfigured rates.
        higher = [r for r in self.sinr_thresholds_db if r >= rate_mbps]
        if higher:
            return self.sinr_thresholds_db[min(higher)]
        return max(self.sinr_thresholds_db.values())

    def frame_sinr_threshold_db(self, frame: Frame) -> float:
        """Decode threshold for a frame, with correlation gain for triggers."""
        base = self.sinr_threshold_db(self.frame_rate_mbps(frame))
        if frame.kind is FrameKind.TRIGGER:
            return base - SIGNATURE_CORRELATION_GAIN_DB
        return base

    def noise_mw(self) -> float:
        return dbm_to_mw(self.noise_dbm)


# 802.11g OFDM SINR thresholds (dB), per-rate, in the spirit of the
# ns-3 NIST/YANS error models evaluated by Pei & Henderson.
_DOT11G_THRESHOLDS = {
    6.0: 5.0,
    9.0: 6.0,
    12.0: 8.0,
    18.0: 10.5,
    24.0: 13.5,
    36.0: 17.5,
    48.0: 21.5,
    54.0: 24.0,
}

DOT11G = PhyProfile(
    name="802.11g",
    slot_us=9.0,
    sifs_us=10.0,
    preamble_us=20.0,
    cw_min=15,
    cw_max=1023,
    retry_limit=7,
    noise_dbm=-94.0,           # -101 dBm thermal over 20 MHz + 7 dB NF
    cs_threshold_dbm=-82.0,    # 802.11 energy-detect / preamble CS level
    sensitivity_dbm=-88.0,
    tx_power_dbm=15.0,
    data_rate_mbps=12.0,       # paper Sec. 4.2.1
    basic_rate_mbps=6.0,
    sinr_thresholds_db=dict(_DOT11G_THRESHOLDS),
)

# USRP/GNURadio profile: the dominant cost on the testbed is the
# host<->USB<->USRP turnaround (every MAC action crosses user space),
# modelled as a very large preamble and slot time; rates are the
# effective throughput of the GNURadio BPSK PHY with its software
# framing.  Constants are calibrated so saturated DCF lands in the
# single-digit-Kbps regime of Table 2.
USRP = PhyProfile(
    name="usrp-gnuradio",
    slot_us=20_000.0,          # host-limited CSMA slot (20 ms)
    sifs_us=20_000.0,
    preamble_us=150_000.0,     # per-frame host + USB + framing latency
    cw_min=31,
    cw_max=255,
    retry_limit=5,
    noise_dbm=-90.0,
    cs_threshold_dbm=-80.0,
    sensitivity_dbm=-85.0,
    tx_power_dbm=10.0,
    data_rate_mbps=0.02,
    basic_rate_mbps=0.01,
    sinr_thresholds_db={0.01: 4.0, 0.02: 6.0},
    signature_us=2_000.0,      # 127 chips at the USRP's low chip rate
    ack_timeout_extra_us=40_000.0,
)


# The paper's large-scale substrate is ns-3; its YansWifiPhy declares
# the channel busy on *energy detection* near the noise floor
# (CcaMode1Threshold default -99 dBm), a far bigger carrier-sense
# footprint than the -82 dBm preamble-detect level of commodity
# hardware.  The Fig. 14 random experiment uses this profile to match
# the substrate the paper ran on; -96 dBm accounts for our medium's
# energy floor while keeping the wide ns-3-style footprint.
import dataclasses as _dataclasses

DOT11G_NS3 = _dataclasses.replace(
    DOT11G, name="802.11g-ns3", cs_threshold_dbm=-96.0,
)


def profile_by_name(name: str) -> PhyProfile:
    """Look up a built-in profile (``802.11g`` or ``usrp-gnuradio``)."""
    for profile in (DOT11G, USRP):
        if profile.name == name:
            return profile
    raise KeyError(f"unknown PHY profile {name!r}")
