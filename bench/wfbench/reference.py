"""Closed forms from the paper's model, coded independently of the program.

Inputs are the benchmark's own scenario documents (JSON-ready mappings);
ratio fields in dB are converted here with the power convention.

* Cascade: ``W = 1 + sum_k (W_k - 1) / prod_{i>k} G_i``.
* Link: transmitter (waste ``w_tx``), channel as a passive stage (gain
  ``g_ch``, waste ``1/g_ch``) and receiver (``g_rx``, ``w_rx``) cascaded;
  ``E_b = P_np / C + ln2 * N0 * W``. The approximate form uses the
  wide-coverage waste ``w_tx / (g_rx * g_ch)``.
* Relay and FWA: each hop costs ``ln2 * N0 * W_tx * d**alpha / (k * G_rx)``
  per bit, every active route pays ``P_np / C`` per transmitting hop, and
  FWA weights the uplink and downlink hops by the traffic mix.

The relay and FWA forms also take the geometry as arrays, so that a
swept mask can be checked against the energy comparison itself.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


def ratio(section: dict, key: str) -> float:
    if key in section:
        return float(section[key])
    return 10.0 ** (section[f"{key}_db"] / 10.0)


def _energy(section: dict) -> tuple[float, float, float]:
    e = section["energy"]
    capacity = e["capacity"] if "capacity" in e else e["capacity_uplink"]
    p_np = e.get("p_np", e.get("p_np_uplink", 0.0))
    return float(e["n0"]), float(capacity), float(p_np)


def cascade_waste(stages: list[tuple[float, float]]) -> float:
    """Waste factor of (gain, waste) stages listed source to sink."""
    total = 1.0
    for k, (_, waste) in enumerate(stages):
        downstream = math.prod(gain for gain, _ in stages[k + 1:])
        total += (waste - 1.0) / downstream
    return total


def cascade_stages(doc: dict) -> list[tuple[float, float]]:
    out = []
    for entry in doc["cascade"]:
        gain = ratio(entry, "gain")
        out.append((gain, 1.0 / gain if entry.get("passive") else ratio(entry, "waste")))
    return out


def link_channel_gain(doc: dict) -> float:
    ch = doc["link"]["channel"]
    if "k" in ch:
        return ch["k"] / ch["distance"] ** ch["alpha"]
    return ratio(ch, "gain")


def link_energies(doc: dict) -> tuple[float, float]:
    """(exact, approximate) energy per bit of a ``link`` document."""
    sec = doc["link"]
    t = sec["terminals"]
    w_tx, w_rx, g_rx = ratio(t, "w_tx"), ratio(t, "w_rx"), ratio(t, "g_rx")
    g_ch = link_channel_gain(doc)
    n0, capacity, p_np = _energy(sec)
    w = cascade_waste([(1.0, w_tx), (g_ch, 1.0 / g_ch), (g_rx, w_rx)])
    fixed = p_np / capacity
    return fixed + LN2 * n0 * w, fixed + LN2 * n0 * w_tx / (g_rx * g_ch)


def _hop(n0: float, w_tx: float, g_rx: float, d: float, alpha: float, k: float) -> float:
    return LN2 * n0 * w_tx * d**alpha / (k * g_rx)


def _geometry(s: dict, d1, d2, d3):
    """The given distances, or the document's own where one is None."""
    return tuple(s[key] if d is None else d for key, d in (("d1", d1), ("d2", d2), ("d3", d3)))


def relay_energies(doc: dict, d1=None, d2=None, d3=None):
    """(direct, relayed) energy per bit of a ``relay_scenario`` document.

    Distances that are given (floats or arrays) replace the document's.
    """
    s = doc["relay_scenario"]
    n0, capacity, p_np = _energy(s)
    alpha, k = s["alpha"], s.get("k", 1.0)
    w_src, w_rel = ratio(s, "w_tx_source"), ratio(s, "w_tx_relay")
    g_rel, g_snk = ratio(s, "g_rx_relay"), ratio(s, "g_rx_sink")
    d1, d2, d3 = _geometry(s, d1, d2, d3)
    direct = p_np / capacity + _hop(n0, w_src, g_snk, d3, alpha, k)
    relayed = (
        2.0 * p_np / capacity
        + _hop(n0, w_src, g_rel, d1, alpha, k)
        + _hop(n0, w_rel, g_snk, d2, alpha, k)
    )
    return direct, relayed


def fwa_energies(doc: dict, d1=None, d2=None, d3=None):
    """(direct, assisted) traffic-weighted energy per bit of an ``fwa_scenario``.

    Distances that are given (floats or arrays) replace the document's.
    """
    s = doc["fwa_scenario"]
    n0, capacity, p_np = _energy(s)
    alpha, k = s["alpha"], s.get("k", 1.0)
    rho_u = s["rho_u"]
    rho_d = 1.0 - rho_u
    w_ue, w_bs, w_ap = ratio(s, "w_tx_ue"), ratio(s, "w_tx_bs"), ratio(s, "w_tx_ap")
    g_ue, g_bs, g_ap = ratio(s, "g_rx_ue"), ratio(s, "g_rx_bs"), ratio(s, "g_rx_ap")
    d1, d2, d3 = _geometry(s, d1, d2, d3)
    direct = p_np / capacity + (
        rho_u * _hop(n0, w_ue, g_bs, d3, alpha, k) + rho_d * _hop(n0, w_bs, g_ue, d3, alpha, k)
    )
    assisted = 2.0 * p_np / capacity + (
        rho_u * (_hop(n0, w_ue, g_ap, d1, alpha, k) + _hop(n0, w_ap, g_bs, d2, alpha, k))
        + rho_d * (_hop(n0, w_bs, g_ap, d1, alpha, k) + _hop(n0, w_ap, g_ue, d2, alpha, k))
    )
    return direct, assisted


def assisted_cheaper(energies, doc: dict, d1, d2, d3, tie: float = 1e-9):
    """Where the two-hop route costs less, by the closed-form energies.

    ``energies`` is ``relay_energies`` or ``fwa_energies``; ``d1``, ``d2``
    and ``d3`` are arrays of one shape. Returns ``(cheaper, decided)``:
    ``decided`` is False where the two energies are within ``tie``
    (relative) of each other, where rounding may decide either way.
    """
    direct, assisted = energies(doc, d1, d2, d3)
    return assisted < direct, np.abs(assisted - direct) > tie * direct


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))
