"""Seeded scenario documents: the only inputs the program sees.

Every generator draws from the ``random.Random`` it is given, so one seed
gives the same documents. Ratio fields are written in linear form or in
dB at random, to exercise both spellings the parser accepts. Values stay
inside what the validators accept, so no operation is expected to fail.
"""

from __future__ import annotations

import math
import random

from . import reference

FIXED_ALPHA_PLANAR = 4.0


def _ratio(rng: random.Random, out: dict, key: str, lo: float, hi: float) -> None:
    """Set ``key`` (linear, drawn in [lo, hi]) or ``key_db`` (rounded dB)."""
    if rng.random() < 0.5:
        out[key] = rng.uniform(lo, hi)
    else:
        out[f"{key}_db"] = round(10.0 * math.log10(rng.uniform(lo, hi)), 2)


def _energy(rng: random.Random, p_np: float = 0.0) -> dict:
    e = {"n0": 10.0 ** rng.uniform(-21.0, -19.0)}
    capacity = 10.0 ** rng.uniform(6.0, 9.0)
    if rng.random() < 0.1:
        e["capacity_uplink"] = e["capacity_downlink"] = capacity
    else:
        e["capacity"] = capacity
    if p_np > 0.0:
        e["p_np"] = p_np
    return e


def _with_pnp(doc: dict, section: str, path_term: float, rng: random.Random) -> None:
    """Give the document a fixed power whose per-bit cost is 10-100 % of ``path_term``."""
    e = doc[section]["energy"]
    capacity = e.get("capacity", e.get("capacity_uplink"))
    e["p_np"] = rng.uniform(0.1, 1.0) * path_term * capacity


def cascade_doc(rng: random.Random) -> dict:
    stages = []
    for i in range(rng.randint(2, 64)):
        st = {"label": f"s{i}"} if rng.random() < 0.8 else {}
        if rng.random() < 0.3:
            _ratio(rng, st, "gain", 0.3, 0.95)
            st["passive"] = True
        else:
            _ratio(rng, st, "gain", 0.5, 1000.0)
            _ratio(rng, st, "waste", 1.0, 5.0)
        stages.append(st)
    return {"cascade": stages}


def link_doc(rng: random.Random, with_pnp: bool) -> dict:
    terminals: dict = {}
    _ratio(rng, terminals, "w_tx", 1.0, 5.0)
    _ratio(rng, terminals, "w_rx", 1.0, 3.0)
    _ratio(rng, terminals, "g_rx", 1.0, 1000.0)
    if rng.random() < 0.7:
        channel = {
            "k": 10.0 ** rng.uniform(-8.0, -3.0),
            "alpha": rng.uniform(2.0, 4.0),
            "distance": 10.0 ** rng.uniform(0.5, 3.0),
        }
    else:
        channel = {}
        _ratio(rng, channel, "gain", 1e-12, 1e-6)
    doc = {"link": {"terminals": terminals, "channel": channel, "energy": _energy(rng)}}
    if with_pnp:
        exact, _ = reference.link_energies(doc)
        _with_pnp(doc, "link", exact, rng)
    return doc


def _geometry(rng: random.Random, sec: dict, alpha: float | None = None) -> None:
    d3 = 10.0 ** rng.uniform(0.0, 2.0)
    sec["alpha"] = rng.uniform(2.0, 5.0) if alpha is None else alpha
    sec["k"] = 10.0 ** rng.uniform(-9.0, -5.0)
    sec["d1"] = d3 * rng.uniform(0.2, 1.0)
    sec["d2"] = d3 * rng.uniform(0.2, 1.0)
    sec["d3"] = d3


def relay_doc(rng: random.Random, with_pnp: bool, alpha: float | None = None) -> dict:
    sec: dict = {}
    _ratio(rng, sec, "w_tx_source", 1.0, 5.0)
    _ratio(rng, sec, "w_tx_relay", 1.0, 5.0)
    _ratio(rng, sec, "g_rx_relay", 1.0, 1000.0)
    _ratio(rng, sec, "g_rx_sink", 1.0, 1000.0)
    _geometry(rng, sec, alpha)
    sec["energy"] = _energy(rng)
    doc = {"relay_scenario": sec}
    if with_pnp:
        direct, _ = reference.relay_energies(doc)
        _with_pnp(doc, "relay_scenario", direct, rng)
    return doc


def fwa_doc(rng: random.Random, with_pnp: bool) -> dict:
    sec: dict = {}
    _ratio(rng, sec, "w_tx_ue", 1.0, 5.0)
    _ratio(rng, sec, "w_tx_bs", 5.0, 20.0)
    _ratio(rng, sec, "w_tx_ap", 2.0, 12.0)
    _ratio(rng, sec, "g_rx_ue", 1.0, 100.0)
    _ratio(rng, sec, "g_rx_bs", 1.0, 100.0)
    _ratio(rng, sec, "g_rx_ap", 1.0, 100.0)
    sec["rho_u"] = rng.random()
    _geometry(rng, sec)
    sec["energy"] = _energy(rng)
    doc = {"fwa_scenario": sec}
    if with_pnp:
        direct, _ = reference.fwa_energies(doc)
        _with_pnp(doc, "fwa_scenario", direct, rng)
    return doc


def scalar_stream(rng: random.Random, n: int) -> list[tuple[str, dict]]:
    """Mix of 40 % cascade, 20 % link, 20 % relay, 20 % FWA documents.

    Half of the link, relay and FWA documents carry a nonzero ``p_np``
    whose per-bit cost is comparable to the direct route's path term.
    """
    out = []
    for _ in range(n):
        u = rng.random()
        with_pnp = rng.random() < 0.5
        if u < 0.4:
            out.append(("cascade", cascade_doc(rng)))
        elif u < 0.6:
            out.append(("link", link_doc(rng, with_pnp)))
        elif u < 0.8:
            out.append(("relay", relay_doc(rng, with_pnp)))
        else:
            out.append(("fwa", fwa_doc(rng, with_pnp)))
    return out
