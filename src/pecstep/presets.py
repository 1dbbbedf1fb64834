"""Figure presets: the parameter sets behind every bundled experiment.

All presets share omega=1, dt=0.5, 20 steps, rho(0) = |1><1|.  Sampled
presets default to 10^6 trajectories, a 20x reduction of the original
ensemble sizes (2e7 / 5e6) to keep desk-scale runtimes; pass --samples to
restore the full counts.
"""

import math
from dataclasses import dataclass

from .channels import PauliChannelParams
from .generators import PauliRates
from .scenarios import ScenarioConfig

DEFAULT_SAMPLES = 10**6

_BETAS = (("beta0", 0.0), ("betapi4", math.pi / 4), ("betapi2", math.pi / 2))

_DEPOLARIZING = PauliRates(0.1, 0.1, 0.1)  # the analog device, and figA1's target
_X_DAMPED = PauliRates(0.3, 0.0, 0.0)  # the analog X-only device, and the open target
_DIGITAL = dict(hardware="digital", device=PauliChannelParams(0.05, 0.05, 0.05))
_DIGITAL_OPEN = dict(hardware="digital", device=PauliChannelParams(0.16, 0.12, 0.2), target=_X_DAMPED)
_ANALOG = dict(hardware="analog", device=_DEPOLARIZING)
_ANALOG_X = dict(hardware="analog", device=_X_DAMPED)
_ANALOG_BIASED = dict(hardware="analog", device=PauliRates(0.4, 0.1, 0.1), target=_X_DAMPED)


@dataclass(frozen=True)
class Preset:
    id: str
    description: str
    series: tuple[tuple[str, ScenarioConfig], ...]
    full_samples: int  # original ensemble size; 0 = analytic-only preset


# id: (description, original ensemble size, whether it is the three-beta
# family, config keywords); a preset with an original size draws
# DEFAULT_SAMPLES trajectories per series, one without draws none
_TABLE = {
    "fig1a": ("digital, closed target, exact inversion of a 0.05 depolarizing channel",
              20_000_000, False, dict(_DIGITAL, mitigation="exact")),
    "fig1b": ("digital, closed target, first-order mitigation of the same channel",
              20_000_000, False, dict(_DIGITAL, mitigation="first-order")),
    "fig2a": ("analog, closed target, exact mitigation of depolarizing noise kappa=0.1",
              5_000_000, False, dict(_ANALOG, mitigation="exact")),
    "fig2b": ("analog, closed target, linear-inverse mitigation of depolarizing noise",
              5_000_000, False, dict(_ANALOG, mitigation="linear-inverse")),
    "fig3": ("analog, closed target, exact mitigation of X-only noise kappa=0.3",
             5_000_000, True, dict(_ANALOG_X, mitigation="exact")),
    "fig4": ("analog, closed target, linear-inverse mitigation of X-only noise",
             5_000_000, True, dict(_ANALOG_X, mitigation="linear-inverse")),
    "fig5": ("digital, open X-damped target, exact mitigation; fidelity vs beta",
             0, True, dict(_DIGITAL_OPEN, mitigation="exact")),
    **{f"fig6{suffix}": (f"digital, open X-damped target, first-order mitigation, {name}",
                         0, False, dict(_DIGITAL_OPEN, mitigation="first-order", beta=beta))
       for suffix, (name, beta) in zip("abc", _BETAS)},
    "fig7": ("analog, open X-damped target, first-order mitigation of depolarizing noise",
             0, True, dict(_ANALOG, mitigation="first-order", target=_X_DAMPED)),
    "fig8": ("analog, open X-damped target, exact mitigation of X-biased noise",
             5_000_000, True, dict(_ANALOG_BIASED, mitigation="exact")),
    "fig9": ("analog, open X-damped target, first-order mitigation of X-biased noise",
             0, True, dict(_ANALOG_BIASED, mitigation="first-order")),
    "figA1": ("digital, unmitigated step-proportional depolarizing noise vs the"
              " depolarizing master equation",
              0, False, dict(_DIGITAL, mitigation="none", target=_DEPOLARIZING)),
    "figB1a": ("digital, closed target, exact mitigation sampled with mu' = 0.97 mu",
               20_000_000, False, dict(_DIGITAL, mitigation="exact", bias=0.97)),
    "figB1b": ("digital, closed target, exact mitigation sampled with mu' = 1.03 mu",
               20_000_000, False, dict(_DIGITAL, mitigation="exact", bias=1.03)),
}


def _preset(pid: str, description: str, full_samples: int, family: bool, keywords: dict) -> Preset:
    keywords = dict(keywords, samples=DEFAULT_SAMPLES if full_samples else 0)
    betas = _BETAS if family else (("", keywords.pop("beta", 0.0)),)
    series = tuple((name, ScenarioConfig(beta=beta, **keywords)) for name, beta in betas)
    return Preset(pid, description, series, full_samples)


PRESETS = {pid: _preset(pid, *row) for pid, row in _TABLE.items()}


def preset(preset_id: str) -> Preset:
    try:
        return PRESETS[preset_id]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {preset_id!r}; known presets: {known}") from None
