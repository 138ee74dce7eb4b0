"""Simulated eight-channel EMG armband.

Two fidelity layers model the band:

* An outcome model (:class:`GestureOutcomeModel`): for each gesture, the
  probability that a capture attempt comes back correct, wrong (with a
  confusion distribution over the other four gestures), or missed entirely.
  The embedded defaults reproduce the reference hardware measurements
  (wrong-or-missed rates of 9.5% wave out, 9.1% wave in, 13.6% fist, 20.6%
  double tap, 14.5% finger spread).  This layer is the canonical one: the
  experiment harness and the fusion simulator draw from it.

* A signal layer: fixed per-gesture 8-channel activation templates with
  additive Gaussian noise, classified by nearest-centroid over per-channel
  RMS features with a rejection radius.  It demonstrates the same pipeline
  end to end at the waveform level and is calibrated (:func:`calibrate_noise`)
  against the same error-rate targets.

The measured rates combine wrong and missed captures; the split between the
two is not separately known, so the default model attributes 70% of each
rate to wrong captures (errors were reported to be mostly substitutions) and
30% to misses.  Both the split and the confusion weights are configurable.

The band adapts to skin temperature over the first minute or two of wear;
:class:`WarmupState` scales error rates accordingly.  The cold multiplier is
a free parameter of this simulator, not a measured value.

All sampling goes through an explicit ``numpy.random.Generator`` (see
:mod:`mmfuse.seeding`); callers own the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .vocab import GESTURES, Gesture

# --- Reference outcome statistics ------------------------------------------

#: Measured wrong-or-missed capture rate per gesture (fractions).
REFERENCE_ERROR_RATES: dict[Gesture, float] = {
    Gesture.WAVE_OUT: 0.095,
    Gesture.WAVE_IN: 0.091,
    Gesture.FIST: 0.136,
    Gesture.DOUBLE_TAP: 0.206,
    Gesture.FINGER_SPREAD: 0.145,
}

#: Default share of the combined error rate attributed to wrong captures.
DEFAULT_WRONG_SHARE = 0.7

#: Substitutions observed in practice: finger spread tends to read as fist,
#: wave out as wave in. Used by the "emphasized" confusion profile.
EMPHASIS_PAIRS: dict[Gesture, Gesture] = {
    Gesture.FINGER_SPREAD: Gesture.FIST,
    Gesture.WAVE_OUT: Gesture.WAVE_IN,
}

_EMPHASIS_WEIGHT = 0.55  # remaining mass split evenly over the other three

CONFUSION_PROFILES = ("uniform", "emphasized")


class OutcomeKind(Enum):
    CORRECT = "correct"
    WRONG = "wrong"
    MISSED = "missed"


@dataclass(frozen=True)
class GestureOutcome:
    """Result of one capture attempt.

    ``captured`` equals ``intended`` for correct captures, is another gesture
    for wrong captures, and is None for misses.
    """

    kind: OutcomeKind
    intended: Gesture
    captured: Gesture | None

    @property
    def is_error(self) -> bool:
        return self.kind is not OutcomeKind.CORRECT


@dataclass(frozen=True)
class WarmupState:
    """Sensor adaptation state since the band was donned."""

    elapsed_s: float
    cold_multiplier: float = 3.0
    adapt_time_s: float = 120.0

    def __post_init__(self) -> None:
        if self.elapsed_s < 0:
            raise ValueError(f"elapsed_s must be >= 0, got {self.elapsed_s}")
        if self.cold_multiplier < 1.0:
            raise ValueError("cold_multiplier must be >= 1")
        if self.adapt_time_s <= 0:
            raise ValueError("adapt_time_s must be > 0")

    @classmethod
    def warmed(cls) -> "WarmupState":
        """Fully adapted state (multiplier 1.0)."""
        return cls(elapsed_s=cls.adapt_time_s)


def warmup_factor(state: WarmupState) -> float:
    """Error-rate multiplier: linear from cold_multiplier at t=0 down to 1.0.

    Exactly 1.0 once ``elapsed_s`` reaches ``adapt_time_s``.
    """
    if state.elapsed_s >= state.adapt_time_s:
        return 1.0
    frac = state.elapsed_s / state.adapt_time_s
    return state.cold_multiplier + (1.0 - state.cold_multiplier) * frac


_PROB_TOL = 1e-12


@dataclass(frozen=True)
class GestureRates:
    """Per-gesture outcome probabilities plus the wrong-capture confusion."""

    gesture: Gesture
    p_correct: float
    p_wrong: float
    p_missed: float
    confusion: Mapping[Gesture, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, p in (("p_correct", self.p_correct),
                        ("p_wrong", self.p_wrong),
                        ("p_missed", self.p_missed)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} out of [0,1]: {p}")
        total = self.p_correct + self.p_wrong + self.p_missed
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")
        if self.p_wrong > 0 or self.confusion:
            support = set(self.confusion)
            if self.gesture in support or Gesture.NONE in support:
                raise ValueError("confusion support must exclude the gesture itself "
                                 "and the missed-capture marker")
            if not support <= set(GESTURES):
                raise ValueError("confusion support contains unknown gestures")
            csum = sum(self.confusion.values())
            if self.p_wrong > 0 and abs(csum - 1.0) > _PROB_TOL:
                raise ValueError(f"confusion weights sum to {csum}, not 1")

    @property
    def error_rate(self) -> float:
        return self.p_wrong + self.p_missed


def _confusion_for(g: Gesture, profile: str) -> dict[Gesture, float]:
    others = [o for o in GESTURES if o is not g]
    if profile == "uniform":
        return {o: 1.0 / len(others) for o in others}
    if profile == "emphasized":
        target = EMPHASIS_PAIRS.get(g)
        if target is None:
            return {o: 1.0 / len(others) for o in others}
        rest = (1.0 - _EMPHASIS_WEIGHT) / (len(others) - 1)
        return {o: (_EMPHASIS_WEIGHT if o is target else rest) for o in others}
    raise ValueError(f"unknown confusion profile {profile!r}; "
                     f"expected one of {CONFUSION_PROFILES}")


class GestureOutcomeModel:
    """Per-gesture capture outcome distributions."""

    def __init__(self, rates: Mapping[Gesture, GestureRates]):
        missing = set(GESTURES) - set(rates)
        if missing:
            raise ValueError(f"model is missing gestures: {sorted(g.value for g in missing)}")
        self.rates: dict[Gesture, GestureRates] = {g: rates[g] for g in GESTURES}

    @classmethod
    def from_error_rates(
        cls,
        error_rates: Mapping[Gesture, float],
        wrong_share: float = DEFAULT_WRONG_SHARE,
        confusion_profile: str = "uniform",
    ) -> "GestureOutcomeModel":
        """Build a model from combined wrong-or-missed rates.

        ``wrong_share`` of each rate goes to wrong captures, the rest to
        misses.
        """
        if not 0.0 <= wrong_share <= 1.0:
            raise ValueError(f"wrong_share out of [0,1]: {wrong_share}")
        rates = {}
        for g in GESTURES:
            err = error_rates[g]
            p_wrong = wrong_share * err
            rates[g] = GestureRates(
                gesture=g,
                p_correct=1.0 - err,
                p_wrong=p_wrong,
                p_missed=err - p_wrong,
                confusion=_confusion_for(g, confusion_profile),
            )
        return cls(rates)

    def error_rate(self, g: Gesture) -> float:
        return self.rates[g].error_rate

    def _effective(self, g: Gesture, warmup: WarmupState | None) -> tuple[float, float]:
        """(p_correct, p_correct + p_wrong) thresholds after warmup scaling."""
        r = self.rates[g]
        err = r.error_rate
        if warmup is not None and err > 0:
            err_eff = min(1.0, warmup_factor(warmup) * err)
            scale = err_eff / err
            p_wrong = r.p_wrong * scale
            return 1.0 - err_eff, 1.0 - err_eff + p_wrong
        return r.p_correct, r.p_correct + r.p_wrong

    def sample(
        self,
        g: Gesture,
        rng: np.random.Generator,
        warmup: WarmupState | None = None,
    ) -> GestureOutcome:
        """Draw one capture outcome for an attempted gesture ``g``."""
        if g is Gesture.NONE:
            raise ValueError("cannot attempt the missed-capture marker")
        t_correct, t_wrong = self._effective(g, warmup)
        u = rng.random()
        if u < t_correct:
            return GestureOutcome(OutcomeKind.CORRECT, g, g)
        if u < t_wrong:
            return GestureOutcome(OutcomeKind.WRONG, g, self.draw_confusable(g, rng))
        return GestureOutcome(OutcomeKind.MISSED, g, None)

    def draw_confusable(self, g: Gesture, rng: np.random.Generator) -> Gesture:
        """Which gesture a wrong capture of ``g`` turns into."""
        return self.confusable_at(g, rng.random())

    def confusable_at(self, g: Gesture, u: float) -> Gesture:
        """The gesture a wrong capture of ``g`` turns into at uniform ``u``.

        Walks the cumulative confusion weights in GESTURES order; the
        reference for :meth:`confusable_indices`.
        """
        acc = 0.0
        conf = self.rates[g].confusion
        last = None
        for other in GESTURES:
            w = conf.get(other, 0.0)
            if w <= 0.0:
                continue
            acc += w
            last = other
            if u < acc:
                return other
        assert last is not None, "empty confusion distribution"
        return last  # guard against accumulated rounding at u ~ 1

    def confusable_indices(self, g: Gesture, u: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`confusable_at`: GESTURES indices, one per uniform."""
        conf = self.rates[g].confusion
        support = [i for i, o in enumerate(GESTURES) if conf.get(o, 0.0) > 0.0]
        assert support, "empty confusion distribution"
        cum = np.cumsum([conf[GESTURES[i]] for i in support])
        k = np.searchsorted(cum, u, side="right")
        return np.asarray(support)[np.minimum(k, len(support) - 1)]

    def sample_kinds(
        self,
        g: Gesture,
        n: int,
        rng: np.random.Generator,
        warmup: WarmupState | None = None,
    ) -> np.ndarray:
        """Vectorized outcome kinds: 0 correct, 1 wrong, 2 missed.

        Same cumulative-threshold scheme as :meth:`sample`, drawn in one
        batch for experiment-scale runs.
        """
        t_correct, t_wrong = self._effective(g, warmup)
        u = rng.random(n)
        return np.searchsorted([t_correct, t_wrong], u, side="right").astype(np.uint8)


def default_gesture_model(
    wrong_share: float = DEFAULT_WRONG_SHARE,
    confusion_profile: str = "uniform",
) -> GestureOutcomeModel:
    """Model matching the reference band measurements."""
    return GestureOutcomeModel.from_error_rates(
        REFERENCE_ERROR_RATES, wrong_share, confusion_profile
    )


def sample_gesture_outcome(
    g: Gesture,
    model: GestureOutcomeModel,
    warmup: WarmupState | None,
    rng: np.random.Generator,
) -> GestureOutcome:
    """One capture attempt of ``g`` under ``model`` at warmup state ``warmup``."""
    return model.sample(g, rng, warmup)


# --- Signal layer -----------------------------------------------------------

#: Channels on the band.
N_CHANNELS = 8

#: Default window length in samples and the fixed sampling rate (Hz).
WINDOW_SAMPLES = 40
SAMPLE_RATE_HZ = 200.0

# Fixed per-gesture channel activation patterns (versioned; synthetic values,
# chosen pairwise-distinct, not measured waveforms).  Finger spread sits close
# to fist and wave out close to wave in, so moderate noise produces the same
# substitutions the band shows in practice before rejection takes over.
_CHANNEL_WEIGHTS: dict[Gesture, tuple[float, ...]] = {
    Gesture.FIST: (1.0, 0.9, 0.2, 0.1, 0.1, 0.2, 0.4, 0.3),
    Gesture.FINGER_SPREAD: (0.9, 0.8, 0.2, 0.1, 0.2, 0.3, 0.5, 0.4),
    Gesture.WAVE_IN: (0.2, 0.3, 1.0, 0.8, 0.2, 0.1, 0.2, 0.3),
    Gesture.WAVE_OUT: (0.2, 0.2, 0.9, 0.9, 0.3, 0.1, 0.2, 0.2),
    Gesture.DOUBLE_TAP: (0.5, 0.3, 0.4, 0.3, 0.8, 0.7, 0.3, 0.5),
}

TEMPLATE_VERSION = 1


@dataclass(frozen=True)
class EmgWindow:
    """One windowed burst of activation values, 8 channels x W samples."""

    samples: np.ndarray
    sample_rate: float
    true_gesture: Gesture

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[0] != N_CHANNELS:
            raise ValueError(f"samples must be ({N_CHANNELS}, W), got {s.shape}")
        if s.shape[1] < 1:
            raise ValueError("window must contain at least one sample")
        if not np.isfinite(s).all():
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", s)


def _envelope(n_samples: int) -> np.ndarray:
    # half-sine burst; peak mid-window
    return np.sin(np.pi * (np.arange(n_samples) + 0.5) / n_samples)


def gesture_templates(n_samples: int = WINDOW_SAMPLES) -> dict[Gesture, np.ndarray]:
    """The fixed clean template window for each gesture."""
    env = _envelope(n_samples)
    return {
        g: np.asarray(w, dtype=float)[:, None] * env[None, :]
        for g, w in _CHANNEL_WEIGHTS.items()
    }


def window_features(samples: np.ndarray) -> np.ndarray:
    """Per-channel RMS feature vector of a window."""
    s = np.asarray(samples, dtype=float)
    return np.sqrt(np.mean(s * s, axis=-1))


_TEMPLATES = gesture_templates()
_TEMPLATE_FEATURES = {g: window_features(t) for g, t in _TEMPLATES.items()}

#: Rejection radius of the nearest-centroid classifier, in feature space.
#: Tuned so the calibrated-noise operating points produce a mix of wrong and
#: missed captures before saturating to all-missed at large noise.
DEFAULT_REJECT_THRESHOLD = 0.75


def synth_emg_window(
    g: Gesture,
    sigma: float,
    rng: np.random.Generator,
    n_samples: int = WINDOW_SAMPLES,
    sample_rate: float = SAMPLE_RATE_HZ,
) -> EmgWindow:
    """Template of ``g`` plus zero-mean Gaussian noise of scale ``sigma``."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    template = gesture_templates(n_samples)[g] if n_samples != WINDOW_SAMPLES else _TEMPLATES[g]
    samples = template if sigma == 0 else template + rng.normal(0.0, sigma, template.shape)
    return EmgWindow(samples=samples, sample_rate=sample_rate, true_gesture=g)


def classify_window(
    window: EmgWindow,
    templates: Mapping[Gesture, np.ndarray] | None = None,
    reject_threshold: float = DEFAULT_REJECT_THRESHOLD,
) -> GestureOutcome:
    """Nearest-centroid classification with rejection.

    The window's per-channel RMS features are compared against each
    template's; if even the nearest template is farther than
    ``reject_threshold`` the capture is a miss.
    """
    if templates is None:
        feats = _TEMPLATE_FEATURES
    else:
        if set(templates) != set(GESTURES):
            raise ValueError("templates must cover all five gestures")
        feats = {g: window_features(t) for g, t in templates.items()}
    f = window_features(window.samples)
    best_g = None
    best_d = math.inf
    for g in GESTURES:
        d = float(np.linalg.norm(f - feats[g]))
        if d < best_d:
            best_g, best_d = g, d
    if best_d > reject_threshold:
        return GestureOutcome(OutcomeKind.MISSED, window.true_gesture, None)
    kind = OutcomeKind.CORRECT if best_g is window.true_gesture else OutcomeKind.WRONG
    return GestureOutcome(kind, window.true_gesture, best_g)


class CalibrationError(RuntimeError):
    """Raised when no noise scale can reach the requested error rate."""


@dataclass(frozen=True)
class NoiseCalibration:
    sigma: float
    achieved_error: float


def _error_rate_at(
    sigma: float,
    template: np.ndarray,
    true_gesture: Gesture,
    noise_units: np.ndarray,
    reject_threshold: float,
) -> float:
    """Classifier error over a fixed batch of unit-normal noise draws.

    Reusing the same noise units across sigmas (common random numbers) makes
    the empirical error a step function that is monotone in sigma for this
    classifier, which keeps the bisection bracket valid.
    """
    windows = template[None, :, :] + sigma * noise_units
    feats = np.sqrt(np.mean(windows * windows, axis=-1))  # (trials, channels)
    ref = np.stack([_TEMPLATE_FEATURES[g] for g in GESTURES])  # (5, channels)
    d = np.linalg.norm(feats[:, None, :] - ref[None, :, :], axis=-1)
    nearest = np.argmin(d, axis=1)
    rejected = d[np.arange(len(nearest)), nearest] > reject_threshold
    true_idx = GESTURES.index(true_gesture)
    errors = rejected | (nearest != true_idx)
    return float(np.mean(errors))


def calibrate_noise(
    g: Gesture,
    target_error: float,
    rng: np.random.Generator,
    trials_per_eval: int = 2000,
    reject_threshold: float = DEFAULT_REJECT_THRESHOLD,
    tol: float = 0.01,
    max_iter: int = 60,
) -> NoiseCalibration:
    """Bisection on the noise scale until the classifier error hits the target.

    Returns the noise scale and the achieved empirical rate, within ``tol``
    absolute of ``target_error``.  Raises :class:`CalibrationError` when the
    search bracket cannot straddle the target.
    """
    if target_error <= 0.0:
        # zero error is only achievable noiselessly; accept the boundary
        return NoiseCalibration(sigma=0.0, achieved_error=0.0)
    if target_error >= 1.0:
        raise CalibrationError(f"target error {target_error} is not below 1")
    template = _TEMPLATES[g]
    noise_units = rng.standard_normal((trials_per_eval,) + template.shape)

    def f(sigma: float) -> float:
        return _error_rate_at(sigma, template, g, noise_units, reject_threshold)

    lo, hi = 0.0, 0.25
    f_hi = f(hi)
    expansions = 0
    while f_hi < target_error:
        hi *= 2.0
        f_hi = f(hi)
        expansions += 1
        if expansions > 24:
            raise CalibrationError(
                f"error rate saturates at {f_hi:.3f} below target {target_error:.3f}"
            )
    best_sigma, best_err = hi, f_hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid - target_error) < abs(best_err - target_error):
            best_sigma, best_err = mid, f_mid
        if f_mid < target_error:
            lo = mid
        else:
            hi = mid
        # converge the bracket fully; the CRN error curve is a step function,
        # so stopping at the first in-tolerance point would bias the result
        if hi - lo <= 1e-4:
            break
    if abs(best_err - target_error) <= tol:
        return NoiseCalibration(sigma=best_sigma, achieved_error=best_err)
    raise CalibrationError(
        f"bisection did not reach target {target_error:.3f} within {tol} "
        f"(closest achieved {best_err:.4f} at sigma {best_sigma:.4f})"
    )
