"""Simulated speech recognizer with per-command accuracy and capture-error modes.

The recognizer is a stochastic text source: given an intended command it
emits either the canonical utterance or one of three recognizable failure
shapes (a confusable string, the utterance captured twice, or the utterance
plus a filler token).  Per-command accuracies default to bench measurements
of a desktop speech engine driven by a non-native speaker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Union

import numpy as np

from .vocab import COMMANDS, SpeechCommand

#: Per-command probability of a verbatim recognition.
REFERENCE_CORRECT_RATES: dict[SpeechCommand, float] = {
    SpeechCommand.MOVE_RIGHT: 0.900,
    SpeechCommand.MOVE_LEFT: 0.658,
    SpeechCommand.MOVE_UP: 0.911,
    SpeechCommand.MOVE_DOWN: 0.775,
    SpeechCommand.MOVE_GRIPPER: 0.859,
}

#: Complement of the above, kept explicit because the harness reports errors.
REFERENCE_ERROR_RATES: dict[SpeechCommand, float] = {
    c: round(1.0 - p, 10) for c, p in REFERENCE_CORRECT_RATES.items()
}


class ErrorMode(Enum):
    """Failure shapes a recognition can take."""

    CONFUSABLE = "confusable"
    DUPLICATED = "duplicated"
    EXTRANEOUS = "extraneous"


class CaptureKind(Enum):
    """Classification of a captured utterance against its canonical form."""

    CLEAN = "clean"
    DUPLICATED = "duplicated"
    EXTRANEOUS = "extraneous"


# "override" is an observed engine substitution for "move right"; the other
# four entries are invented stand-ins with the same sound-alike flavor.
CONFUSABLES: dict[SpeechCommand, str] = {
    SpeechCommand.MOVE_RIGHT: "override",
    SpeechCommand.MOVE_LEFT: "move lift",
    SpeechCommand.MOVE_UP: "movie up",
    SpeechCommand.MOVE_DOWN: "move town",
    SpeechCommand.MOVE_GRIPPER: "move ripper",
}

#: Filler vocabulary for the extraneous-token mode.
EXTRANEOUS_FILLERS: tuple[str, ...] = ("please", "now", "again", "okay")

DEFAULT_ERROR_MODE_WEIGHTS: dict[ErrorMode, float] = {
    ErrorMode.CONFUSABLE: 0.50,
    ErrorMode.DUPLICATED: 0.25,
    ErrorMode.EXTRANEOUS: 0.25,
}

_MODE_ORDER: tuple[ErrorMode, ...] = (
    ErrorMode.CONFUSABLE,
    ErrorMode.DUPLICATED,
    ErrorMode.EXTRANEOUS,
)

#: Number of recognition outcome codes: correct, then each error mode in order.
RECOGNITION_MODES = 1 + len(_MODE_ORDER)


def normalize_text(text: str) -> str:
    """Lowercase and collapse runs of whitespace to single spaces."""
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class RawUtterance:
    """A recognizer emission: the text it produced and the command meant.

    ``spoken`` is None for utterances decoded off the wire, where the
    speaker's intent is not observable; capture classification requires it.
    """

    text: str
    spoken: Optional[SpeechCommand]

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("recognized text must be non-empty")


@dataclass(frozen=True)
class RecognitionModel:
    """Per-command accuracy plus a shared distribution over error modes."""

    p_correct: Mapping[SpeechCommand, float]
    error_mode_weights: Mapping[ErrorMode, float] = field(
        default_factory=lambda: dict(DEFAULT_ERROR_MODE_WEIGHTS)
    )

    def __post_init__(self) -> None:
        for c in COMMANDS:
            if c not in self.p_correct:
                raise ValueError(f"missing accuracy for {c.value!r}")
            p = self.p_correct[c]
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p_correct for {c.value!r} out of [0, 1]: {p}")
        total = 0.0
        for mode in _MODE_ORDER:
            w = self.error_mode_weights.get(mode, 0.0)
            if w < 0.0:
                raise ValueError(f"negative weight for error mode {mode.value}")
            total += w
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"error mode weights sum to {total}, expected 1")

    def error_rate(self, c: SpeechCommand) -> float:
        return 1.0 - self.p_correct[c]

    def _thresholds(self, c: SpeechCommand) -> np.ndarray:
        # cumulative over [correct, confusable, duplicated]; extraneous is
        # the remainder, so three cut points partition the unit interval
        p = self.p_correct[c]
        e = 1.0 - p
        w = self.error_mode_weights
        cuts = np.cumsum(
            [
                p,
                e * w.get(ErrorMode.CONFUSABLE, 0.0),
                e * w.get(ErrorMode.DUPLICATED, 0.0),
            ]
        )
        return cuts

    def sample_modes(
        self, c: SpeechCommand, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized outcome codes for ``n`` recognitions of ``c``.

        Codes: 0 correct, 1 confusable, 2 duplicated, 3 extraneous.
        """
        return self.modes_at(c, rng.random(n))

    def modes_at(self, c: SpeechCommand, u: np.ndarray) -> np.ndarray:
        """Outcome codes of :meth:`sample_modes` for given uniforms ``u``."""
        return np.searchsorted(self._thresholds(c), u, side="right")


def default_recognition_model() -> RecognitionModel:
    """Model at the bench-measured accuracies and default mode weights."""
    return RecognitionModel(p_correct=dict(REFERENCE_CORRECT_RATES))


def recognition_text(c: SpeechCommand, code: int, filler: str) -> str:
    """Text a recognition of ``c`` in mode ``code`` produces.

    ``filler`` is the token the extraneous mode (code 3) appends; the other
    modes ignore it.
    """
    canonical = c.utterance
    if code == 0:
        return canonical
    if code == 1:
        return CONFUSABLES[c]
    if code == 2:
        return canonical + " " + canonical
    return canonical + " " + filler


def sample_recognition(
    c: SpeechCommand, model: RecognitionModel, rng: np.random.Generator
) -> RawUtterance:
    """Draw one recognition of ``c``: canonical text or one failure shape."""
    code = int(model.sample_modes(c, 1, rng)[0])
    filler = ""
    if code == 3:
        filler = EXTRANEOUS_FILLERS[rng.integers(len(EXTRANEOUS_FILLERS))]
    return RawUtterance(text=recognition_text(c, code, filler), spoken=c)


@dataclass(frozen=True)
class NormalizationMap:
    """Many-to-one lookup from recognized strings to commands.

    Keys are stored normalized (lowercase, single-spaced); lookups apply the
    same normalization, so the mapping is insensitive to case and spacing but
    otherwise exact. A string never maps to two commands by construction.
    """

    entries: Mapping[str, SpeechCommand]

    def __post_init__(self) -> None:
        normed: dict[str, SpeechCommand] = {}
        for raw, cmd in self.entries.items():
            key = normalize_text(raw)
            if not key:
                raise ValueError("normalization map key is empty")
            if key in normed and normed[key] is not cmd:
                raise ValueError(f"string {key!r} maps to two commands")
            normed[key] = cmd
        for c in COMMANDS:
            if normed.get(c.utterance) is not c:
                raise ValueError(
                    f"canonical utterance {c.utterance!r} must map to its command"
                )
        object.__setattr__(self, "entries", normed)

    def lookup(self, text: str) -> Optional[SpeechCommand]:
        return self.entries.get(normalize_text(text))


def default_normalization_map() -> NormalizationMap:
    """Canonical forms, known confusables, and doubled captures."""
    entries: dict[str, SpeechCommand] = {}
    for c in COMMANDS:
        entries[c.utterance] = c
        entries[c.utterance + " " + c.utterance] = c
    for c, alt in CONFUSABLES.items():
        entries[alt] = c
    return NormalizationMap(entries=entries)


def normalize_utterance(
    u: Union[RawUtterance, str], nmap: NormalizationMap
) -> Optional[SpeechCommand]:
    """Resolve an utterance to a command, or ``None`` when out of vocabulary."""
    text = u.text if isinstance(u, RawUtterance) else u
    return nmap.lookup(text)


def _count_canonical_runs(tokens: list[str], canonical: list[str]) -> int:
    # non-overlapping occurrences of the canonical token run
    count = i = 0
    k = len(canonical)
    while i + k <= len(tokens):
        if tokens[i : i + k] == canonical:
            count += 1
            i += k
        else:
            i += 1
    return count


def classify_capture_error(u: RawUtterance) -> CaptureKind:
    """Compare captured text against the canonical form of the spoken command.

    Duplicated when the canonical utterance appears at least twice in the
    capture; Extraneous when the token sequence is anything else that is not
    exactly canonical (including substituted strings); Clean otherwise. The
    harness counts anything non-Clean as a speech error.
    """
    if u.spoken is None:
        raise ValueError("capture classification needs the intended command")
    tokens = normalize_text(u.text).split()
    canonical = u.spoken.utterance.split()
    if tokens == canonical:
        return CaptureKind.CLEAN
    if _count_canonical_runs(tokens, canonical) >= 2:
        return CaptureKind.DUPLICATED
    return CaptureKind.EXTRANEOUS


_KIND_FOR_CODE: dict[int, CaptureKind] = {
    0: CaptureKind.CLEAN,
    1: CaptureKind.EXTRANEOUS,  # substitution carries no canonical tokens
    2: CaptureKind.DUPLICATED,
    3: CaptureKind.EXTRANEOUS,
}


def sample_capture_kinds(
    c: SpeechCommand, n: int, model: RecognitionModel, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized capture classification for ``n`` recognitions of ``c``.

    Returns int8 codes aligned with :class:`CaptureKind`: 0 clean,
    1 duplicated, 2 extraneous. Equivalent to sampling utterances one at a
    time and classifying each, but usable at millions of trials.
    """
    modes = model.sample_modes(c, n, rng)
    out = np.zeros(n, dtype=np.int8)
    out[modes == 2] = 1
    out[(modes == 1) | (modes == 3)] = 2
    return out


def recognition_model_from_mapping(raw: Mapping[str, object]) -> RecognitionModel:
    """Build a model from plain config data (string keys, float values)."""
    from .vocab import parse_command_name

    rates = raw.get("p_correct")
    if not isinstance(rates, Mapping):
        raise ValueError("recognition model config needs a p_correct mapping")
    p_correct = {parse_command_name(str(k)): float(v) for k, v in rates.items()}
    weights_raw = raw.get("error_mode_weights")
    if weights_raw is None:
        return RecognitionModel(p_correct=p_correct)
    if not isinstance(weights_raw, Mapping):
        raise ValueError("error_mode_weights must be a mapping")
    weights = {ErrorMode(str(k)): float(v) for k, v in weights_raw.items()}
    return RecognitionModel(p_correct=p_correct, error_mode_weights=weights)


def normalization_map_from_mapping(raw: Mapping[str, object]) -> NormalizationMap:
    """Build a normalization map from plain config data."""
    from .vocab import parse_command_name

    entries_raw = raw.get("entries")
    if not isinstance(entries_raw, Mapping):
        raise ValueError("normalization map config needs an entries mapping")
    entries = {
        str(text): parse_command_name(str(cmd)) for text, cmd in entries_raw.items()
    }
    # canonical forms are required by the type; merge them in so partial
    # configs extend the default vocabulary instead of replacing it
    for c in COMMANDS:
        entries.setdefault(c.utterance, c)
    return NormalizationMap(entries=entries)
