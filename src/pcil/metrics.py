"""Schema of the evaluation rows a training run logs as CSV.

No trainer or experiment harness writes these rows yet; the schema fixes the
columns and their formatting ahead of them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ._checks import is_integer


@dataclass
class MetricsRow:
    """One evaluation snapshot during a run.

    ``learned_reward_spearman`` is the rank correlation between the learned
    reward and the ground-truth reward over that evaluation's transitions,
    the quantitative stand-in for eyeballing a representation scatter plot.
    """

    step: int
    eval_return_mean: float
    eval_return_std: float
    learned_reward_spearman: float
    encoder_or_disc_loss: float
    critic_loss: float
    actor_loss: float
    al_gap: float

    @classmethod
    def header(cls) -> str:
        return ",".join(f.name for f in fields(cls))

    def to_csv(self) -> str:
        """The row's values in ``header()`` order: ``step`` as an integer, every
        other field as ``repr(float)``, which ``float()`` reads back bit for
        bit. A ``step`` that is a boolean or not an integer raises ``ValueError``."""
        if not is_integer(self.step):
            raise ValueError(f"step must be an integer, got {self.step!r}")
        values = [getattr(self, f.name) for f in fields(self)]
        return ",".join(
            str(int(v)) if f.name == "step" else repr(float(v))
            for f, v in zip(fields(self), values)
        )


COMPLETED_SENTINEL = "# completed"
