"""Policy-contrastive encoder, its training losses, and the similarity reward.

The encoder maps states onto the unit sphere. Training pulls expert
embeddings together and pushes agent embeddings away via a multi-positive
InfoNCE loss over a half-expert/half-agent batch; imitation reward is the
cosine similarity between an embedding and an expert reference embedding, so
it is bounded in [-1, 1] by construction.

Encoder updates add an interpolated gradient penalty on the reward's input
gradient. For a ReLU MLP followed by the sphere projection that gradient is
itself a first-order graph: the ReLU masks are constant almost everywhere and
the projection's vector-Jacobian product has a closed form. The penalty is
built from that graph on the ordinary tape, so one backward pass gives its
exact parameter gradient (double backprop). An update runs one tape forward
over its expert, agent and interpolated rows stacked together; InfoNCE and
the penalty each read their rows of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from ._checks import is_integer, real_float64

#: Additive mask that removes an anchor's own column from its candidate set.
_MASK = -1e9

#: Weight of the gradient penalty in the encoder update's objective
#: ``InfoNCE + GP_WEIGHT * penalty``.
GP_WEIGHT = 10.0

#: InfoNCE temperature, the divisor of the embeddings' inner products.
TEMPERATURE = 0.07


@dataclass
class ContrastiveBatch:
    """Half expert, half agent encoder inputs (the expert-data ratio 0.5)."""

    expert_inputs: np.ndarray
    agent_inputs: np.ndarray


class Encoder:
    """Feed-forward encoder with unit-sphere output projection.

    A 4-layer MLP ``input -> hidden x3 -> embed_dim`` on the raw state. The
    InfoNCE temperature and the update's penalty weight are the module
    constants ``TEMPERATURE`` and ``GP_WEIGHT``. Its layers are walked by the
    module-level MLP forwards of ``autodiff``, the one place that knows the
    layer structure: the tape forward (``_forward``) calls ``ad.mlp_forward``
    on the head nodes and the workspace its caller passes, and the numpy
    inference forward (``embed``) calls ``ad.mlp_infer``. The encoder adds
    its input checks, the sphere projection and the norm check around them.

    ``embed`` instruments the unit-norm contract: ``norm_violations`` counts
    outputs farther than 1e-9 from unit length, or not finite (it should stay
    zero forever), and ``max_norm_error`` keeps the largest distance seen.

    The steady-state hot paths write into float64 arrays the encoder keeps
    in one dict, ``_workspace``, instead of allocating them afresh on every
    call, so that no call has to fault pages back in after the allocator
    returned the previous call's arrays to the system. The arrays only grow,
    and a call uses a prefix of each (``ad.workspace_buffer``), so any row
    count reuses them. The two users' keys never meet:

    - ``embed`` (and so ``similarity_reward``, ``make_expert_reference`` and
      ``al_gap``) keeps under the keys 0 and 1 the two arrays ``ad.mlp_infer``
      walks its row blocks on, of ``ad._INFER_BLOCK_BYTES`` each at most. The
      head's output is a fresh array, normalised in place into the embedding
      ``embed`` returns. So ``embed`` may run while an update's graph is live.
    - ``encoder_update`` keeps under ``(layer, role)`` tuple keys its stacked
      forward's layer outputs (``"out"``) and, on the penalty's rows, its
      penalty chain's 0.0/1.0 ReLU masks, masked inputs and products (``"penalty_*"``).
      Its graph is valid until the encoder's next update, so one encoder runs
      one update at a time. Its backward makes new arrays (``ad.Tape.backward``).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        state_dim: int,
        hidden_dim: int = 256,
        embed_dim: int = 64,
    ):
        self.embed_dim = embed_dim
        self.head = ad.mlp_params(rng, [state_dim, hidden_dim, hidden_dim, hidden_dim, embed_dim])
        self.norm_violations = 0
        self.max_norm_error = 0.0
        self._workspace: dict = {}

    def embed_graph(self, tape: ad.Tape, x: ad.Tensor) -> ad.Tensor:
        """Embedding as a tape graph on the head as constants and a new workspace.
        Training never calls it (``encoder_update`` runs ``_forward``); the benchmark times it."""
        head_nodes = {n: tape.constant(v) for n, v in self.head.items()}
        return self._forward(x, head_nodes, {})[0]

    def _forward(self, x: ad.Tensor, head_nodes, workspace: dict):
        """Tape forward of ``x`` through ``head_nodes`` (watched when training)
        on ``workspace``, that of ``ad.mlp_forward``.

        Returns the embedding, the head's output before the sphere projection
        and, for every linear layer in order, its weight node and its output
        after the ReLU that follows it (None for the last layer).
        """
        out, layers = ad.mlp_forward(x, head_nodes, workspace)
        emb = ad.sphere_normalize(out)
        self._check_norms(emb.data)
        return emb, out, layers

    def embed(self, inputs: np.ndarray) -> np.ndarray:
        """Unit-norm embeddings, inference path.

        Raises ``NonFiniteError`` for a NaN or Inf input, and for a finite one
        whose layer products overflow (see ``ad.mlp_infer``).
        """
        features = self._checked_inputs(inputs)
        out = ad.mlp_infer(self.head, features, self._workspace)
        emb = np.divide(out, ad.norm_and_denominator(out)[1], out=out)
        self._check_norms(emb)
        return emb

    def _checked_inputs(self, inputs) -> np.ndarray:
        """``inputs`` as 2-D float64 rows as wide as the head's input, the one
        conversion of encoder rows. A dtype of no real numbers, a rank above 2
        or another width raises ``ValueError``, and a NaN or Inf entry
        ``NonFiniteError`` naming the first row that holds one.
        """
        features = np.atleast_2d(real_float64(inputs, "encoder inputs"))
        width = next(ad.mlp_layers(self.head))[0].shape[0]
        if features.ndim != 2:
            raise ValueError(f"encoder inputs have rank {features.ndim}, "
                             f"the encoder takes rows of width {width}")
        if features.shape[1] != width:
            raise ValueError(
                f"encoder inputs have width {features.shape[1]}, the encoder takes width {width}")
        if not np.all(np.isfinite(features)):
            row = int(np.argmin(np.isfinite(features).all(axis=1)))
            raise ad.NonFiniteError(f"encoder inputs row {row} holds NaN or Inf")
        return features

    def _check_norms(self, emb: np.ndarray) -> None:
        if not len(emb):
            return
        err = float(np.max(np.abs(np.linalg.norm(emb, axis=-1) - 1.0)))
        # NaN compares false both ways: it counts as a violation and stays recorded
        self.max_norm_error = float(np.maximum(self.max_norm_error, err))
        if not err <= 1e-9:
            self.norm_violations += 1


# ---------------------------------------------------------------------------
# InfoNCE over expert/agent batches
# ---------------------------------------------------------------------------


def contrastive_loss_graph(emb: ad.Tensor, n_expert: int) -> ad.Tensor:
    """Multi-positive InfoNCE on the embeddings of an expert-then-agent batch.

    The first ``n_expert`` rows of ``emb`` are the expert rows, the rest the
    agent rows. Each expert row anchors once; every other expert row is a
    positive and every agent row a negative. With similarities
    s = <anchor, other>/tau (tau is ``TEMPERATURE``) the anchor loss is the
    mean over positives p of ``-log(exp(s_p) / sum(exp(s_over_all_candidates)))``
    (the average sits outside the log).
    """
    n = emb.data.shape[0]
    _check_infonce_rows(n_expert, n)
    anchors = ad.row_slice(emb, 0, n_expert)
    sims = ad.mul(ad.matmul(anchors, ad.transpose(emb)), 1.0 / TEMPERATURE)
    self_mask, positives = _infonce_constants(n_expert, n)
    lse = ad.logsumexp(ad.add(sims, emb.tape.constant(self_mask)), axis=1)
    pos_mean = ad.tsum(ad.mul(sims, emb.tape.constant(positives)), axis=1)
    return ad.tmean(ad.sub(lse, pos_mean))


def _check_infonce_rows(n_expert: int, n: int) -> None:
    """InfoNCE's rule on ``n`` rows, the first ``n_expert`` expert rows: an
    integer number of anchors, each with a positive and a negative."""
    if not is_integer(n_expert):
        raise ValueError(f"n_expert must be an integer, got {n_expert!r}")
    if n_expert < 2 or n - n_expert < 1:
        raise ValueError("contrastive loss needs at least 2 expert items and 1 agent item, "
                         f"got {n_expert} and {n - n_expert}")


@functools.lru_cache(maxsize=4)
def _infonce_constants(n_expert: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The additive mask of each anchor's own column and the weights that
    average over its positives, for ``n_expert`` anchors against ``n`` rows
    whose agent columns are zero in both; made once per shape and read-only."""
    eye = np.eye(n_expert, n)
    self_mask = _MASK * eye
    positives = ((np.arange(n) < n_expert) - eye) / (n_expert - 1.0)
    self_mask.setflags(write=False)
    positives.setflags(write=False)
    return self_mask, positives


# ---------------------------------------------------------------------------
# similarity reward and the expert reference
# ---------------------------------------------------------------------------


def make_expert_reference(
    encoder: Encoder,
    expert_inputs: np.ndarray,
    mode: str = "mean",
) -> np.ndarray:
    """Reference embedding the reward compares against: the mean of the
    expert batch's embeddings, renormalised back onto the sphere.

    ``mode`` accepts only ``"mean"``, the value the benchmark passes.
    """
    if mode != "mean":
        raise ValueError(f"unknown reference mode {mode!r}")
    emb = encoder.embed(expert_inputs)
    if not len(emb):
        raise ValueError("expert reference needs at least one expert item")
    return _mean_direction(emb)


def _mean_direction(emb: np.ndarray) -> np.ndarray:
    """The mean of the rows of ``emb``, renormalised onto the sphere."""
    mean = emb.mean(axis=0)
    return mean / ad.norm_and_denominator(mean)[1]


def similarity_reward(encoder: Encoder, inputs: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Cosine similarity of each input's embedding to the reference.

    ``reference`` must be one finite vector of real numbers as wide as the
    embeddings: a ``ValueError`` names both widths, or the dtype, otherwise,
    and a NaN or Inf in it raises ``NonFiniteError``.
    """
    emb = encoder.embed(inputs)
    ref = real_float64(reference, "reference")
    if ref.shape != emb.shape[1:]:
        raise ValueError(
            f"reference has shape {ref.shape}, the embeddings have width {emb.shape[1]}")
    if not np.all(np.isfinite(ref)):
        raise ad.NonFiniteError("reference contains NaN or Inf")
    return emb @ ref


def al_gap(encoder: Encoder, expert_inputs: np.ndarray, agent_inputs: np.ndarray) -> float:
    """Mean expert reward minus mean agent reward, mean-mode reference.

    This is the apprenticeship-learning objective the contrastive loss
    implicitly maximises. Each batch is embedded once, and both are scored
    against the reference made from the expert embeddings.
    """
    emb_e, emb_a = encoder.embed(expert_inputs), encoder.embed(agent_inputs)
    if not len(emb_e) or not len(emb_a):
        raise ValueError("al_gap needs non-empty expert and agent batches")
    ref = _mean_direction(emb_e)
    return float((emb_e @ ref).mean() - (emb_a @ ref).mean())


# ---------------------------------------------------------------------------
# gradient penalty
# ---------------------------------------------------------------------------


def _input_gradient_graph(forward, reference: np.ndarray, start: int,
                          workspace) -> ad.Tensor:
    """Rows of d<embed(x), reference>/dx for the rows ``start:`` of a forward.

    ``forward`` is the ``(emb, out, layers)`` triple of ``Encoder._forward``;
    its rows from ``start`` on are the probe points, and ``reference`` is a
    float64 vector as wide as the embeddings. Seeds the chain with the
    closed-form VJP of the sphere projection (same cutoff rule as
    ``sphere_normalize``), then walks the layers backwards with their ReLU
    masks held constant: ``g = (g * mask) @ W.T``, each mask ``hidden > 0``
    on those rows of the layer's kept output. Every op is first order in the
    head parameters, so backward through the rows is exact. The masks (0.0/1.0
    floats) and the walk's products are written into arrays kept in
    ``workspace``, the forward's.
    """
    emb, out, layers = forward
    tape = emb.tape
    emb = ad.row_slice(emb, start, emb.shape[0])
    out = ad.row_slice(out, start, out.shape[0])
    norm_np, denom_np = ad.norm_and_denominator(out.data)
    norm = ad.reshape(ad.sqrt(ad.tsum(ad.mul(out, out), axis=1)), norm_np.shape)
    denom = ad.add(norm, denom_np - norm_np)
    # VJP of out / denom: ref / denom - emb <emb, ref> / norm
    radial = ad.mul(emb, ad.matmul(emb, tape.constant(reference[:, None])))
    g = ad.sub(ad.div(reference[None, :], denom), ad.div(radial, norm))
    for i in reversed(range(len(layers))):
        w, hidden = layers[i]
        if hidden is not None:
            mask = np.greater(hidden[start:], 0.0,
                              out=ad.workspace_buffer(workspace, (i, "penalty_mask"), g.shape))
            g = ad.mul(g, mask, out=ad.workspace_buffer(workspace, (i, "penalty_masked"), g.shape))
        g = ad.matmul(g, ad.transpose(w), out=ad.workspace_buffer(
            workspace, (i, "penalty_matmul"), (g.shape[0], w.shape[0])))
    return g


def penalty_graph(forward, reference: np.ndarray, start: int, workspace: dict) -> ad.Tensor:
    """Gradient penalty ``mean((|grad_x r| - 1)^2)`` over the rows ``start:`` of
    a forward, as a tape graph; ``workspace`` as in ``_input_gradient_graph``."""
    g = _input_gradient_graph(forward, reference, start, workspace)
    dev = ad.sub(ad.sqrt(ad.tsum(ad.mul(g, g), axis=1)), 1.0)
    return ad.tmean(ad.mul(dev, dev))


# ---------------------------------------------------------------------------
# the encoder update
# ---------------------------------------------------------------------------


def _update_graph(tape: ad.Tape, encoder: Encoder, head_nodes, expert, agent, x_hat):
    """The update's objective on ``tape``: InfoNCE, the penalty and
    ``InfoNCE + GP_WEIGHT * penalty``.

    One tape forward runs over the rows of ``expert``, ``agent`` and
    ``x_hat`` stacked in that order, its layer outputs and penalty chain in
    the encoder's ``_workspace``, so the graph is valid until the encoder's
    next update. InfoNCE reads the expert and agent rows. The penalty reads
    the ``x_hat`` rows against the renormalised mean of the expert
    embeddings, held constant.
    """
    n_expert, n_agent = len(expert), len(agent)
    stacked = tape.constant(np.concatenate([expert, agent, x_hat]))
    forward = encoder._forward(stacked, head_nodes, encoder._workspace)
    emb = forward[0]
    reference = _mean_direction(emb.data[:n_expert])
    loss = contrastive_loss_graph(ad.row_slice(emb, 0, n_expert + n_agent), n_expert)
    penalty = penalty_graph(forward, reference, n_expert + n_agent, encoder._workspace)
    return loss, penalty, ad.add(loss, ad.mul(penalty, GP_WEIGHT))


def encoder_update(
    encoder: Encoder,
    batch: ContrastiveBatch,
    adam_state: ad.AdamState,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """One Adam step on ``InfoNCE + GP_WEIGHT * gradient penalty``.

    Returns (representation loss, penalty value). Both batches are checked
    as ``embed`` checks its inputs, and their row counts as InfoNCE checks
    them (``ValueError``), before anything changes. The penalty probes the
    similarity reward at random convex combinations ``x_hat`` of paired
    expert and agent rows, against the mean-mode reference (what
    ``make_expert_reference`` computes) of the update's own expert
    embeddings. The expert rows, the agent rows and ``x_hat`` go through one
    stacked tape forward on the encoder's ``_workspace`` arrays
    (``_update_graph``).
    """
    expert = encoder._checked_inputs(batch.expert_inputs)
    agent = encoder._checked_inputs(batch.agent_inputs)
    _check_infonce_rows(len(expert), len(expert) + len(agent))
    n = min(len(expert), len(agent))
    u = rng.uniform(0.0, 1.0, size=(n, 1))
    x_hat = u * expert[:n] + (1.0 - u) * agent[:n]

    tape = ad.Tape()
    head_nodes = encoder.head.watch(tape)
    loss, penalty, total = _update_graph(tape, encoder, head_nodes, expert, agent, x_hat)
    tape.backward(total)
    grads = {name: node.grad for name, node in head_nodes.items()}
    ad.adam_step(encoder.head, grads, adam_state)
    return float(loss.data), float(penalty.data)
