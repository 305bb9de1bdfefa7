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
exact parameter gradient (double backprop).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

#: Additive mask that removes an anchor's own column from its candidate set.
_MASK = -1e9


@dataclass
class ContrastiveBatch:
    """Half expert, half agent encoder inputs (the expert-data ratio 0.5)."""

    expert_inputs: np.ndarray
    agent_inputs: np.ndarray


class Encoder:
    """Feed-forward encoder with unit-sphere output projection.

    Standalone form: a 4-layer MLP ``input -> hidden x3 -> embed_dim``. When a
    shared trunk is supplied, the same head sits on the trunk's features; the
    trunk is never trained by encoder losses (it belongs to the critic), so
    the forward pass through it is always constant with respect to updates
    here, while input gradients still flow through it.

    ``embed`` instruments the unit-norm contract: ``norm_violations`` counts
    outputs farther than 1e-9 from unit length (it should stay zero forever).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        state_dim: int,
        hidden_dim: int = 256,
        embed_dim: int = 64,
        temperature: float = 0.07,
        trunk: ad.ParameterSet | None = None,
        trunk_out_dim: int | None = None,
    ):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = temperature
        self.embed_dim = embed_dim
        self.trunk = trunk
        head_in = trunk_out_dim if trunk is not None else state_dim
        self.head = ad.mlp_params(rng, [head_in, hidden_dim, hidden_dim, hidden_dim, embed_dim])
        self.norm_violations = 0
        self.max_norm_error = 0.0

    def embed_graph(self, tape: ad.Tape, x: ad.Tensor, head_nodes=None) -> ad.Tensor:
        """Embedding as a tape graph; pass watched head nodes when training."""
        return self._forward(tape, x, head_nodes)[0]

    def _forward(self, tape: ad.Tape, x: ad.Tensor, head_nodes=None):
        """Tape forward through the constant trunk (if any) and the head.

        Returns the embedding, the head's output before the sphere projection
        and, for every linear layer in order, its weight node and the mask of
        the ReLU that follows it (None for the head's last layer).
        """
        if head_nodes is None:
            head_nodes = {n: tape.constant(v) for n, v in self.head.items()}
        nets = [(head_nodes, False)]
        if self.trunk is not None:
            nets.insert(0, ({n: tape.constant(v) for n, v in self.trunk.items()}, True))
        layers = []
        for nodes, relu_last in nets:
            count = ad.mlp_layer_count(nodes)
            for i in range(count):
                w = nodes[f"layer{i}.w"]
                x = ad.add(ad.matmul(x, w), nodes[f"layer{i}.b"])
                mask = None
                if relu_last or i < count - 1:
                    mask = x.data > 0.0
                    x = ad.relu(x)
                layers.append((w, mask))
        emb = ad.sphere_normalize(x, axis=-1)
        self._check_norms(emb.data)
        return emb, x, layers

    def embed(self, inputs: np.ndarray) -> np.ndarray:
        """Unit-norm embeddings, inference path."""
        features = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if not np.all(np.isfinite(features)):
            raise ad.NonFiniteError("encoder inputs contain NaN or Inf")
        if self.trunk is not None:
            features = ad.mlp_apply_np(self.trunk, features, hidden="relu", output="relu")
        out = ad.mlp_apply_np(self.head, features, hidden="relu", output=None)
        emb = out / ad.norm_and_denominator(out)[1]
        self._check_norms(emb)
        return emb

    def _check_norms(self, emb: np.ndarray) -> None:
        err = float(np.max(np.abs(np.linalg.norm(emb, axis=-1) - 1.0)))
        self.max_norm_error = max(self.max_norm_error, err)
        if err > 1e-9:
            self.norm_violations += 1


# ---------------------------------------------------------------------------
# InfoNCE over expert/agent batches
# ---------------------------------------------------------------------------


def contrastive_loss_graph(
    expert_emb: ad.Tensor,
    agent_emb: ad.Tensor,
    temperature: float,
    inside_log: bool = False,
) -> ad.Tensor:
    """Multi-positive InfoNCE on already-embedded batches.

    Each expert row anchors once; every other expert row is a positive and
    every agent row a negative. With similarities s = <anchor, other>/tau the
    default ("outside the log") anchor loss is the mean over positives p of
    ``-log(exp(s_p) / sum(exp(s_over_all_candidates)))``; ``inside_log``
    averages the positive terms before the log instead.
    """
    tape = expert_emb.tape
    n_expert = expert_emb.data.shape[0]
    n_agent = agent_emb.data.shape[0]
    if n_expert < 2:
        raise ValueError("contrastive loss needs at least 2 expert items")
    if n_agent < 1:
        raise ValueError("contrastive loss needs at least 1 agent item")
    sims_ee = ad.scale(ad.matmul(expert_emb, ad.transpose(expert_emb)), 1.0 / temperature)
    sims_ea = ad.scale(ad.matmul(expert_emb, ad.transpose(agent_emb)), 1.0 / temperature)
    eye = np.eye(n_expert)
    masked_ee = ad.add(sims_ee, tape.constant(_MASK * eye))
    candidates = ad.concat([masked_ee, sims_ea], axis=1)
    lse = ad.logsumexp(candidates, axis=1)
    if inside_log:
        lse_pos = ad.logsumexp(masked_ee, axis=1)
        per_anchor = ad.add(ad.sub(lse, lse_pos), tape.constant(np.log(n_expert - 1.0)))
    else:
        off_diag = (1.0 - eye) / (n_expert - 1.0)
        pos_mean = ad.tsum(ad.mul(sims_ee, tape.constant(off_diag)), axis=1)
        per_anchor = ad.sub(lse, pos_mean)
    return ad.tmean(per_anchor)


def infonce_loss(encoder: Encoder, batch: ContrastiveBatch, inside_log: bool = False) -> float:
    """Loss value only (no update), e.g. for tests and metrics."""
    tape = ad.Tape()
    e = encoder.embed_graph(tape, tape.constant(encoder_inputs(batch.expert_inputs)))
    a = encoder.embed_graph(tape, tape.constant(encoder_inputs(batch.agent_inputs)))
    return float(contrastive_loss_graph(e, a, encoder.temperature, inside_log).data)


def encoder_inputs(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# similarity reward and the expert reference
# ---------------------------------------------------------------------------


def make_expert_reference(
    encoder: Encoder,
    expert_inputs: np.ndarray,
    mode: str = "sample",
    rng: np.random.Generator | None = None,
    normalize: bool = True,
) -> np.ndarray:
    """Reference embedding the reward compares against.

    ``sample`` picks one random expert item (the cheap estimator used during
    training); ``mean`` averages the whole batch's embeddings and, unless
    ``normalize=False``, renormalises the mean back onto the sphere.
    """
    expert_inputs = encoder_inputs(expert_inputs)
    if expert_inputs.shape[0] == 0:
        raise ValueError("expert reference needs at least one expert item")
    if mode == "sample":
        if rng is None:
            raise ValueError("sample mode needs an rng")
        idx = int(rng.integers(0, expert_inputs.shape[0]))
        return encoder.embed(expert_inputs[idx : idx + 1])[0]
    if mode != "mean":
        raise ValueError(f"unknown reference mode {mode!r}")
    mean = encoder.embed(expert_inputs).mean(axis=0)
    if not normalize:
        return mean
    return mean / ad.norm_and_denominator(mean)[1]


def similarity_reward(encoder: Encoder, inputs: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Cosine similarity of each input's embedding to the reference."""
    emb = encoder.embed(encoder_inputs(inputs))
    return emb @ np.asarray(reference, dtype=np.float64)


def al_gap(
    encoder: Encoder,
    expert_inputs: np.ndarray,
    agent_inputs: np.ndarray,
    normalize_ref: bool = True,
) -> float:
    """Mean expert reward minus mean agent reward, mean-mode reference.

    This is the apprenticeship-learning objective the contrastive loss
    implicitly maximises. ``normalize_ref=False`` uses the raw mean embedding
    as the reference, the form whose value is provably dominated by the
    box-constrained divergence on finite supports (see pcil.divergence).
    """
    ref = make_expert_reference(encoder, expert_inputs, mode="mean", normalize=normalize_ref)
    expert_r = similarity_reward(encoder, expert_inputs, ref)
    agent_r = similarity_reward(encoder, agent_inputs, ref)
    return float(expert_r.mean() - agent_r.mean())


# ---------------------------------------------------------------------------
# gradient penalty
# ---------------------------------------------------------------------------


def interpolate_pairs(
    expert_inputs: np.ndarray, agent_inputs: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Random convex combinations of paired expert/agent inputs."""
    e = encoder_inputs(expert_inputs)
    a = encoder_inputs(agent_inputs)
    if len(e) == 0 or len(a) == 0:
        raise ValueError("gradient penalty needs non-empty batches")
    n = min(len(e), len(a))
    u = rng.uniform(0.0, 1.0, size=(n, 1))
    return u * e[:n] + (1.0 - u) * a[:n]


def input_gradient_graph(
    tape: ad.Tape, encoder: Encoder, head_nodes, x_hat: np.ndarray, reference: np.ndarray
) -> ad.Tensor:
    """Rows of d<embed(x), reference>/dx at the rows of ``x_hat``, as a tape graph.

    Seeds the chain with the closed-form VJP of the sphere projection (same
    cutoff rule as ``sphere_normalize``), then walks the layers backwards with
    their ReLU masks held constant, ``g = (g * mask) @ W.T``. Every op is first
    order in the head parameters, so backward through the rows is exact.
    """
    emb, out, layers = encoder._forward(tape, tape.constant(encoder_inputs(x_hat)), head_nodes)
    ref = np.asarray(reference, dtype=np.float64)
    norm_np, denom_np = ad.norm_and_denominator(out.data)
    norm = ad.reshape(ad.sqrt(ad.sqnorm(out, axis=1)), norm_np.shape)
    denom = ad.add(norm, denom_np - norm_np)
    # VJP of out / denom: ref / denom - emb <emb, ref> / norm
    radial = ad.mul(emb, ad.matmul(emb, tape.constant(ref[:, None])))
    g = ad.sub(ad.div(ref[None, :], denom), ad.div(radial, norm))
    for w, mask in reversed(layers):
        if mask is not None:
            g = ad.mul(g, mask)
        g = ad.matmul(g, ad.transpose(w))
    return g


def penalty_graph(
    tape: ad.Tape, encoder: Encoder, head_nodes, x_hat: np.ndarray, reference: np.ndarray
) -> ad.Tensor:
    """Gradient penalty ``mean((|grad_x r| - 1)^2)`` at ``x_hat`` as a tape graph."""
    g = input_gradient_graph(tape, encoder, head_nodes, x_hat, reference)
    dev = ad.sub(ad.sqrt(ad.sqnorm(g, axis=1)), 1.0)
    return ad.tmean(ad.mul(dev, dev))


def gradient_penalty(
    encoder: Encoder,
    expert_inputs: np.ndarray,
    agent_inputs: np.ndarray,
    reference: np.ndarray,
    rng: np.random.Generator,
) -> float:
    """Penalty value only (no update) on freshly interpolated inputs."""
    x_hat = interpolate_pairs(expert_inputs, agent_inputs, rng)
    return float(penalty_graph(ad.Tape(), encoder, None, x_hat, reference).data)


# ---------------------------------------------------------------------------
# the encoder update
# ---------------------------------------------------------------------------


def encoder_update(
    encoder: Encoder,
    batch: ContrastiveBatch,
    adam_state: ad.AdamState,
    rng: np.random.Generator,
    gp_weight: float = 10.0,
    inside_log: bool = False,
) -> tuple[float, float]:
    """One Adam step on ``InfoNCE + gp_weight * gradient penalty``.

    Returns (representation loss, penalty value). The gradient penalty probes
    the similarity reward against the batch's mean-mode reference, held
    constant for the step.
    """
    expert = encoder_inputs(batch.expert_inputs)
    agent = encoder_inputs(batch.agent_inputs)
    reference = make_expert_reference(encoder, expert, mode="mean")
    x_hat = interpolate_pairs(expert, agent, rng)

    tape = ad.Tape()
    head_nodes = encoder.head.watch(tape)
    emb_e = encoder.embed_graph(tape, tape.constant(expert), head_nodes)
    emb_a = encoder.embed_graph(tape, tape.constant(agent), head_nodes)
    loss = contrastive_loss_graph(emb_e, emb_a, encoder.temperature, inside_log)
    penalty = penalty_graph(tape, encoder, head_nodes, x_hat, reference)
    total = ad.add(loss, ad.scale(penalty, gp_weight))
    tape.backward(total)
    grads = {name: node.grad for name, node in head_nodes.items()}
    ad.adam_step(encoder.head, grads, adam_state)
    return float(loss.data), float(penalty.data)
