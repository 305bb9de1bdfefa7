"""Desk-scale imitation learning with policy-contrastive representations.

The package is organised around a small reverse-mode autodiff tape
(:mod:`pcil.autodiff`), two self-contained continuous-control environments
with scripted experts (:mod:`pcil.envs`), transition storage
(:mod:`pcil.replay`), the contrastive encoder and cosine-similarity reward
(:mod:`pcil.contrastive`), numerical verification of the divergence sandwich
(:mod:`pcil.divergence`), one binary file format for parameter sets and demo
sets alike (:mod:`pcil.checkpoint`) and the evaluation-record schema
(:mod:`pcil.metrics`).
"""

__version__ = "0.1.0"
