"""Probabilistic multi-label contrastive learning on synthetic data.

Isotropic Gaussian-mixture embedding heads trained with a density loss
plus an overlap-weighted contrastive loss, then frozen-encoder linear
classification with an asymmetric loss.  Pure numpy, deterministic per
seed, byte-stable artifacts.
"""
