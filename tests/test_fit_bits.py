"""The GP fit's bits, pinned by sha256.

Each case fits one objective on fixed codes and targets the way the search
loop does (features and a shared Hamming table from the codes), then
predicts a fixed pool.  The digests were taken before the fit's likelihood
evaluations were streamlined; any change to the arithmetic of the fit, the
factorization or the posterior shows here as a changed digest.  CI also runs
this file with the default BLAS thread count, so a LAPACK result that
depends on the thread count fails there.
"""

import hashlib

import numpy as np
import pytest

from hwnas.gp import featurize_codes, fit, hamming_table
from hwnas.search_space import random_codes

# (blocks, n) -> (params, L, alpha, posterior mean and variance) sha256 digests.
DIGESTS = {
    (1, 20): (
        "f3c1d2799db03a6499c0aec8a78f525b5c060f1225087bf8640b9508e5098ec0",
        "bd35bb73a79a57f11319b1622875c648fa9fb9414c36a9ae46bd19a53b0603e6",
        "d53295ad975edd73699a35013b471b0819c222fbbc0180689a5a7f76057f1f9b",
        "ec0d39939a8be061c555550742690364ddfbc83da842384565bbfbfa05b1155e",
    ),
    (1, 60): (
        "0d4d72620a669405f9152d72c6e8fdf6be40b6c629d14fbf972f4ab5b639c7e2",
        "74d546df014ff043121ee23933c559e1a985290e630cfbc1f7cf47346d663bf9",
        "da3c186439af5366d60859a23db8478f66207796f8327e7f128832390106b1f9",
        "b0e215afe1bff1b9497cd5970ad752e8854aac41eb345f7dd1865f06c4d60e47",
    ),
    (1, 100): (
        "8d6504f11fc39eedceea612e377695335042052cbc7600fff9685210776d5511",
        "372de8c931ce73c24320930a17f7396f548b2b2599ff2a0e01dbf5f0344555eb",
        "164941e4935b22376b99245f5dc05244f05f0b9ff0ca020004bc86a4f33ecc6e",
        "6bb777a51aaba42584ca132db0a247da1f56ef9244383ffc7420a54f45526fb0",
    ),
    (5, 100): (
        "df4eddc2930e03abef8731d7ba52129a24465c137b46e53e4ecf010f05a14afc",
        "1d0eef96668435b2bbfdd0252d0074c723f687ef5978914aee1269dc32811205",
        "4777d8289b001bc585104de47ade4e897b80f0b2d0fe433212063bd55289733a",
        "ffb061e3330ce1381066e43e35a236ebd95531278ee7263a32bd51e13068a3dd",
    ),
}


def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def fitted(num_blocks, n):
    rng = np.random.default_rng([num_blocks, n])
    codes = random_codes(rng, num_blocks, n)
    # A smooth target of the features plus noise: the 1-block space has 256
    # genomes, so n = 100 repeats rows with differing targets.
    X = featurize_codes(codes)
    y = X @ rng.normal(size=X.shape[1]) + 0.1 * rng.normal(size=n)
    model = fit(X, y, seed=[num_blocks, n, 7], table=hamming_table(codes, codes))
    pool = np.vstack([random_codes(rng, num_blocks, 200), codes[::3]])
    mean, var = model.predict_table(hamming_table(pool, codes))
    p = model.params
    return (
        sha([p.lengthscale, p.signal_variance, p.noise_variance]),
        sha(model.L),
        sha(model.alpha),
        sha(mean, var),
    )


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_fit_bits_are_pinned(case):
    assert fitted(*case) == DIGESTS[case]
