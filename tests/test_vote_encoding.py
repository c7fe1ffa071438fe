"""The shared vote encoding: scatter of vote weights into class scores, its
adjoint gather, and the range check every label model relies on."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsganlab.autodiff import Tensor
from wsganlab.labelmodel import (
    WeakSupError,
    _gather,
    _scatter,
    _vote_index,
    dawid_skene_fit,
    majority_vote,
    weighted_posterior_tensor,
    weighted_softmax_posterior,
)


def reference_scores(votes, weights, class_count):
    """Explicit per-class loop: score_ik = sum_j weight_ij * 1{vote_ij == k}."""
    w = np.broadcast_to(weights, votes.shape)
    scores = np.zeros((votes.shape[0], class_count))
    for k in range(1, class_count + 1):
        for i in range(votes.shape[0]):
            for j in range(votes.shape[1]):
                if votes[i, j] == k:
                    scores[i, k - 1] += w[i, j]
    return scores


@st.composite
def vote_problems(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 6))
    C = draw(st.integers(2, 5))
    votes = np.array(draw(st.lists(st.integers(0, C), min_size=n * m, max_size=n * m))).reshape(n, m)
    abstain_rows = draw(st.lists(st.integers(0, n - 1), max_size=n))
    votes[abstain_rows] = 0
    shape = (m,) if draw(st.booleans()) else (n, m)
    finite = st.floats(-10.0, 10.0, allow_nan=False)
    weights = np.array(draw(st.lists(finite, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))).reshape(shape)
    grads = np.array(draw(st.lists(finite, min_size=n * C, max_size=n * C))).reshape(n, C)
    return votes, weights, grads, C


def one_lf_two_classes():
    votes = np.array([[0], [1], [2], [0]])
    return votes, np.array([0.75]), np.arange(8.0).reshape(4, 2), 2


def reference_cast(votes, class_count):
    """(lf, slot, cell) of every non-abstain vote, row by row."""
    n, m = votes.shape
    cast = [
        (j, i * m + j, i * class_count + votes[i, j] - 1)
        for i in range(n)
        for j in range(m)
        if votes[i, j]
    ]
    return np.array(cast, dtype=np.int64).reshape(-1, 3).T


@settings(max_examples=200, deadline=None)
@given(vote_problems())
@example(one_lf_two_classes())
def test_scatter_matches_reference_and_gather_is_its_adjoint(problem):
    votes, weights, grads, C = problem
    cast = _vote_index(votes, C)
    lf, slot, cell = reference_cast(votes, C)
    assert (cast.lf == lf).all() and (cast.slot == slot).all() and (cast.cell == cell).all()
    scores = _scatter(cast, weights)
    # exact: each cell sums its weights in ascending j, as the reference does
    assert (scores == reference_scores(votes, weights, C)).all()
    counts = _scatter(cast, None)
    assert (counts == reference_scores(votes, 1.0, C)).all()
    assert not scores[(votes == 0).all(axis=1)].any()
    # <scatter(w), g> = <w, gather(g)>: one gathered value per cast vote, put
    # back at its (n, m) slot and, for a shared (m,) w, summed over rows
    gathered = _gather(cast, grads)
    assert gathered.shape == slot.shape
    dense = np.zeros(votes.size)
    dense[slot] = gathered
    dense = dense.reshape(votes.shape)
    back = dense.sum(axis=0) if weights.ndim == 1 else dense
    size = np.abs(np.broadcast_to(weights, votes.shape) * dense).sum()
    assert abs(np.vdot(scores, grads) - np.vdot(weights, back)) <= 1e-12 * max(1.0, size)


C = 3
CALLERS = {
    "majority_vote": lambda v: majority_vote(v, C),
    "weighted_softmax_posterior": lambda v: weighted_softmax_posterior(v, np.ones(v.shape[1]), C),
    "dawid_skene_fit": lambda v: dawid_skene_fit(v, C),
    "weighted_posterior_tensor": lambda v: weighted_posterior_tensor(v, Tensor(np.ones(v.shape[1])), C),
}


@pytest.mark.parametrize("bad", [-1, C + 1])
@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_out_of_range_votes_raise(caller, bad):
    # row 1 holds the bad vote: unchecked, a flat index would file it under
    # row 0's class C (-1) or row 2's abstain slot (C + 1)
    votes = np.array([[1, 2], [bad, 1], [3, 0]])
    with pytest.raises(WeakSupError):
        CALLERS[caller](votes)
