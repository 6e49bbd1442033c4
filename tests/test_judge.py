"""``tests/judge.py``'s per-case code: one engine run serves both parts."""

import judge
from revkit import vem
from synthcases import identify_errors, output_scores


def test_one_engine_run_scores_both_parts(monkeypatch):
    calls = []
    run = vem.run

    def counted(*args):
        calls.append(args)
        return run(*args)

    monkeypatch.setattr(vem, "run", counted)
    oracle = judge.oracle_case(*judge.grid(1000)[0])
    cfg = judge.setting("0.6:30")
    scores = judge.measure(oracle, cfg, ("identify_rir", "dereverb"))
    assert len(calls) == 1
    # the same numbers as a separate engine run for each part
    X, alpha, peak, truth, direct = oracle
    H_hat = run(X, alpha, cfg)[1]
    S_hat = run(X, alpha, cfg)[0]
    assert tuple(scores["identify_rir"].values()) == \
        identify_errors(H_hat, truth)
    assert tuple(scores["dereverb"].values()) == \
        output_scores(S_hat, peak, direct)
