"""Acceptance gate: one test per numbered criterion, run `pytest -v` for the
one-line-per-criterion report.  Each criterion runs the check of the same
claim in `oriograph.verify` under the full profile, with the criterion's
own seeds where the check samples, asserts that it answers "found" (a
PASS in the report) and then asserts its wall-clock budget."""

import subprocess
import sys
import time
from pathlib import Path

from oriograph import verify

FULL = verify.PROFILES["full"]
GOLDEN_FULL = Path(__file__).resolve().parent / "data" / "verify_full.json"


def finish(num, started, budget):
    elapsed = time.perf_counter() - started
    print(f"criterion {num:02d} {elapsed:7.2f}s (budget {budget:g}s)")
    assert elapsed < budget, f"criterion {num} blew its {budget}s budget: {elapsed:.2f}s"


def criterion(num, budget, check, **kwargs):
    started = time.perf_counter()
    status, detail = check(FULL, **kwargs)
    assert status == "found", detail
    finish(num, started, budget)


def test_criterion_01_c6_square_avoids_qr7():
    criterion(1, 1.0, verify.check_c6_power_2_avoids_rotational_7)


def test_criterion_02_qr7_blowups():
    criterion(2, 30.0, verify.check_blowup_semidegree_and_freeness)


def test_criterion_03_s_avoids_triangle_blowups():
    criterion(3, 10.0, verify.check_s_avoids_triangle_blowups)


def test_criterion_04_containment_chain():
    criterion(4, 1.0, verify.check_containment_chain)


def test_criterion_05_mod6_lattice():
    criterion(5, 5.0, verify.check_mod6_lattice)


def test_criterion_06_tsk_semi_regular():
    criterion(6, 1.0, verify.check_tsk_semi_regular)


def test_criterion_07_tsk_tiling_refutations():
    criterion(7, 60.0, verify.tsk_refutations, lattice_only=False)
    criterion(7, 5.0, verify.tsk_refutations, lattice_only=True)


def test_criterion_08_index_vector_confinement():
    criterion(8, 300.0, verify.check_copy_index_vectors)


def test_criterion_09_c3_barrier_family():
    criterion(9, 30.0, verify.check_c3_barrier_family)


def test_criterion_10_degree_statistic_windows():
    criterion(10, 300.0, verify.check_degree_statistic_windows, seed="accept10")


def test_criterion_11_oracle_equivalences():
    criterion(11, 300.0, verify.check_oracle_agreement, seed="accept11")


def test_criterion_12_s_in_regular_tournaments():
    criterion(12, 120.0, verify.check_s_in_small_tournaments, seed="accept12")


def test_criterion_13_d_tilings_in_samples():
    criterion(13, 300.0, verify.check_d_tiling_in_samples, seed="accept13")


def test_criterion_14_verify_paper_determinism():
    # a fresh process must reproduce the committed report byte for byte,
    # so nondeterminism across processes and drift between commits both fail
    started = time.perf_counter()
    cmd = [sys.executable, "-m", "oriograph", "verify-paper", "--profile", "full", "--json"]
    r = subprocess.run(cmd, capture_output=True, check=False)
    assert r.returncode == 0, r.stderr.decode()
    assert r.stdout == GOLDEN_FULL.read_bytes(), (
        "verify-paper --profile full --json differs from tests/data/verify_full.json; "
        "if the new report is intended, regenerate the file with "
        "`PYTHONPATH=src python -m oriograph verify-paper --profile full --json "
        "> tests/data/verify_full.json` and explain the change in CHANGES.md"
    )
    finish(14, started, 1200.0)
