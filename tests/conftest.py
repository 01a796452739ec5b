import pytest

from robustaft import DESK_PROFILE, DgpConfig, run_study

STUDY_SEED = 0


@pytest.fixture(scope="session")
def desk_study():
    """Desk-scale replication study shared by the acceptance and trend tests."""
    return run_study(
        grid=DESK_PROFILE.mu_grid,
        reps=DESK_PROFILE.reps,
        base_cfg=DgpConfig(n=DESK_PROFILE.n, seed=STUDY_SEED),
    )
