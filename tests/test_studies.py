"""Convention-sensitivity fold study and the sub-unity readout search."""

import pytest

from twomode.studies import (FoldStudyReport, SubUnityReport,
                             fold_power_study, subunity_search)


@pytest.fixture(scope="module")
def fold_report():
    return fold_power_study(points=120)


def _row(report, amp, kappa2, sign):
    for row in report.rows:
        if (row.amp_convention == amp
                and row.kappa2_interpretation == kappa2
                and row.sign_convention == sign):
            return row
    raise AssertionError(f"missing row {amp}/{kappa2}/{sign}")


def test_fold_study_covers_all_conventions(fold_report):
    assert isinstance(fold_report, FoldStudyReport)
    assert len(fold_report.rows) == 8
    combos = {(r.amp_convention, r.kappa2_interpretation, r.sign_convention)
              for r in fold_report.rows}
    assert len(combos) == 8


def test_fold_study_frozen_onsets(fold_report):
    # the default conventions push the pump 33 mechanical frequencies past
    # its own resonance before any fold can appear: no bistability in the
    # bracket at all
    row = _row(fold_report, "literal", "angular", "plus")
    assert row.folds == ()
    assert row.structure_ok is None
    assert "never changes" in row.note
    row = _row(fold_report, "literal", "literal", "plus")
    assert row.folds == ()
    # the minus sign turns the readout push attractive and a window opens
    row = _row(fold_report, "literal", "angular", "minus")
    assert len(row.folds) >= 2
    assert min(row.folds) == pytest.approx(3.767868267896713e-08, rel=1e-6)
    assert row.structure_ok is True
    row = _row(fold_report, "literal", "literal", "minus")
    assert min(row.folds) == pytest.approx(1.5096344394799489e-09, rel=1e-6)
    assert row.structure_ok is True
    # flux normalization drives far harder at the same wattage, so all
    # four flag combinations fold at the same few-percent-of-a-watt level
    onsets = [min(_row(fold_report, "flux", k2, sg).folds)
              for k2 in ("angular", "literal") for sg in ("plus", "minus")]
    for onset in onsets:
        assert onset == pytest.approx(0.019208, rel=1e-4)
    row = _row(fold_report, "flux", "angular", "plus")
    assert row.structure_ok is True
    assert min(row.folds) == pytest.approx(0.01920800862201565, rel=1e-8)


def test_fold_study_truncation_notes(fold_report):
    # every bistable combination on this high-Q device loses its stable
    # branch somewhere inside the ramp window, which must be reported,
    # never silently smoothed over
    for row in fold_report.rows:
        if len(row.folds) >= 2:
            assert ("ramp truncated" in row.note
                    or "no quasi-static ramp" in row.note)


def test_fold_study_render(fold_report):
    text = fold_report.render()
    assert "fold-power study" in text
    assert "onset_w" in text
    assert "none" in text
    assert "3.7679e-08" in text
    assert "1.9208e-02" in text
    lines = [l for l in text.splitlines() if l.startswith(("literal", "flux"))]
    assert len(lines) == 8


def test_subunity_search_frozen_hit():
    report = subunity_search()
    assert isinstance(report, SubUnityReport)
    assert report.hit is not None
    hit = report.hit
    # readout held at a tenth of an attowatt-scale drive before its
    # occupation drops below one photon on both stable branches
    assert hit.power_r == pytest.approx(3.162277660168379e-19, rel=1e-12)
    assert hit.power_l == pytest.approx(2.940122870366383e-12, rel=1e-8)
    assert hit.folds[0] == pytest.approx(2.9394723055973784e-12, rel=1e-8)
    assert hit.folds[1] == pytest.approx(2.6874766015499166e-11, rel=1e-8)
    assert hit.stable_count == 2
    assert hit.max_n_p2 == pytest.approx(0.7802987966873682, rel=1e-8)
    assert hit.max_n_p2 < 1.0
    assert hit.ok
    # the search stops at the first qualifying readout power; every
    # earlier trial was too bright
    assert report.trials[-1] is hit or report.trials[-1].ok
    for trial in report.trials[:-1]:
        assert not trial.ok
    text = report.render()
    assert "hit:" in text
    assert repr(hit.power_r) in text


def test_subunity_search_bright_readout_fails():
    report = subunity_search(power_r_values=[1e-7])
    assert report.hit is None
    assert len(report.trials) == 1
    assert not report.trials[0].ok
    assert "no qualifying configuration found" in report.render()
