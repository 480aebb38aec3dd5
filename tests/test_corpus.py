"""Every output in the corpus (``tests/corpus.py``) matches its pin byte for byte."""

from corpus import differing, load_pins, run_all


def test_every_case_matches_its_pin(tmp_path):
    """``python tests/corpus.py --repin`` rewrites the pins after an intended change."""
    changed = differing(load_pins(), run_all(tmp_path))
    assert not changed, f"outputs differ from the pins: {changed}"
