"""The per-student view's names resolve to one object from treekt, from the
core module that also serves each name, and from treekt.view."""

from importlib import import_module

import pytest

import treekt
import treekt.view

VIEW_HOMES = {name: home for name, (source, home) in treekt._LAZY.items()
              if source == "view"}


def test_the_table_lists_each_view_name_once_with_its_home():
    assert VIEW_HOMES == {
        **dict.fromkeys(["ObservationSet", "observation_set", "pack_counts", "BeliefTable",
                         "posteriors", "predict", "log_likelihood"], "inference"),
        **dict.fromkeys(["StudentObservations", "pack_dataset", "SufficientStats", "e_step",
                         "m_step", "one_step_update"], "em"),
    }


@pytest.mark.parametrize("name, home", sorted(VIEW_HOMES.items()))
def test_each_name_is_one_object_wherever_it_is_read(name, home):
    obj = vars(treekt.view)[name]
    assert getattr(treekt, name) is obj
    assert getattr(import_module(f"treekt.{home}"), name) is obj


def test_from_import_of_a_historical_home_still_works():
    from treekt.em import SufficientStats
    from treekt.inference import posteriors

    assert SufficientStats is treekt.view.SufficientStats
    assert posteriors is treekt.view.posteriors


@pytest.mark.parametrize("module, name", [
    ("treekt", "nonexistent"), ("treekt.inference", "nonexistent"),
    ("treekt.em", "nonexistent"), ("treekt.inference", "SufficientStats"),
    ("treekt.em", "posteriors"), ("treekt.em", "random_tree"),
])
def test_a_name_a_module_does_not_serve_raises_naming_the_module(module, name):
    with pytest.raises(AttributeError,
                       match=f"^module '{module}' has no attribute '{name}'$"):
        getattr(import_module(module), name)
