"""The experiment table states exactly the config keys each run reads.

Each case runs one experiment on a small config through a config that
records every field it hands out, and compares the recorded keys with the
ones the table declares for that config. Only ``harness.run`` is recorded:
validation reads every field.
"""

import dataclasses

import pytest

from eigennet import harness
from eigennet.harness import ExperimentConfig, validate_config
from eigennet.topology import dump_edge_list, generate_random_geometric

FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
SIGNAL = "K = 8\nN = 5\nseed = 13\n"
NETWORK = SIGNAL + "radius = 0.9\ntopology_seed = 2\n"

# (experiment, config) by case name
CASES = {
    "ac-compare": ("ac-compare", NETWORK + "M = 3\nI = 2 4\ntrials = 2\n"),
    "ac-compare-failures": (
        "ac-compare",
        NETWORK + "M = 3\nI = 2\ntrials = 2\nengines = standard chebyshev+failures\n"
        "link_failure_prob = 0.2\n",
    ),
    "eig-converge": ("eig-converge", NETWORK + "M = 2 4\nI = 3\ntrials = 2\n"),
    "eig-converge-failures": (
        "eig-converge",
        NETWORK + "M = 2\nI = 3\ntrials = 2\nengine = standard+failures\n"
        "link_failure_prob = 0.2\n",
    ),
    "multi-eig": ("multi-eig", NETWORK + "M = 4\nI = 3\neig_indices = 1 3\ntrials = 2\n"),
    "roc": ("roc", NETWORK + "M = 2 3\nI = 4\ntrials = 20\nalphas = 0.5\n"),
    "roc-file": (
        "roc", SIGNAL + "M = 2\nI = 4\ntrials = 20\nalphas = 0.5\ntopology = file\n"
    ),
    "audit-messages": ("audit-messages", NETWORK + "M = 3\nI = 5\n"),
    "prop-check": ("prop-check", SIGNAL + "M = 4\n"),
}


class Recording(ExperimentConfig):
    """A config that records the name of every field read from it."""

    def __getattribute__(self, name):
        if name in FIELDS:
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


@pytest.fixture(scope="module")
def keys(tmp_path_factory):
    """By case: the config keys its run reads, and those the table declares."""
    graph_file = tmp_path_factory.mktemp("graph") / "graph.txt"
    graph_file.write_text(dump_edge_list(generate_random_geometric(8, 0.9, 5)))
    out = {}
    for case, (experiment, text) in CASES.items():
        if "topology = file" in text:
            text += f"graph_file = {graph_file}\n"
        cfg = validate_config(text, experiment)
        recording = Recording(**dataclasses.asdict(cfg))
        recording.read = set()
        harness.run(recording)
        read = {harness._ALIASES.get(name, name) for name in recording.read}
        out[case] = read, harness._keys_read(cfg)
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_table_states_the_keys_each_run_reads(case, keys):
    read, declared = keys[case]
    assert read == declared, (
        f"read but not declared: {sorted(read - declared)}; "
        f"declared but not read: {sorted(declared - read)}"
    )


def test_cases_cover_every_experiment_and_conditional_key(keys):
    assert {experiment for experiment, _ in CASES.values()} == set(harness.EXPERIMENTS)
    # radius and topology_seed under a generated network, graph_file under a
    # network file, link_failure_prob under a +failures engine or engines entry
    for key in ("radius", "topology_seed", "graph_file", "link_failure_prob"):
        assert any(key in declared for _, declared in keys.values()), key
        assert not all(key in declared for _, declared in keys.values()), key


def test_every_field_is_read_by_some_experiment(keys):
    # a key that no run reads is an option that does nothing; out names where
    # the CLI writes, which no run reads
    read = set().union(*(read for read, _ in keys.values()))
    assert read == {harness._ALIASES.get(name, name) for name in FIELDS} - {"out"}


def test_single_valued_keys_are_list_keys_their_experiment_reads():
    for name, spec in harness._TABLE.items():
        for key in spec.single:
            assert key in spec.keys, (name, key)
            assert harness._KEY_TO_FIELD[key].type.startswith("tuple["), (name, key)
