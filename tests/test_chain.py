"""Chained-network generalization against an independent matrix-product oracle."""

import copy
import gc
import itertools
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfoptics import core, kernel, protocols
from cfoptics import (
    BeamSplitter,
    Blocker,
    Checkpoint,
    ChainConfig,
    Discard,
    DomainError,
    ModeState,
    NestedConfig,
    Network,
    build_chain_network,
    build_nested_network,
    propagate,
    run_chain,
    run_protocol,
)
from cfoptics.protocols import MAX_CHAIN_ELEMENTS, _chain_element_count
from helpers import chain_matrix_oracle

SCHEDULE = ((2, 4), (5, 25), (10, 100), (20, 400))

# The validated angle domain (-pi, pi].
ANGLES = st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True)


ELEMENT_FIELDS = {BeamSplitter: ("mode_a", "mode_b", "theta"), Blocker: ("mode", "label"),
                  Discard: ("mode", "label"), Checkpoint: ("name",)}


def full_signature(element):
    """Element class and every field, checkpoint indices included."""
    return (type(element),) + tuple(getattr(element, name) for name in ELEMENT_FIELDS[type(element)])


def reference_chain_signatures(chain, bit):
    """The chained layout as a plain nested loop over the cycles."""
    outer = (BeamSplitter, 0, 1, chain.outer_angle)
    inner = (BeamSplitter, 1, 2, chain.inner_angle)
    signatures = []
    for k in range(1, chain.outer_cycles + 1):
        signatures += [outer, (Checkpoint, f"alice_to_charlie[{k}]")]
        for j in range(1, chain.inner_cycles + 1):
            signatures += [inner, (Checkpoint, f"charlie_to_bob[{k}.{j}]")]
            if bit == 0:
                signatures.append((Blocker, 2, "bob"))
            signatures.append((Checkpoint, f"bob_to_charlie[{k}.{j}]"))
        signatures += [inner, (Checkpoint, f"charlie_to_alice[{k}]"), (Discard, 2, "discard")]
    signatures.append((BeamSplitter, 0, 1, chain.final_angle))
    return signatures


def assert_acts_as(network, eager):
    """``network`` equals, hashes, shows, compiles and propagates as
    ``eager``: its plan is ``eager``'s but for the kernel program that a
    chain build attaches, which a network of elements has not."""
    assert network == eager and eager == network
    assert hash(network) == hash(eager) and repr(network) == repr(eager)
    assert core.compile_network(network)._replace(program=None) == core.compile_network(eager)
    assert core.compile_network(eager).program is None
    state = ModeState.single_photon(3)
    (final, checkpoints), (eager_final, eager_checkpoints) = (
        propagate(network, state), propagate(eager, state))
    assert (final.amplitudes == eager_final.amplitudes).all()
    assert final.absorbed == eager_final.absorbed
    assert list(checkpoints) == list(eager_checkpoints)
    assert (checkpoints.matrix == eager_checkpoints.matrix).all()


def element_signature(element):
    if isinstance(element, BeamSplitter):
        return ("split", element.mode_a, element.mode_b, element.theta)
    if isinstance(element, Blocker):
        return ("block", element.mode, element.label)
    if isinstance(element, Discard):
        return ("discard", element.mode, element.label)
    return ("checkpoint", element.name.split("[", 1)[0])


class TestChainConfig:
    def test_default_angles(self):
        chain = ChainConfig(4, 9)
        assert chain.outer_angle == pytest.approx(math.pi / 10)
        assert chain.inner_angle == pytest.approx(math.pi / 20)
        assert chain.final_angle == chain.outer_angle

    def test_rejects_nonpositive_cycles(self):
        with pytest.raises(DomainError):
            ChainConfig(0, 1)
        with pytest.raises(DomainError):
            ChainConfig(1, -3)

    def test_element_count_matches_built_network(self):
        for outer, inner in ((1, 1), (2, 3), (5, 25)):
            for bit in (0, 1):
                network = build_chain_network(ChainConfig(outer, inner), bit)
                assert len(network.elements) == _chain_element_count(outer, inner, bit)

    def test_element_budget(self):
        """One outer cycle of m inner cycles takes 4m + 6 elements at b = 0:
        m = 124998 fits the budget exactly and m = 124999 does not.  Neither
        network is built."""
        assert _chain_element_count(20, 400, 0) * 10 < MAX_CHAIN_ELEMENTS
        assert _chain_element_count(1, 124998, 0) <= MAX_CHAIN_ELEMENTS
        ChainConfig(1, 124998)
        assert _chain_element_count(1, 124999, 0) > MAX_CHAIN_ELEMENTS
        for outer, inner in ((1, 124999), (100000, 100000)):
            with pytest.raises(DomainError) as excinfo:
                ChainConfig(outer, inner)
            assert f"budget of {MAX_CHAIN_ELEMENTS}" in str(excinfo.value)


class TestChainLayout:
    @pytest.mark.parametrize(
        "chain",
        (
            ChainConfig(1, 1),
            ChainConfig(2, 3),
            ChainConfig(3, 7),
            ChainConfig(3, 7, outer_angle=0.21, inner_angle=-2.9, final_angle=0.45),
            ChainConfig(2, 3, outer_angle=math.pi, inner_angle=0.0, final_angle=-1.0),
        ),
    )
    def test_matches_nested_loop_reference(self, chain):
        for bit in (0, 1):
            network = build_chain_network(chain, bit)
            assert [full_signature(e) for e in network.elements] == reference_chain_signatures(
                chain, bit
            )

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(1, 6), st.integers(1, 40), st.sampled_from((0, 1)))
    def test_layout_over_many_shapes(self, outer, inner, bit):
        """Every shape matches the nested-loop reference, and each coupler
        kind, the blocker and the discard is one object per network."""
        chain = ChainConfig(outer, inner)
        elements = build_chain_network(chain, bit).elements
        assert [full_signature(e) for e in elements] == reference_chain_signatures(chain, bit)
        families = {}
        for element in elements[:-1]:
            if type(element) is not Checkpoint:
                families.setdefault(full_signature(element)[:3], set()).add(id(element))
        assert len(families) == (4 if bit == 0 else 3)
        assert all(len(objects) == 1 for objects in families.values())

    def test_an_unpaired_run_leaves_no_row_index(self, monkeypatch):
        """Nothing holds a run's checkpoint rows once it returns, even with
        no run of the other bit to follow."""
        rows = []

        def recording_build(chain, bit):
            network = original_build(chain, bit)
            rows.append(weakref.ref(network._plan.checkpoint_rows))
            return network

        original_build = protocols.build_chain_network
        monkeypatch.setattr(protocols, "build_chain_network", recording_build)
        run_chain(ChainConfig(3, 2), 1)
        gc.collect()
        assert len(rows) == 1 and rows[0]() is None

    def test_a_run_makes_and_names_no_checkpoint(self, monkeypatch):
        """A 20 x 400 pair makes no checkpoint and names no row: the run
        reads the snapshot matrix by position.  The elements, made on first
        read, and the rows, named on first read, are those of the reference
        layout and of ``_lower``."""
        chain, per_cycle = ChainConfig(20, 400), 2 * 400 + 2
        made, named, networks, snapshots = [], [], [], []
        original_names = protocols._ChainRows.names
        original_build, original_propagate = protocols.build_chain_network, protocols.propagate

        def counting_checkpoint(name):
            made.append(name)
            return Checkpoint(name)

        def counting_names(rows):
            for names in original_names(rows):
                named.extend(names)
                yield names

        def recording_build(chain, bit):
            networks.append(original_build(chain, bit))
            return networks[-1]

        def recording_propagate(network, state):
            final, checkpoints = original_propagate(network, state)
            snapshots.append(checkpoints)
            return final, checkpoints

        monkeypatch.setattr(protocols, "Checkpoint", counting_checkpoint)
        monkeypatch.setattr(protocols._ChainRows, "names", counting_names)
        monkeypatch.setattr(protocols, "build_chain_network", recording_build)
        monkeypatch.setattr(protocols, "propagate", recording_propagate)
        run_chain(chain, 0)
        run_chain(chain, 1)
        assert made == [] and named == []
        rows = [core.compile_network(network).checkpoint_rows for network in networks]
        assert [len(checkpoints) for checkpoints in snapshots] == [20 * per_cycle] * 2
        assert [len(r) for r in rows] == [20 * per_cycle] * 2
        assert named == []
        for bit, network in enumerate(networks):
            signatures = [full_signature(e) for e in network.elements]
            assert signatures == reference_chain_signatures(chain, bit)
        for network, checkpoints in zip(networks, snapshots):
            lowered = core._lower(network.elements, 3).checkpoint_rows
            assert list(core.compile_network(network).checkpoint_rows.items()) == list(
                lowered.items())
            assert list(checkpoints) == list(lowered)
            assert all((checkpoints[name] == checkpoints.matrix[row]).all()
                       for name, row in lowered.items())

    @pytest.mark.parametrize("bit", (0, 1))
    def test_a_build_allocates_per_template_not_per_element(self, bit, monkeypatch):
        """A 20 x 400 build allocates for its one-cycle template, not an
        entry per element (the four columns of 32,101 entries tiled as lists
        take about 1 MB), and a run tiles none of its columns: the program
        reads its pairs by index."""
        chain, networks = ChainConfig(20, 400), []
        tracemalloc.start()
        try:
            build_chain_network(chain, bit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        original_build = protocols.build_chain_network
        monkeypatch.setattr(protocols, "build_chain_network",
                            lambda *args: networks.append(original_build(*args)) or networks[-1])
        run_chain(chain, bit)
        columns = networks[0]._plan[:4]
        assert [len(column) for column in columns] == [_chain_element_count(20, 400, bit)] * 4
        assert not any("_tiled" in vars(column) for column in columns)

    @pytest.mark.parametrize("read", (False, True), ids=("unread", "read"))
    def test_a_chain_network_acts_as_its_eager_equal(self, read):
        """Copied, pickled, replaced, compared, hashed or shown, a chain
        network, its elements read or not, is the network ``Network`` makes
        of the same elements, and a copy propagates to the same result."""
        chain = ChainConfig(3, 4)
        for bit in (0, 1):
            network = build_chain_network(chain, bit)
            eager = Network(3, build_chain_network(chain, bit).elements)
            if read:
                assert network.elements == eager.elements
            assert ("elements" in vars(network)) is read
            copies = [pickle.loads(pickle.dumps(network, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            copies += [copy.copy(network), copy.deepcopy(network)]
            assert all(("elements" in vars(c)) is read for c in copies)
            assert all(core.compile_network(c).program == (protocols._PROGRAMS[bit], 3, 4)
                       for c in copies + [network])
            copies += [Network(network.mode_count, network.elements), network]
            for other in copies:
                assert_acts_as(other, eager)

    @pytest.mark.parametrize("read", (False, True), ids=("unread", "read"))
    def test_a_replaced_chain_network_has_the_given_elements(self, read):
        """A chain network's mode count with other elements, its own read
        or not, makes the network of those elements, and the chain network
        still acts as its eager equal."""
        network = build_chain_network(ChainConfig(3, 4), 0)
        if read:
            assert network.elements
        other = Network(3, build_chain_network(ChainConfig(2, 3), 1).elements)
        replaced = Network(network.mode_count, other.elements)
        assert replaced.elements == other.elements
        assert_acts_as(replaced, other)
        assert_acts_as(network, Network(3, build_chain_network(ChainConfig(3, 4), 0).elements))


class TestReduction:
    """The one-cycle chain at inner angle pi/4 is the nested layout, exactly:
    the same elements and plan, and the same run, bit for bit."""

    angles = st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True)

    @staticmethod
    def configs(theta1, theta2):
        return ChainConfig(1, 1, theta1, math.pi / 4, theta2), NestedConfig(theta1, theta2)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(angles, angles, st.sampled_from((0, 1)))
    def test_single_cycle_network_matches_basic_layout(self, theta1, theta2, bit):
        chain, nested = self.configs(theta1, theta2)
        chained, basic = build_chain_network(chain, bit), build_nested_network(nested, bit)
        assert [element_signature(e) for e in chained.elements] == [
            element_signature(e) for e in basic.elements
        ]
        chained, basic = core.compile_network(chained), core.compile_network(basic)
        for name in ("ops", "arg_a", "arg_b", "coeff"):
            assert list(getattr(chained, name)) == list(getattr(basic, name)), name
        assert chained.ledger_labels == basic.ledger_labels
        assert list(chained.checkpoint_rows.values()) == list(basic.checkpoint_rows.values())

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(angles, angles, st.sampled_from((0, 1)))
    def test_single_cycle_outcome_matches_basic_protocol(self, theta1, theta2, bit):
        chain, nested = self.configs(theta1, theta2)
        chained, basic = run_chain(chain, bit), run_protocol(nested, bit)
        assert (chained.p_d1, chained.p_d2) == (basic.p_d1, basic.p_d2)
        assert chained.absorbed == basic.absorbed
        assert chained.leg_peaks == {leg: abs(z) ** 2 for leg, z in basic.legs.items()}


class TestAgainstMatrixOracle:
    @pytest.mark.parametrize("cycles", SCHEDULE)
    def test_schedule_matches_oracle(self, cycles):
        outer, inner = cycles
        chain = ChainConfig(outer, inner)
        for bit in (0, 1):
            outcome = run_chain(chain, bit)
            oracle_d1, oracle_d2 = chain_matrix_oracle(
                outer, inner, chain.outer_angle, chain.inner_angle, chain.final_angle, bit
            )
            assert outcome.p_d1 == pytest.approx(oracle_d1, abs=1e-10)
            assert outcome.p_d2 == pytest.approx(oracle_d2, abs=1e-10)

    def test_non_default_angles_match_oracle(self):
        chain = ChainConfig(3, 7, outer_angle=0.21, inner_angle=0.13, final_angle=0.45)
        for bit in (0, 1):
            outcome = run_chain(chain, bit)
            oracle_d1, oracle_d2 = chain_matrix_oracle(3, 7, 0.21, 0.13, 0.45, bit)
            assert outcome.p_d1 == pytest.approx(oracle_d1, abs=1e-10)
            assert outcome.p_d2 == pytest.approx(oracle_d2, abs=1e-10)

    def test_success_trend_grows_along_schedule(self):
        for bit in (0, 1):
            values = [run_chain(ChainConfig(n, m), bit).p_correct for n, m in SCHEDULE]
            assert values == sorted(values)
            assert values[-1] > 0.75


class TestChainWitnesses:
    def test_blocked_arm_peaks_are_exactly_zero(self):
        outcome = run_chain(ChainConfig(4, 6), 0)
        assert outcome.leg_peaks["bob_to_charlie"] == 0.0

    def test_open_arm_return_leg_stays_dark(self):
        outcome = run_chain(ChainConfig(4, 6), 1)
        assert outcome.leg_peaks["charlie_to_alice"] < 1e-24

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(1, 6), st.integers(1, 40), ANGLES, ANGLES, ANGLES, st.sampled_from((0, 1)))
    @example(6, 40, None, None, None, 0)
    @example(6, 40, None, None, None, 1)
    @example(3, 7, 0.21, -2.9, 0.45, 0)
    @example(3, 7, 0.21, -2.9, 0.45, 1)
    @example(20, 400, None, None, None, 0)
    @example(20, 400, None, None, None, 1)
    @example(1, 2000, None, None, None, 0)
    @example(1, 2000, None, None, None, 1)
    @example(50, 1, None, None, None, 0)
    @example(50, 1, None, None, None, 1)
    def test_leg_peaks_are_the_largest_checkpoint_probabilities(
        self, outer, inner, outer_angle, inner_angle, final_angle, bit
    ):
        """Per leg family, the peak equals the maximum of |amplitude|^2 over
        its checkpoints, bit for bit, on each of run_chain's three paths:
        the blocked return leg's entries are all zero at bit 0, the two
        inner legs' entries are equal at bit 1, as they are read at adjacent
        checkpoints, and the other legs square their largest modulus."""
        leg_mode = {
            "alice_to_charlie": 1,
            "charlie_to_bob": 2,
            "bob_to_charlie": 2,
            "charlie_to_alice": 1,
        }
        chain = ChainConfig(outer, inner, outer_angle, inner_angle, final_angle)
        _, checkpoints = propagate(build_chain_network(chain, bit), ModeState.single_photon(3))
        amplitudes = {leg: [] for leg in leg_mode}
        expected = dict.fromkeys(leg_mode, 0.0)
        for name, vector in checkpoints.items():
            leg = name.split("[")[0]
            amplitudes[leg].append(complex(vector[leg_mode[leg]]))
            expected[leg] = max(expected[leg], float(abs(vector[leg_mode[leg]]) ** 2))
        if bit == 0:
            assert not any(amplitudes["bob_to_charlie"])
        else:
            assert amplitudes["bob_to_charlie"] == amplitudes["charlie_to_bob"]
        assert run_chain(chain, bit).leg_peaks == expected

    def test_a_run_builds_no_array(self, monkeypatch):
        """A chain run reads its detectors and leg peaks from the kernel's
        lists: no numpy array is made for the snapshots or the final state."""
        made = []
        for name in ("array", "asarray", "empty", "zeros"):
            def making(*args, _original=getattr(np, name), _name=name, **kwargs):
                made.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, making)
        for bit in (0, 1):
            outcome = run_chain(ChainConfig(20, 400), bit)
            assert type(outcome.p_d1) is float and type(outcome.leg_peaks["bob_to_charlie"]) is float
        assert made == []

    def test_conservation(self):
        for cycles, bit in itertools.product(SCHEDULE, (0, 1)):
            outcome = run_chain(ChainConfig(*cycles), bit)
            total = (
                outcome.p_d1
                + outcome.p_d2
                + outcome.absorbed["bob"]
                + outcome.absorbed["discard"]
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def kernel_results(network, interpret=False, state=protocols._SINGLE_PHOTON):
    """The repr of the flat snapshots, final amplitudes and ledger of one
    propagation of a protocol network from ``state``: through its plan's
    program, or with ``interpret`` through the kernel's loop on the same
    plan, the program dropped."""
    if interpret:
        network = Network(3, _lowered=network._plan._replace(program=None), _build=network._builder)
    final, checkpoints = propagate(network, state)
    return repr(checkpoints.flat), repr(final._values), repr(final.absorbed)


class TestKernelProgram:
    """A protocol plan's program does what the kernel's loop does on the
    same plan, bit for bit, and the plan holds what the program relies on."""

    @pytest.mark.parametrize("cycles", ((20, 400), (50, 2000)))
    @pytest.mark.parametrize("bit", (0, 1))
    def test_deep_chains_run_as_the_loop_runs_them(self, cycles, bit):
        network = build_chain_network(ChainConfig(*cycles), bit)
        assert network._plan.program == (protocols._PROGRAMS[bit], *cycles)
        assert kernel_results(network) == kernel_results(network, interpret=True)

    def test_a_program_runs_in_place_of_the_loop(self):
        """The kernel hands a plan's program the coefficients, the lists and
        the cycle counts, and reads no other column."""
        calls = []
        coeff, amps, absorbed, snaps = [None], [1 + 0j], [0.0], core.Snapshots({}, 1)
        kernel.run_plan(None, None, None, coeff, amps, absorbed, snaps,
                        (lambda *args: calls.append(args), 2, 3))
        assert calls == [(coeff, amps, absorbed, snaps, 2, 3)]

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.integers(1, 6), st.integers(1, 40), ANGLES, ANGLES, ANGLES, st.sampled_from((0, 1)))
    def test_a_repeated_pair_is_the_first_copy(self, outer, inner, outer_angle, inner_angle,
                                               final_angle, bit):
        """Each entry of a chain's plan is, object for object, the entry at
        the template position it repeats, which is the one the program reads:
        the head's and the inner block's first copy, the tail's last.  Each
        column, counted and indexed from its template and iterated or sliced
        as its tiled list, is that eager tiling at every index."""
        chain = ChainConfig(outer, inner, outer_angle, inner_angle, final_angle)
        plan = build_chain_network(chain, bit)._plan
        template = protocols._OPEN_NESTED[bit]._plan
        positions = range(len(template.ops))
        head, block, tail = (list(positions[part]) for part in protocols._TILING)
        tiled = (head + block * inner + tail) * outer + [positions[-1]]
        assert [template.ops[p] for p in tiled] == plan.ops
        first = {}
        for entry, position in zip(plan.coeff, tiled):
            assert entry is first.setdefault(position, entry)
        size = len(tiled)
        for column, source in zip(plan[:4], (*template[:3], first)):
            eager = [source[p] for p in tiled]
            assert len(column) == size
            assert all(column[i] is eager[i] for i in range(-size, size))
            for index in (size, -size - 1):
                with pytest.raises(IndexError):
                    column[index]
            for part in (slice(None), slice(3, -5), slice(-7, None, 3), slice(None, None, -2)):
                assert column[part] == eager[part]
            assert list(column) == eager


# Angles that any draw may take, with the quarter and half turns that make a
# coupler's sine or cosine exactly 0 or 1.
EDGE_ANGLES = st.one_of(st.sampled_from((0.0, math.pi / 2, -math.pi / 2, math.pi)), ANGLES)
# Parts of an input amplitude: signed zeros, which the sums of a coupler
# keep or drop by the signs of its constant terms, halves, whose products
# with the edge angles' sines and cosines leave such zeros in place, and
# any finite value.
PARTS = st.one_of(st.sampled_from((0.0, -0.0, 0.5, -0.5)), st.floats(-1.0, 1.0))
# Input states with a non-zero amplitude on every mode, Bob's mode 2
# included, so that a program which takes his mode for 0j before his
# blocker has acted fails; some carry an input ledger.
STATES = st.builds(ModeState, st.lists(st.builds(complex, PARTS, PARTS).filter(bool),
                                       min_size=3, max_size=3),
                   st.one_of(st.none(), st.dictionaries(st.sampled_from(("bob", "discard", "x")),
                                                        st.floats(0.0, 1.0), min_size=1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(st.integers(1, 6), st.integers(1, 40), EDGE_ANGLES, EDGE_ANGLES, EDGE_ANGLES,
       st.sampled_from((0, 1)), st.booleans(), STATES)
@example(6, 40, math.pi, math.pi / 2, -math.pi / 2, 0, False, protocols._SINGLE_PHOTON)
@example(6, 40, 0.0, math.pi, math.pi / 2, 1, False, protocols._SINGLE_PHOTON)
@example(1, 1, -math.pi / 2, math.pi / 4, 0.0, 0, True, protocols._SINGLE_PHOTON)
@example(1, 1, math.pi, math.pi / 4, math.pi / 2, 1, True, protocols._SINGLE_PHOTON)
# At b = 0 the closing inner coupler, at 2 rad, meets Bob's mode as 0j.  Its
# cosine is negative: c * 0j has the real part -0.0 and js * 0j has 0.0, and
# only the latter turns the -0.0 real part of c * z1 into 0.0.
@example(1, 1, -math.pi / 2, 2.0, -2.0, 0, False,
         ModeState([complex(-0.5, 0.0), complex(-0.0, 0.5), complex(0.5, 0.0)]))
def test_a_program_runs_as_the_loop(outer, inner, first_angle, inner_angle, last_angle, bit,
                                    nested, state):
    """Every protocol network, nested or chained, runs through its program
    to the loop's snapshots, amplitudes and ledger, by repr, from any input
    state."""
    network = (build_nested_network(NestedConfig(first_angle, last_angle), bit) if nested else
               build_chain_network(ChainConfig(outer, inner, first_angle, inner_angle, last_angle),
                                   bit))
    assert network._plan.program is not None
    assert (kernel_results(network, state=state)
            == kernel_results(network, interpret=True, state=state))
