"""Property suite: emitted RTL artifacts round-trip losslessly.

For random MLPs (via the shared ``make_mlp``/``random_population``
factories) across topologies, bit widths and mask densities:

* the module text's accumulator expressions parse back out
  (``extract_accumulator_expressions``) and re-execute to the exact
  model accumulators — generation → extraction → evaluation is
  lossless;
* the testbench text's stimulus and golden responses parse back out
  (``extract_testbench_vectors``) bit-identically to what was applied,
  through the new named :class:`~repro.rtl.testbench.TestbenchVectors`
  result;
* the microverilog simulator, the compiled gate-level netlists and the
  Python model agree on every vector (``verify_design(eda=True)`` with
  zero mismatches) — the full five-oracle closure.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.approx.config import ApproxConfig
from repro.eda.microverilog import simulate_mlp_module
from repro.evaluation.verification import verify_design
from repro.hardware.simulator import simulate_neuron_netlist
from repro.rtl.testbench import (
    TestbenchVectors,
    extract_testbench_vectors,
    generate_testbench,
)
from repro.rtl.verilog import (
    evaluate_neuron_expression,
    extract_accumulator_expressions,
    generate_mlp_verilog,
)


def _draw_case(make_mlp, seed, hidden, input_bits, mask_density):
    rng = np.random.default_rng(seed)
    config = ApproxConfig(input_bits=input_bits)
    mlp = make_mlp(
        rng, sizes=(4, hidden, 3), config=config, mask_density=mask_density
    )
    vectors = rng.integers(
        0, config.max_input_value + 1, size=(24, mlp.topology.num_inputs)
    )
    return mlp, vectors.astype(np.int64)


class TestExpressionRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        hidden=st.integers(min_value=2, max_value=5),
        input_bits=st.integers(min_value=2, max_value=6),
        mask_density=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_accumulators_reexecute_exactly(
        self, make_mlp, seed, hidden, input_bits, mask_density
    ):
        mlp, vectors = _draw_case(make_mlp, seed, hidden, input_bits, mask_density)
        text = generate_mlp_verilog(mlp)
        expressions = extract_accumulator_expressions(text)
        assert len(expressions) == sum(layer.fan_out for layer in mlp.layers)
        activations = vectors
        for layer_index, layer in enumerate(mlp.layers):
            accumulators = layer.accumulate(activations)
            for j in range(layer.fan_out):
                recovered = evaluate_neuron_expression(
                    expressions[(layer_index, j)], activations
                )
                assert np.array_equal(recovered, accumulators[:, j])
            if layer.activation is not None:
                activations = layer.activation(accumulators)


class TestTestbenchRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        hidden=st.integers(min_value=2, max_value=5),
        input_bits=st.integers(min_value=2, max_value=6),
        mask_density=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_vectors_and_golden_recovered_bit_identically(
        self, make_mlp, seed, hidden, input_bits, mask_density
    ):
        mlp, vectors = _draw_case(make_mlp, seed, hidden, input_bits, mask_density)
        text = generate_testbench(mlp, vectors=vectors)
        parsed = extract_testbench_vectors(text)
        assert isinstance(parsed, TestbenchVectors)
        assert np.array_equal(parsed.vectors, vectors)
        assert np.array_equal(parsed.golden, mlp.predict(vectors))
        assert parsed.num_vectors == vectors.shape[0]
        assert parsed.num_inputs == vectors.shape[1]
        # Historical unpacking stays supported.
        recovered_vectors, recovered_golden = parsed
        assert recovered_vectors is parsed.vectors
        assert recovered_golden is parsed.golden


class TestFiveOracleClosure:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**9),
        hidden=st.integers(min_value=2, max_value=5),
        input_bits=st.integers(min_value=2, max_value=6),
        mask_density=st.floats(min_value=0.1, max_value=1.0),
    )
    # Regression: the layer-0 accumulator was narrower than the 8-bit
    # activation, so the saturation wire could not be sliced to 8 bits.
    @example(seed=4311, hidden=2, input_bits=2, mask_density=0.25)
    def test_microverilog_netlist_and_model_agree(
        self, make_mlp, seed, hidden, input_bits, mask_density
    ):
        mlp, vectors = _draw_case(make_mlp, seed, hidden, input_bits, mask_density)
        verification = verify_design(mlp, vectors, eda=True)
        assert verification.eda_oracle is True
        assert verification.total_mismatches == 0
        assert verification.passed

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_simulator_matches_gate_level_accumulators(self, make_mlp, seed):
        """The microverilog class decision chains from the same
        accumulators the compiled netlists produce (layer 0 checked
        directly against the gate-level engine)."""
        mlp, vectors = _draw_case(make_mlp, seed, hidden=3, input_bits=4, mask_density=0.5)
        layer = mlp.layers[0]
        accumulators = layer.accumulate(vectors)
        for j in range(layer.fan_out):
            gate = simulate_neuron_netlist(layer.neuron(j), vectors)
            assert np.array_equal(gate, accumulators[:, j])
        text = generate_mlp_verilog(mlp)
        assert np.array_equal(simulate_mlp_module(text, vectors), mlp.predict(vectors))


class TestPopulationRoundTrip:
    def test_layout_decoded_population_verifies_clean(self, random_population):
        """GA-shaped candidates (layout decode) survive the closure too."""
        rng = np.random.default_rng(5)
        for model in random_population(rng, (4, 3, 2), 6):
            vectors = rng.integers(0, 16, size=(16, 4))
            verification = verify_design(model, vectors, eda=True)
            assert verification.passed
