"""The CSV writer formats whole blocks of values with numpy. Its text must be
exactly Python's format(v, ".9g"), value by value and file by file, with NaN
as an empty field; `reference_write_csv`, one format() call per value, is
the reference."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atugv import cli, csvtext
from atugv.planner import plan
from atugv.scenario import bundled_scenario_path, load_scenario_text
from atugv.simulator import run
from test_bench_contract import BENCH, _bench_module


def reference_write_csv(path, header, times, labels, values):
    """The per-value writer: CRLF rows of t, the label, then each value."""
    label_text = [",".join(map(str, label)) for label in labels]
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, block in zip(times.tolist(), values):
            t = format(t, ".9g")
            for label, row in zip(label_text, block.tolist()):
                fields = ",".join("" if v != v else format(v, ".9g") for v in row)
                fh.write(f"{t},{label},{fields}\r\n")


def kernel_text(values):
    rows = csvtext.g9_bytes(np.asarray(values, dtype=float))
    assert rows.shape == (len(values), csvtext.WIDTH)
    return [row[row != 0].tobytes().decode() for row in rows]


def expected_text(values):
    return ["" if math.isnan(v) else format(v, ".9g") for v in values]


any_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# Values next to a rounding tie of the ninth digit, at many scales.
near_ties = st.builds(
    lambda digits, x, ulps: float(np.nextafter((digits + 0.5) * 10.0**x, math.copysign(math.inf, ulps)))
    if ulps
    else (digits + 0.5) * 10.0**x,
    st.integers(10**8, 10**9 - 1),
    st.integers(-25, 25),
    st.integers(-2, 2),
)


class TestFormatKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(any_floats, min_size=1, max_size=64))
    def test_any_float_prints_as_format(self, values):
        assert kernel_text(values) == expected_text(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(near_ties | any_floats, min_size=1, max_size=32))
    def test_values_near_a_tie_print_as_format(self, values):
        assert kernel_text(values) == expected_text(values)

    def test_fixed_values(self):
        pinned = [
            (0.0, "0"),
            (-0.0, "-0"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (math.nan, ""),
            (100000000.5, "100000000"),  # exact ties round half to even
            (100000001.5, "100000002"),
            (12345678.25, "12345678.2"),
            (12345678.75, "12345678.8"),
            (999999999.5, "1e+09"),
            # scaled to nine digits, each rounds to a tie or across one
            (6.7326551850000005, "6.73265519"),
            (6.844741745e-14, "6.84474175e-14"),
            (5.600228315e21, "5.60022831e+21"),
            (9.214800195e21, "9.21480019e+21"),
            (99999.99995, "99999.9999"),  # the nearest double is below the tie
            (1e-5, "1e-05"),
            (1e-4, "0.0001"),
            (1e9, "1e+09"),
            (123456789.0, "123456789"),
            (1e100, "1e+100"),
            (-1.23456789e-308, "-1.23456789e-308"),
            (5e-324, "4.94065646e-324"),
        ]
        values, texts = zip(*pinned)
        assert kernel_text(values) == list(texts)

    def test_scales_and_powers_of_ten(self):
        # Zero and the exact powers of ten take the vectorized path; a log10
        # that rounds across a power of ten and nine digits that round up to
        # 1e9 are left to format().
        exact = np.array([0.0] + [10.0**x for x in range(23)])
        assert not csvtext._nine_digits(exact)[2].any()
        across = [float(np.nextafter(1000.0, 0.0)), 0.9999999999999999, 9.9999999999]
        assert csvtext._nine_digits(np.array(across))[2].all()
        assert kernel_text(across) == ["1000", "1", "10"]
        # Every power of ten from below the subnormals to the largest, each
        # with its neighbours, at the scales of every exponent and the ones
        # beside them.
        powers = [10.0**x for x in range(-330, 309)]
        powers += [float(np.nextafter(p, d)) for d in (0.0, math.inf) for p in powers]
        values = [m * p for p in powers for m in (1, 1.23456789, 9.99999999, 9.999999995, 9.9999999949)]
        values += [-v for v in values]
        values += [1e-300, 2.2250738585072014e-308, 1.7976931348623157e308, 1e22, 1e23]
        assert kernel_text(values) == expected_text(values)

    def test_random_magnitudes(self):
        rng = np.random.default_rng(7)
        values = 10.0 ** rng.uniform(-12, 12, 20000) * rng.choice([-1.0, 1.0], 20000)
        assert kernel_text(values) == expected_text(values.tolist())


def _trace(text, name="<scenario>"):
    scenario = load_scenario_text(text, name=name)
    assert plan(scenario.plan_spec, scenario.graph, scenario.sample_count) is None
    return run(scenario.plan_spec, scenario.graph, scenario.sim)


def _bundled(name):
    return bundled_scenario_path(name).read_text()


def _head(trace, steps):
    """The first `steps` rows of every per-time array of a trace."""
    per_time = {
        f.name: getattr(trace, f.name)[:steps]
        for f in dataclasses.fields(trace)
        if isinstance(getattr(trace, f.name), np.ndarray)
    }
    return dataclasses.replace(trace, **per_time)


def assert_same_files(trace, tmp_path, monkeypatch):
    """Both CSV files of `trace` are byte-identical to the reference's."""
    for write in (cli.write_trajectory_csv, cli.write_elbow_csv):
        write(tmp_path / "new.csv", trace)
        with monkeypatch.context() as m:
            m.setattr(csvtext, "write_csv", reference_write_csv)
            write(tmp_path / "reference.csv", trace)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


SEVEN_DOUBLE = _bundled("seven_cell_sim").replace("model = single", "model = double")
SEVEN_PERTURBED = _bundled("seven_cell_sim") + "offset = 0.01, -0.02\noffset.6 = -0.015, 0.005\n"


class TestFilesMatchReference:
    @pytest.mark.parametrize("name", ["four_cell_experiment", "seven_cell_sim"])
    def test_bundled(self, name, tmp_path, monkeypatch):
        assert_same_files(_trace(_bundled(name)), tmp_path, monkeypatch)

    @pytest.mark.parametrize("text", [SEVEN_DOUBLE, SEVEN_PERTURBED], ids=["double", "perturbed"])
    def test_seven_cell_variants(self, text, tmp_path, monkeypatch):
        assert "model = double" in text or "\noffset = 0.01" in text
        assert_same_files(_trace(text), tmp_path, monkeypatch)

    def test_all_powered_synthetic_graph(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))  # workloads imports oracle by name
        workloads = _bench_module("workloads")
        trace = _trace(workloads.synthetic_scenario(np.random.default_rng([4, 1])))
        assert len(trace.cells) == 250
        assert_same_files(trace, tmp_path, monkeypatch)

    def test_missing_values_print_empty(self, tmp_path, monkeypatch):
        trace = _trace(_bundled("seven_cell_sim"))
        elbow_actual = trace.elbow_actual.copy()
        elbow_actual[::3, 1] = np.nan
        elbow_actual[7] = -np.nan
        trace = dataclasses.replace(trace, elbow_actual=elbow_actual)
        assert np.isnan(trace.velocity_commands).any()
        assert_same_files(trace, tmp_path, monkeypatch)

    @pytest.mark.parametrize("rows_per_block", [1, 3, 10, 41])
    def test_blocks_split_anywhere(self, rows_per_block, tmp_path, monkeypatch):
        # Budgets below one step's bytes give one-step blocks; the others
        # give blocks of 2, 5 and 8 steps, which do not divide the 23 steps.
        trace = _head(_trace(SEVEN_PERTURBED), 23)
        monkeypatch.setattr(csvtext, "_CSV_BLOCK_BYTES", rows_per_block * 140)
        assert_same_files(trace, tmp_path, monkeypatch)

    @pytest.mark.parametrize("labels", [[], [(4, 1)]], ids=["no_labels", "one_label"])
    def test_header_only_and_one_label(self, labels, tmp_path):
        # A vehicle with no joints writes a header-only elbows.csv.
        times = np.array([0.0, 0.01, 0.02])
        values = np.array([[[3.14159265358979, np.nan]] * len(labels)] * 3).reshape(3, len(labels), 2)
        header = ["t", "cell_i", "cell_j", "theta_des", "theta_act"]
        csvtext.write_csv(tmp_path / "new.csv", header, times, labels, values)
        reference_write_csv(tmp_path / "reference.csv", header, times, labels, values)
        expected = b"t,cell_i,cell_j,theta_des,theta_act\r\n"
        if labels:
            expected += b"0,4,1,3.14159265,\r\n0.01,4,1,3.14159265,\r\n0.02,4,1,3.14159265,\r\n"
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes() == expected

    def test_run_writes_the_reference_bytes(self, tmp_path, monkeypatch):
        assert cli.main(["run", "four_cell_experiment", "--output-dir", str(tmp_path / "new")]) == 0
        monkeypatch.setattr(csvtext, "write_csv", reference_write_csv)
        assert cli.main(["run", "four_cell_experiment", "--output-dir", str(tmp_path / "ref")]) == 0
        for name in ("trajectory.csv", "elbows.csv", "report.txt"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
        assert (tmp_path / "new" / "trajectory.csv").read_bytes().count(b"\r\n") == 2001 * 4 + 1
