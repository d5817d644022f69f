import numpy as np
import pytest

from minsyn.svg import line_plot_svg

from _oracles import svg_polylines_per_point


def random_curves(seed: int):
    """Shared x values and up to four series with NaN and +-inf points,
    given as lists or arrays."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    x = np.sort(rng.uniform(-3.0, 3.0, n)) * 10.0 ** rng.integers(-3, 4)
    series = {}
    for k in range(int(rng.integers(1, 5))):
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5)
        u = rng.random(n)
        y[u < 0.1] = np.nan
        y[(u >= 0.1) & (u < 0.15)] = np.inf
        y[(u >= 0.15) & (u < 0.2)] = -np.inf
        y[0] = 1.0  # at least one finite point
        values = y.tolist() if k % 2 else y
        series[f"s{k}"] = values
    return (x.tolist() if seed % 3 == 0 else x), series


def polylines(svg: str) -> list:
    return [line for line in svg.splitlines() if line.startswith("<polyline")]


class TestLinePlot:
    @pytest.mark.parametrize("seed", range(60))
    def test_polylines_equal_the_per_point_loop(self, seed):
        x, series = random_curves(seed)
        svg = line_plot_svg(x, series, title="t", xlabel="x", ylabel="y")
        assert polylines(svg) == svg_polylines_per_point(x, series)

    def test_non_finite_points_break_the_line(self):
        svg = line_plot_svg([0.0, 1.0, 2.0, 3.0, 4.0],
                            {"a": [0.0, np.nan, 1.0, 2.0, np.inf]})
        points = [line.split('"')[1].split() for line in polylines(svg)]
        assert [[p.split(",")[0] for p in run] for run in points] == [
            ["64.00"], ["344.00", "484.00"]]

    def test_flat_and_single_point_series(self):
        for x, series in (([1.0], {"a": [2.0]}), ([0.0, 1.0], {"a": [3.0, 3.0]})):
            svg = line_plot_svg(x, series)
            assert polylines(svg) == svg_polylines_per_point(x, series)

    @pytest.mark.parametrize("ys", [[0.0, 1.0, 100.0], [0.0], [[0.0, 1.0]]])
    def test_a_series_of_another_length_than_x_is_named(self, ys):
        # A longer series used to set the y range from points it never drew.
        with pytest.raises(ValueError, match=r"series b must hold one value per x value \(2\)"):
            line_plot_svg([0.0, 1.0], {"a": [0.0, 1.0], "b": ys})
