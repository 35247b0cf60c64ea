import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import mnpred as mp
import mnpred.bootstrap
from mnpred.bootstrap import (
    BootstrapEnsemble,
    asymmetric_multipliers,
    build_ensemble,
    marginal_multipliers,
    rank_multipliers,
)
from mnpred.dm import (
    InversionTable,
    draw_dm_counts,
    repair_zero_columns,
    repair_zero_columns_in_place,
    sample_dm_matrix,
)
from mnpred.empirical import max_abs_quantile, nearest_rank_quantile
from mnpred.errors import DegenerateRankWarning, ValidationError
from mnpred.model import clamp_dispersion, pearson_dispersion

from conftest import appender, assert_no_child_left, forced_route


@pytest.fixture(scope="module")
def histo_fit(histo_data):
    return mp.fit_model(histo_data)


@pytest.fixture(scope="module")
def small_ensemble(histo_data, histo_fit):
    spec = mp.FutureSpec(m=46)
    return build_ensemble(histo_fit, histo_data, spec, B=2000, rng=mp.RngStream(21))


def block_reference(data, fit, m, B, block, seed, inversion=True):
    """(y_hat*, sep*, y*) drawn block by block from substream j, refitted as one table.

    Block j draws its counts, repair integers and futures from
    ``RngStream(seed).child(j)``: by inversion from one table per size,
    built here, when ``inversion``, else from gammas and multinomials.
    The dispersion clamp and the standard error are written out from
    their formulas, not taken from the package.
    """
    phi_future = clamp_dispersion(fit.phi_hat, m)
    tables = future = None
    if inversion:
        sizes = np.unique(data.cluster_sizes)
        tables = {int(n): InversionTable(n, fit.pi_hat, fit.phi_hat) for n in sizes}
        future = InversionTable(m, fit.pi_hat, phi_future)
    blocks, futures = [], []
    for j, i in enumerate(range(0, B, block)):
        gen = mp.RngStream(seed).child(j).generator()
        counts = sample_dm_matrix(
            data.cluster_sizes,
            fit.pi_hat,
            fit.phi_hat,
            gen,
            size=min(block, B - i),
            tables=tables,
        )
        blocks.append(repair_zero_columns_in_place(counts, gen))
        futures.append(
            draw_dm_counts(m, fit.pi_hat, phi_future, gen, size=counts.shape[0], table=future)
        )
    counts = np.concatenate(blocks)
    n_star = counts.sum(axis=2)
    N_star = n_star.sum(axis=1).astype(float)
    pi_star = counts.sum(axis=1) / N_star[:, None]
    phi_raw = pearson_dispersion(counts, pi_star)[2]
    cap = 0.975 * n_star.min(axis=1)
    phi_star = np.where(phi_raw > 1.0, np.minimum(phi_raw, cap), 1.01)
    var = phi_star[:, None] * m * pi_star * (1.0 - pi_star) * (1.0 + m / N_star[:, None])
    return m * pi_star, np.sqrt(np.maximum(var, 0.0)), np.concatenate(futures)


class TestBuildEnsemble:
    def test_mirrors_single_replicate_refit(self, histo_data, histo_fit):
        """The vectorised refit must agree with fit_model applied row by row.

        B=25 is one block, drawn from substream 0 of the ensemble stream.
        Every cluster, past and future, has 46 units, so one inversion
        table serves the counts and the futures.
        """
        spec = mp.FutureSpec(m=46)
        B = 25
        ens = build_ensemble(histo_fit, histo_data, spec, B=B, rng=mp.RngStream(33))

        gen = mp.RngStream(33).child(0).generator()
        table = InversionTable(46, histo_fit.pi_hat, histo_fit.phi_hat)
        counts = sample_dm_matrix(
            histo_data.cluster_sizes,
            histo_fit.pi_hat,
            histo_fit.phi_hat,
            gen,
            size=B,
            tables={46: table},
        )
        repair_zero_columns_in_place(counts, gen)
        y_star = draw_dm_counts(
            spec.m, histo_fit.pi_hat, histo_fit.phi_hat, gen, size=B, table=table
        )
        for b in range(B):
            fit_b = mp.fit_model(mp.HistoricalDataset(counts[b]))
            point_b = mp.prediction_point(fit_b, spec)
            np.testing.assert_allclose(
                ens.z[b], (y_star[b] - point_b.y_hat) / point_b.sep, rtol=1e-10
            )

    def test_shapes_and_row_sums(self, histo_data, histo_fit, small_ensemble):
        """y* = y_hat* + z * sep* recovers whole future clusters of 46 units."""
        z = small_ensemble.z
        assert z.shape == (2000, 5) and z.dtype == np.float64
        assert np.all(np.isfinite(z))
        y_hat_star, sep_star, _ = block_reference(histo_data, histo_fit, 46, 2000, 500, 21)
        y = y_hat_star + z * sep_star
        np.testing.assert_allclose(y, np.rint(y), atol=1e-9)
        assert np.all(np.rint(y) >= 0.0)
        np.testing.assert_array_equal(np.rint(y).sum(axis=1), 46)

    def test_deterministic(self, histo_data, histo_fit):
        spec = mp.FutureSpec(m=20)
        a = build_ensemble(histo_fit, histo_data, spec, B=30, rng=mp.RngStream(5).child(2))
        b = build_ensemble(histo_fit, histo_data, spec, B=30, rng=mp.RngStream(5).child(2))
        c = build_ensemble(histo_fit, histo_data, spec, B=30, rng=mp.RngStream(5).child(3))
        assert a.z.tobytes() == b.z.tobytes()
        assert not np.array_equal(a.z, c.z)

    def test_rejects_tiny_ensemble(self, histo_data, histo_fit):
        with pytest.raises(ValidationError):
            build_ensemble(histo_fit, histo_data, mp.FutureSpec(m=10), B=1, rng=mp.RngStream(1))

    def test_matches_block_by_block_reference(self, monkeypatch, histo_data, histo_fit):
        """Block j draws its counts, repair integers and futures from substream j.

        The refit equals a whole-table one.  The severity table takes blocks
        of 500 replicates (B=1234: 500, 500 and 234); a K=40, C=20 table
        takes 65536 // 800 = 81 (B=250: three blocks of 81 and one of 7).
        Both draw by inversion from mass-0 tables of 47 + 3 x 47^2 = 6674
        and 31 + 18 x 31^2 + 47 + 18 x 47^2 = 57138 cells.  Clusters of 30
        and 200 units at C=4 take blocks of 65536 // 160 = 409 (B=1000:
        409, 409 and 182).  Forced onto narrow bands, that ensemble draws
        from them and their exact fallbacks, and gives the mass-0 tables'
        bytes; forced onto the gamma route it draws gammas and
        multinomials.
        """
        wide = mp.generate_dataset(
            40, 30, np.full(20, 0.05), 3.0, mp.RngStream(37).child(0), repair=True
        )
        sizes = np.where(np.arange(40) % 2 == 1, 200, 30)
        big = mp.generate_dataset(
            40, sizes, (0.1, 0.2, 0.3, 0.4), 3.0, mp.RngStream(37).child(1), repair=True
        )
        cases = (
            (histo_data, histo_fit, 1234, 500, True, "table"),
            (wide, mp.fit_model(wide), 250, 81, True, "table"),
            (big, mp.fit_model(big), 1000, 409, True, "band"),
            (big, mp.fit_model(big), 1000, 409, False, "gamma"),
        )
        spec, m = mp.FutureSpec(m=46), 46
        for data, fit, B, block, inversion, route in cases:
            assert -(-B // block) >= 3 and B % block  # a short last block
            with monkeypatch.context() as patch, forced_route(patch, route):
                ens = build_ensemble(fit, data, spec, B, mp.RngStream(34))
            y_hat_star, sep_star, y_star = block_reference(
                data, fit, m, B, block, 34, inversion
            )
            z = (y_star - y_hat_star) / sep_star
            assert ens.z.dtype == z.dtype and ens.z.tobytes() == z.tobytes()


class TestChunkedRefit:
    """The refit's raw dispersion over replicate chunks equals one pearson_dispersion call, bit for bit."""

    @pytest.mark.parametrize(
        "K, n, pi, B",
        [
            (100, 20, (0.0005, *[0.9995 / 9] * 9), 65),
            (10, 10, (0.002, 0.2, 0.3, 0.2, 0.298), 500),
        ],
        ids=["KC-1000", "KC-50"],
    )
    def test_chunks_move_no_value(self, monkeypatch, K, n, pi, B):
        """A repaired, category-major batch with unequal n_star; B is no multiple of the chunk."""
        C = len(pi)
        chunk = mnpred.bootstrap._REFIT_CELLS // (K * C)
        assert B % chunk != 0
        table = InversionTable(n, pi, 4.0)
        gen = mp.RngStream(56).generator()
        counts = sample_dm_matrix(np.full(K, n), pi, 4.0, gen, size=B, tables={n: table})
        assert counts.transpose(2, 0, 1).flags.c_contiguous
        totals = counts.sum(axis=1)
        added = repair_zero_columns(counts, totals, gen)
        assert added[0].shape[0] > 0
        n_star = np.full((B, K), n)
        np.add.at(n_star, added, 1)
        pi_star = totals / n_star.sum(axis=1)[:, None]
        want = pearson_dispersion(counts, pi_star, n_star)[2]
        assert mnpred.bootstrap._raw_dispersion(counts, pi_star, n_star).tobytes() == want.tobytes()
        for cells in (4 * K * C, 8 * K * C, 16 * K * C):
            monkeypatch.setattr("mnpred.bootstrap._REFIT_CELLS", cells)
            got = mnpred.bootstrap._raw_dispersion(counts, pi_star, n_star)
            assert got.tobytes() == want.tobytes(), cells


class TestParallelBlocks:
    """The blocks run on one worker process per usable core on either route; the bytes never depend on it.

    Most tests force the gamma route and a block rule of 8835 cells,
    which gives the severity table (K x C = 50) blocks of
    min(500, 8835 // 50) = 176 replicates.
    """

    @pytest.fixture
    def block(self, monkeypatch):
        """Force the gamma route on the severity table; yield its block size."""
        monkeypatch.setattr("mnpred.bootstrap._BLOCK_CELLS", 8835)
        with forced_route(monkeypatch, "gamma"):
            yield 8835 // 50

    @staticmethod
    def z_bytes(monkeypatch, histo_data, histo_fit, B, worker_counts=(1, 2, 3)):
        """build_ensemble's z bytes at each worker count, with no child left after any."""
        got = []
        for workers in worker_counts:
            monkeypatch.setattr("mnpred.pool._WORKERS", workers)
            z = build_ensemble(histo_fit, histo_data, mp.FutureSpec(m=46), B, mp.RngStream(38)).z
            assert z.dtype == np.float64 and z.flags.f_contiguous
            got.append(z.tobytes())
            assert_no_child_left()
        return got

    @pytest.mark.parametrize("B", [30, 1234])
    def test_same_bytes_for_any_worker_count(
        self, monkeypatch, histo_data, histo_fit, block, forks, B
    ):
        got = self.z_bytes(monkeypatch, histo_data, histo_fit, B)
        assert got[0] == got[1] == got[2]
        # One block runs on the caller; more fork one child on two workers, two on three.
        assert len(forks) == (3 if B > block else 0)

    def test_inversion_blocks_run_on_worker_processes(
        self, monkeypatch, histo_data, histo_fit, forks
    ):
        """On the table route the blocks of 500 replicates run on worker processes too, with the same bytes."""
        got = self.z_bytes(monkeypatch, histo_data, histo_fit, 1234)
        assert got[0] == got[1] == got[2]
        assert len(forks) == 3

    def test_every_block_runs_once_on_many_workers(
        self, monkeypatch, tmp_path, histo_data, histo_fit, block, forks
    ):
        """More workers than cores: each block is drawn once, by one of eight processes.

        The draws are logged with the drawing pid to a file that worker
        processes would append to.
        """
        spec = mp.FutureSpec(m=46)
        monkeypatch.setattr("mnpred.pool._WORKERS", 1)
        want = build_ensemble(histo_fit, histo_data, spec, 5234, mp.RngStream(40))
        log = tmp_path / "draws"
        record = appender(log)

        def counted(*args, **kwargs):
            record(f"{os.getpid()} {kwargs['size']}")
            return sample_dm_matrix(*args, **kwargs)

        monkeypatch.setattr("mnpred.pool._WORKERS", 8)
        monkeypatch.setattr("mnpred.bootstrap.sample_dm_matrix", counted)
        got = build_ensemble(histo_fit, histo_data, spec, 5234, mp.RngStream(40))
        draws = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(size) for _, size in draws) == [5234 % block] + [block] * (5234 // block)
        assert len({pid for pid, _ in draws}) == 8
        assert got.z.tobytes() == want.z.tobytes()
        assert len(forks) == 7
        assert_no_child_left()

    def test_block_error_reraises_with_its_class_and_message(
        self, monkeypatch, histo_data, histo_fit, block, forks
    ):
        """The short last block raises in the last worker process; the caller re-raises it."""
        caller = os.getpid()

        def failing(*args, **kwargs):
            if kwargs["size"] == 1234 % block:
                assert os.getpid() != caller
                raise RuntimeError("block failed")
            return sample_dm_matrix(*args, **kwargs)

        monkeypatch.setattr("mnpred.pool._WORKERS", 3)
        monkeypatch.setattr("mnpred.bootstrap.sample_dm_matrix", failing)
        with pytest.raises(RuntimeError) as caught:
            build_ensemble(histo_fit, histo_data, mp.FutureSpec(m=46), 1234, mp.RngStream(39))
        assert type(caught.value) is RuntimeError
        assert str(caught.value) == "block failed"
        if sys.version_info >= (3, 11):  # the child's traceback travels as a note
            assert "in failing" in caught.value.__notes__[0]
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("case", ["other-thread", "not-linux", "no-fork"])
    def test_no_fork_where_it_is_unsafe(
        self, monkeypatch, histo_data, histo_fit, block, forks, case
    ):
        """The blocks run in order on the caller, with the one-worker bytes, wherever a fork is unsafe."""
        (want,) = self.z_bytes(monkeypatch, histo_data, histo_fit, 1234, worker_counts=(1,))
        got = []
        if case == "other-thread":
            runner = threading.Thread(
                target=lambda: got.extend(
                    self.z_bytes(monkeypatch, histo_data, histo_fit, 1234, worker_counts=(2,))
                )
            )
            runner.start()
            runner.join(timeout=60)
            assert not runner.is_alive()
        else:
            if case == "not-linux":
                monkeypatch.setattr(sys, "platform", "darwin")
            elif case == "no-fork":
                monkeypatch.delattr(os, "fork")
            got += self.z_bytes(monkeypatch, histo_data, histo_fit, 1234, worker_counts=(2,))
        assert got == [want]
        assert forks == []


class TestEnsembleMemory:
    """The ensemble holds one block of replicates at a time, never a (B, K, C) table.

    Whole-table copies (a contiguous concentration, a normalised array, a
    zero-filled probability array, a stacked copy of one batched draw,
    whole-table refit residuals) would push the traced peak past
    3 x B*K*C*8 bytes; the streamed ensemble sits near 0.3 x at B=2000.
    """

    @pytest.mark.parametrize("unequal", [False, True])
    def test_peak_under_three_tables(self, unequal):
        K, C, B = 50, 10, 2000
        pi = np.linspace(1.0, 2.0, C)
        sizes = np.where(np.arange(K) % 2 == 1, 60, 50) if unequal else 50
        root = mp.RngStream(35)
        data = mp.generate_dataset(K, sizes, pi / pi.sum(), 5.0, root.child(0), repair=True)
        fit = mp.fit_model(data)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            build_ensemble(fit, data, mp.FutureSpec(m=50), B, root.child(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * B * K * C * 8

    def test_equal_sizes_peak_near_one_table(self):
        """Equal cluster sizes take the reshape path, which copies no block."""
        K, C, B = 50, 10, 2000
        pi = np.linspace(1.0, 2.0, C)
        root = mp.RngStream(35)
        data = mp.generate_dataset(K, 50, pi / pi.sum(), 5.0, root.child(0), repair=True)
        fit = mp.fit_model(data)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            build_ensemble(fit, data, mp.FutureSpec(m=50), B, root.child(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * B * K * C * 8

    @pytest.mark.parametrize("unequal", [False, True])
    def test_peak_grows_only_with_the_outputs(self, monkeypatch, unequal):
        """Doubling B adds (B, C) arrays to the peak, not another (B, K, C) table.

        The (B, C) residuals and one block's refit and futures stay well
        under 8 x B*C*8 bytes; a whole table would add
        K = 50 times more.  One worker, because with several the caller
        also receives the child's rows of z
        (test_a_worker_process_adds_only_the_rows_it_sends bounds that).
        """
        monkeypatch.setattr("mnpred.pool._WORKERS", 1)
        K, C = 50, 10
        pi = np.linspace(1.0, 2.0, C)
        sizes = np.where(np.arange(K) % 2 == 1, 60, 50) if unequal else 50
        root = mp.RngStream(35)
        data = mp.generate_dataset(K, sizes, pi / pi.sum(), 5.0, root.child(0), repair=True)
        fit = mp.fit_model(data)
        peaks = []
        tracemalloc.start()
        try:
            for B in (2000, 4000):
                tracemalloc.reset_peak()
                build_ensemble(fit, data, mp.FutureSpec(m=50), B, root.child(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 * 2000 * C * 8

    def test_keeps_only_the_residual_table(self, monkeypatch):
        """The ensemble's only (B, C) array is z; the refit and futures die with their block.

        With the refitted predictions, standard errors and futures also
        kept whole, the peak would pass four (B, C) float tables.
        """
        monkeypatch.setattr("mnpred.pool._WORKERS", 1)
        K, n, C, B = 10, 50, 10, 10_000
        pi = np.linspace(1.0, 2.0, C)
        root = mp.RngStream(35)
        data = mp.generate_dataset(K, n, pi / pi.sum(), 5.0, root.child(0), repair=True)
        fit = mp.fit_model(data)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            build_ensemble(fit, data, mp.FutureSpec(m=n), B, root.child(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * B * C * 8

    def test_a_worker_process_adds_only_the_rows_it_sends(self, monkeypatch, forks):
        """With two workers the caller's traced peak rises by less than the rows of z it receives.

        The child's blocks, 8 of 131 replicates (65536 // 500 cells) each,
        hold their counts and Pearson temporaries in the child; the caller
        holds z, its own block's working set and then the child's 952
        received rows, so it never holds a share of the child's work.
        """
        K, C, B = 50, 10, 2000
        pi = np.linspace(1.0, 2.0, C)
        root = mp.RngStream(35)
        data = mp.generate_dataset(K, 50, pi / pi.sum(), 5.0, root.child(0), repair=True)
        fit = mp.fit_model(data)
        peaks = []
        tracemalloc.start()
        try:
            for workers in (1, 2):
                monkeypatch.setattr("mnpred.pool._WORKERS", workers)
                tracemalloc.reset_peak()
                build_ensemble(fit, data, mp.FutureSpec(m=50), B, root.child(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(forks) == 1
        assert peaks[1] < peaks[0] + (B - 8 * 131) * C * 8


def tables_used(monkeypatch, fit, data, m, B):
    """The historical and future tables one one-worker build_ensemble call draws from (None: gammas)."""
    seen = {}

    def sample(*args, **kwargs):
        seen["tables"] = kwargs["tables"]
        return sample_dm_matrix(*args, **kwargs)

    def draw(*args, **kwargs):
        seen["future"] = kwargs["table"]
        return draw_dm_counts(*args, **kwargs)

    monkeypatch.setattr("mnpred.pool._WORKERS", 1)
    monkeypatch.setattr(mnpred.bootstrap, "sample_dm_matrix", sample)
    monkeypatch.setattr(mnpred.bootstrap, "draw_dm_counts", draw)
    build_ensemble(fit, data, mp.FutureSpec(m=m), B, mp.RngStream(45))
    return seen["tables"], seen["future"]


def table_bytes(tables):
    """Bytes of the distinct tables' padded CDF blocks, guides and log-pmf terms.

    Each array is counted as allocated, once: a view counts the array it
    views, so the sliding windows of the r - k term count their padded
    row, not the (n + 1)^2 cells they show per category.
    """
    held = {id(t): t for t in tables}.values()
    owners = {}
    for t in held:
        for a in (*t._padded, *t.guide, *t._terms):
            while a.base is not None:
                a = a.base
            owners[id(a)] = a
    return sum(a.nbytes for a in owners.values())


class TestTableBudget:
    """The ensemble's inversion tables hold at most _TABLE_CELLS cells and reach the largest cells.

    The catalog's largest cells (C10 vectors, K=100 clusters of n=500,
    futures of 500) have mass-0 tables of 501 + 8 x 501^2 = 2008509 cells;
    their bands fit the budget at every dispersion of the catalog.
    """

    @pytest.mark.parametrize("phi", [1.01, 5.0, 8.0])
    def test_largest_catalog_cells_draw_by_inversion(self, monkeypatch, phi):
        """Each fits at a rung of 1e-3 or less: its band holds at least the 1e-3 band's cells."""
        vectors = [v for key, v in mp.catalog_vectors().items() if key.startswith("C10-")]
        assert len(vectors) == 10
        for i, pi in enumerate(vectors):
            data = mp.generate_dataset(100, 500, pi, phi, mp.RngStream(46).child(i), repair=True)
            fit = mp.fit_model(data)
            tables, future = tables_used(monkeypatch, fit, data, 500, 2)
            assert tables is not None and future is not None
            held = {id(t): t for t in (*tables.values(), future)}.values()
            assert sum(t.n_cells for t in held) <= mnpred.bootstrap._TABLE_CELLS
            assert future.n_cells >= InversionTable.band_cells(500, fit.pi_hat, fit.phi_hat, 1e-3)

    def test_tables_whose_terms_do_not_fit_draw_gammas(self, monkeypatch):
        """C=2 at n=70000 is one row of 70001 cells, but its log-pmf terms pass the budget.

        They hold about 4 x 70001 = 280004 floats, more than the 2^18 cells
        of the budget, so the ensemble draws gammas and multinomials, as it
        did when the smallest table was a band.
        """
        data = mp.generate_dataset(3, 70_000, (0.3, 0.7), 3.0, mp.RngStream(48), repair=True)
        fit = mp.fit_model(data)
        assert InversionTable.band_cells(70_000, fit.pi_hat, fit.phi_hat, 0.0) == 70_001
        assert tables_used(monkeypatch, fit, data, 70_000, 2) == (None, None)

    def test_tables_add_only_their_own_bytes(self, monkeypatch):
        """At predict-wide's shape the traced peak passes the gamma route's by at most the tables.

        Two blocks of 65 replicates, one worker; the gamma route is the one
        the ensemble took before bands, and the band is the budget's own
        at mass 1e-3.  Each route runs once first, so that numpy's caches
        of small blocks are warm on both.
        """
        data = mp.generate_dataset(
            100, 500, mp.catalog_vectors()["C10-06"], 8.0, mp.RngStream(47).child(0), repair=True
        )
        fit = mp.fit_model(data)
        monkeypatch.setattr("mnpred.pool._WORKERS", 1)
        peaks = []
        tracemalloc.start()
        try:
            for route in 2 * ("gamma", "band"):
                with monkeypatch.context() as patch, forced_route(patch, route, mass=1e-3):
                    tracemalloc.reset_peak()
                    build_ensemble(fit, data, mp.FutureSpec(m=500), 130, mp.RngStream(47).child(1))
                    peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        peaks = peaks[2:]
        tables, future = tables_used(monkeypatch, fit, data, 500, 2)
        assert future is tables[500]
        assert future.n_cells < InversionTable.band_cells(500, fit.pi_hat, fit.phi_hat, 0.0) // 10
        assert peaks[1] <= peaks[0] + table_bytes([future])

    def test_blocks_hold_no_whole_block_temporaries(self, monkeypatch):
        """At predict-wide's shape the traced peak less the tables stays under three count blocks.

        Two blocks of 65 replicates (65 x 100 x 10 int64 counts, 520,000
        bytes), one worker, on the budget's own route.  A block holds its
        counts, one category's row of uniforms and search temporaries at a
        time, and the refit's Pearson temporaries over chunks of at most
        _REFIT_CELLS cells; a whole (n_uniforms, 6500) uniform array and
        three block-sized Pearson temporaries pass the bound.  The second
        of two runs is measured, so numpy's caches of small blocks are warm.
        """
        data = mp.generate_dataset(
            100, 500, mp.catalog_vectors()["C10-06"], 8.0, mp.RngStream(47).child(0), repair=True
        )
        fit = mp.fit_model(data)
        monkeypatch.setattr("mnpred.pool._WORKERS", 1)
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                build_ensemble(fit, data, mp.FutureSpec(m=500), 130, mp.RngStream(47).child(1))
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables, future = tables_used(monkeypatch, fit, data, 500, 130)
        assert future is tables[500]
        assert peak - table_bytes([future]) < 3 * 65 * 100 * 10 * 8


class TestCategoryMajor:
    """z is held category-major and the calibrations read it without B x C temporaries.

    Each column's partition then reads contiguous memory, and the row
    extremes fold the columns; a negated, absolute or transposed copy of z
    would each be a B x C float table.
    """

    @pytest.mark.parametrize("block_cells", [None, 1 << 10])
    def test_ensemble_is_fortran_contiguous(
        self, monkeypatch, histo_data, histo_fit, block_cells
    ):
        route = "table"
        if block_cells is not None:
            monkeypatch.setattr("mnpred.bootstrap._BLOCK_CELLS", block_cells)
            route = "gamma"
        with forced_route(monkeypatch, route):
            z = build_ensemble(histo_fit, histo_data, mp.FutureSpec(m=46), 1234, mp.RngStream(3)).z
        assert z.flags.f_contiguous and z.shape == (1234, 5)

    @pytest.mark.parametrize(
        "calibrate",
        [mp.symmetric_calibration, mp.asymmetric_calibration, mp.marginal_calibration],
    )
    def test_calibration_allocates_no_table(self, monkeypatch, calibrate):
        monkeypatch.setattr("mnpred.pool._WORKERS", 1)
        K, n, C, B = 10, 50, 10, 10_000
        pi = np.linspace(1.0, 2.0, C)
        root = mp.RngStream(35)
        data = mp.generate_dataset(K, n, pi / pi.sum(), 5.0, root.child(0), repair=True)
        fit = mp.fit_model(data)
        spec = mp.FutureSpec(m=n)
        ensemble = build_ensemble(fit, data, spec, B, root.child(1))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            calibrate(ensemble, fit, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A few B-vectors (a row extreme, its scratch column, a partition copy).
        assert peak < B * C * 8 / 2


def test_ensemble_draw_goes_through_the_module_global(monkeypatch, histo_data, histo_fit):
    """perfbench times the ensemble draw by wrapping bootstrap.sample_dm_matrix.

    One worker, since a worker process's calls to the wrapper never reach
    this list.
    """
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(kwargs.get("size"))
        return sample_dm_matrix(*args, **kwargs)

    monkeypatch.setattr("mnpred.pool._WORKERS", 1)
    monkeypatch.setattr("mnpred.bootstrap.sample_dm_matrix", wrapped)
    build_ensemble(histo_fit, histo_data, mp.FutureSpec(m=46), 30, mp.RngStream(36))
    assert calls == [30]
    calls.clear()
    build_ensemble(histo_fit, histo_data, mp.FutureSpec(m=46), 1234, mp.RngStream(36))
    assert calls == [500, 500, 234]


def _assert_minimal_order_statistic(stat, q, target):
    """q is a value of stat covering target, and the next-lower value covers less."""
    assert q in stat
    assert np.mean(stat <= q) >= target
    below = stat[stat < q]
    if below.size:
        assert np.mean(stat <= below.max()) < target


class TestMultipliers:
    def test_symmetric_is_the_masr_kernel(self, histo_fit):
        rng = np.random.default_rng(10)
        C = histo_fit.pi_hat.shape[0]
        for B in (2000, 1999, 37):
            ensemble = BootstrapEnsemble(z=rng.standard_normal((B, C)))
            for alpha in (0.01, 0.05, 0.10):
                spec = mp.FutureSpec(m=46, alpha=alpha)
                sym = mp.symmetric_calibration(ensemble, histo_fit, spec)
                masr = mp.masr_interval(ensemble, histo_fit, spec)
                q = [max_abs_quantile(ensemble.z, alpha)] * C
                for s in (sym, masr):
                    assert s.multiplier_lower.tolist() == s.multiplier_upper.tolist() == q

    def test_asymmetric_is_minimal_order_statistic(self):
        rng = np.random.default_rng(17)
        for B, C in ((2000, 4), (1999, 5), (37, 3)):
            z = rng.standard_normal((B, C)) + 0.3
            for alpha in (0.01, 0.05, 0.10):
                target = 1.0 - alpha / 2.0
                q_lo, q_hi = asymmetric_multipliers(z, alpha)
                assert q_lo == nearest_rank_quantile((-z).max(axis=1), target)
                assert q_hi == nearest_rank_quantile(z.max(axis=1), target)
                _assert_minimal_order_statistic((-z).max(axis=1), q_lo, target)
                _assert_minimal_order_statistic(z.max(axis=1), q_hi, target)

    def test_marginal_is_minimal_order_statistic(self):
        rng = np.random.default_rng(18)
        for B, C in ((4000, 3), (1999, 5), (37, 3)):
            z = rng.standard_normal((B, C))
            for alpha in (0.01, 0.05, 0.10):
                target = 1.0 - alpha / (2.0 * C)
                q_lo, q_hi = marginal_multipliers(z, alpha)
                for c in range(C):
                    assert q_lo[c] == nearest_rank_quantile(-z[:, c], target)
                    assert q_hi[c] == nearest_rank_quantile(z[:, c], target)
                    _assert_minimal_order_statistic(-z[:, c], q_lo[c], target)
                    _assert_minimal_order_statistic(z[:, c], q_hi[c], target)

    def test_marginal_negative_quantile_floored(self):
        # a rare category in a one-unit future cluster: its upper residual
        # quantile is negative, and the floor keeps y_hat inside the band
        root = mp.RngStream(3).child(0)
        data = mp.generate_dataset(10, 100, (0.002, 0.3, 0.698), 2.0, root.child(0), repair=True)
        fit = mp.fit_model(data)
        spec = mp.FutureSpec(m=1)
        ens = build_ensemble(fit, data, spec, B=2000, rng=root.child(1))
        target = 1.0 - spec.alpha / 6.0
        assert nearest_rank_quantile(ens.z[:, 0], target) < 0.0
        q_lo, q_hi = marginal_multipliers(ens.z, spec.alpha)
        assert q_hi[0] == 0.0
        assert np.all(q_lo >= 0.0) and np.all(q_hi >= 0.0)
        s = mp.marginal_calibration(ens, fit, spec)
        point = mp.prediction_point(fit, spec)
        np.testing.assert_array_equal(s.lower, np.maximum(point.y_hat - q_lo * point.sep, 0.0))
        np.testing.assert_array_equal(s.upper, np.minimum(point.y_hat + q_hi * point.sep, spec.m))
        assert s.upper[0] == s.y_hat[0]
        assert np.all(s.lower <= s.y_hat) and np.all(s.y_hat <= s.upper)

    def test_monotone_in_target(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((4000, 3))
        qs = [max_abs_quantile(z, a) for a in (0.10, 0.05, 0.01)]
        assert qs[0] <= qs[1] <= qs[2]
        assert qs[2] > qs[0]

    def test_symmetric_hits_empirical_target(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((2000, 4))
        q = max_abs_quantile(z, 0.05)
        hit = float(np.mean(np.abs(z).max(axis=1) <= q))
        assert abs(hit - 0.95) <= 0.0025 + 1e-12

    def test_asymmetric_hits_each_side(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((2000, 4)) + 0.3  # shifted so the sides differ
        q_lo, q_hi = asymmetric_multipliers(z, 0.05)
        assert abs(np.mean((-z).max(axis=1) <= q_lo) - 0.975) <= 0.0025 + 1e-12
        assert abs(np.mean(z.max(axis=1) <= q_hi) - 0.975) <= 0.0025 + 1e-12
        assert q_hi != pytest.approx(q_lo, abs=0.05)

    def test_marginal_hits_per_category(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((4000, 3))
        q_lo, q_hi = marginal_multipliers(z, 0.05)
        target = 1.0 - 0.05 / 6.0
        for c in range(3):
            assert abs(np.mean(z[:, c] <= q_hi[c]) - target) <= 0.0025 + 1e-12
            assert abs(np.mean(-z[:, c] <= q_lo[c]) - target) <= 0.0025 + 1e-12

    def test_masr_is_nearest_rank_quantile(self):
        rng = np.random.default_rng(14)
        z = rng.standard_normal((500, 5))
        q = max_abs_quantile(z, 0.05)
        assert q == nearest_rank_quantile(np.abs(z).max(axis=1), 0.95)

    def test_rank_single_category_oracle(self):
        # B=100 at alpha=0.05 puts the critical rank at 98, so the bounds
        # are the 3rd and 98th order statistics
        rng = np.random.default_rng(15)
        vals = rng.permutation(np.arange(1.0, 101.0)) - 50.5
        z = vals[:, None]
        q_lo, q_hi = rank_multipliers(z, 0.05)
        assert q_lo[0] == pytest.approx(47.5)
        assert q_hi[0] == pytest.approx(47.5)

    # the degenerate column also drives tau* to the ensemble edge, which
    # re-emits as a second, unmatched warning
    @pytest.mark.filterwarnings("ignore::mnpred.errors.DegenerateRankWarning")
    def test_rank_negative_upper_floored(self):
        rng = np.random.default_rng(16)
        z = np.column_stack([
            rng.standard_normal(60),
            -np.linspace(1.0, 2.0, 60),  # every replicate lands below the centre
        ])
        with pytest.warns(DegenerateRankWarning, match="floored"):
            q_lo, q_hi = rank_multipliers(z, 0.05)
        assert q_hi[1] == 0.0
        assert q_lo[1] > 0.0
        assert q_hi[0] > 0.0


class TestIntervalWrappers:
    @pytest.fixture
    def spec(self):
        return mp.FutureSpec(m=46)

    def test_all_wrappers_contain_point_prediction(self, small_ensemble, histo_fit, spec):
        point = mp.prediction_point(histo_fit, spec)
        sets = [
            mp.symmetric_calibration(small_ensemble, histo_fit, spec),
            mp.asymmetric_calibration(small_ensemble, histo_fit, spec),
            mp.marginal_calibration(small_ensemble, histo_fit, spec),
            mp.masr_interval(small_ensemble, histo_fit, spec),
            mp.rank_scs_interval(small_ensemble, histo_fit, spec),
        ]
        names = [s.method for s in sets]
        assert names == ["symmetric", "asymmetric", "marginal", "masr", "rank-scs"]
        for s in sets:
            assert np.all(s.lower <= point.y_hat + 1e-9)
            assert np.all(point.y_hat <= s.upper + 1e-9)
            assert np.all(s.lower >= 0.0)
            assert np.all(s.upper <= spec.m)

    def test_symmetric_multiplier_recorded(self, small_ensemble, histo_fit, spec):
        s = mp.symmetric_calibration(small_ensemble, histo_fit, spec)
        q = max_abs_quantile(small_ensemble.z, spec.alpha)
        np.testing.assert_allclose(s.multiplier_lower, q)
        np.testing.assert_allclose(s.multiplier_upper, q)

    def test_unclipped_interval_uses_sep_scaling(self, small_ensemble, histo_fit, spec):
        s = mp.masr_interval(small_ensemble, histo_fit, spec)
        point = mp.prediction_point(histo_fit, spec)
        q = max_abs_quantile(small_ensemble.z, spec.alpha)
        lower, upper = point.y_hat - q * point.sep, point.y_hat + q * point.sep
        assert np.any(upper < spec.m)  # at least one upper bound is sep-scaled, not clipped
        np.testing.assert_array_equal(s.upper, np.minimum(upper, spec.m))
        np.testing.assert_array_equal(s.lower, np.maximum(lower, 0.0))
