import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from weakmeas import cli
from weakmeas.cli import (
    CSV_COLUMNS,
    MAX_AMPLITUDES,
    OUT_DIR_ENV,
    PROTOCOLS,
    ConfigError,
    main,
    resolve_config,
)
from weakmeas.evolution import ProtocolAbort
from weakmeas.hilbert import (
    DensityMatrix,
    fourier_basis,
    fourier_ket,
    projector,
    random_density,
    standard_ket,
)
from weakmeas.oracle import dirac_exact
from weakmeas.pointer import gaussian_pointer
from weakmeas.protocols import (
    ROUTE_POINTERS,
    SCHEMES,
    ProtocolParams,
    convergence_slope,
    direct_density,
    extrapolate_sweep,
)
from weakmeas.sampling import ShotPlan, WeakStrongSetting, sample_protocol


def write_config(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def from_pairs(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def read_csv_rows(path):
    import csv

    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture(scope="module")
def density_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("density")
    cfg = write_config(base / "cfg.yaml",
                       {"protocol": "density", "state": {"preset": "mixed-qubit"}})
    out = base / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def wavefunction_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("wavefunction")
    cfg = write_config(base / "cfg.yaml",
                       {"protocol": "wavefunction", "state": {"preset": "plus-i"}})
    out = base / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    return out


class TestRun:
    def test_density_outputs_exist(self, density_run):
        for name in ("estimates.csv", "reconstruction.yaml", "manifest.yaml"):
            assert (density_run / name).exists()

    def test_density_error_monotone_in_coupling(self, density_run):
        rows = read_csv_rows(density_run / "estimates.csv")
        by_setting = {}
        for row in rows:
            by_setting.setdefault(row["setting"], []).append(
                (float(row["gt"]), float(row["abs_error"]))
            )
        assert len(by_setting) == 4
        for picks in by_setting.values():
            errs = [e for _, e in sorted(picks, reverse=True)]
            for prev, nxt in zip(errs, errs[1:]):
                assert nxt <= prev + 1e-12

    def test_manifest_records_run_constants(self, density_run):
        manifest = yaml.safe_load((density_run / "manifest.yaml").read_text())
        assert manifest["protocol"] == "density"
        assert manifest["dim"] == 2
        assert manifest["pointers_used"] == 2
        assert manifest["hbar"] == 1.0
        kappas = {k["gt"]: k["kappa"] for k in manifest["kappa_by_gt"]}
        assert kappas[0.02] == pytest.approx((2 / 0.02) ** 2)
        state = from_pairs(manifest["state_density"])
        assert_allclose(state, np.eye(2) / 2, atol=1e-15)

    def test_wavefunction_recovers_phase(self, wavefunction_run):
        doc = yaml.safe_load((wavefunction_run / "reconstruction.yaml").read_text())
        finest = min(doc["reconstructions"], key=lambda r: r["gt"])
        normalized = np.array([complex(re, im) for re, im in finest["normalized"]])
        assert_allclose(normalized, np.array([1.0, 1.0j]) / np.sqrt(2), atol=1e-3)

    def test_manifest_floor_is_the_protocol_default(self, density_run):
        manifest = yaml.safe_load((density_run / "manifest.yaml").read_text())
        assert manifest["postselect_floor"] == ProtocolParams().postselect_floor

    def test_single_coupling_matches_library_call(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "density",
                            "state": {"preset": "mixed-qubit"},
                            "sweep": [0.02]})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        doc = yaml.safe_load((out / "reconstruction.yaml").read_text())
        written = from_pairs(doc["reconstructions"][0]["matrix"])
        direct = direct_density(DensityMatrix(np.eye(2) / 2), fourier_ket(2, 0),
                                ProtocolParams(gt=0.02))
        assert np.max(np.abs(written - direct.matrix)) < 1e-15

    def test_structured_format(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "wavefunction",
                            "state": {"preset": "plus-i"},
                            "sweep": [0.04, 0.02]})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out),
                     "--format", "structured"]) == 0
        assert not (out / "estimates.csv").exists()
        rows = yaml.safe_load((out / "estimates.yaml").read_text())["rows"]
        assert {row["setting"] for row in rows} == {"a=0", "a=1"}
        assert main(["report", str(out)]) == 0
        assert (out / "report.yaml").exists()

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "fromenv"))
        assert main(["calibrate"]) == 0
        assert (tmp_path / "fromenv" / "calibration.csv").exists()

    def test_sampled_run_is_deterministic(self, tmp_path):
        doc = {
            "dim": 2,
            "protocol": "dirac",
            "state": {"random": {"seed": 4, "rank": 2}},
            "sweep": [0.02],
            "sampling": {"shots": 2000, "seed": 9},
        }
        cfg = write_config(tmp_path / "cfg.yaml", doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out-dir", str(out_a)]) == 0
        assert main(["run", cfg, "--out-dir", str(out_b)]) == 0
        assert (out_a / "estimates.csv").read_text() == (
            out_b / "estimates.csv"
        ).read_text()
        rows = read_csv_rows(out_a / "estimates.csv")
        assert all(row["stderr_re"] != "" for row in rows)

    def test_sampled_rows_match_one_call_per_entry(self, tmp_path):
        dim, sweep, plan = 4, [0.04, 0.02], ShotPlan(shots=3000, seed=9)
        doc = {
            "dim": dim,
            "protocol": "dirac",
            "state": {"random": {"seed": 4, "rank": 2}},
            "sweep": sweep,
            "sampling": {"shots": plan.shots, "seed": plan.seed},
        }
        cfg = write_config(tmp_path / "cfg.yaml", doc)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out), "--threads", "1"]) == 0
        rows = read_csv_rows(out / "estimates.csv")
        order = [(gt, a, b) for gt in sweep for a in range(dim) for b in range(dim)]
        assert [(float(r["gt"]), r["setting"]) for r in rows] == [
            (gt, f"a={a},b={b}") for gt, a, b in order
        ]
        rho = random_density(dim, seed=4, rank=2)
        for row, (gt, a, b) in zip(rows, order):
            # The per-entry route: one single-row call for each (a, b).
            values = [1.0 if i == b else 0.0 for i in range(dim)]
            setting = WeakStrongSetting(rho, projector(standard_ket(dim, a)),
                                        fourier_basis(dim), values,
                                        ProtocolParams(gt=gt))
            est = sample_protocol(setting, plan)
            assert row["re"] == repr(est.value.real)
            assert row["im"] == repr(est.value.imag)
            assert row["stderr_re"] == repr(est.stderr_re)
            assert row["stderr_im"] == repr(est.stderr_im)

    SAMPLED_SWEEP = {"dim": 3, "protocol": "dirac",
                     "state": {"random": {"seed": 4, "rank": 2}},
                     "sweep": [0.08, 0.06, 0.04, 0.02],
                     "sampling": {"shots": 3000, "seed": 9, "readout_split": 0.4}}

    def test_sampled_run_draws_the_record_once(self, tmp_path, monkeypatch):
        """Every setting and coupling of a run, on every pool thread, reads
        one shot record: one Philox stream for 4 couplings x N settings."""
        from weakmeas import cli

        philox_keys, calls, philox = [], [], np.random.Philox

        def counting_philox(*args, **kwargs):
            philox_keys.append(kwargs.get("key"))
            return philox(*args, **kwargs)

        def counting_sample(setting, plan):
            calls.append(plan)
            return sample_protocol(setting, plan)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        monkeypatch.setattr(cli, "sample_protocol", counting_sample)
        cfg = write_config(tmp_path / "cfg.yaml", self.SAMPLED_SWEEP)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out"), "--threads", "4"]) == 0
        assert len(calls) == 4 * 3
        assert philox_keys == [9]

    def test_sampled_run_is_independent_of_the_pool(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", self.SAMPLED_SWEEP)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            assert main(["run", cfg, "--out-dir", str(out), "--threads", threads]) == 0
            assert main(["report", str(out)]) == 0
            outputs.append({name: (out / name).read_bytes() for name in (
                "estimates.csv", "reconstruction.yaml", "report.csv", "report.yaml")})
        assert outputs[0] == outputs[1]

    def test_starved_readout_split_exits_2(self, tmp_path, capsys):
        """A split that leaves one quadrature no shots is a config error,
        not a protocol abort of the first coupling."""
        doc = {"dim": 2, "protocol": "dirac", "state": {"random": {"seed": 1, "rank": 2}},
               "sampling": {"shots": 10, "seed": 1, "readout_split": 0.01}}
        cfg = write_config(tmp_path / "cfg.yaml", doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "sampling.readout_split:" in err
        assert "zero shots" in err
        assert "protocol abort" not in err
        assert not (tmp_path / "out" / "estimates.csv").exists()


# Every (protocol, scheme) route, sampled Dirac, and both estimate formats.
YAML_RUNS = {
    "density": ({"protocol": "density", "state": {"preset": "mixed-qubit"},
                 "sweep": [0.04, 0.02]}, "csv"),
    "density-scheme1": ({"dim": 2, "protocol": "density", "scheme": "scheme1",
                         "state": {"random": {"seed": 4, "rank": 2}},
                         "sweep": [0.04, 0.02]}, "structured"),
    "dirac": ({"dim": 3, "protocol": "dirac", "state": {"random": {"seed": 2, "rank": 2}},
               "sweep": [0.04, 0.02]}, "structured"),
    "dirac-scheme1": ({"dim": 2, "protocol": "dirac", "scheme": "scheme1",
                       "state": {"preset": "werner-0.3"}, "sweep": [0.04, 0.02]}, "csv"),
    "dirac-scheme2": ({"dim": 2, "protocol": "dirac", "scheme": "scheme2",
                       "state": {"preset": "plus-i"}, "sweep": [0.04, 0.02]}, "csv"),
    "dirac-sampled": ({"dim": 2, "protocol": "dirac",
                       "state": {"random": {"seed": 4, "rank": 2}},
                       "sweep": [0.04, 0.02], "sampling": {"shots": 500, "seed": 3}},
                      "csv"),
    "product": ({"dim": 2, "protocol": "product", "state": {"preset": "plus-i"},
                 "product": {"e": "fourier-1", "f": "basis-0"}, "sweep": [0.04, 0.02]},
                "structured"),
    "product-scheme1": ({"dim": 2, "protocol": "product", "scheme": "scheme1",
                         "state": {"preset": "mixed-qubit"},
                         "product": {"e": "fourier-1", "f": "basis-0"},
                         "sweep": [0.04, 0.02]}, "csv"),
    "product-scheme2": ({"dim": 2, "protocol": "product", "scheme": "scheme2",
                         "state": {"preset": "plus-i"},
                         "product": {"e": "basis-1", "f": "fourier-0"},
                         "sweep": [0.04, 0.02]}, "csv"),
    "wavefunction": ({"protocol": "wavefunction", "state": {"preset": "plus-i"},
                      "sweep": [0.04, 0.02]}, "structured"),
}


def run_and_report(tmp_path, name):
    doc, fmt = YAML_RUNS[name]
    tmp_path.mkdir(exist_ok=True)
    cfg = write_config(tmp_path / f"{name}.yaml", doc)
    out = tmp_path / name
    assert main(["run", cfg, "--out-dir", str(out), "--threads", "1",
                 "--format", fmt]) == 0
    assert main(["report", str(out)]) == 0
    assert main(["oracle", cfg, "--out-dir", str(out / "oracle")]) == 0
    return {path.relative_to(out): path.read_text()
            for path in sorted(out.rglob("*")) if path.is_file()}


class TestYamlOutput:
    def test_every_route_is_covered(self):
        covered = {(doc["protocol"], doc.get("scheme", "substitution"))
                   for doc, _ in YAML_RUNS.values()}
        assert covered == set(ROUTE_POINTERS)

    @pytest.mark.parametrize("name", sorted(YAML_RUNS))
    def test_files_equal_pure_python_safe_dump(self, tmp_path, monkeypatch, name):
        """Each file is PyYAML's safe dump of its own document, with and
        without libyaml, and no document needed yaml.dump to write it."""
        def fall_back(*args, **kwargs):
            raise AssertionError("a CLI document fell back to yaml.dump")

        with monkeypatch.context() as patch:
            patch.setattr(yaml, "dump", fall_back)
            files = run_and_report(tmp_path, name)
        written = [path for path in files if path.suffix == ".yaml"]
        assert len(written) >= 4 - (YAML_RUNS[name][0]["protocol"] == "product")
        dumpers = [yaml.SafeDumper] + [d for d in [getattr(yaml, "CSafeDumper", None)] if d]
        for path in written:
            text = files[path]
            for dumper in dumpers:
                assert yaml.dump(yaml.safe_load(text), Dumper=dumper, sort_keys=False) == text, path

    @pytest.mark.parametrize("name", ["density", "dirac-sampled", "wavefunction"])
    def test_pure_python_fallback_writes_the_same_files(self, tmp_path, monkeypatch,
                                                        name):
        native = run_and_report(tmp_path / "native", name)
        monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert run_and_report(tmp_path / "fallback", name) == native


class TestReport:
    def test_density_report(self, density_run):
        assert main(["report", str(density_run)]) == 0
        doc = yaml.safe_load((density_run / "report.yaml").read_text())
        assert (density_run / "report.csv").exists()
        slopes = [s["slope"] for s in doc["settings"] if s["slope"] is not None]
        assert slopes, "every setting was below the slope-fit noise floor"
        for slope in slopes:
            assert slope == pytest.approx(2.0, abs=0.3)
        recon = doc["reconstruction"]
        assert recon["kind"] == "density"
        assert recon["trace_distance"] < 1e-4

    def test_single_point_sweep_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "density",
                            "state": {"preset": "mixed-qubit"},
                            "sweep": [0.02]})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == 0
        assert main(["report", str(out)]) == 2
        assert "two sweep couplings" in capsys.readouterr().err

    def test_missing_manifest_rejected(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 2

    def test_grouped_fits_equal_one_fit_per_setting(self, tmp_path, density_run):
        """Settings that share a sweep and their resolvable points are fitted
        together; every number equals the per-setting fit bit for bit."""
        rng = np.random.default_rng(8)
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.yaml").write_text((density_run / "manifest.yaml").read_text())
        sweep = [0.08, 0.04, 0.02, 0.01]
        rows = []
        for k in range(256):
            # errors at or below 1e-14 drop out of the slope fit; some
            # settings keep fewer than two points and no slope
            errors = 10.0 ** rng.uniform(-16, -2, size=4)
            for gt, error in zip(rng.permutation(sweep), errors):
                value = complex(*rng.normal(size=2))
                rows.append([
                    "density", "substitution", f"s={k}", repr(float(gt)), repr(value.real),
                    repr(value.imag), "0.5", "-0.25", repr(float(error)), "", "", ""])
        import csv

        with (out / "estimates.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(rows)
        assert main(["report", str(out)]) == 0
        report = {row["setting"]: row for row in read_csv_rows(out / "report.csv")}
        assert len(report) == 256
        slopes = 0
        for k in range(256):
            mine = sorted((r for r in rows if r[2] == f"s={k}"), key=lambda r: -float(r[3]))
            gts = [float(r[3]) for r in mine]
            errors = [float(r[8]) for r in mine]
            value = extrapolate_sweep(gts, [complex(float(r[4]), float(r[5])) for r in mine])
            row = report[f"s={k}"]
            assert (row["extrapolated_re"], row["extrapolated_im"]) == (
                repr(value.real), repr(value.imag))
            try:
                slope = repr(convergence_slope(gts, errors))
                slopes += 1
            except ValueError:
                slope = ""
            assert row["slope"] == slope
        assert 0 < slopes < 256


def parsed_reconstruction(manifest, recon_doc):
    """report's reconstruction as it was built from the parsed
    reconstruction.yaml, kept as the oracle of the rebuild from the rows."""
    protocol = manifest["protocol"]
    recons = sorted(recon_doc["reconstructions"], key=lambda r: r["gt"], reverse=True)
    gts = [r["gt"] for r in recons]
    true_rho = cli._from_pairs(manifest["state_density"])
    if protocol == "density":
        mats = [cli._from_pairs(r["matrix"]) for r in recons]
        extrap = cli.hermitize_normalize(extrapolate_sweep(gts, mats))
        return {
            "kind": "density",
            "extrapolated_matrix": cli._matrix_pairs(extrap),
            "trace_distance": float(cli.trace_distance(extrap, true_rho)),
        }
    if protocol == "dirac":
        extrap_entries = extrapolate_sweep(gts, [cli._from_pairs(r["entries"]) for r in recons])
        implied = cli.hermitize_normalize(cli.invert_dirac(extrap_entries))
        return {
            "kind": "dirac",
            "extrapolated_entries": cli._matrix_pairs(extrap_entries),
            "implied_matrix": cli._matrix_pairs(implied),
            "trace_distance": float(cli.trace_distance(implied, true_rho)),
        }
    extrap = extrapolate_sweep(gts, [cli._from_pairs(r["normalized"]) for r in recons])
    extrap = extrap / np.linalg.norm(extrap)
    return {
        "kind": "wavefunction",
        "extrapolated_normalized": cli._pairs(extrap),
        "trace_distance": float(cli.trace_distance(np.outer(extrap, extrap.conj()), true_rho)),
    }


RECONSTRUCTED_RUNS = {
    "wavefunction": {"dim": 3, "protocol": "wavefunction",
                     "state": {"amps": [[0.5, 0.1], [0.3, -0.4], [0.2, 0.6]]}},
    "wavefunction-basis": {"dim": 2, "protocol": "wavefunction",
                           "state": {"preset": "basis-0"}},
    "dirac": {"dim": 3, "protocol": "dirac", "state": {"random": {"seed": 2, "rank": 2}}},
    "dirac-basis": {"dim": 3, "protocol": "dirac", "state": {"preset": "basis-0"}},
    "dirac-sampled": {"dim": 3, "protocol": "dirac",
                      "state": {"random": {"seed": 4, "rank": 2}},
                      "sampling": {"shots": 600, "seed": 3, "readout_split": 0.3}},
    "density": {"dim": 3, "protocol": "density", "state": {"random": {"seed": 5, "rank": 2}}},
    "density-mixed": {"dim": 2, "protocol": "density", "state": {"preset": "mixed-qubit"}},
    "density-scheme1": {"dim": 2, "protocol": "density", "scheme": "scheme1",
                        "state": {"random": {"seed": 6, "rank": 2}}},
}


def run_sweep(tmp_path, doc, fmt="csv"):
    cfg = write_config(tmp_path / "cfg.yaml", {"sweep": [0.08, 0.04, 0.02], **doc})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out), "--threads", "1", "--format", fmt]) == 0
    return out


class TestReportReconstruction:
    @pytest.mark.parametrize("name", sorted(RECONSTRUCTED_RUNS))
    @pytest.mark.parametrize("fmt", ["csv", "structured"])
    def test_rebuilt_from_the_rows_equals_the_parsed_file(self, tmp_path, name, fmt):
        out = run_sweep(tmp_path, RECONSTRUCTED_RUNS[name], fmt)
        assert main(["report", str(out)]) == 0
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        oracle = parsed_reconstruction(
            manifest, yaml.safe_load((out / "reconstruction.yaml").read_text()))
        report = yaml.safe_load((out / "report.yaml").read_text())
        # repr tells every float apart, signed zeros included
        assert repr(report["reconstruction"]) == repr(oracle)

    def test_an_edited_reconstruction_file_does_not_change_the_report(self, tmp_path):
        out = run_sweep(tmp_path, RECONSTRUCTED_RUNS["density"])
        assert main(["report", str(out)]) == 0
        before = (out / "report.yaml").read_text()
        (out / "reconstruction.yaml").write_text("protocol: density\nreconstructions: []\n")
        assert main(["report", str(out)]) == 0
        assert (out / "report.yaml").read_text() == before

    @pytest.mark.parametrize("edit, message", [
        ("one", "setting 'a=99,b=0' has one row"),
        ("all", "setting 'a=99,b=0' is not a dirac setting at dim 3"),
        ("drop", "one row per setting and coupling, 9 settings x 3 couplings; got 26 rows"),
    ])
    def test_rows_that_do_not_fill_the_settings_exit_2(self, tmp_path, capsys, edit, message):
        out = run_sweep(tmp_path, RECONSTRUCTED_RUNS["dirac"])
        rows = read_csv_rows(out / "estimates.csv")
        if edit == "drop":
            rows.pop(4)
        else:
            # rows[1] is a=0,b=1 at the first coupling
            for row in rows[1:2] if edit == "one" else rows:
                if row["setting"] == "a=0,b=1":
                    row["setting"] = "a=99,b=0"
        import csv

        with (out / "estimates.csv").open("w", newline="") as handle:
            writer = csv.DictWriter(handle, CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: estimates:") and message in err


class TestConfigErrors:
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_repeated_sweep_coupling_exits_2(self, tmp_path, capsys, command):
        # report used to fit a rank-deficient extrapolation through the repeat
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "wavefunction", "state": {"preset": "plus-i"},
                            "sweep": [0.04, 0.02, 0.04]})
        assert main([command, cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: sweep: couplings must be distinct, got [0.04, 0.02, 0.04]\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        # -1 used to exit 1 from ThreadPoolExecutor, and 0 meant every core
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "wavefunction", "state": {"preset": "plus-i"}})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out), "--threads", threads]) == 2
        assert capsys.readouterr().err == (
            f"config error: --threads: must be >= 1, got {threads}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_b0_orthogonal_to_the_state_exits_2(self, tmp_path, capsys, command):
        # run used to exit 3 through the oracle call, and oracle to exit 1.
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"dim": 2, "protocol": "wavefunction",
                            "state": {"preset": "fourier-1"}})
        assert main([command, cfg, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: b0: post-selection state is orthogonal")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # Every route reads its pointers from tables, so the pointer.points and
    # state.random.rank cases need sizes that still pass the ceiling there:
    # two displaced pointers of 2^24 cells, and a sampled run's per-outcome
    # pointer laws, 16 x 16 x 2^17 amplitudes at full rank.
    @pytest.mark.parametrize("edit, field", [
        ({"dim": 1e9}, "dim"),
        ({"pointer": {"points": 2**24}}, "pointer.points"),
        ({"dim": 16, "protocol": "dirac", "pointer": {"points": 2**17},
          "sampling": {"seed": 1, "shots": 10},
          "state": {"random": {"seed": 1, "rank": 16}}}, "state.random.rank"),
        ({"dim": None, "state": {"amps": [1.0] + [0.0] * 4096}}, "state"),
    ])
    def test_allocation_ceiling_names_the_field(self, tmp_path, capsys, edit, field):
        config = {"dim": 4, "protocol": "density",
                  "state": {"random": {"seed": 1, "rank": 2}}, **edit}
        if config["dim"] is None:
            del config["dim"]
            config["protocol"] = "wavefunction"
        cfg = write_config(tmp_path / "cfg.yaml", config)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ")
        assert "MAX_AMPLITUDES" in err

    def test_allocation_ceiling_counts_the_eigenvalue_patterns(self):
        # No route holds a pointer tensor.  The table routes hold 2^P
        # eigenvalue patterns per branch and row: 64 x 64 x 8 for the Scheme 1
        # density and 64 x 64 x 4 for Scheme 2, whose two-pointer JointState
        # of 64 x 64 x 256^2 amplitudes used to refuse this config.
        config = {"dim": 64, "protocol": "density", "scheme": "scheme1",
                  "state": {"random": {"seed": 1, "rank": 64}}}
        assert resolve_config(config).dim == 64
        assert resolve_config({**config, "scheme": "substitution"}).dim == 64
        scheme2 = {**config, "protocol": "dirac", "scheme": "scheme2"}
        assert 64 * 64 * 256**2 > MAX_AMPLITUDES
        assert resolve_config(scheme2).scheme == "scheme2"
        assert resolve_config({**scheme2, "protocol": "product",
                               "product": {"e": "fourier-1", "f": "basis-0"}}).dim == 64

    def test_scheme2_product_past_the_conditional_guard_exits_3(self, tmp_path, capsys):
        # the conditional reach gt2 max|lambda_E| L = 0.3 x 16 exceeds L/4 = 4
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"dim": 2, "protocol": "product", "scheme": "scheme2",
                            "product": {"e": "fourier-1", "f": "basis-0"},
                            "sweep": [0.3, 0.02], "state": {"preset": "plus-i"}})
        with pytest.warns(RuntimeWarning, match="weak-product regime"):
            assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "protocol abort: gt=0.3: worst-case conditional shift 4.8 exceeds guard 4\n" in err
        assert "Traceback" not in err

    def test_rank_two_density_at_dim_32_runs(self, tmp_path):
        # The pointer tensor of this route used to be 2 x 32 x 256^2
        # amplitudes, twice MAX_AMPLITUDES.
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"dim": 32, "protocol": "density", "sweep": [0.04, 0.02],
                            "state": {"random": {"seed": 3, "rank": 2}}})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out), "--threads", "1"]) == 0
        assert main(["report", str(out)]) == 0
        rows = read_csv_rows(out / "estimates.csv")
        assert len(rows) == 2 * 32 * 32
        assert max(float(row["abs_error"]) for row in rows) < 1e-3
        report = yaml.safe_load((out / "report.yaml").read_text())
        assert report["reconstruction"]["trace_distance"] < 1e-4

    def test_shot_ceiling_names_the_field(self):
        config = {"dim": 2, "protocol": "dirac", "state": {"preset": "plus-i"},
                  "sampling": {"seed": 1, "shots": MAX_AMPLITUDES}}
        assert resolve_config(config).sampling.shots == MAX_AMPLITUDES
        for shots in (MAX_AMPLITUDES + 1, 1e11):
            config["sampling"]["shots"] = shots
            with pytest.raises(ConfigError, match="^sampling.shots: .*MAX_AMPLITUDES"):
                resolve_config(config)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-160, 1e155])
    def test_pointer_width_whose_square_is_not_a_normal_float_exits_2(
            self, tmp_path, capsys, sigma):
        # 1e-300 used to square to 0, build NaN pointers and exit 3 as a
        # wrap-around ("accumulated pointer shift 0.08 exceeds guard 4e-300").
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"dim": 2, "protocol": "dirac", "state": {"preset": "plus-i"},
                            "pointer": {"sigma": sigma}})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: pointer.sigma: sigma must lie in")
        assert not (tmp_path / "out").exists()

    def test_rank_out_of_range_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"dim": 2, "protocol": "density",
                            "state": {"random": {"seed": 1, "rank": 5}}})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert "state.random.rank" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "density",
                            "state": {"preset": "mixed-qubit"},
                            "shots": 100})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_sampling_limited_to_dirac(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "density",
                            "state": {"preset": "mixed-qubit"},
                            "sampling": {"shots": 100, "seed": 1}})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert "sampling" in capsys.readouterr().err

    def test_mixed_state_wavefunction_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "wavefunction",
                            "state": {"preset": "mixed-qubit"}})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert "pure state" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"dim": "abc"}, "dim"),
            ({"sweep": ["x"]}, "sweep"),
            ({"sweep": [[0.02]]}, "sweep"),
            ({"seed": "abc"}, "seed"),
            ({"pointer": {"sigma": "wide"}}, "pointer.sigma"),
            ({"pointer": {"points": "many"}}, "pointer.points"),
            ({"pointer": {"half_width": "far"}}, "pointer.half_width"),
            ({"state": {"random": {"seed": "x", "rank": 2}}}, "state.random.seed"),
            ({"state": {"random": {"seed": 1, "rank": "two"}}}, "state.random.rank"),
            ({"state": {"amps": [[1, "x"], [0, 0]]}}, "state.amps"),
            ({"state": {"amps": 5}}, "state.amps"),
            ({"state": {"density": 3}}, "state.density"),
            ({"state": {"density": [[1, 0], [0]]}}, "state.density"),
            # Non-finite, fractional and boolean numbers used to run (nan
            # estimates, a truncated dim, shot count or seed, gt 1.0) or crash.
            ({"sweep": [float("nan"), 0.01]}, "sweep"),
            ({"sweep": [True]}, "sweep"),
            ({"pointer": {"sigma": float("nan")}}, "pointer.sigma"),
            ({"dim": 2.5}, "dim"),
            ({"dim": float("inf")}, "dim"),
            ({"protocol": "dirac", "sampling": {"shots": 2.7, "seed": 1}}, "sampling.shots"),
            ({"protocol": "dirac", "sampling": {"shots": 10, "seed": 1, "readout_split": True}},
             "sampling.readout_split"),
            ({"protocol": "dirac", "sampling": {"shots": 10, "seed": -1}}, "sampling.seed"),
            ({"state": {"random": {"seed": 1.5, "rank": 2}}}, "state.random.seed"),
            ({"state": {"random": {"seed": -1, "rank": 2}}}, "state.random.seed"),
            ({"state": {"amps": [1, float("nan")]}}, "state.amps"),
        ],
    )
    def test_non_numeric_field_exits_2(self, tmp_path, capsys, override, field):
        doc = {"dim": 2, "protocol": "density", "state": {"random": {"seed": 1, "rank": 2}}}
        doc.update(override)
        cfg = write_config(tmp_path / "cfg.yaml", doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{field}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("protocol", ["density", "wavefunction"])
    def test_bad_b0_is_a_config_error(self, tmp_path, capsys, protocol):
        # It used to reach the route and exit 3 as a protocol abort.
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"dim": 2, "protocol": protocol, "b0": "basis-0",
                            "state": {"random": {"seed": 1}}})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: b0:")
        assert not (tmp_path / "out").exists()

    def test_scheme_without_a_route_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "density", "scheme": "scheme2",
                            "state": {"preset": "mixed-qubit"}})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: scheme: protocol density supports")
        assert "scheme2" not in err.split("supports")[1]

    @pytest.mark.parametrize(
        "pointer, message",
        [
            ({"points": 100}, "power of two"),
            ({"points": 8}, "power of two"),
            ({"half_width": 4.0}, "half_width >= 8 sigma"),
        ],
    )
    def test_bad_pointer_grid_is_a_config_error(self, tmp_path, capsys, pointer, message):
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "density", "state": {"preset": "mixed-qubit"},
                            "pointer": pointer})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: pointer:")
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "pointer, field",
        [({"points": 0}, "pointer.points"), ({"points": -256}, "pointer.points"),
         ({"half_width": 0}, "pointer.half_width"),
         ({"half_width": -16.0}, "pointer.half_width")],
    )
    def test_nonpositive_grid_size_names_field(self, tmp_path, capsys, pointer, field):
        # 0 used to run silently on the default grid.
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "density", "state": {"preset": "mixed-qubit"},
                            "pointer": pointer})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: must be positive")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_invalid_yaml_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("protocol: [unclosed\n")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        assert "invalid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("loader", ["libyaml", "pure-python"])
    def test_invalid_yaml_names_its_line_with_either_loader(self, tmp_path, capsys,
                                                            monkeypatch, loader):
        if loader == "pure-python":
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("dim: 2\nprotocol: dirac\nstate: {preset: [unclosed\n")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: invalid YAML at line 4:")


class TestAborts:
    def test_wraparound_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"dim": 2, "protocol": "density", "sweep": [5.0],
                            "state": {"random": {"seed": 1, "rank": 2}}})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "protocol abort" in err and "exceeds guard" in err

    def test_postselection_below_the_floor_exits_3(self, tmp_path, capsys):
        # <b0|psi> = 1e-4 passes the oracle's check; a coupling this weak
        # keeps the post-selection probability near 1e-8, below the 1e-6 floor
        amp = np.sqrt(0.5) * np.array([1.0 + 1e-4, -1.0 + 1e-4])
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "wavefunction", "sweep": [1e-4, 5e-5],
                            "state": {"amps": [[float(a), 0.0] for a in amp]}})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("protocol abort: gt=0.0001: post-selection probability 1.0")
        assert "below floor 1e-06 at setting a=0" in err

    @pytest.mark.parametrize("error, code", [
        (ValueError("a bug"), 1),
        (RuntimeError("a bug"), 1),
        (ProtocolAbort("outcome probabilities sum to 2, expected 1"), 3),
    ])
    def test_only_protocol_aborts_exit_3(self, tmp_path, capsys, monkeypatch, error, code):
        def route(*args):
            raise error

        monkeypatch.setattr(cli, "direct_density", route)
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "density", "state": {"preset": "mixed-qubit"}})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out"), "--threads", "1"]) == code
        err = capsys.readouterr().err
        if code == 1:
            assert "Traceback" in err and err.rstrip().endswith(f"{type(error).__name__}: a bug")
            assert "protocol abort" not in err
        else:
            assert err == f"protocol abort: gt=0.08: {error}\n"


# Values of mixed types, and a sensible value for each field of the schema.
JUNK = st.one_of(
    # Numbers reach past the allocation ceiling (MAX_AMPLITUDES), which
    # resolve_config must enforce before it allocates anything that large,
    # and down to magnitudes whose squares underflow.
    st.none(), st.booleans(), st.integers(-3, 6), st.floats(-1e12, 1e12),
    st.sampled_from([2**12 + 1, 2**20, 2**24 + 1, 10**9, 2**40, 1e300]),
    st.floats(1e-300, 1e-3), st.sampled_from([1e-300, 1e-160, 5e-324, -1e-300]),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]), st.text(max_size=3),
    st.lists(st.integers(-1, 2), max_size=3), st.dictionaries(st.text(max_size=2), st.none()),
)
ENTRY = st.one_of(JUNK, st.lists(JUNK, min_size=2, max_size=2))
LABELS = ("basis-0", "basis-1", "basis-4", "fourier-0", "fourier-1", "fourier-x",
          "plus-i", "mixed-qubit", "werner-0.3", "werner-2", "maximally-mixed")
FIELDS = {
    ("dim",): st.sampled_from([2, 3, 4]),
    ("state",): st.one_of(
        st.fixed_dictionaries({"preset": st.sampled_from(LABELS)}),
        st.fixed_dictionaries({"amps": st.lists(ENTRY, min_size=2, max_size=4)}),
        st.fixed_dictionaries(
            {"density": st.lists(st.lists(ENTRY, min_size=2, max_size=2), min_size=2,
                                 max_size=2)}
        ),
    ),
    ("state", "random", "seed"): st.integers(0, 9),
    ("state", "random", "rank"): st.integers(1, 3),
    ("protocol",): st.sampled_from(PROTOCOLS),
    ("scheme",): st.sampled_from(SCHEMES),
    ("sweep",): st.lists(st.sampled_from([0.08, 0.02]), min_size=1, max_size=3),
    ("pointer", "points"): st.sampled_from([64, 128, 256]),
    ("pointer", "half_width"): st.sampled_from([12.0, 16.0]),
    ("pointer", "sigma"): st.sampled_from([0.5, 1.0, 2.0]),
    ("b0",): st.sampled_from(LABELS),
    ("product", "e"): st.sampled_from(LABELS),
    ("product", "f"): st.sampled_from(LABELS),
    ("sampling", "shots"): st.integers(1, 100),
    ("sampling", "seed"): st.integers(0, 9),
    ("sampling", "readout_split"): st.sampled_from([0.0, 0.5, 1.0]),
    ("seed",): st.integers(0, 9),
}
EDITS = st.lists(
    st.sampled_from(sorted(FIELDS)).flatmap(
        lambda path: st.tuples(st.just(path), st.one_of(JUNK, FIELDS[path]))
    ),
    max_size=4,
)


@st.composite
def configs(draw):
    """A valid config of any protocol with up to four fields set to other values."""
    protocol = draw(st.sampled_from(PROTOCOLS))
    raw = {"dim": 2, "protocol": protocol, "state": {"random": {"seed": 1}}}
    if protocol == "product":
        raw["product"] = {"e": "fourier-1", "f": "basis-0"}
    for path, value in draw(EDITS):
        node = raw
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[path[-1]] = value
    return raw


@settings(max_examples=400, deadline=None)
@given(configs())
def test_resolve_config_resolves_or_names_the_field(raw):
    try:
        scenario = resolve_config(raw)
    except ConfigError as exc:
        assert str(exc).split(":")[0], exc
        return
    assert scenario.protocol in PROTOCOLS
    assert scenario.rho.shape == (scenario.dim, scenario.dim)
    # What the route allocates: a sampled run's per-outcome pointer laws and
    # shot draws, or the 2^P eigenvalue patterns of a table route (Scheme 2
    # included), and two displaced pointers per table.
    branches = np.count_nonzero(np.linalg.eigvalsh(scenario.rho) > 1e-12)
    pointers = ROUTE_POINTERS[scenario.protocol, scenario.scheme]
    points = scenario.params.points(pointers)
    cells = points if scenario.sampling else 2**pointers
    assert max(scenario.dim**2, branches * scenario.dim * cells, 2 * points) <= MAX_AMPLITUDES
    if scenario.sampling:
        assert scenario.sampling.shots <= MAX_AMPLITUDES
    # the route's pointer is a finite Gaussian
    pointer = gaussian_pointer(scenario.params.grid(pointers), scenario.params.sigma)
    assert np.all(np.isfinite(pointer.amps))


class TestCalibrateAndOracle:
    def test_calibrate_passes(self, tmp_path, capsys):
        assert main(["calibrate", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "calibration.csv").exists()
        assert "extrapolated ratio" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, flag",
        [("calibrate", ["--seed", "3"]), ("calibrate", ["--threads", "7"]),
         ("calibrate", ["--format", "structured"]), ("oracle", ["--threads", "7"]),
         ("oracle", ["--format", "structured"])],
    )
    def test_unused_flags_are_rejected(self, tmp_path, capsys, command, flag):
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"protocol": "density", "state": {"preset": "mixed-qubit"}})
        args = [command] + ([cfg] if command == "oracle" else []) + flag
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--out-dir", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {"protocol": "wavefunction", "state": {"preset": "plus-i"}},
            {"dim": 2, "protocol": "dirac", "state": {"random": {"seed": 4, "rank": 2}}},
            {"protocol": "density", "state": {"preset": "werner-0.4"}},
            {"dim": 2, "protocol": "product", "state": {"random": {"seed": 4, "rank": 2}},
             "product": {"e": "fourier-1", "f": "basis-0"}},
        ],
        ids=lambda doc: doc["protocol"],
    )
    def test_oracle_file_equals_the_run_oracle_columns(self, tmp_path, doc):
        cfg = write_config(tmp_path / "cfg.yaml", {**doc, "sweep": [0.04]})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "run")]) == 0
        assert main(["oracle", cfg, "--out-dir", str(tmp_path / "oracle")]) == 0
        oracle = yaml.safe_load((tmp_path / "oracle" / "oracle.yaml").read_text())
        field = {"wavefunction": "weak_values", "dirac": "entries",
                 "density": "triple_weak_averages", "product": "value"}[doc["protocol"]]
        exact = np.array(oracle[field], dtype=float)
        rows = read_csv_rows(tmp_path / "run" / "estimates.csv")
        assert len(rows) == exact.size // 2
        for row in rows:
            labels = () if doc["protocol"] == "product" else tuple(
                int(part.split("=")[1]) for part in row["setting"].split(",")
            )
            assert [float(row["oracle_re"]), float(row["oracle_im"])] == list(exact[labels])

    def test_oracle_dirac_entries(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml",
                           {"dim": 2, "protocol": "dirac",
                            "state": {"random": {"seed": 4, "rank": 2}}})
        assert main(["oracle", cfg, "--out-dir", str(tmp_path)]) == 0
        doc = yaml.safe_load((tmp_path / "oracle.yaml").read_text())
        entries = from_pairs(doc["entries"])
        exact = dirac_exact(random_density(2, seed=4, rank=2)).entries
        assert_allclose(entries, exact, atol=1e-15)
