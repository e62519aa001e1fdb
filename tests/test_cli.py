import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qitekit.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_RESOURCE,
    build_initial_state,
    build_model,
    execute_run,
    load_config,
    main,
    validate_config,
)
from qitekit.analysis import (
    exact_ite,
    gibbs_average,
    ground_space,
    mutual_information,
)
from qitekit.errors import ConfigError
from qitekit.hamiltonians import energy, heisenberg_1d
from qitekit.statevector import product_state

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def one_qubit_run_config(n_steps=40):
    # H = X from |0>: exact ITE energy is -tanh(2 beta), so 40 sweeps of
    # 0.1 land within 1e-3 of the ground energy -1
    return {
        "algorithm": "qite",
        "seed": 0,
        "model": {"name": "one_qubit_field", "params": {"alpha": 1.0, "beta": 0.0}},
        "qite": {"dtau": 0.1, "n_steps": n_steps, "domain_size": 1,
                 "pool_kind": "pauli_full"},
    }


# ------------------------------------------------------------- validation


def test_all_checked_in_configs_validate():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) >= 20
    for path in paths:
        load_config(path)  # raises on any schema or semantic problem


def test_schema_rejections(tmp_path):
    bad = {"algorithm": "annealing", "model": {"name": "heisenberg_1d"}}
    with pytest.raises(ConfigError, match=r"\$\.algorithm"):
        validate_config(bad)
    with pytest.raises(ConfigError):
        validate_config({"model": {"name": "heisenberg_1d"}})  # missing algorithm
    with pytest.raises(ConfigError):
        validate_config({"algorithm": "qite", "model": {"name": "heisenberg_1d"},
                         "typo_section": {}})
    # sections of another algorithm are rejected even though each is valid alone
    with pytest.raises(ConfigError, match="do not belong"):
        validate_config({
            "algorithm": "qite",
            "model": {"name": "heisenberg_1d", "params": {"n_qubits": 2}},
            "qmetts": {"beta": 1.0, "n_samples": 20},
        })
    with pytest.raises(ConfigError, match="unknown parameters"):
        validate_config({
            "algorithm": "qite",
            "model": {"name": "heisenberg_1d", "params": {"n_qubits": 2, "hopping": 1}},
        })
    with pytest.raises(ConfigError, match="missing parameters"):
        validate_config({"algorithm": "qite", "model": {"name": "tfi_1d"}})


def test_bad_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "algorithm": "qite",\n}\n')
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 3" in err
    assert not (tmp_path / "out").exists()  # validated before any output


def model_config(name, **params):
    return {"algorithm": "qite", "model": {"name": name, "params": params}}


def qmetts_config(**block):
    return {"algorithm": "qmetts",
            "model": {"name": "heisenberg_1d", "params": {"n_qubits": 2}},
            "qmetts": block}


# each case is a batch of configs, the last one invalid; "{tmp}" is the test's
# temporary directory
INVALID_BATCHES = {
    "missing-params": [{"algorithm": "qite", "model": {"name": "heisenberg_1d"}}],
    "maxcut-edge-not-a-pair": [model_config("maxcut", n_vertices=3, edges=[1, 2])],
    "h2-bond-length-not-a-number": [model_config("h2_bk", bond_length="x")],
    "h2-table-missing": [
        model_config("h2_bk", bond_length=0.75, table_path="{tmp}/missing.dat")
    ],
    "qmetts-too-few-samples": [qmetts_config(beta=1.0, n_samples=12, n_warmup=10)],
    "qmetts-beta-not-commensurate": [
        qmetts_config(beta=0.15, n_samples=20, n_warmup=2, qite={"dtau": 0.1})
    ],
    "pinv-tol-zero": [{**one_qubit_run_config(), "qite": {"pinv_tol": 0}}],
    "mutualinfo-pair-out-of-range": [{
        "algorithm": "mutualinfo",
        "model": {"name": "heisenberg_1d", "params": {"n_qubits": 2}},
        "mutualinfo": {"betas": [1.0], "pairs": [[0, 5]]},
    }],
    "batch-later-model-invalid": [
        one_qubit_run_config(n_steps=2), model_config("heisenberg_1d", n_qubits=1)
    ],
    "long-range-one-site": [model_config("heisenberg_long_range", n_qubits=1)],
    "tfi-one-site": [model_config("tfi_1d", n_qubits=1, coupling=1.0, field=1.0)],
    "hubbard-no-sites": [model_config("hubbard_1d_jw", n_sites=0, interaction=1.0)],
    "maxcut-one-vertex": [model_config("maxcut", n_vertices=1, edges=[[0, 1]])],
}


def section_config(algorithm, **block):
    return {"algorithm": algorithm,
            "model": {"name": "heisenberg_1d", "params": {"n_qubits": 2}},
            algorithm: block}


# one invalid value per (key, value) of a qite block
BAD_QITE_VALUES = {
    "unknown-key": {"dt": 0.1},
    "dtau-string": {"dtau": "0.1"},
    "dtau-zero": {"dtau": 0},
    "n-steps-string": {"n_steps": "5"},
    "n-steps-boolean": {"n_steps": True},
    "n-steps-negative": {"n_steps": -1},
    "domain-size-fraction": {"domain_size": 1.5},
    "domain-size-zero": {"domain_size": 0},
    "pool-kind-unknown": {"pool_kind": "pauli_even"},
    "delta-string": {"delta": "0"},
    "delta-negative": {"delta": -0.1},
    "pinv-tol-string": {"pinv_tol": "1e-8"},
    "pinv-tol-negative": {"pinv_tol": -1.0},
    "trotter-order-3": {"trotter_order": 3},
    "b-mode-unknown": {"b_mode": "exact"},
    "b-norm-factor-string": {"b_norm_factor": "yes"},
    "noise-sigma-string": {"noise_sigma": "0"},
    "noise-sigma-negative": {"noise_sigma": -0.1},
    "max-unitary-domain-string": {"max_unitary_domain": "4"},
    "max-unitary-domain-zero": {"max_unitary_domain": 0},
}
QMETTS_OK = {"beta": 1.0, "n_samples": 20, "n_warmup": 2}
COUNT_OK = {"n_terms": 4, "n_time_steps": 7, "domain_size": 2}
QITE_OK = section_config("qite", n_steps=1)


def without(block, key):
    return {k: v for k, v in block.items() if k != key}


# one config per rule of the top level and of each section: type, enum, range,
# required key and unknown key
RULE_CASES = {
    "top-not-object": [["qite"]],
    "top-unknown-key": [{**QITE_OK, "typo": 1}],
    "algorithm-missing": [without(QITE_OK, "algorithm")],
    "algorithm-unknown": [{**QITE_OK, "algorithm": "annealing"}],
    "algorithm-not-string": [{**QITE_OK, "algorithm": ["qite"]}],
    "seed-string": [{**QITE_OK, "seed": "0"}],
    "seed-boolean": [{**QITE_OK, "seed": True}],
    "seed-negative": [{**QITE_OK, "seed": -1}],
    "model-missing": [without(QITE_OK, "model")],
    "model-not-object": [{**QITE_OK, "model": "heisenberg_1d"}],
    "model-unknown-key": [{**QITE_OK, "model": {**QITE_OK["model"], "size": 2}}],
    "model-name-missing": [{**QITE_OK, "model": {"params": {"n_qubits": 2}}}],
    "model-name-unknown": [{**QITE_OK, "model": {"name": "ising_2d"}}],
    "model-name-not-string": [{**QITE_OK, "model": {"name": ["tfi_1d"]}}],
    "model-params-not-object": [{**QITE_OK, "model": {"name": "heisenberg_1d",
                                                       "params": [2]}}],
    "model-param-string": [model_config("heisenberg_1d", n_qubits=2, coupling="1")],
    "initial-state-unknown-name": [{**QITE_OK, "initial_state": "up"}],
    "initial-state-number": [{**QITE_OK, "initial_state": 3}],
    "initial-state-unknown-key": [{**QITE_OK, "initial_state": {"bits": "01", "x": 1}}],
    "initial-state-bits-missing": [{**QITE_OK, "initial_state": {}}],
    "initial-state-bits-number": [{**QITE_OK, "initial_state": {"bits": 1}}],
    "initial-state-bits-pattern": [{**QITE_OK, "initial_state": {"bits": "0a"}}],
    "initial-state-bits-empty": [{**QITE_OK, "initial_state": {"bits": ""}}],
    **{f"qite-{name}": [section_config("qite", **block)]
       for name, block in BAD_QITE_VALUES.items()},
    **{f"{algorithm}-not-object": [{**section_config(algorithm), algorithm: []}]
       for algorithm in ("qite", "qlanczos", "qmetts", "mutualinfo", "count")},
    "qlanczos-unknown-key": [section_config("qlanczos", threshold=0.9)],
    "qlanczos-qite-not-object": [section_config("qlanczos", qite=[])],
    "qlanczos-qite-unknown-key": [section_config("qlanczos", qite={"dt": 0.1})],
    "qlanczos-qite-dtau-zero": [section_config("qlanczos", qite={"dtau": 0})],
    "qlanczos-overlap-threshold-string": [section_config("qlanczos", overlap_threshold="1")],
    "qlanczos-overlap-threshold-zero": [section_config("qlanczos", overlap_threshold=0)],
    "qlanczos-overlap-threshold-above-one": [
        section_config("qlanczos", overlap_threshold=1.5)
    ],
    "qlanczos-eig-cutoff-string": [section_config("qlanczos", eig_cutoff="1e-8")],
    "qlanczos-eig-cutoff-zero": [section_config("qlanczos", eig_cutoff=0)],
    "qlanczos-ledger-noise-string": [section_config("qlanczos", ledger_noise_sigma="0")],
    "qlanczos-ledger-noise-negative": [section_config("qlanczos", ledger_noise_sigma=-0.1)],
    "qmetts-unknown-key": [section_config("qmetts", **QMETTS_OK, samples=20)],
    "qmetts-beta-missing": [section_config("qmetts", **without(QMETTS_OK, "beta"))],
    "qmetts-n-samples-missing": [section_config("qmetts", **without(QMETTS_OK, "n_samples"))],
    "qmetts-beta-string": [section_config("qmetts", **{**QMETTS_OK, "beta": "1"})],
    "qmetts-beta-negative": [section_config("qmetts", **{**QMETTS_OK, "beta": -1.0})],
    "qmetts-n-samples-string": [section_config("qmetts", **{**QMETTS_OK, "n_samples": "20"})],
    "qmetts-n-samples-zero": [section_config("qmetts", **{**QMETTS_OK, "n_samples": 0})],
    "qmetts-n-warmup-string": [section_config("qmetts", **{**QMETTS_OK, "n_warmup": "2"})],
    "qmetts-n-warmup-negative": [section_config("qmetts", **{**QMETTS_OK, "n_warmup": -1})],
    "qmetts-basis-cycle-unknown": [
        section_config("qmetts", **QMETTS_OK, basis_cycle="x_only")
    ],
    "qmetts-qite-not-object": [section_config("qmetts", **QMETTS_OK, qite=[])],
    "qmetts-qite-unknown-key": [section_config("qmetts", **QMETTS_OK, qite={"dt": 0.1})],
    "qmetts-qite-dtau-string": [section_config("qmetts", **QMETTS_OK, qite={"dtau": "0.1"})],
    "qmetts-qite-dtau-zero": [section_config("qmetts", **QMETTS_OK, qite={"dtau": 0})],
    "mutualinfo-unknown-key": [section_config("mutualinfo", betas=[1.0], pair="all")],
    "mutualinfo-betas-missing": [section_config("mutualinfo", pairs="all")],
    "mutualinfo-betas-not-list": [section_config("mutualinfo", betas=1.0)],
    "mutualinfo-betas-empty": [section_config("mutualinfo", betas=[])],
    "mutualinfo-beta-string": [section_config("mutualinfo", betas=["1"])],
    "mutualinfo-beta-boolean": [section_config("mutualinfo", betas=[True])],
    "mutualinfo-beta-negative": [section_config("mutualinfo", betas=[-1.0])],
    "mutualinfo-pairs-unknown-string": [section_config("mutualinfo", betas=[1.0], pairs="some")],
    "mutualinfo-pairs-number": [section_config("mutualinfo", betas=[1.0], pairs=3)],
    "mutualinfo-pairs-empty": [section_config("mutualinfo", betas=[1.0], pairs=[])],
    "mutualinfo-pair-not-list": [section_config("mutualinfo", betas=[1.0], pairs=[1])],
    "mutualinfo-pair-short": [section_config("mutualinfo", betas=[1.0], pairs=[[0]])],
    "mutualinfo-pair-long": [section_config("mutualinfo", betas=[1.0], pairs=[[0, 1, 1]])],
    "mutualinfo-pair-string": [section_config("mutualinfo", betas=[1.0], pairs=[["0", 1]])],
    "mutualinfo-pair-negative": [section_config("mutualinfo", betas=[1.0], pairs=[[-1, 1]])],
    "count-unknown-key": [section_config("count", **COUNT_OK, terms=4)],
    **{f"count-{key}-missing".replace("_", "-"): [section_config("count", **without(COUNT_OK, key))]
       for key in COUNT_OK},
    **{f"count-{key}-string".replace("_", "-"): [section_config("count", **{**COUNT_OK, key: "4"})]
       for key in COUNT_OK},
    **{f"count-{key}-zero".replace("_", "-"): [section_config("count", **{**COUNT_OK, key: 0})]
       for key in COUNT_OK},
    "count-odd-y-only-string": [section_config("count", **COUNT_OK, odd_y_only="no")],
    "count-odd-y-only-integer": [section_config("count", **COUNT_OK, odd_y_only=1)],
}
INVALID_BATCHES.update(RULE_CASES)

# an integer field takes an integer literal, not an integer-valued float; a
# section with required keys must be present; a qmetts chain derives its own
# step count
INVALID_BATCHES.update({
    "seed-float": [{**QITE_OK, "seed": 1.0}],
    "model-param-float": [model_config("heisenberg_1d", n_qubits=2.0)],
    "qite-n-steps-float": [section_config("qite", n_steps=2.0)],
    "qite-domain-size-float": [section_config("qite", n_steps=1, domain_size=2.0)],
    "qite-trotter-order-float": [section_config("qite", n_steps=1, trotter_order=2.0)],
    "qmetts-n-samples-float": [section_config("qmetts", **{**QMETTS_OK, "n_samples": 20.0})],
    # json.dumps writes NaN and Infinity, which json.loads reads back
    "qite-dtau-nan": [section_config("qite", n_steps=1, dtau=float("nan"))],
    "mutualinfo-beta-infinity": [section_config("mutualinfo", betas=[float("inf")])],
    "qmetts-n-warmup-float": [section_config("qmetts", **{**QMETTS_OK, "n_warmup": 2.0})],
    "mutualinfo-pair-float": [section_config("mutualinfo", betas=[1.0], pairs=[[0, 1.0]])],
    "maxcut-edge-vertex-float": [model_config("maxcut", n_vertices=2, edges=[[0, 1.0]])],
    "maxcut-edge-vertex-fraction": [model_config("maxcut", n_vertices=2, edges=[[0, 1.5]])],
    "maxcut-edge-vertex-bool": [model_config("maxcut", n_vertices=2, edges=[[0, True]])],
    "count-n-terms-float": [section_config("count", **{**COUNT_OK, "n_terms": 4.0})],
    "count-domain-size-float": [section_config("count", **{**COUNT_OK, "domain_size": 2.0})],
    **{f"{algorithm}-section-missing": [without(section_config(algorithm), algorithm)]
       for algorithm in ("qmetts", "mutualinfo", "count")},
})


@pytest.mark.parametrize("name", sorted(INVALID_BATCHES))
def test_invalid_config_creates_no_output(tmp_path, capsys, name):
    argv = ["run"]
    for k, payload in enumerate(INVALID_BATCHES[name]):
        text = json.dumps(payload).replace("{tmp}", str(tmp_path))
        path = tmp_path / f"c{k}.json"
        path.write_text(text)
        argv += ["--config", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("vertex, shown", [(True, "true"), (1.5, "1.5")])
def test_maxcut_vertex_is_refused_by_edge_and_value(tmp_path, capsys, vertex, shown):
    # JSON true reads as True, which Python would take as vertex 1
    path = write_config(tmp_path, model_config("maxcut", n_vertices=2, edges=[[0, vertex]]))
    assert shown in path.read_text()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"edge (0, {vertex}): vertex {vertex} is not an integer" in capsys.readouterr().err


def test_h2_table_path_copy_matches_packaged_table(tmp_path):
    from importlib import resources

    table = tmp_path / "h2.dat"
    table.write_text(resources.files("qitekit").joinpath("data/h2_sto6g.dat").read_text())
    base = model_config("h2_bk", bond_length=0.75)
    base["qite"] = {"n_steps": 5}
    custom = json.loads(json.dumps(base))
    custom["model"]["params"]["table_path"] = str(table)
    outs = []
    for k, cfg in enumerate((base, custom)):
        outs.append(tmp_path / f"run{k}")
        execute_run(load_config(write_config(tmp_path, cfg, f"h2_{k}.json")), outs[-1])
    summaries = [json.loads((out / "summary.json").read_text()) for out in outs]
    assert summaries[1].pop("model") == custom["model"]
    summaries[0].pop("model")
    assert summaries[0] == summaries[1]
    assert (outs[0] / "qite.csv").read_bytes() == (outs[1] / "qite.csv").read_bytes()


def test_noisy_qmetts_config_creates_no_output(tmp_path, capsys):
    # a chain evolves each start label once and has no generator for noise,
    # so a noisy qmetts config is refused before any output path exists
    path = write_config(tmp_path, {
        "algorithm": "qmetts",
        "model": {"name": "heisenberg_1d", "params": {"n_qubits": 2}},
        "qmetts": {"beta": 1.0, "n_samples": 20, "n_warmup": 2,
                   "qite": {"dtau": 0.1, "domain_size": 2, "noise_sigma": 0.001}},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "noise_sigma" in capsys.readouterr().err
    assert not out.exists()


def test_qmetts_qite_n_steps_is_refused(tmp_path, capsys):
    # a chain runs each sample to beta/2, so a stored step count would be ignored
    path = write_config(tmp_path, section_config("qmetts", **QMETTS_OK, qite={"n_steps": 500}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "n_steps" in err and "Traceback" not in err
    assert not out.exists()


def test_batch_refusal_names_its_config(tmp_path, capsys):
    bad = write_config(tmp_path, model_config("heisenberg_1d", n_qubits=1), "bad.json")
    good = CONFIG_DIR / "c10_tfi4_trotter2.json"
    out = tmp_path / "out"
    argv = ["run", "--config", str(good), "--config", str(bad), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{bad}: " in err and "at least 2 sites" in err
    assert not out.exists()


def test_batch_refuses_initial_state_width_before_any_run(tmp_path, capsys):
    # the bits length is decided by the config alone, so the batch is refused
    # before its first config runs
    good = write_config(tmp_path, model_config("heisenberg_1d", n_qubits=4), "good.json")
    bad = write_config(
        tmp_path, {**model_config("heisenberg_1d", n_qubits=4), "initial_state": {"bits": "01"}},
        "bad_bits.json",
    )
    out = tmp_path / "out"
    argv = ["run", "--config", str(good), "--config", str(bad), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{bad}: " in err and "bits length 2 != n_qubits 4" in err
    assert not out.exists()
    odd = {**model_config("heisenberg_1d", n_qubits=3), "initial_state": "singlet_dimers"}
    with pytest.raises(ConfigError, match="even qubit count"):
        validate_config(odd)


def test_initial_state_resolution(tmp_path):
    cfg = {
        "algorithm": "qite",
        "model": {"name": "heisenberg_1d", "params": {"n_qubits": 4}},
    }
    h = build_model(cfg["model"])
    # model default is the alternating product state
    state = build_initial_state(cfg, h.n_qubits)
    assert abs(state.amplitudes[0b1010] - 1.0) < 1e-12
    explicit = build_initial_state({**cfg, "initial_state": {"bits": "+one".replace("one", "-00")}}, 4)
    assert explicit.n_qubits == 4
    with pytest.raises(ConfigError):
        build_initial_state({**cfg, "initial_state": {"bits": "01"}}, 4)
    with pytest.raises(ConfigError):
        build_initial_state({**cfg, "initial_state": "singlet_dimers"}, 3)


def test_half_filled_default_initial_state(tmp_path, capsys):
    cfg = {
        "algorithm": "qite",
        "model": {"name": "hubbard_1d_jw", "params": {"n_sites": 2, "interaction": 4.0}},
        "qite": {"dtau": 0.05, "n_steps": 3, "domain_size": 4,
                 "pool_kind": "fermionic_number_conserving"},
    }
    for n_sites, label in ((2, "1001"), (3, "100110")):
        model = {**cfg["model"], "params": {**cfg["model"]["params"], "n_sites": n_sites}}
        state = build_initial_state({**cfg, "model": model}, 2 * n_sites)
        assert state.amplitudes.tobytes() == product_state(label).amplitudes.tobytes()
    out, path = tmp_path / "out", write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    table = csv.DictReader((out / "qite.csv").read_text().splitlines())
    energies = [float(row["energy"]) for row in table]
    h = build_model(cfg["model"])
    assert energies[0] == pytest.approx(energy(product_state("1001"), h), abs=1e-12)
    assert len(energies) == 4 and energies[-1] < energies[0]


# ---------------------------------------------------------------- running


def test_run_one_qubit_and_reproducibility(tmp_path, capsys):
    path = write_config(tmp_path, one_qubit_run_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(path), "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", str(path), "--out", str(out2)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "qite" in printed

    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["algorithm"] == "qite"
    assert summary["energy_final"] == pytest.approx(-1.0, abs=1e-3)
    assert summary["e0_exact"] == pytest.approx(-1.0, abs=1e-12)
    assert summary["relative_error"] < 1e-3
    assert summary["fidelity_opt_final"] > 0.999

    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert manifest["outputs"] == ["qite.csv", "summary.json"]
    assert manifest["seed_effective"] == 0
    assert "finished_utc" in manifest
    assert set(manifest["timings_s"]) == {"total", "oracle"}
    assert 0.0 < manifest["timings_s"]["oracle"] <= manifest["timings_s"]["total"]

    # identical config and seed: byte-identical CSV bodies
    assert (out1 / "qite.csv").read_bytes() == (out2 / "qite.csv").read_bytes()
    header = (out1 / "qite.csv").read_text().splitlines()[0]
    assert header == "sweep,beta,energy,fidelity_opt"


def test_max_qubits_is_enforced(tmp_path, capsys):
    # run, count and compare refuse a model wider than --max-qubits for every
    # config, before any output path exists, naming the config or the run
    narrow = write_config(tmp_path, one_qubit_run_config(n_steps=2), "narrow.json")
    wide = write_config(tmp_path, {
        "algorithm": "qite",
        "model": {"name": "heisenberg_1d", "params": {"n_qubits": 4}},
        "qite": {"n_steps": 1},
    }, "wide.json")
    out = tmp_path / "out"
    args = ["run", "--config", str(narrow), "--config", str(wide), "--out", str(out)]
    assert main(args + ["--max-qubits", "3"]) == EXIT_RESOURCE
    assert not out.exists()
    assert f"{wide}: model needs 4 qubits, limit is 3" in capsys.readouterr().err

    count = str(CONFIG_DIR / "c07_count_k4_t7.json")
    assert main(["count", "--config", count, "--max-qubits", "2"]) == EXIT_RESOURCE
    assert main(["count", "--config", count, "--max-qubits", "2", "--out", str(out)]) == EXIT_RESOURCE
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("limit is 2") == 2

    run = tmp_path / "run"
    assert main(["run", "--config", str(wide), "--out", str(run)]) == EXIT_OK
    capsys.readouterr()
    target = tmp_path / "compare.csv"
    code = main(["compare", "--run", str(run), "--out", str(target), "--max-qubits", "3"])
    assert code == EXIT_RESOURCE
    assert not target.exists()
    assert f"{run}: model needs 4 qubits, limit is 3" in capsys.readouterr().err


def heisenberg_config(algorithm, n_qubits, n_steps):
    qite = {"dtau": 0.1, "n_steps": n_steps, "domain_size": 2,
            "pool_kind": "pauli_odd_y", "b_mode": "exact_delta0"}
    return {
        "algorithm": algorithm,
        "model": {"name": "heisenberg_1d", "params": {"n_qubits": n_qubits}},
        algorithm: qite if algorithm == "qite" else {"qite": qite},
    }


@pytest.mark.parametrize(
    "algorithm, n_qubits, record",
    [
        ("qite", 7, {"route": "dense", "matvecs": 0, "ground_dim": 2}),
        ("qite", 9, {"route": "dense", "matvecs": 0, "ground_dim": 2}),
        ("qite", 10, {"route": "lanczos", "ground_dim": 1}),
        ("qlanczos", 8, {"route": "dense", "matvecs": 0, "ground_dim": 1}),
        ("qlanczos", 10, {"route": "lanczos", "ground_dim": 1}),
    ],
)
def test_manifest_records_oracle_route(tmp_path, algorithm, n_qubits, record):
    # H's blocks while the widest has at most 128 rows (126 on the chain of
    # 9), Lanczos beyond (210 on the chain of 10)
    path = write_config(tmp_path, heisenberg_config(algorithm, n_qubits, 1))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    oracle = json.loads((tmp_path / "out" / "manifest.json").read_text())["oracle"]
    assert set(oracle) == {"route", "matvecs", "ground_dim"}
    assert {key: oracle[key] for key in record} == record
    assert (oracle["matvecs"] > 0) == (oracle["route"] == "lanczos")


def test_qmetts_manifest_records_evolved_states(tmp_path):
    # c06 at beta = 2: Heisenberg n = 4 has 8 Z-basis and 8 X-basis orbit
    # representatives, no more than the chain's 210 samples and 2^4, so the
    # chain evolves all 16 as one stack; no other run records a count
    path = CONFIG_DIR / "c06_qmetts_heisenberg4_beta2.json"
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["evolved_states"] == 16
    path = CONFIG_DIR / "c10_tfi4_trotter2.json"
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "qite")]) == EXIT_OK
    assert "evolved_states" not in json.loads((tmp_path / "qite" / "manifest.json").read_text())


def test_fourteen_qubit_runs_and_dense_refusals(tmp_path, capsys, monkeypatch):
    # qite and qlanczos read their ground oracle from Lanczos at 14 qubits
    import qitekit.cli

    oracles = []  # each run's own ground space, to check the E0 it reports

    def recording(*args):
        oracles.append(ground_space(*args))
        return oracles[-1]

    monkeypatch.setattr(qitekit.cli, "ground_space", recording)
    h = heisenberg_1d(14)
    for algorithm, n_steps in (("qite", 1), ("qlanczos", 2)):
        path = write_config(tmp_path, heisenberg_config(algorithm, 14, n_steps), f"{algorithm}.json")
        out = tmp_path / algorithm
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        e0 = json.loads((out / "summary.json").read_text())["e0_exact"]
        g = oracles[-1].basis[:, 0]
        assert np.linalg.norm(h.operator.apply(g) + h.offset * g - e0 * g) <= 1e-8
        with open(out / f"{algorithm}.csv") as handle:
            rows = list(csv.DictReader(handle))
        energies = [float(r[k]) for r in rows for k in ("energy", "e_qite", "e_qlanczos") if k in r]
        assert min(energies) >= e0 - 1e-9  # the variational bound
        assert json.loads((out / "manifest.json").read_text())["oracle"]["route"] == "lanczos"
    capsys.readouterr()
    # runs that need the dense spectrum refuse before any output path exists
    model = {"name": "heisenberg_1d", "params": {"n_qubits": 14}}
    sections = {"qmetts": {"beta": 0.2, "n_samples": 8, "qite": {"dtau": 0.1}},
                "mutualinfo": {"betas": [1.0]}}
    for algorithm, section in sections.items():
        path = write_config(tmp_path, {"algorithm": algorithm, "model": model,
                                       algorithm: section}, f"{algorithm}.json")
        out = tmp_path / f"{algorithm}_out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_RESOURCE
        assert not out.exists()
        assert "on 14 qubits" in capsys.readouterr().err
    target = tmp_path / "compare.csv"
    assert main(["compare", "--run", str(tmp_path / "qite"), "--out", str(target)]) == EXIT_RESOURCE
    assert not target.exists()
    assert "dense ceiling is 13 qubits" in capsys.readouterr().err
    # compare on a qlanczos run reads no oracle, so it has no dense ceiling
    assert main(["compare", "--run", str(tmp_path / "qlanczos"), "--out", str(target)]) == EXIT_OK
    rows = (tmp_path / "qlanczos" / "qlanczos.csv").read_text().splitlines()
    assert len(target.read_text().splitlines()) == len(rows)


@pytest.mark.parametrize("algorithm", ["qmetts", "mutualinfo"])
def test_wide_dense_only_config_refused_without_allocating(tmp_path, capsys, algorithm):
    # validation refuses a 40-qubit dense-only config from its Pauli strings
    # alone, before the --max-qubits check and without building H's operator
    sections = {"qmetts": {"beta": 0.2, "n_samples": 8, "qite": {"dtau": 0.1}},
                "mutualinfo": {"betas": [1.0], "pairs": [[0, 1]]}}
    config = {"algorithm": algorithm, algorithm: sections[algorithm],
              "model": {"name": "heisenberg_1d", "params": {"n_qubits": 40}}}
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_RESOURCE
    assert time.perf_counter() - start < 2.0
    assert not out.exists()
    assert "on 40 qubits: the dense ceiling is 13 qubits" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    # an eigenvalue cutoff above 1 empties the subspace at the first prefix
    cfg = {
        "algorithm": "qlanczos",
        "model": {"name": "heisenberg_1d", "params": {"n_qubits": 2}},
        "qlanczos": {
            "qite": {"dtau": 0.1, "n_steps": 4, "domain_size": 2,
                     "pool_kind": "pauli_odd_y"},
            "eig_cutoff": 10.0,
        },
    }
    path = write_config(tmp_path, cfg)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert "cutoff" in capsys.readouterr().err


def test_unusable_output_path_exits_config(tmp_path, capsys):
    path = write_config(tmp_path, one_qubit_run_config(n_steps=2))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", "--config", str(path), "--out", str(taken)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and str(taken) in err
    run = tmp_path / "run"
    assert main(["run", "--config", str(path), "--out", str(run)]) == EXIT_OK
    capsys.readouterr()
    target = tmp_path / "missing" / "x.csv"
    assert main(["compare", "--run", str(run), "--out", str(target)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and str(target) in err
    assert not target.parent.exists()


def test_failed_run_manifest_records_error(tmp_path):
    cfg = {
        "algorithm": "qlanczos",
        "model": {"name": "heisenberg_1d", "params": {"n_qubits": 4}},
        "qlanczos": {
            "qite": {"dtau": 0.1, "n_steps": 4, "domain_size": 2},
            "eig_cutoff": 10.0,
        },
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_NUMERICAL
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "NumericalError"
    assert manifest["error"]["exit_code"] == EXIT_NUMERICAL
    assert "cutoff" in manifest["error"]["message"]
    assert not (out / "summary.json").exists()
    # a resource refusal inside the runner records its own exit code
    cfg = {
        "algorithm": "qite",
        "model": {"name": "heisenberg_1d", "params": {"n_qubits": 4}},
        "qite": {"n_steps": 1, "domain_size": 3, "max_unitary_domain": 2},
    }
    path = write_config(tmp_path, cfg, "resource.json")
    out = tmp_path / "resource"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_RESOURCE
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "ResourceError"
    assert manifest["error"]["exit_code"] == EXIT_RESOURCE


def test_failed_output_write_is_recorded(tmp_path, capsys):
    # a table that cannot be written fails the run like any other error
    path = write_config(tmp_path, one_qubit_run_config(n_steps=2))
    out = tmp_path / "out"
    (out / "qite.csv").mkdir(parents=True)
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "qite.csv" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed" and "finished_utc" in manifest
    assert manifest["error"]["type"] == "IsADirectoryError"
    assert manifest["error"]["exit_code"] == EXIT_CONFIG
    assert not (out / "summary.json").exists()


def test_unexpected_error_is_recorded_and_raised(tmp_path, monkeypatch):
    import qitekit.cli as cli_module

    def broken(*args):
        raise RuntimeError("runner broke")

    monkeypatch.setitem(cli_module._RUNNERS, "qite", broken)
    path = write_config(tmp_path, one_qubit_run_config(n_steps=2))
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="runner broke"):
        main(["run", "--config", str(path), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == {
        "type": "RuntimeError", "message": "runner broke", "exit_code": 1
    }


def test_seed_override_changes_sampling(tmp_path):
    cfg = {
        "algorithm": "qmetts",
        "seed": 0,
        "model": {"name": "one_qubit_field", "params": {"alpha": 0.0, "beta": 1.0}},
        "qmetts": {"beta": 1.0, "n_samples": 20, "n_warmup": 4,
                   "qite": {"dtau": 0.1, "domain_size": 1, "pool_kind": "pauli_full"}},
    }
    path = write_config(tmp_path, cfg)
    outs = [tmp_path / f"o{k}" for k in range(3)]
    main(["run", "--config", str(path), "--out", str(outs[0])])
    main(["run", "--config", str(path), "--out", str(outs[1])])
    main(["run", "--config", str(path), "--out", str(outs[2]),
          "--seed-override", "7"])
    s0 = (outs[0] / "qmetts.csv").read_bytes()
    s1 = (outs[1] / "qmetts.csv").read_bytes()
    s2 = (outs[2] / "qmetts.csv").read_bytes()
    assert s0 == s1
    assert s0 != s2
    man = json.loads((outs[2] / "manifest.json").read_text())
    assert man["seed_effective"] == 7


@pytest.mark.parametrize(
    "command, name",
    [("run", "c03_heisenberg4_pool_full.json"), ("run", "c06_qmetts_heisenberg4_beta1.json"),
     ("count", "c07_count_k4_t7.json")],
)
def test_negative_seed_override_is_refused(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    args = [command, "--config", str(CONFIG_DIR / name), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--seed-override", "-3"])
    assert exc.value.code == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["run", "--config", str(CONFIG_DIR / "c03_heisenberg4_pool_full.json")],
     ["count", "--config", str(CONFIG_DIR / "c07_count_k4_t7.json")],
     ["compare", "--run", str(CONFIG_DIR)]],
    ids=["run", "count", "compare"],
)
@pytest.mark.parametrize("limit", ["-1", "0", "2.5", "four"])
def test_bad_max_qubits_is_refused(tmp_path, capsys, argv, limit):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out), "--max-qubits", limit])
    assert exc.value.code == 2
    assert "max-qubits must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_qmetts_summary_fields(tmp_path):
    cfg = {
        "algorithm": "qmetts",
        "seed": 0,
        "model": {"name": "one_qubit_field", "params": {"alpha": 0.0, "beta": 1.0}},
        "qmetts": {"beta": 2.0, "n_samples": 40, "n_warmup": 8,
                   "qite": {"dtau": 0.1, "domain_size": 1, "pool_kind": "pauli_full"}},
    }
    summary = execute_run(cfg, tmp_path / "out")
    assert summary["gibbs_exact"] == pytest.approx(-np.tanh(2.0), abs=1e-12)
    assert summary["abs_error"] == pytest.approx(
        abs(summary["mean"] - summary["gibbs_exact"])
    )
    rows = (tmp_path / "out" / "qmetts.csv").read_text().splitlines()
    assert rows[0] == "sample,label,value"
    assert len(rows) == 41


def test_mutualinfo_run(tmp_path):
    cfg = {
        "algorithm": "mutualinfo",
        "model": {"name": "tfi_1d",
                  "params": {"n_qubits": 3, "coupling": -1.0, "field": -1.25}},
        "initial_state": "zeros",
        "mutualinfo": {"betas": [0.0, 1.0, 4.0], "pairs": [[0, 2]]},
    }
    summary = execute_run(cfg, tmp_path / "out")
    assert summary["n_pairs"] == 1
    assert 0.0 <= summary["fidelity_ground_final"] <= 1.0
    rows = (tmp_path / "out" / "mutualinfo.csv").read_text().splitlines()
    assert rows[0] == "beta,qubit_i,qubit_j,mutual_info"
    assert len(rows) == 4
    # invalid pair is a config problem
    bad = {**cfg, "mutualinfo": {"betas": [1.0], "pairs": [[0, 7]]}}
    path = write_config(tmp_path, bad)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "bad")]) == EXIT_CONFIG


def test_mutualinfo_run_from_an_excited_eigenstate(tmp_path):
    # |0000> is an eigenstate of the Heisenberg chain (E = 0.75) with no weight
    # on its ground level: it stays a product state, whose mutual information
    # is 0, at every beta
    path = write_config(tmp_path, {
        "algorithm": "mutualinfo",
        "model": {"name": "heisenberg_1d", "params": {"n_qubits": 4}},
        "initial_state": {"bits": "0000"},
        "mutualinfo": {"betas": [0.0, 100.0, 400.0], "pairs": "all"},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "mutualinfo.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3 * 6
    assert all(abs(float(row["mutual_info"])) <= 1e-12 for row in rows)


def test_mutualinfo_rows_keep_the_given_pair_order(tmp_path):
    model = {"name": "tfi_1d", "params": {"n_qubits": 4, "coupling": -1.0, "field": -1.25}}
    betas = [0.0, 0.5, 2.0]
    cfg = {"algorithm": "mutualinfo", "model": model, "initial_state": "neel",
           "mutualinfo": {"betas": betas, "pairs": [[3, 1], [1, 3], [0, 2]]}}
    execute_run(cfg, tmp_path / "out")
    with open(tmp_path / "out" / "mutualinfo.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["qubit_i"], r["qubit_j"]) for r in rows] == [("3", "1"), ("1", "3"), ("0", "2")] * 3
    hamiltonian, state0 = build_model(model), build_initial_state(cfg, 4)
    for k, beta in enumerate(betas):
        block = rows[3 * k: 3 * k + 3]
        assert all(float(r["beta"]) == beta for r in block)
        assert block[0]["mutual_info"] == block[1]["mutual_info"]
        state = exact_ite(state0, hamiltonian, beta)
        for r in block:
            want = mutual_information(state, int(r["qubit_i"]), int(r["qubit_j"]))
            assert float(r["mutual_info"]) == want


# ------------------------------------------------------------------ count


def test_count_subcommand_prints_total(tmp_path, capsys):
    code = main(["count", "--config", str(CONFIG_DIR / "c07_count_k4_t7.json")])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "12544"


def test_count_with_output_dir(tmp_path, capsys):
    out = tmp_path / "count_run"
    code = main(["count", "--config", str(CONFIG_DIR / "c07_count_k6_t8_odd_y.json"),
                 "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "10560"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["p_total"] == 10560
    assert summary["pool_size_per_term"] == 120
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["timings_s"]["oracle"] == 0.0  # count builds no Hamiltonian matrix
    assert manifest["oracle"] is None


def test_count_rejects_other_algorithms(tmp_path, capsys):
    path = write_config(tmp_path, one_qubit_run_config())
    assert main(["count", "--config", str(path)]) == EXIT_CONFIG


def test_all_count_configs_give_goldens(capsys):
    want = {
        "c07_count_k4_t7.json": "12544",
        "c07_count_k4_t7_odd_y.json": "5880",
        "c07_count_k6_t17.json": "47872",
        "c07_count_k6_t17_odd_y.json": "22440",
        "c07_count_k6_t8.json": "22528",
        "c07_count_k6_t8_odd_y.json": "10560",
    }
    for name, total in want.items():
        assert main(["count", "--config", str(CONFIG_DIR / name)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == total, name


# ---------------------------------------------------------------- compare


def test_compare_self_is_zero_delta(tmp_path, capsys):
    path = write_config(tmp_path, one_qubit_run_config(n_steps=10))
    out = tmp_path / "run"
    main(["run", "--config", str(path), "--out", str(out)])
    capsys.readouterr()  # drop the run subcommand's own progress line
    code = main(["compare", "--run", str(out), "--run", str(out)])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "run,sweep,beta,energy,e_exact_ite,delta_exact,bound_violation,delta_vs_first"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 22  # 11 sweeps x 2 runs
    for row in rows:
        assert float(row[7]) == 0.0  # identical run: no drift vs first
        assert row[6] == "0"  # variational bound never violated
        assert abs(float(row[5])) < 5e-3  # close to exact propagation


def count_spectral_calls(monkeypatch):
    """Count diagonalizations: the CLI calls spectral, and so does the ground
    oracle's dense route, which looks it up in analysis."""
    import qitekit.analysis
    import qitekit.cli

    calls = []
    diagonalize = qitekit.analysis.spectral

    def counting(hamiltonian):
        calls.append(hamiltonian)
        return diagonalize(hamiltonian)

    for module in (qitekit.analysis, qitekit.cli):
        monkeypatch.setattr(module, "spectral", counting)
    return calls


def test_one_diagonalization_per_command(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, one_qubit_run_config(n_steps=6))
    run = tmp_path / "run"
    calls = count_spectral_calls(monkeypatch)
    assert main(["run", "--config", str(path), "--out", str(run)]) == EXIT_OK
    assert len(calls) == 1
    calls.clear()
    assert main(["compare", "--run", str(run), "--out", str(tmp_path / "c.csv")]) == EXIT_OK
    assert len((tmp_path / "c.csv").read_text().splitlines()) == 8  # header + 7 rows
    assert len(calls) == 1
    calls.clear()
    mi = {
        "algorithm": "mutualinfo",
        "model": {"name": "tfi_1d",
                  "params": {"n_qubits": 3, "coupling": -1.0, "field": -1.25}},
        "mutualinfo": {"betas": [0.0, 0.5, 1.0, 4.0], "pairs": "all"},
    }
    execute_run(mi, tmp_path / "mi")
    assert len(calls) == 1
    assert len((tmp_path / "mi" / "mutualinfo.csv").read_text().splitlines()) == 13


def test_compare_qlanczos_bound_column(tmp_path, monkeypatch, capsys):
    import qitekit.cli

    cfg = {
        "algorithm": "qlanczos",
        "model": {"name": "heisenberg_1d", "params": {"n_qubits": 2}},
        "qlanczos": {
            "qite": {"dtau": 0.1, "n_steps": 10, "domain_size": 2,
                     "pool_kind": "pauli_odd_y", "b_mode": "exact_delta0"},
            "overlap_threshold": 0.999999999999,
            "eig_cutoff": 1e-8,
        },
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    main(["run", "--config", str(path), "--out", str(out)])

    def refuse(*args, **kwargs):  # qlanczos rows read no oracle of H
        raise AssertionError("compare on a qlanczos run diagonalized H")

    monkeypatch.setattr(qitekit.cli, "spectral", refuse)
    csv_out = tmp_path / "table.csv"
    code = main(["compare", "--run", str(out), "--out", str(csv_out)])
    assert code == EXIT_OK
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "run,beta,e_qite,e_qlanczos,bound_ok,delta_vs_first"
    for line in lines[1:]:
        assert line.split(",")[4] == "1"


def test_compare_rejects_mismatched_runs(tmp_path, capsys):
    p1 = write_config(tmp_path, one_qubit_run_config(n_steps=5), "a.json")
    cfg2 = one_qubit_run_config(n_steps=5)
    cfg2["model"]["params"]["alpha"] = 0.5
    p2 = write_config(tmp_path, cfg2, "b.json")
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    main(["run", "--config", str(p1), "--out", str(o1)])
    main(["run", "--config", str(p2), "--out", str(o2)])
    assert main(["compare", "--run", str(o1), "--run", str(o2)]) == EXIT_CONFIG
    assert f"error: {o2}: " in capsys.readouterr().err
    # unfinished directory is also a config error
    assert main(["compare", "--run", str(tmp_path / "missing")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "model, spelled",
    [({"name": "maxcut_six"}, {"initial_state": "plus"}),
     ({"name": "heisenberg_1d", "params": {"n_qubits": 2}},
      {"model": {"name": "heisenberg_1d", "params": {"n_qubits": 2, "coupling": 1.0}}})],
    ids=["default-initial-state", "default-coupling"],
)
def test_compare_matches_runs_by_what_they_build(tmp_path, capsys, model, spelled):
    # a config that spells out a default builds the same model and start state
    cfg = {"algorithm": "qite", "model": model, "qite": {"n_steps": 2}}
    runs = []
    for name, payload in (("plain", cfg), ("spelled", {**cfg, **spelled})):
        runs.append(tmp_path / name)
        path = write_config(tmp_path, payload, f"{name}.json")
        assert main(["run", "--config", str(path), "--out", str(runs[-1])]) == EXIT_OK
    capsys.readouterr()
    assert main(["compare", "--run", str(runs[0]), "--run", str(runs[1])]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 6 and all(float(row.split(",")[-1]) == 0.0 for row in rows)

def _edit_manifest(run, edit):
    manifest = json.loads((run / "manifest.json").read_text())
    edit(manifest)
    (run / "manifest.json").write_text(json.dumps(manifest))


COMPARE_RUN_CONFIGS = {
    "qite": one_qubit_run_config(n_steps=5),
    "qlanczos": section_config("qlanczos", qite={"n_steps": 3, "pool_kind": "pauli_odd_y"}),
    "qmetts": section_config("qmetts", **QMETTS_OK),
    "mutualinfo": section_config("mutualinfo", betas=[0.0, 1.0]),
}

# (algorithm, damage done to the first run, config of a later run or None)
COMPARE_REFUSALS = {
    "manifest-not-json": ("qite", lambda run: (run / "manifest.json").write_text("{"), None),
    "config-without-model": (
        "qite", lambda run: _edit_manifest(run, lambda m: m["config"].pop("model")), None
    ),
    "qite-csv-missing": ("qite", lambda run: (run / "qite.csv").unlink(), None),
    "qlanczos-csv-missing": ("qlanczos", lambda run: (run / "qlanczos.csv").unlink(), None),
    "summary-missing": ("qmetts", lambda run: (run / "summary.json").unlink(), None),
    "later-run-has-a-sweep-the-first-lacks": (
        "qite", lambda run: None, one_qubit_run_config(n_steps=6)
    ),
    "run-did-not-complete": (
        "qite", lambda run: _edit_manifest(run, lambda m: m.update(status="started")), None
    ),
    "compare-not-defined-for-mutualinfo": ("mutualinfo", lambda run: None, None),
}


@pytest.mark.parametrize("name", sorted(COMPARE_REFUSALS))
def test_compare_refuses_unreadable_runs(tmp_path, capsys, name):
    algorithm, damage, later = COMPARE_REFUSALS[name]
    runs = [tmp_path / "first", tmp_path / "later"][: 1 + (later is not None)]
    for run, config in zip(runs, (COMPARE_RUN_CONFIGS[algorithm], later)):
        execute_run(config, run)
    damage(runs[0])
    argv = ["compare"] + [arg for run in runs for arg in ("--run", str(run))]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    # the refusal names the damaged run, or the later run and the first
    assert err.startswith(f"error: {runs[-1]}") and str(runs[0]) in err
    assert "Traceback" not in err


def test_compare_qmetts_row_against_the_gibbs_average(tmp_path, capsys):
    config = COMPARE_RUN_CONFIGS["qmetts"]
    run = tmp_path / "run"
    execute_run(config, run)
    capsys.readouterr()
    assert main(["compare", "--run", str(run)]) == EXIT_OK
    header, line = capsys.readouterr().out.splitlines()
    assert header == "run,beta,mean,stderr_block,gibbs_exact,delta,within_3_stderr"
    row = dict(zip(header.split(","), line.split(",")))
    summary = json.loads((run / "summary.json").read_text())
    gibbs = gibbs_average(build_model(config["model"]), QMETTS_OK["beta"])
    assert row["run"] == str(run) and float(row["beta"]) == QMETTS_OK["beta"]
    assert abs(float(row["gibbs_exact"]) - gibbs) < 1e-12
    assert abs(float(row["delta"]) - (summary["mean"] - gibbs)) < 1e-12
    within = abs(summary["mean"] - gibbs) <= 3 * summary["stderr_block"]
    assert row["within_3_stderr"] == str(int(within))


def _edit_text(path, old, new):
    path.write_text(path.read_text().replace(old, new, 1))


def _replace_first_cell(path, column, text):
    rows = list(csv.DictReader(path.read_text().splitlines()))
    rows[0][column] = text
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _drop_summary_key(path, key):
    summary = json.loads(path.read_text())
    summary.pop(key)
    path.write_text(json.dumps(summary))


# (algorithm, file, damage to it, the key the refusal names)
COMPARE_MALFORMED = {
    "csv-without-its-column": (
        "qite", "qite.csv", lambda path: _edit_text(path, "energy", "energi"), "energy"
    ),
    "csv-cell-not-a-number": (
        "qlanczos", "qlanczos.csv", lambda path: _replace_first_cell(path, "e_qite", "n/a"),
        "e_qite",
    ),
    "summary-without-stderr_block": (
        "qmetts", "summary.json", lambda path: _drop_summary_key(path, "stderr_block"),
        "stderr_block",
    ),
}


@pytest.mark.parametrize("name", sorted(COMPARE_MALFORMED))
def test_compare_refuses_malformed_run_tables(tmp_path, capsys, name):
    algorithm, file_name, damage, key = COMPARE_MALFORMED[name]
    run = tmp_path / "run"
    execute_run(COMPARE_RUN_CONFIGS[algorithm], run)
    damage(run / file_name)
    assert main(["compare", "--run", str(run)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / file_name}") and key in err
    assert "Traceback" not in err


# ------------------------------------------------------------------ batch


def test_batch_run_places_subdirs(tmp_path, capsys):
    p1 = write_config(tmp_path, one_qubit_run_config(n_steps=5), "alpha.json")
    p2 = write_config(tmp_path, one_qubit_run_config(n_steps=6), "bravo.json")
    out = tmp_path / "batch"
    code = main(["run", "--config", str(p1), "--config", str(p2), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "alpha" / "summary.json").exists()
    assert (out / "bravo" / "summary.json").exists()
    printed = capsys.readouterr().out
    assert "alpha.json" in printed and "bravo.json" in printed


def test_batch_run_validates_each_config_once(tmp_path, monkeypatch):
    import qitekit.cli as cli_module

    origins = []
    original = cli_module.validate_config
    monkeypatch.setattr(
        cli_module,
        "validate_config",
        lambda *args: origins.append(args[1]) or original(*args),
    )
    p1 = write_config(tmp_path, one_qubit_run_config(n_steps=2), "alpha.json")
    p2 = write_config(tmp_path, one_qubit_run_config(n_steps=2), "bravo.json")
    out = tmp_path / "batch"
    assert main(["run", "--config", str(p1), "--config", str(p2), "--out", str(out)]) == EXIT_OK
    assert origins == [str(p1), str(p2)]


def test_batch_run_same_stem_collision(tmp_path):
    sub1, sub2 = tmp_path / "d1", tmp_path / "d2"
    sub1.mkdir(), sub2.mkdir()
    p1 = write_config(sub1, one_qubit_run_config(n_steps=5), "same.json")
    p2 = write_config(sub2, one_qubit_run_config(n_steps=5), "same.json")
    out = tmp_path / "batch"
    assert main(["run", "--config", str(p1), "--config", str(p2), "--out", str(out)]) == EXIT_OK
    assert (out / "same" / "summary.json").exists()
    assert (out / "same_2" / "summary.json").exists()


def test_batch_run_gives_every_config_its_own_directory(tmp_path):
    # a stem a later config already spells with a suffix takes the next free _k
    (tmp_path / "x").mkdir(), (tmp_path / "y").mkdir()
    paths = [write_config(tmp_path / "x", one_qubit_run_config(n_steps=1), "a.json"),
             write_config(tmp_path / "y", one_qubit_run_config(n_steps=2), "a.json"),
             write_config(tmp_path, one_qubit_run_config(n_steps=3), "a_2.json")]
    out = tmp_path / "batch"
    argv = ["run", "--out", str(out)]
    for path in paths:
        argv += ["--config", str(path)]
    assert main(argv) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["a", "a_2", "a_2_2"]
    for name, n_steps in (("a", 1), ("a_2", 2), ("a_2_2", 3)):
        sweeps = (out / name / "qite.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in sweeps] == [str(l) for l in range(n_steps + 1)]


# ------------------------------------------- runs that draw no random numbers

_IMPORT_PROBE = """
import json, sys
from pathlib import Path
import qitekit.cli as cli

configs, qite10, out = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
for path in sorted(configs.glob("*.json")):
    cli.load_config(path)
runs = (qite10, configs / "c09_mutualinfo_tfi8.json", configs / "c07_count_k4_t7.json",
        *sorted(configs.glob("c06_qmetts_*.json")))
codes = [cli.main(["run", "--config", str(path), "--out", str(out / str(k))])
         for k, path in enumerate(runs)]
quiet = "numpy.random" not in sys.modules
codes.append(cli.main(["run", "--config", str(configs / "c05_qlanczos_noisy.json"),
                       "--out", str(out / "noisy")]))
print(json.dumps({"codes": codes, "quiet": quiet,
                  "noisy_imports": "numpy.random" in sys.modules}))
"""


def test_only_noisy_runs_import_numpy_random(tmp_path):
    # numpy.random costs 9-14 ms and about 6 MB to import (numpy 2.4.6, 2-core
    # host): validating every shipped config, a noiseless 10-qubit qite run
    # (Lanczos ground oracle), a mutualinfo, a count and every shipped qmetts
    # run, whose draws come from the stream, leave it unimported; a noisy
    # qlanczos run draws Gaussian noise from numpy's generator and imports it
    qite10 = write_config(tmp_path, heisenberg_config("qite", 10, 1))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(CONFIG_DIR), str(qite10), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    report = json.loads(probe.stdout.splitlines()[-1])
    assert report == {"codes": [EXIT_OK] * 8, "quiet": True, "noisy_imports": True}
    manifest = json.loads((tmp_path / "out" / "0" / "manifest.json").read_text())
    assert manifest["oracle"]["route"] == "lanczos"


# ------------------------------------------- small checked-in configs run


def test_small_checked_in_configs_execute(tmp_path):
    for name in ("c03_heisenberg4_pool_odd_y.json", "c05_qlanczos_noisy.json"):
        config = load_config(CONFIG_DIR / name)
        summary = execute_run(config, tmp_path / name.replace(".json", ""))
        assert summary["algorithm"] in ("qite", "qlanczos")
