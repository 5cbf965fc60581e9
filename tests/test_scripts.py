"""The example scripts under ``scripts/`` run end to end at tiny sizes."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_forge_and_edit_demo(tmp_path, capsys):
    demo = load_script("forge_and_edit_demo")
    rc = demo.main(["--root", str(tmp_path), "--steps", "2", "--items-per-task", "1"])
    capsys.readouterr()
    assert rc == 0
    for name in ("model.ckpt", "loss.csv", "edited.wav", "generated.wav", "eval.json"):
        assert (tmp_path / name).is_file()


def test_toy_modes_experiment(tmp_path, capsys):
    experiment = load_script("toy_modes_experiment")
    out = tmp_path / "modes.json"
    rc = experiment.main(["--quick", "--per-class", "5", "--sampler-steps", "4",
                          "--json", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert [run["guidance"] for run in json.loads(out.read_text())["runs"]] == [6.0, 1.0]
