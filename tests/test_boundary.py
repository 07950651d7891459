"""The scenario boundary: fields are checked once, below it the math runs plain.

Every validated type and per-point entry point accepts Python or numpy
real scalars, stores Python floats, and raises DomainError for anything
else; the per-point success functions never build a BinaryThresholdSpec
or a ThresholdChannel.  Also pins the package root's name list.
"""

import contextlib
import importlib
import io
import math

import numpy as np
import pytest

import srbosonic
from srbosonic import cli, schemes, threshold
from srbosonic.errors import DomainError
from srbosonic.private_rate import (
    EveEnsemble,
    PrivateScenario,
    eve_ensemble,
    holevo_chi,
    private_rate,
)
from srbosonic.qubit import QuantumCommParams, average_fidelity
from srbosonic.schemes import (
    SITE_SENDER,
    ClassicalScenario,
    DiscriminationScenario,
    EAScenario,
    classical_channel,
    success_classical,
    success_discrimination,
    success_ea,
    sweep_success,
)
from srbosonic.threshold import BinaryThresholdSpec, build_channel

SUBMODULES = ("errors", "threshold", "rootfind", "schemes", "qubit", "fock", "private_rate")
NON_FINITE = [math.nan, math.inf, -math.inf]

CLASSICAL = ClassicalScenario(eta=0.8, alpha_q=1.0)
EA = EAScenario(eta=0.8, r=0.3, prior_q=0.5, prior_p=0.25, alpha_q=1.0, alpha_p=0.5,
                theta_q=1.2, theta_p=-0.4)
DISCRIMINATION = DiscriminationScenario(eta0=0.9, eta1=0.4, alpha_q=1.5)
PRIVATE = PrivateScenario(base=ClassicalScenario(eta=0.8, alpha_q=1.0, noise_site=SITE_SENDER),
                          theta=1.0)

# each entry point with (theta, sigma2) in that order of arguments
PER_POINT = {
    "success_classical": lambda theta, sigma2: success_classical(CLASSICAL, theta, sigma2),
    "classical_channel": lambda theta, sigma2: classical_channel(CLASSICAL, theta, sigma2),
    "success_discrimination":
        lambda theta, sigma2: success_discrimination(DISCRIMINATION, theta, sigma2),
    "private_rate": lambda theta, sigma2: private_rate(
        PrivateScenario(base=PRIVATE.base, theta=theta), sigma2),
}


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", sorted(PER_POINT))
    def test_theta(self, name, bad):
        with pytest.raises(DomainError, match="theta must be finite"):
            PER_POINT[name](bad, 0.25)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", sorted(PER_POINT))
    def test_sigma2(self, name, bad):
        with pytest.raises(DomainError):
            PER_POINT[name](1.0, bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_success_ea(self, bad):
        with pytest.raises(DomainError):
            success_ea(EA, bad, 0.25)
        with pytest.raises(DomainError):
            success_ea(EA, 0.25, bad)
        with pytest.raises(DomainError, match="theta_q must be finite"):
            EAScenario(**{**vars(EA), "theta_q": bad})


def numpy_twins(value):
    """np.float32 (exact for these inputs) and, for whole numbers, np.int64."""
    twins = [np.float32(value), np.float64(value)]
    if float(value).is_integer():
        twins.append(np.int64(value))
    return twins


def assert_plain_fields(obj, names):
    for name in names:
        value = getattr(obj, name)
        assert type(value) is float, (name, type(value))


class TestNumpyScalars:
    """Numpy scalars give the result of the equal Python float, stored as float."""

    CLASSICAL_FIELDS = dict(eta=0.5, alpha_q=1.0, r=0.25, prior0=0.75)

    @pytest.mark.parametrize("field", sorted(CLASSICAL_FIELDS))
    def test_classical_scenario(self, field):
        plain = ClassicalScenario(**self.CLASSICAL_FIELDS)
        for twin in numpy_twins(self.CLASSICAL_FIELDS[field]):
            s = ClassicalScenario(**{**self.CLASSICAL_FIELDS, field: twin})
            assert_plain_fields(s, self.CLASSICAL_FIELDS)
            assert s == plain
            assert success_classical(s, np.float32(0.5), np.int64(1)) == success_classical(
                plain, 0.5, 1.0)

    def test_ea_scenario(self):
        fields = dict(eta=0.5, r=0.25, prior_q=0.5, prior_p=0.25, alpha_q=1.0,
                      alpha_p=2.0, theta_q=1.5, theta_p=-0.5)
        plain = EAScenario(**fields)
        s = EAScenario(**{k: np.float32(v) for k, v in fields.items()})
        assert_plain_fields(s, fields)
        assert s == plain
        assert success_ea(s, np.float32(0.25), np.int64(2)) == success_ea(plain, 0.25, 2.0)

    def test_discrimination_scenario(self):
        fields = dict(eta0=0.75, eta1=0.25, alpha_q=2.0, r=0.5, prior0=0.5)
        plain = DiscriminationScenario(**fields)
        s = DiscriminationScenario(**{
            k: np.int64(v) if k == "alpha_q" else np.float32(v) for k, v in fields.items()})
        assert_plain_fields(s, fields)
        assert s == plain
        assert success_discrimination(s, np.int64(2), np.float32(0.25)) == (
            success_discrimination(plain, 2.0, 0.25))

    def test_threshold_spec(self):
        fields = dict(mean0=-1.0, mean1=1.0, var0=0.5, var1=0.75, theta=0.25, prior0=0.5)
        plain = BinaryThresholdSpec(**fields)
        spec = BinaryThresholdSpec(**{k: np.float32(v) for k, v in fields.items()})
        assert_plain_fields(spec, fields)
        assert spec == plain
        assert build_channel(spec) == build_channel(plain)

    def test_quantum_params(self):
        plain = QuantumCommParams(x0=0.5, theta=0.75, sigma2=1.0)
        p = QuantumCommParams(x0=np.float32(0.5), theta=np.float32(0.75), sigma2=np.int64(1))
        assert_plain_fields(p, ("x0", "theta", "sigma2"))
        assert p == plain
        assert average_fidelity(p) == average_fidelity(plain)

    @pytest.mark.parametrize("twin", numpy_twins(1.0))
    def test_private_layer(self, twin):
        s = PrivateScenario(base=PRIVATE.base, theta=twin)
        assert type(s.theta) is float
        assert s == PRIVATE
        assert private_rate(s, twin) == private_rate(PRIVATE, 1.0)
        plain_ensemble = eve_ensemble(PRIVATE, 1.0)
        ensemble = eve_ensemble(PRIVATE, twin)
        assert holevo_chi(ensemble) == holevo_chi(plain_ensemble)

    def test_private_rate_float32_sigma2(self):
        # a numpy scalar the type checks of the private layer used to refuse
        assert private_rate(PRIVATE, np.float32(0.25)) == private_rate(PRIVATE, 0.25)

    @pytest.mark.parametrize("prior0", [np.float32(0.25), np.int64(1)])
    def test_eve_ensemble_prior(self, prior0):
        e = eve_ensemble(PRIVATE, 0.25)
        mixed = EveEnsemble(e.state0, e.state1, prior0)
        assert type(mixed.prior0) is float
        assert holevo_chi(mixed) == holevo_chi(EveEnsemble(e.state0, e.state1, float(prior0)))


class TestNonRealRejected:
    @pytest.mark.parametrize("bad", ["0.8", None, 0.8 + 0j, [0.8]])
    def test_classical_scenario(self, bad):
        with pytest.raises(DomainError, match="eta must be real"):
            ClassicalScenario(eta=bad, alpha_q=1)

    @pytest.mark.parametrize("make", [
        lambda: EAScenario(eta=0.8, r=0.0, prior_q="0.5", prior_p=0.5, alpha_q=1.0,
                           alpha_p=1.0, theta_q=0.0, theta_p=0.0),
        lambda: DiscriminationScenario(eta0=0.9, eta1=0.4, alpha_q=None),
        lambda: BinaryThresholdSpec(mean0=-1.0, mean1=1.0, var0=1.0, var1=1.0,
                                    theta="0", prior0=0.5),
        lambda: QuantumCommParams(x0=0.3, theta=0.2, sigma2=1j),
        lambda: PrivateScenario(base=CLASSICAL, theta="1.0"),
        lambda: eve_ensemble(PRIVATE, "0.25"),
        lambda: success_classical(CLASSICAL, "0.5", 0.25),
        lambda: success_discrimination(DISCRIMINATION, 2.0, None),
        lambda: sweep_success(CLASSICAL, 0.5, ["0", "1"]),
    ])
    def test_other_entry_points(self, make):
        with pytest.raises(DomainError, match="must be real"):
            make()


def _forbid(*_args, **_kwargs):
    raise AssertionError("per-point spec or channel built")


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


class TestNoPerPointSpec:
    """success_* take both tails from the plain core, not from validated types."""

    CALLS = [
        lambda: success_classical(CLASSICAL, 0.85, 0.25),
        lambda: success_ea(EA, 0.25, 1.0),
        lambda: success_discrimination(DISCRIMINATION, 2.0, 0.25),
        lambda: sweep_success(CLASSICAL, 1.2, [0.0, 0.5, 1.0]).values,
        lambda: sweep_success(DISCRIMINATION, 2.0, [0.0, 0.5, 1.0]).values,
    ]
    ARGVS = [
        ["sweep", "--eta", "0.8", "--alpha-q", "1", "--theta", "0.85,1.35",
         "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.25"],
        ["discriminate", "--eta0", "0.9", "--eta1", "0.4", "--alpha-q", "1.5",
         "--theta", "2.0", "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.5"],
    ]

    @pytest.fixture
    def forbidden(self, monkeypatch):
        def patch():
            monkeypatch.setattr(schemes, "BinaryThresholdSpec", _forbid)
            monkeypatch.setattr(threshold, "ThresholdChannel", _forbid)
        return patch

    @pytest.mark.parametrize("index", range(len(CALLS)))
    def test_library(self, index, forbidden):
        call = self.CALLS[index]
        want = call()
        forbidden()
        assert call() == want

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: argv[0])
    def test_cli(self, argv, forbidden):
        want = _cli_stdout(argv)
        forbidden()
        assert _cli_stdout(argv) == want


class TestPackageRoot:
    def test_all_is_version_plus_submodule_names(self):
        modules = [importlib.import_module(f"srbosonic.{name}") for name in SUBMODULES]
        names = [name for module in modules for name in module.__all__]
        assert len(names) == len(set(names))
        assert sorted(srbosonic.__all__) == sorted(["__version__"] + names)

    def test_each_root_name_is_the_submodule_object(self):
        for module_name in SUBMODULES:
            module = importlib.import_module(f"srbosonic.{module_name}")
            for name in module.__all__:
                assert getattr(srbosonic, name) is getattr(module, name), name

    def test_private_rate_is_the_function(self):
        assert srbosonic.private_rate is private_rate
