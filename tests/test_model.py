"""Config model: validation rules, JSON round trips, digests, unit helpers."""

import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import given, strategies as st

from photonstat import acceptance
from photonstat.model import (
    ChargeComplex,
    ChargeTag,
    DetectorSpec,
    EmitterSpec,
    ExcitationMode,
    ExcitationSpec,
    ExperimentConfig,
    OpticalChain,
    config_digest,
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    energy_to_wavelength_nm,
    paper_device_defaults,
    validate,
    wavelength_to_energy_mev,
)


@pytest.fixture
def config():
    return paper_device_defaults()


def _replace_emitter(config, **kw):
    return dataclasses.replace(config, emitter=dataclasses.replace(config.emitter, **kw))


class TestValidate:
    def test_defaults_are_valid(self, config):
        assert validate(config) == []

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda c: _replace_emitter(c, tau_fast=-1.0), "emitter.tau_fast"),
            (lambda c: _replace_emitter(c, tau_fast=40.0), "emitter.tau_slow"),
            (lambda c: _replace_emitter(c, slow_branch_fraction=1.5), "emitter.slow_branch_fraction"),
            (lambda c: _replace_emitter(c, dark_fraction=-0.2), "emitter.dark_fraction"),
            (lambda c: _replace_emitter(c, homogeneous_linewidth=-0.1), "emitter.homogeneous_linewidth"),
            (lambda c: _replace_emitter(c, complexes=()), "emitter.complexes"),
            (
                lambda c: dataclasses.replace(
                    c, excitation=dataclasses.replace(c.excitation, power_ratio=-1.0)
                ),
                "excitation.power_ratio",
            ),
            (
                lambda c: dataclasses.replace(
                    c, excitation=dataclasses.replace(c.excitation, recapture_time=0.0)
                ),
                "excitation.recapture_time",
            ),
            (
                lambda c: dataclasses.replace(
                    c, chain=dataclasses.replace(c.chain, transmission=1.2)
                ),
                "chain.transmission",
            ),
            (lambda c: dataclasses.replace(c, detectors=()), "detectors"),
            (
                lambda c: dataclasses.replace(
                    c, detectors=(DetectorSpec(efficiency=2.0, jitter_fwhm=0.0),)
                ),
                "detectors[0].efficiency",
            ),
            (lambda c: dataclasses.replace(c, duration=0.0), "duration"),
            (lambda c: dataclasses.replace(c, rng_seed=1.5), "rng_seed"),
        ],
    )
    def test_single_violation_names_the_field(self, config, mutate, field):
        violations = mutate(config)
        fields = [v.field for v in validate(violations)]
        assert field in fields

    def test_intensities_must_sum_to_one(self, config):
        cfg = _replace_emitter(
            config,
            complexes=(
                ChargeComplex(tag=ChargeTag.XMINUS, emission_energy=1264.0, relative_intensity=0.7),
                ChargeComplex(tag=ChargeTag.X, emission_energy=1268.0, relative_intensity=0.7),
            ),
        )
        assert any("sum to 1" in v.rule for v in validate(cfg))

    def test_duplicate_energies_rejected(self, config):
        cfg = _replace_emitter(
            config,
            complexes=(
                ChargeComplex(tag=ChargeTag.XMINUS, emission_energy=1264.0, relative_intensity=0.5),
                ChargeComplex(tag=ChargeTag.X, emission_energy=1264.0, relative_intensity=0.5),
            ),
        )
        assert any("distinct" in v.rule for v in validate(cfg))

    def test_nan_is_a_violation_not_a_crash(self, config):
        cfg = _replace_emitter(config, tau_fast=float("nan"))
        assert any(v.field == "emitter.tau_fast" for v in validate(cfg))

    @pytest.mark.parametrize("seed, ok", [(-1, False), (2**64, False), (0, True), (2**64 - 1, True)])
    def test_seed_must_fit_the_64_bit_substream_key(self, config, seed, ok):
        # Seeds are keyed modulo 2^64, so -1 and 2^64 - 1 would draw alike.
        fields = [v.field for v in validate(dataclasses.replace(config, rng_seed=seed))]
        assert ("rng_seed" not in fields) is ok

    @pytest.mark.parametrize(
        "mode, duration, ok",
        [
            (ExcitationMode.PULSED, 0.4, False),
            (ExcitationMode.PULSED, 0.5, False),  # rounds half to even: 0 pulses
            (ExcitationMode.PULSED, 0.6, True),
            (ExcitationMode.PULSED, float("nan"), False),
            (ExcitationMode.CW, 0.4, True),
            (ExcitationMode.CW, float("nan"), False),
        ],
    )
    def test_pulsed_duration_must_round_to_a_pulse(self, config, mode, duration, ok):
        cfg = dataclasses.replace(
            config, excitation=dataclasses.replace(config.excitation, mode=mode), duration=duration
        )
        assert [v.field for v in validate(cfg)] == ([] if ok else ["duration"])

    @pytest.mark.parametrize(
        "mode, duration, jitter, fields",
        [
            (ExcitationMode.PULSED, 60_000, 1e30, ["detectors[0].jitter_fwhm"]),
            # 1e6 pulses at 80 MHz end at 1.25e16 ps; 2^63 ps is 9.22e18
            (ExcitationMode.PULSED, 1_000_000, 4e17, []),
            (ExcitationMode.PULSED, 1_000_000, 5e17, ["detectors[0].jitter_fwhm"]),
            (ExcitationMode.CW, 1e6, 4e17, []),
            (ExcitationMode.CW, 2e6, 4e17, ["detectors[0].jitter_fwhm"]),
            # a run with no end is the duration's fault alone
            (ExcitationMode.PULSED, float("nan"), 1e30, ["duration"]),
        ],
    )
    def test_jitter_must_keep_click_times_inside_int64(self, config, mode, duration, jitter, fields):
        cfg = dataclasses.replace(
            config,
            excitation=dataclasses.replace(config.excitation, mode=mode),
            detectors=(dataclasses.replace(config.detectors[0], jitter_fwhm=jitter),
                       config.detectors[1]),
            duration=duration,
        )
        assert [v.field for v in validate(cfg)] == fields

    def test_longest_criteria_runs_still_validate(self, config):
        # The criteria tests run every acceptance config through the engine's
        # validation, test_scripts the scripts' and test_benchmark_interface
        # the benchmark's; these are the criteria's longest runs.
        pulsed = acceptance._hbt_config(80e6, 0.1, 0.40, 0.1, 200.0, 16_000_000, seed=505)
        cw = dataclasses.replace(
            config, excitation=dataclasses.replace(config.excitation, mode=ExcitationMode.CW),
            duration=20.0)
        assert validate(pulsed) == validate(cw) == []

    def test_multiple_violations_all_reported(self, config):
        cfg = dataclasses.replace(
            _replace_emitter(config, tau_fast=-1.0), duration=-5.0
        )
        fields = {v.field for v in validate(cfg)}
        assert {"emitter.tau_fast", "duration"} <= fields


class TestJsonRoundtrip:
    def test_roundtrip_identity(self, config):
        assert config_from_json(config_to_json(config)) == config

    def test_dict_roundtrip_identity(self, config):
        assert config_from_dict(config_to_dict(config)) == config

    def test_mode_serialized_as_string(self, config):
        data = config_to_dict(config)
        assert data["excitation"]["mode"] == "Pulsed"
        cw = config_from_dict({**data, "excitation": {**data["excitation"], "mode": "CW"}})
        assert cw.excitation.mode is ExcitationMode.CW

    def test_unknown_mode_rejected(self, config):
        data = config_to_dict(config)
        data["excitation"]["mode"] = "strobe"
        with pytest.raises(ValueError):
            config_from_dict(data)

    def test_unknown_top_level_key_rejected(self, config):
        data = config_to_dict(config)
        data["surplus"] = 1
        with pytest.raises(ValueError, match="surplus"):
            config_from_dict(data)

    def test_unknown_nested_key_rejected_with_path(self, config):
        data = config_to_dict(config)
        data["emitter"]["oops"] = 1
        with pytest.raises(ValueError, match="emitter"):
            config_from_dict(data)

    def test_missing_key_rejected_with_path(self, config):
        data = config_to_dict(config)
        del data["emitter"]["tau_fast"]
        with pytest.raises(ValueError, match="tau_fast"):
            config_from_dict(data)

    def test_wrong_type_rejected_with_path(self, config):
        data = config_to_dict(config)
        data["emitter"]["tau_fast"] = "fast"
        with pytest.raises(ValueError, match="emitter.tau_fast"):
            config_from_dict(data)

    def test_malformed_json_reports_location(self):
        with pytest.raises(ValueError, match="line"):
            config_from_json('{"emitter": }')


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


def _set(*path, value):
    def mutate(data):
        _parent(data, path)[path[-1]] = value
    return mutate


def _del(*path):
    def mutate(data):
        del _parent(data, path)[path[-1]]
    return mutate


def _both(first, second):
    def mutate(data):
        first(data)
        second(data)
    return mutate


class TestSchemaPins:
    """The canonical form and the error texts, as recorded before the
    (de)serializer was derived from the dataclasses."""

    def test_stock_digest(self, config):
        # the stock duration is built as the int 1_000_000 and dumps as 1e6
        assert config_digest(config) == (
            "41db44f8583a957ef0ab2881b2d6f8cf52c79ff2d971b4579e6d4338d030a5f3"
        )

    def test_stock_canonical_json(self, config):
        assert hashlib.sha256(config_to_json(config).encode()).hexdigest() == (
            "79c8d00a173143bc221d8e4d307b38c90f80504d59ac8848e95420e12fb93286"
        )

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: [], "config: expected an object"),
            (_set("emitter", value=1), "emitter: expected an object"),
            (_set("emitter", "complexes", 0, value="x"), "emitter.complexes[0]: expected an object"),
            (_set("detectors", 1, value=[]), "detectors[1]: expected an object"),
            (_set("emitter", "complexes", value={}), "emitter.complexes: expected a list"),
            (_set("detectors", value=3), "detectors: expected a list"),
            (_set("duration", value="x"), "duration: expected a number"),
            (
                _set("emitter", "complexes", 1, "emission_energy", value=True),
                "emitter.complexes[1].emission_energy: expected a number",
            ),
            (_set("detectors", 0, "dead_time", value=None), "detectors[0].dead_time: expected a number"),
            (_set("excitation", "rep_rate", value="80e6"), "excitation.rep_rate: expected a number"),
            (_set("rng_seed", value=1.5), "rng_seed: expected an integer"),
            (_set("rng_seed", value=True), "rng_seed: expected an integer"),
            (_set("surplus", value=1), "config: unknown key(s) ['surplus']"),
            (_set("emitter", "oops", value=1), "emitter: unknown key(s) ['oops']"),
            (
                _set("detectors", 0, "dark_count_rate", value=0.0),
                "detectors[0]: unknown key(s) ['dark_count_rate']",
            ),
            (_del("rng_seed"), "config: missing key(s) ['rng_seed']"),
            (_del("detectors", 0, "dead_time"), "detectors[0]: missing key(s) ['dead_time']"),
            (_del("emitter", "complexes", 1, "tag"), "emitter.complexes[1]: missing key(s) ['tag']"),
            (
                _set("emitter", "complexes", 0, "tag", value="Y"),
                "emitter.complexes[0].tag: unknown tag 'Y'; expected one of "
                "['X', 'Xminus', 'XX', 'XminusStar', 'Xminus2']",
            ),
            (
                _set("excitation", "mode", value="strobe"),
                "excitation.mode: unknown mode 'strobe'; expected one of ['CW', 'Pulsed']",
            ),
            (_both(_set("chain", "extra", value=1), _del("chain", "beta")), "chain: unknown key(s) ['extra']"),
        ],
    )
    def test_single_fault_message(self, config, mutate, message):
        data = config_to_dict(config)
        replaced = mutate(data)
        with pytest.raises(ValueError) as exc:
            config_from_dict(data if replaced is None else replaced)
        assert str(exc.value) == message


class TestFiniteNumbers:
    @pytest.mark.parametrize(
        "mutate, path",
        [
            (_set("duration", value=10**400), "duration"),
            (_set("duration", value=-(10**400)), "duration"),
            (_set("duration", value=float("inf")), "duration"),
            (_set("excitation", "rep_rate", value=float("inf")), "excitation.rep_rate"),
            (_set("excitation", "power_ratio", value=float("-inf")), "excitation.power_ratio"),
            (_set("emitter", "tau_slow", value=float("nan")), "emitter.tau_slow"),
            (_set("detectors", 1, "jitter_fwhm", value=float("inf")), "detectors[1].jitter_fwhm"),
            (
                _set("emitter", "complexes", 0, "relative_intensity", value=float("nan")),
                "emitter.complexes[0].relative_intensity",
            ),
        ],
    )
    def test_non_finite_number_is_rejected_with_its_path(self, config, mutate, path):
        data = config_to_dict(config)
        mutate(data)
        with pytest.raises(ValueError) as exc:
            config_from_dict(data)
        assert str(exc.value) == f"{path}: expected a finite number"

    def test_largest_float_and_its_int_pass(self, config):
        big = int(1.7976931348623157e308)
        for value in (1.7976931348623157e308, big):
            data = config_to_dict(config)
            data["excitation"]["rep_rate"] = value
            assert config_from_dict(data).excitation.rep_rate == 1.7976931348623157e308


# Numbers as a JSON file may carry them: finite floats, or ints that a
# float field must coerce.
_numbers = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**6), 10**6)


def _build(cls, **given):
    """Configs of any shape: every field not given is a number."""
    numbers = {f.name: _numbers for f in dataclasses.fields(cls) if f.name not in given}
    return st.builds(cls, **numbers, **given)


_configs = _build(
    ExperimentConfig,
    emitter=_build(
        EmitterSpec,
        complexes=st.lists(
            _build(ChargeComplex, tag=st.sampled_from(ChargeTag)), min_size=1, max_size=3
        ).map(tuple),
    ),
    excitation=_build(ExcitationSpec, mode=st.sampled_from(ExcitationMode)),
    chain=_build(OpticalChain),
    detectors=st.lists(_build(DetectorSpec), min_size=1, max_size=3).map(tuple),
    rng_seed=st.integers(0, 2**64 - 1),
)

# Any JSON value json.loads can return, including NaN, infinities and ints
# past the float range.
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(10**308, 10**400)
    | st.integers(-(10**400), -(10**308))
    | st.floats()
    | st.text(max_size=4)
)
_json_values = _json_leaves | st.recursive(
    _json_leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _slots(node, path=""):
    """(path, parent path, container, key) for every node below ``node``."""
    if isinstance(node, dict):
        items = [(f"{path}.{k}" if path else k, k, v) for k, v in node.items()]
    elif isinstance(node, list):
        items = [(f"{path}[{i}]", i, v) for i, v in enumerate(node)]
    else:
        return
    for child, key, value in items:
        yield child, path, node, key
        yield from _slots(value, child)


class TestSchemaProperties:
    @given(config=_configs)
    def test_json_round_trip_keeps_config_and_digest(self, config):
        back = config_from_json(config_to_json(config))
        assert back == config
        assert config_digest(back) == config_digest(config)

    @given(data=st.data())
    def test_one_bad_node_is_a_value_error_at_its_path(self, data):
        raw = config_to_dict(data.draw(_configs))
        slots = list(_slots(raw))
        path, parent, container, key = data.draw(st.sampled_from([*slots, ("", "", None, None)]))
        if container is None:
            raw, where = data.draw(_json_values), "config"
        elif data.draw(st.booleans()):
            del container[key]
            where = parent or "config"
        else:
            container[key] = data.draw(_json_values)
            where = path
        try:
            config_from_dict(raw)
        except ValueError as exc:
            assert re.match(re.escape(where) + r"[.\[:]", str(exc)), (where, str(exc))


class TestDigest:
    def test_digest_is_key_order_independent(self, config):
        data = config_to_dict(config)
        scrambled = json.loads(json.dumps(data, sort_keys=True)[::1])
        # rebuild with reversed insertion order at the top level
        rebuilt = {k: scrambled[k] for k in reversed(list(scrambled))}
        assert config_digest(config_from_dict(rebuilt)) == config_digest(config)

    def test_digest_changes_with_any_field(self, config):
        other = dataclasses.replace(config, rng_seed=config.rng_seed + 1)
        assert config_digest(other) != config_digest(config)

    def test_digest_is_hex_sha256(self, config):
        d = config_digest(config)
        assert len(d) == 64
        int(d, 16)


class TestUnits:
    def test_energy_wavelength_inverse(self):
        # hc = 1239841.984 meV nm, so E(lambda(E)) is an exact float identity
        # and 1264 meV sits near 980.9 nm.
        assert wavelength_to_energy_mev(energy_to_wavelength_nm(1264.0)) == pytest.approx(
            1264.0, rel=1e-12
        )
        assert energy_to_wavelength_nm(1264.0) == pytest.approx(1239841.984 / 1264.0, rel=0)

    def test_defaults_place_trion_in_filter_band(self, config):
        lam = energy_to_wavelength_nm(1264.0)
        assert abs(lam - config.chain.filter_center) <= 0.5 * config.chain.filter_bandwidth
